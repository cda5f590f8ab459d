"""Program identifiers, clauses, composition expressions, indexed programs.

A LogicWeb program is a set of clauses obtained by translating a web page;
it is named by how it was retrieved (`lw(head, URL)`, `lw(get, URL)`,
`lw(post(Fields), URL)`). Goals run against a *composition expression* over
such programs. Clause bodies and goals stay plain terms: the expression of
a context switch may still contain logic variables, so it is only read as
an expression at evaluation time. Each expression node works out its
program ids, size and hash from its parts when it is built.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

from . import syntax
from .terms import (TRUE_ATOM, Atom, Record, Str, Struct, Substitution, Term,
                    Var, _set, functor_of, make_list, proper_list, rename_apart)


class ExpressionError(ValueError):
    """A term in context position does not denote a valid composition."""


class ProgramExpression(Record):
    """A composition expression. `ids`: its program ids, each once, in
    left-to-right leaf order, the order a context switch vets and fetches
    them in. `size`: its leaves, ids and empty programs alike, counted.
    `to_term()`: the node written as a term."""

    __slots__ = ()
    ids: tuple = ()
    size = 1


# ---------------------------------------------------------------- identifiers

class ProgramId(ProgramExpression):
    """A program, named by how it was retrieved, post fields in order; also
    an expression leaf. Its hash is computed once: ids key many dicts."""

    __slots__ = ("method", "url", "post_fields", "_hash")

    def __init__(self, method: str, url: str,
                 post_fields: tuple[tuple[str, str], ...] = ()):
        if method not in ("head", "get", "post"):
            raise ExpressionError(f"bad retrieval method {method!r}")
        if not url:
            raise ExpressionError("empty URL")
        if method != "post" and post_fields:
            raise ExpressionError("fields only make sense for post")
        super().__init__(method, url, post_fields, hash((method, url, post_fields)))

    def __eq__(self, other):
        if type(other) is not ProgramId:
            return NotImplemented
        return (self.url == other.url and self.method == other.method
                and self.post_fields == other.post_fields)

    def __hash__(self) -> int:
        return self._hash

    @property
    def ids(self) -> tuple[ProgramId]:
        # made at each read: an id holding itself would be a reference cycle
        return (self,)

    @classmethod
    def head(cls, url: str) -> "ProgramId":
        return cls("head", url)

    @classmethod
    def get(cls, url: str) -> "ProgramId":
        return cls("get", url)

    @classmethod
    def post(cls, url: str, fields: Iterable[tuple[str, str]]) -> "ProgramId":
        return cls("post", url, tuple(fields))

    def method_term(self) -> Term:
        if self.method == "post":
            fields = make_list([Struct("field", (Str(n), Str(v)))
                                for n, v in self.post_fields])
            return Struct("post", (fields,))
        return Atom(self.method)

    def to_term(self) -> Term:
        return Struct("lw", (self.method_term(), Str(self.url)))

    @classmethod
    def from_term(cls, t: Term) -> "ProgramId":
        if not (isinstance(t, Struct) and t.functor == "lw" and len(t.args) == 2):
            raise ExpressionError(f"not a program identifier: {syntax.to_text(t)}")
        mt, ut = t.args
        if not isinstance(ut, Str):
            raise ExpressionError("program URL must be a string")
        if isinstance(mt, Atom) and mt.name in ("head", "get"):
            return cls(mt.name, ut.value)
        if isinstance(mt, Struct) and mt.functor == "post" and len(mt.args) == 1:
            items = proper_list(mt.args[0])
            if items is None:
                raise ExpressionError("post field list must be a proper list")
            fields = []
            for item in items:
                if (isinstance(item, Struct) and item.functor == "field"
                        and len(item.args) == 2
                        and isinstance(item.args[0], Str)
                        and isinstance(item.args[1], Str)):
                    fields.append((item.args[0].value, item.args[1].value))
                else:
                    raise ExpressionError("post field must be field(Name, Value)")
            return cls.post(ut.value, fields)
        raise ExpressionError(f"bad retrieval method in {syntax.to_text(t)}")

    def serialize(self) -> str:
        return syntax.to_text(self.to_term())

    def __repr__(self) -> str:
        return f"<{self.serialize()}>"


# ---------------------------------------------------------------- clauses

class Clause(Record):
    __slots__ = ("head", "body")

    def __init__(self, head: Term, body: Term = TRUE_ATOM):
        _clause_head(self, head)
        _clause_body(self, body)


_clause_head, _clause_body = Clause.head.__set__, Clause.body.__set__


# ---------------------------------------------------------------- expressions

class EmptyProgram(ProgramExpression):
    __slots__ = ()

    def to_term(self) -> Term:
        return Atom("empty")


class _Operator(ProgramExpression):
    """An operator node, written as its class's `functor` over its parts.
    Its parts are its class's `__slots__`, which equality compares; `ids`,
    `size` and the hash are worked out from them."""

    __slots__ = ("ids", "size", "_hash")
    functor: str

    def __init__(self, *parts: ProgramExpression):
        super().__init__(*parts)
        ids = parts[0].ids
        for part in parts[1:]:  # hashed: a node costs time linear in its ids
            ids = tuple(dict.fromkeys(ids + part.ids))
        _set(self, "ids", ids)
        _set(self, "size", sum([part.size for part in parts]))
        _set(self, "_hash", hash((type(self).__name__, *parts)))

    def __hash__(self) -> int:
        return self._hash

    def to_term(self) -> Term:
        return Struct(self.functor, tuple([part.to_term() for part in self._fields()]))


class Union(_Operator):
    __slots__ = ("left", "right")
    functor = "+"


class Intersection(_Operator):
    __slots__ = ("left", "right")
    functor = "*"


class Restriction(_Operator):
    __slots__ = ("expr", "prog")
    functor = "/"

    def __init__(self, expr: ProgramExpression, prog: ProgramId):
        if not isinstance(prog, ProgramId):
            raise ExpressionError(
                "the right-hand side of a restriction must be a program identifier")
        super().__init__(expr, prog)


class Encapsulation(_Operator):
    __slots__ = ("expr",)
    functor = "@"


EMPTY_PROGRAM = EmptyProgram()

# (functor, arity) -> operator node: the one list of the composition operators
OPERATORS = {(op.functor, len(op.__slots__)): op
             for op in (Union, Intersection, Restriction, Encapsulation)}


def _expr_list(t: Term, ctx: ProgramExpression) -> list[ProgramExpression]:
    items = proper_list(t)
    if items is None:
        raise ExpressionError("expression list must be a proper list")
    return [expr_from_term(i, ctx) for i in items]


def expr_from_term(t: Term, ctx: ProgramExpression) -> ProgramExpression:
    """Interpret a (fully dereferenced) term as a composition expression
    evaluated from context `ctx`, which stands wherever the term has `(#)`.

    The reduce forms are sugar, folded left into the binary operators:
    `(+)<>[P, Q, R]` is `P + Q + R`, `(*)<>[...]` likewise with `*`, and
    `(/)<>(E, [P, Q])` is `E / P / Q`."""
    if isinstance(t, Var):
        raise ExpressionError("context expression is not instantiated")
    if isinstance(t, Atom):
        if t.name == "empty":
            return EMPTY_PROGRAM
        if t.name == syntax.CURRENT_CONTEXT_NAME:
            return ctx
        raise ExpressionError(f"not a composition expression: {syntax.to_text(t)}")
    if isinstance(t, Str):
        # a bare URL abbreviates the program fetched from it with GET
        return ProgramId.get(t.value)
    if isinstance(t, Struct):
        if t.functor == "lw" and len(t.args) == 2:
            return ProgramId.from_term(t)
        op = OPERATORS.get((t.functor, len(t.args)))
        if op is not None:
            return op(*[expr_from_term(arg, ctx) for arg in t.args])
        if t.functor == "<>" and len(t.args) == 2 and isinstance(t.args[0], Atom):
            op = OPERATORS.get((t.args[0].name, 2))
            rhs = t.args[1]
            if op is Restriction:
                if not (isinstance(rhs, Struct) and rhs.functor == ","
                        and len(rhs.args) == 2):
                    raise ExpressionError(
                        "restriction reduce needs (Expression, IdentifierList)")
                base = expr_from_term(rhs.args[0], ctx)
                return reduce(Restriction, _expr_list(rhs.args[1], ctx), base)
            if op is not None:
                exprs = _expr_list(rhs, ctx)
                if not exprs:
                    raise ExpressionError("reduce over an empty expression list")
                return reduce(op, exprs)
    raise ExpressionError(f"not a composition expression: {syntax.to_text(t)}")


def expr_text(e: ProgramExpression) -> str:
    return syntax.to_text(e.to_term())


def validate_expression_term(t: Term) -> None:
    """Parse-time shape check for a context term; variables are allowed
    anywhere an identifier could later appear."""
    if isinstance(t, (Var, Str)):
        return
    if isinstance(t, Atom):
        if t.name in ("empty", syntax.CURRENT_CONTEXT_NAME):
            return
        raise ExpressionError(f"not a composition expression: {syntax.to_text(t)}")
    if isinstance(t, Struct):
        if t.functor in ("lw", "<>") and len(t.args) == 2:
            return
        if (t.functor, len(t.args)) in OPERATORS:
            for arg in t.args:
                validate_expression_term(arg)
            return
    raise ExpressionError(f"not a composition expression: {syntax.to_text(t)}")


# ---------------------------------------------------------------- clauses

# the control constructs, which no clause may define: the connectives, the
# control atoms, a switch and a `built_ins:` goal
RESERVED_HEADS = {":-", ",", ";", "->", "!", "true", "fail", "false", "#>", ":"}


def check_body(t: Term) -> None:
    """Parse-time check of a clause body or goal: every context switch on
    its `,`/`#>` spine must name a well-formed composition."""
    while isinstance(t, Struct) and t.functor in (",", "#>") and len(t.args) == 2:
        if t.functor == ",":
            check_body(t.args[0])
        else:
            validate_expression_term(t.args[0])
        t = t.args[1]


def clause_from_term(t: Term) -> Clause:
    if isinstance(t, Struct) and t.functor == ":-" and len(t.args) == 2:
        head, body = t.args
    else:
        head, body = t, TRUE_ATOM
    key = functor_of(head)
    if key is None or key[0] in RESERVED_HEADS:
        raise ExpressionError(f"illegal clause head: {syntax.to_text(head)}")
    check_body(body)
    return Clause(head, body)


def clause_to_term(c: Clause) -> Term:
    if c.body == TRUE_ATOM:
        return c.head
    return Struct(":-", (c.head, c.body))


def clause_text(c: Clause) -> str:
    """The clause in canonical syntax. The variables `to_text` prints as
    `_G<id>` are numbered `_G0`, `_G1`, ... by first occurrence, so the text
    depends on the clause alone, not on what the process parsed before."""
    return syntax.to_text(clause_to_term(c), names={}) + "."


def parse_program(text: str) -> list[Clause]:
    """Clause list from program text; raises ParseError/ExpressionError."""
    return [clause_from_term(t) for t in syntax.parse_clause_terms(text)]


def parse_goal(text: str) -> tuple[Term, dict[str, Var]]:
    t, varmap = syntax.parse_term_text(text)
    check_body(t)
    return t, varmap


def rename_clause(c: Clause, mapping: dict[int, Term]) -> Term:
    """The body of `c` renamed apart through the `mapping` that matching its
    head left (`unify(goal, c.head, s, mapping)`)."""
    return rename_apart(c.body, mapping)


# ---------------------------------------------------------------- indexed programs

def first_arg_key(t: Term):
    """Index key of a first argument: an atom, number or string is its own
    (`Num` keeps 1 apart from 1.0), a compound has (functor, arity)."""
    if isinstance(t, Struct):
        return (t.functor, len(t.args))
    return None if isinstance(t, Var) else t


def _index_predicate(clauses: tuple[Clause, ...]) -> tuple:
    """One predicate's index entry: (its clauses in program order, the
    positions in them of the clauses whose first argument has each key, the
    positions of those whose first argument is a variable)."""
    keyed: dict = {}
    free = []
    for i, c in enumerate(clauses):
        if isinstance(c.head, Struct):
            key = first_arg_key(c.head.args[0])
            if key is None:
                free.append(i)
            else:
                keyed.setdefault(key, []).append(i)
    return clauses, {k: tuple(v) for k, v in keyed.items()}, tuple(free)


def _without(clauses: tuple[Clause, ...], clause: Clause) -> tuple[Clause, ...]:
    i = next(i for i, c in enumerate(clauses) if c is clause)
    return clauses[:i] + clauses[i + 1:]


LINK = ("link", 2)


class LWProgram:
    """A program's clauses, indexed per predicate. `add` and `remove` build
    new tuples for the one predicate they change, so a selection already
    running keeps its clauses (the logical update view) and every other
    predicate keeps the very same bucket. A page's `link/2` facts may come as
    `links = (position, build)`: `build()` makes them on first use (a `link/2`
    lookup, `clauses` or `remove`), ahead of any `link/2` clause the page
    writes itself; `add` appends behind that position, so it needs them only
    to add a link."""

    def __init__(self, id: ProgramId, clauses: Iterable[Clause], links=None):
        self.id = id
        self._clauses = tuple(clauses)
        self._links = links
        buckets: dict[tuple[str, int], list[Clause]] = {}
        for c in self._clauses:
            buckets.setdefault(functor_of(c.head), []).append(c)
        self._index: dict[tuple[str, int], tuple] = {
            pred: _index_predicate(tuple(cs)) for pred, cs in buckets.items()}

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._links is not None:
            self._build_links()
        return self._clauses

    def _build_links(self) -> None:
        at, build = self._links
        self._links = None
        links = tuple(build())
        if links:
            self._clauses = self._clauses[:at] + links + self._clauses[at:]
            self._index[LINK] = _index_predicate(links + self.clauses_of(LINK))

    def add(self, clause: Clause) -> None:
        """Append `clause`, re-indexing its predicate alone."""
        self._clauses += (clause,)
        pred = functor_of(clause.head)
        self._index[pred] = _index_predicate(self.clauses_of(pred) + (clause,))

    def remove(self, clause: Clause) -> None:
        """Remove the first occurrence of this very clause object,
        re-indexing its predicate alone."""
        self._clauses = _without(self.clauses, clause)
        pred = functor_of(clause.head)
        rest = _without(self.clauses_of(pred), clause)
        if rest:
            self._index[pred] = _index_predicate(rest)
        else:
            del self._index[pred]

    def candidates(self, goal: Term, s: Substitution) -> tuple[Clause, ...]:
        """The clauses whose heads may unify with `goal` (an atom or compound,
        its arguments read through `s`), in clause order."""
        pred = functor_of(goal)
        if self._links is not None and pred == LINK:
            self._build_links()
        entry = self._index.get(pred)
        if entry is None:
            return ()
        clauses, keyed, free = entry
        key = first_arg_key(s.walk(goal.args[0])) if keyed else None
        if key is None:
            return clauses
        hit = keyed.get(key, ())
        # two ascending runs, which the sort merges in one pass
        positions = sorted(hit + free) if hit and free else hit or free
        return tuple(map(clauses.__getitem__, positions))

    def defines(self, name: str, arity: int) -> bool:
        return bool(self.clauses_of((name, arity)))

    def clauses_of(self, pred: tuple[str, int]) -> tuple[Clause, ...]:
        """The predicate's clause bucket; `()` when it is undefined."""
        if self._links is not None and pred == LINK:
            self._build_links()
        entry = self._index.get(pred)
        return entry[0] if entry else ()

