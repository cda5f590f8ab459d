"""First-order terms, substitutions, and unification.

Terms are immutable. Variables are identified by a globally unique integer
id; the name is kept only for display. Substitutions are triangular: a
binding may map a variable to a term that itself contains bound variables,
and `apply` dereferences all the way down.
"""

from __future__ import annotations

import itertools
from operator import is_not
from typing import Optional

_var_ids = itertools.count(1)
_set = object.__setattr__


def fresh_var_id() -> int:
    # next() on a count is atomic under CPython, good enough for our needs
    return next(_var_ids)


class Record:
    """An immutable record whose fields are its class's `__slots__`: each is
    set once, through its slot descriptor by `_set`, and `__setattr__`
    refuses the rest. Two records of one class are equal with equal fields."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Term(Record):
    __slots__ = ()


# each term class is built or hashed on every goal, and none has a
# subclass, so each has its own methods and walkers test exact types

class Var(Term):
    __slots__ = ("name", "id")

    def __init__(self, name: str, id: int):
        _set(self, "name", name)
        _set(self, "id", id)

    def __eq__(self, other):
        return (self.id == other.id and self.name == other.name
                if type(other) is Var else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.name, self.id))


class Str(Term):
    __slots__ = ("value",)

    def __init__(self, value: str):
        _set(self, "value", value)

    def __eq__(self, other):
        return self.value == other.value if type(other) is Str else NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


class Atom(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __eq__(self, other):
        return self.name == other.name if type(other) is Atom else NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)


class Num(Term):
    __slots__ = ("value",)

    def __init__(self, value: int | float):
        _set(self, "value", value)

    # 1 and 1.0 do not unify, so they are not equal either
    def __eq__(self, other) -> bool:
        return (type(other) is Num and self.value == other.value
                and type(self.value) is type(other.value))

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))


class Struct(Term):
    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple[Term, ...]):
        if not args:
            raise ValueError("compound term needs at least one argument")
        _set(self, "functor", functor)
        _set(self, "args", args)

    def __eq__(self, other):
        if type(other) is not Struct:
            return NotImplemented
        return self.functor == other.functor and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.functor, self.args))


TRUE_ATOM = Atom("true")
NIL = Atom("[]")


def fresh_var(name: str = "_G") -> Var:
    return Var(name, fresh_var_id())


def make_list(items, tail: Term = NIL) -> Term:
    """Build a cons-cell list term from a Python sequence."""
    out = tail
    for item in reversed(list(items)):
        out = Struct(".", (item, out))
    return out


def list_items(t: Term) -> tuple[list[Term], Term]:
    """Decompose a list term into (items, tail); tail is [] for proper lists."""
    items = []
    while isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    return items, t


def proper_list(t: Term) -> list[Term] | None:
    """The items of a list term ending in [], else None."""
    items, tail = list_items(t)
    if isinstance(tail, Atom) and tail.name == "[]":
        return items
    return None


def functor_of(t: Term) -> tuple[str, int] | None:
    """(name, arity) for atoms and compounds, None for everything else."""
    if type(t) is Atom:
        return (t.name, 0)
    if type(t) is Struct:
        return (t.functor, len(t.args))
    return None


class Substitution:
    """Immutable mapping from variable ids to terms.

    Kept triangular internally; `apply` chases chains to a fixpoint, so a
    term returned by `apply` contains no variable bound in the substitution.
    """

    __slots__ = ("_b",)

    def __init__(self, bindings: dict[int, Term] | None = None):
        self._b: dict[int, Term] = bindings or {}

    def __contains__(self, v: Var) -> bool:
        return v.id in self._b

    def __repr__(self) -> str:
        return f"Substitution({self._b!r})"

    def bind(self, v: Var, t: Term) -> "Substitution":
        if type(t) is Var and t.id == v.id:
            return self
        b = dict(self._b)
        b[v.id] = t
        return Substitution(b)

    def walk(self, t: Term) -> Term:
        """Shallow dereference: chase variable bindings at the top only."""
        while type(t) is Var:
            bound = self._b.get(t.id)
            if bound is None:
                return t
            t = bound
        return t

    def apply(self, t: Term) -> Term:
        """Full dereference; any variable left in the result is unbound here.
        A compound with no bound variable beneath it comes back as itself."""
        t = self.walk(t)
        if type(t) is Struct:
            args = [self.apply(a) for a in t.args]
            if any(map(is_not, args, t.args)):
                return Struct(t.functor, tuple(args))
        return t

    def compose(self, other: "Substitution") -> "Substitution":
        """s1.compose(s2): applying the result equals apply s1, then s2.

        Precondition: `other` binds only variables `self` leaves unbound, as
        any delta computed on `self.apply(t)` does. Since bindings are
        triangular, the union of the two maps is then the composition."""
        if not other._b:
            return self
        return Substitution({**other._b, **self._b})


EMPTY_SUBST = Substitution()


def occurs_in(vid: int, t: Term, s: Substitution) -> bool:
    stack = [t]
    while stack:
        cur = s.walk(stack.pop())
        kind = type(cur)
        if kind is Var:
            if cur.id == vid:
                return True
        elif kind is Struct:
            stack.extend(cur.args)
    return False


def unify(t1: Term, t2: Term,
          subst: Substitution | None = None) -> Optional[Substitution]:
    """Most general unifier extending `subst`, or None. The occurs check is
    always on, so the result never contains a cyclic binding."""
    s = subst if subst is not None else EMPTY_SUBST
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = s.walk(a)
        b = s.walk(b)
        if a is b:
            continue
        kind = type(a)
        if kind is Var:
            if type(b) is Var and a.id == b.id:
                continue
            if occurs_in(a.id, b, s):
                return None
            s = s.bind(a, b)
        elif type(b) is Var:
            if occurs_in(b.id, a, s):
                return None
            s = s.bind(b, a)
        elif kind is not type(b):
            return None
        elif kind is Struct:
            if a.functor != b.functor or len(a.args) != len(b.args):
                return None
            stack.extend(zip(a.args, b.args))
        elif kind is Atom:
            if a.name != b.name:
                return None
        elif a != b:    # strings, or numbers of one type
            return None
    return s


def rename_apart(t: Term, mapping: dict[int, Var] | None = None) -> Term:
    """Copy with fresh variables. Shared variables stay shared; passing the
    same mapping across calls extends the sharing to sibling terms."""
    if mapping is None:
        mapping = {}
    kind = type(t)
    if kind is Var:
        got = mapping.get(t.id)
        if got is None:
            got = mapping[t.id] = Var(t.name, fresh_var_id())
        return got
    if kind is not Struct:
        return t
    args = []
    for a in t.args:
        kind = type(a)
        args.append(rename_apart(a, mapping) if kind is Struct or kind is Var else a)
    return Struct(t.functor, tuple(args))


def variant_key(t: Term, s: Substitution = EMPTY_SUBST) -> tuple:
    """A flat, hashable key, equal for two terms exactly when they are
    variants: the key of `s.apply(t)`, read through `s` without building it.
    The term is read in prefix order: a variable becomes the number of its
    first occurrence, a compound becomes (functor, arity) followed by its
    arguments, and any other term stays itself."""
    bindings = s._b
    numbers: dict[int, int] = {}
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        # exact types: the key is built for every goal the guard sees
        kind = type(u)
        while kind is Var and u.id in bindings:
            u = bindings[u.id]
            kind = type(u)
        if kind is Struct:
            out.append((u.functor, len(u.args)))
            stack.extend(u.args[::-1])
        elif kind is Var:
            out.append(numbers.setdefault(u.id, len(numbers)))
        else:
            out.append(u)
    return tuple(out)


def encode(t: Term) -> tuple:
    """`t` as a flat tuple of plain values, which the garbage collector
    stops tracking at its first pass, read in prefix order: a compound is
    its functor then its arity, an atom its name then 0, a string its value
    then -1, a variable None, its name and its id, a number its value."""
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is Struct:
            out += (u.functor, len(u.args))
            stack += u.args[::-1]
        elif kind is Atom:
            out += (u.name, 0)
        elif kind is Var:
            out += (None, u.name, u.id)
        elif kind is Str:
            out += (u.value, -1)
        else:
            out.append(u.value)
    return tuple(out)


def decode(record: tuple) -> Term:
    """The term `encode` made `record` from."""
    frames: list[tuple[str, int, list]] = []   # open compounds, innermost last
    values = iter(record)
    for v in values:
        if v is None:
            t = Var(next(values), next(values))
        elif type(v) is str:
            code = next(values)
            if code > 0:
                frames.append((v, code, []))
                continue
            t = Atom(v) if code == 0 else Str(v)
        else:
            t = Num(v)
        while frames:
            functor, arity, args = frames[-1]
            args.append(t)
            if len(args) < arity:
                break
            frames.pop()
            t = Struct(functor, tuple(args))
        else:
            return t


def variant(t1: Term, t2: Term) -> bool:
    """True when the terms are equal up to a bijective renaming of variables."""
    return variant_key(t1) == variant_key(t2)
