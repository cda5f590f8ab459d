"""First-order terms, substitutions, and unification.

Terms are immutable. Variables are identified by a globally unique integer
id; the name is kept only for display. Substitutions are triangular: a
binding may map a variable to a term that itself contains bound variables,
and `apply` dereferences all the way down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

_var_ids = itertools.count(1)


def fresh_var_id() -> int:
    # next() on a count is atomic under CPython, good enough for our needs
    return next(_var_ids)


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str
    id: int


@dataclass(frozen=True, slots=True)
class Atom(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Num(Term):
    value: int | float

    # 1 and 1.0 do not unify, so they are not equal either
    def __eq__(self, other) -> bool:
        return (isinstance(other, Num) and self.value == other.value
                and type(self.value) is type(other.value))

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))


@dataclass(frozen=True, slots=True)
class Str(Term):
    value: str


@dataclass(frozen=True, slots=True)
class Struct(Term):
    functor: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.args:
            raise ValueError("compound term needs at least one argument")


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


def list_items(t: Term, subst: "Substitution | None" = None) -> tuple[list[Term], Term]:
    """Decompose a list term into (items, tail); tail is [] for proper lists."""
    items = []
    walk = subst.walk if subst is not None else (lambda x: x)
    t = walk(t)
    while isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = walk(t.args[1])
    return items, t


def functor_of(t: Term) -> tuple[str, int] | None:
    """(name, arity) for atoms and compounds, None for everything else."""
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Struct):
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
        if isinstance(t, Var) and t.id == v.id:
            return self
        b = dict(self._b)
        b[v.id] = t
        return Substitution(b)

    def walk(self, t: Term) -> Term:
        """Shallow dereference: chase variable bindings at the top only."""
        while isinstance(t, Var):
            bound = self._b.get(t.id)
            if bound is None:
                return t
            t = bound
        return t

    def apply(self, t: Term) -> Term:
        """Full dereference; any variable left in the result is unbound here."""
        t = self.walk(t)
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(self.apply(a) for a in t.args))
        return t

    def compose(self, other: "Substitution") -> "Substitution":
        """s1.compose(s2): applying the result equals apply s1, then s2.

        Precondition: `other` binds only variables `self` leaves unbound, as
        any delta computed on `self.apply(t)` does. Since bindings are
        triangular, the union of the two maps is then the composition."""
        return Substitution({**other._b, **self._b})


EMPTY_SUBST = Substitution()


def occurs_in(vid: int, t: Term, s: Substitution) -> bool:
    stack = [t]
    while stack:
        cur = s.walk(stack.pop())
        if isinstance(cur, Var):
            if cur.id == vid:
                return True
        elif isinstance(cur, Struct):
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
        if isinstance(a, Var):
            if isinstance(b, Var) and a.id == b.id:
                continue
            if occurs_in(a.id, b, s):
                return None
            s = s.bind(a, b)
        elif isinstance(b, Var):
            if occurs_in(b.id, a, s):
                return None
            s = s.bind(b, a)
        elif isinstance(a, Atom) and isinstance(b, Atom):
            if a.name != b.name:
                return None
        elif isinstance(a, Num) and isinstance(b, Num):
            if a != b:
                return None
        elif isinstance(a, Str) and isinstance(b, Str):
            if a.value != b.value:
                return None
        elif isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return None
            stack.extend(zip(a.args, b.args))
        else:
            return None
    return s


def rename_apart(t: Term, mapping: dict[int, Var] | None = None) -> Term:
    """Copy with fresh variables. Shared variables stay shared; passing the
    same mapping across calls extends the sharing to sibling terms."""
    if mapping is None:
        mapping = {}

    def go(u: Term) -> Term:
        if isinstance(u, Var):
            got = mapping.get(u.id)
            if got is None:
                got = Var(u.name, fresh_var_id())
                mapping[u.id] = got
            return got
        if isinstance(u, Struct):
            return Struct(u.functor, tuple(go(a) for a in u.args))
        return u

    return go(t)


def variant_key(t: Term) -> tuple:
    """A flat, hashable key, equal for two terms exactly when they are
    variants. The term is read in prefix order: a variable becomes the
    number of its first occurrence, a compound becomes (functor, arity)
    followed by its arguments, and any other term stays itself."""
    numbers: dict[int, int] = {}
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        # exact types: the key is built for every goal the guard sees
        kind = type(u)
        if kind is Struct:
            out.append((u.functor, len(u.args)))
            stack.extend(u.args[::-1])
        elif kind is Var:
            out.append(numbers.setdefault(u.id, len(numbers)))
        else:
            out.append(u)
    return tuple(out)


def variant(t1: Term, t2: Term) -> bool:
    """True when the terms are equal up to a bijective renaming of variables."""
    return variant_key(t1) == variant_key(t2)
