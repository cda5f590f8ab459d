"""First-order terms, substitutions, and unification.

Terms are immutable: set once through their slots' setters, they refuse
assignment. Variables are identified by a globally unique integer id; the
name is kept only for display. Substitutions are triangular: a binding may
map a variable to a term that itself contains bound variables, and `apply`
dereferences all the way down.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
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
        _var_name(self, name)
        _var_id(self, id)

    def __eq__(self, other):
        return (self.id == other.id and self.name == other.name
                if type(other) is Var else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.name, self.id))


class Str(Term):
    __slots__ = ("value",)

    def __init__(self, value: str):
        _str_value(self, value)

    def __eq__(self, other):
        return self.value == other.value if type(other) is Str else NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


class Atom(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _atom_name(self, name)

    def __eq__(self, other):
        return self.name == other.name if type(other) is Atom else NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)


class Num(Term):
    __slots__ = ("value",)

    def __init__(self, value: int | float):
        _num_value(self, value)

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
        _struct_functor(self, functor)
        _struct_args(self, args)

    def __eq__(self, other):
        if type(other) is not Struct:
            return NotImplemented
        return self.functor == other.functor and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.functor, self.args))


# each slot's own setter, bound once: cheaper than `_set` by field name
(_var_name, _var_id, _str_value, _atom_name, _num_value, _struct_functor,
 _struct_args) = [getattr(cls, name).__set__ for cls in (Var, Str, Atom, Num, Struct)
                  for name in cls.__slots__]

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
        A compound with no bound variable beneath it comes back as itself.
        One frame a level: only a variable or compound argument is recursed
        into, and the arguments are copied only once one of them changes."""
        while type(t) is Var and (bound := self._b.get(t.id)) is not None:
            t = bound
        if type(t) is not Struct:
            return t
        args = new = t.args
        for i, a in enumerate(args):
            kind = type(a)
            if (kind is Var or kind is Struct) and (got := self.apply(a)) is not a:
                if new is args:
                    new = list(args)
                new[i] = got
        return t if new is args else Struct(t.functor, tuple(new))

    def compose(self, other: "Substitution") -> "Substitution":
        """s1.compose(s2): applying the result equals apply s1, then s2.

        Precondition: `other` binds only variables `self` leaves unbound, as
        any answer derived afresh from `self.apply(t)` does. Since bindings
        are triangular, the union of the two maps is then the composition."""
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


def unify(t1: Term, t2: Term, subst: Substitution | None = None,
          mapping: dict[int, Term] | None = None) -> Optional[Substitution]:
    """Most general unifier extending `subst`, or None. The occurs check is
    always on, so the result never contains a cyclic binding.

    Given `mapping`, `t2` is read as `rename_apart(t2, mapping)` would copy
    it, without building the copy: a clause head matched in its own frame.
    A variable of `t2` first met against a goal term that is not a variable
    stands for that term in `mapping`; one first met against a variable
    becomes a fresh variable, which that variable is bound to. The rest is
    unified as without `mapping`, in the same order."""
    s = subst if subst is not None else EMPTY_SUBST
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        while type(a) is Var and (bound := s._b.get(a.id)) is not None:
            a = bound
        if mapping is not None and ((kind := type(b)) is Var or kind is Struct):
            if kind is Struct and type(a) is Struct:
                if a.functor != b.functor or len(a.args) != len(b.args):
                    return None
                stack.extend(zip(a.args, b.args))
            elif kind is Var and b.id not in mapping:
                if type(a) is Var:
                    s = s.bind(a, mapping.setdefault(b.id, Var(b.name, next(_var_ids))))
                else:
                    mapping[b.id] = a
            # a repeated variable, or a compound met by a variable or a constant
            elif (s := unify(a, rename_apart(b, mapping), s)) is None:
                return None
            continue
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


def rename_apart(t: Term, mapping: dict[int, Term] | None = None) -> Term:
    """Copy with fresh variables. Shared variables stay shared; passing the
    same mapping across calls extends the sharing to sibling terms. A mapped
    variable may stand for a goal term, as `unify` given a mapping leaves it."""
    if mapping is None:
        mapping = {}
    kind = type(t)
    if kind is Var:
        return mapping.get(t.id) or mapping.setdefault(t.id, Var(t.name, next(_var_ids)))
    if kind is not Struct:
        return t
    args = []
    for a in t.args:
        kind = type(a)
        if kind is Var:     # renamed here: only a compound is recursed into
            a = mapping.get(a.id) or mapping.setdefault(a.id, Var(a.name, next(_var_ids)))
        elif kind is Struct:
            a = rename_apart(a, mapping)
        args.append(a)
    return Struct(t.functor, tuple(args))


_MARKS = defaultdict(object)    # marker n: the nth distinct variable of any key


def variant_key(t: Term, s: Substitution = EMPTY_SUBST) -> tuple:
    """A flat, hashable key, equal for two terms exactly when they are
    variants: the key of `s.apply(t)`, read through `s` without building it.
    Read in prefix order, a variable is the marker of its first occurrence's
    position, an integer its int and a string its str, values that exist
    already and hash in C; a compound is (functor, arity) before its
    arguments, and an atom or a float stays itself. So `a`, "a", 1, 1.0 and
    a variable all give different elements."""
    bindings = s._b
    numbers: dict[int, object] = {}
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
            out.append(numbers.setdefault(u.id, _MARKS[len(numbers)]))
        elif kind is Atom or kind is Num and type(u.value) is float:
            out.append(u)
        else:
            out.append(u.value)
    return tuple(out)


def encode(t: Term, s: Substitution = EMPTY_SUBST) -> tuple:
    """`s.apply(t)` as a flat tuple of plain values, which the garbage
    collector stops tracking at its first pass, read through `s` without
    building it, in prefix order: a compound is its functor then its arity,
    an atom its name then 0, a string its value then -1, a variable None,
    its name and its id, a number its value."""
    bindings = s._b
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        while type(u) is Var and (bound := bindings.get(u.id)) is not None:
            u = bound
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
