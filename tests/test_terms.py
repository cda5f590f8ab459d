"""Unification, substitutions, renaming, and term utilities."""

import gc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import struct
from logicweb.model import parse_program, rename_clause
from logicweb.terms import (EMPTY_SUBST, Atom, Num, Str, Struct, Substitution,
                            Var, decode, encode, fresh_var, list_items,
                            make_list, occurs_in, rename_apart, unify, variant,
                            variant_key)


def test_fresh_vars_are_distinct():
    a, b = fresh_var("X"), fresh_var("X")
    assert a.id != b.id
    assert a != b


def test_a_var_equals_by_name_and_id_and_a_str_never_equals_an_atom():
    assert Var("X", 1) == Var("X", 1)
    assert hash(Var("X", 1)) == hash(Var("X", 1))
    assert Var("X", 1) != Var("Y", 1)
    assert Var("X", 1) != Var("X", 2)
    assert Var("a", 1) != Atom("a")
    assert Str("a") == Str("a")
    assert hash(Str("a")) == hash(Str("a"))
    assert Str("a") != Atom("a") and Atom("a") != Str("a")
    assert Str("a") != Str("b")
    assert len({Str("a"), Atom("a"), Var("a", 1), Var("a", 1)}) == 3


def test_unify_atoms():
    assert unify(Atom("a"), Atom("a")) is not None
    assert unify(Atom("a"), Atom("b")) is None


def test_unify_numbers_distinguish_int_and_float():
    assert unify(Num(1), Num(1)) is not None
    assert unify(Num(1), Num(1.0)) is None
    assert unify(Num(2), Num(3)) is None


def test_unify_strings():
    assert unify(Str("ab"), Str("ab")) is not None
    assert unify(Str("ab"), Str("ba")) is None
    # strings never unify with atoms of the same spelling
    assert unify(Str("ab"), Atom("ab")) is None


def test_unify_binds_variable():
    x = fresh_var("X")
    s = unify(x, Atom("a"))
    assert s is not None
    assert s.apply(x) == Atom("a")


def test_unify_structs_recursively():
    x, y = fresh_var("X"), fresh_var("Y")
    s = unify(struct("f", x, Atom("b")), struct("f", Atom("a"), y))
    assert s is not None
    assert s.apply(x) == Atom("a")
    assert s.apply(y) == Atom("b")


def test_unify_arity_mismatch_fails():
    assert unify(struct("f", Atom("a")), struct("f", Atom("a"), Atom("b"))) is None
    assert unify(struct("f", Atom("a")), struct("g", Atom("a"))) is None


def test_occurs_check_rejects_cyclic_binding():
    x = fresh_var("X")
    assert unify(x, struct("f", x)) is None


def test_occurs_check_through_chains():
    x, y = fresh_var("X"), fresh_var("Y")
    s = unify(x, struct("f", y))
    assert s is not None
    assert unify(y, struct("g", x), s) is None


def test_unify_extends_existing_substitution():
    x, y = fresh_var("X"), fresh_var("Y")
    s1 = unify(x, y)
    s2 = unify(x, Atom("a"), s1)
    assert s2 is not None
    assert s2.apply(y) == Atom("a")


def test_apply_reaches_fixpoint():
    x, y, z = fresh_var("X"), fresh_var("Y"), fresh_var("Z")
    s = EMPTY_SUBST.bind(x, struct("f", y)).bind(y, struct("g", z)).bind(z, Atom("a"))
    assert s.apply(x) == struct("f", struct("g", Atom("a")))


def test_walk_is_shallow():
    x, y = fresh_var("X"), fresh_var("Y")
    s = EMPTY_SUBST.bind(x, struct("f", y)).bind(y, Atom("a"))
    walked = s.walk(x)
    assert isinstance(walked, Struct)
    # the inner variable is untouched by walk
    assert walked.args[0] == y


def test_bind_is_persistent():
    x = fresh_var("X")
    s1 = EMPTY_SUBST.bind(x, Atom("a"))
    assert x not in EMPTY_SUBST
    assert x in s1


def test_compose_applies_later_bindings():
    x, y = fresh_var("X"), fresh_var("Y")
    s1 = EMPTY_SUBST.bind(x, struct("f", y))
    s2 = EMPTY_SUBST.bind(y, Atom("a"))
    merged = s1.compose(s2)
    assert merged.apply(x) == struct("f", Atom("a"))
    assert merged.apply(y) == Atom("a")


def test_rename_apart_preserves_sharing():
    x = fresh_var("X")
    t = struct("f", x, x)
    renamed = rename_apart(t)
    assert isinstance(renamed, Struct)
    a, b = renamed.args
    assert a == b
    assert a != x


def test_renaming_clauses_leaves_no_garbage_cycles():
    clause = parse_program("p(X, f(Y, [X|T])) :- q(Y), r(T, Z), s(Z).\n")[0]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            rename_clause(clause)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_rename_apart_shared_mapping_spans_terms():
    x = fresh_var("X")
    mapping = {}
    r1 = rename_apart(x, mapping)
    r2 = rename_apart(struct("f", x), mapping)
    assert r2.args[0] == r1


def test_variant():
    x, y = fresh_var("X"), fresh_var("Y")
    assert variant(struct("f", x, x), struct("f", y, y))
    assert not variant(struct("f", x, x), struct("f", x, y))
    assert not variant(struct("f", x), struct("g", x))
    assert variant(Atom("a"), Atom("a"))
    assert not variant(Num(1), Num(2))
    # a variable's number in the key is no number term
    assert not variant(struct("f", x), struct("f", Num(0)))


def test_variant_key_is_flat_and_in_prefix_order():
    x, y = fresh_var("X"), fresh_var("Y")
    assert variant_key(struct("p", y, struct("f", x, y), Atom("a"))) == (
        ("p", 3), 0, ("f", 2), 1, 0, Atom("a"))
    assert variant_key(Num(1)) == (Num(1),)
    # the arities keep nesting apart: f(g(a), b) against f(g(a, b))
    assert (variant_key(struct("f", struct("g", Atom("a")), Atom("b")))
            != variant_key(struct("f", struct("g", Atom("a"), Atom("b")))))


def test_variant_key_and_variant_take_deep_terms():
    n = 100_000
    x, y = fresh_var("X"), fresh_var("Y")
    # a long list whose elements share two variables
    long_x = make_list([x, Num(1), fresh_var("Z")] * (n // 3 + 1))
    long_y = make_list([y, Num(1), fresh_var("W")] * (n // 3 + 1))
    assert variant(long_x, long_y)
    assert variant_key(long_x) == variant_key(long_y)
    # a term n levels deep
    deep_x, deep_y = x, y
    for _ in range(n):
        deep_x = Struct("f", (deep_x,))
        deep_y = Struct("f", (deep_y,))
    assert len(variant_key(deep_x)) == n + 1
    assert variant(deep_x, deep_y)
    assert not variant(deep_x, Struct("f", (deep_y,)))


def test_list_round_trip():
    items = [Atom("a"), Num(1), Str("s")]
    t = make_list(items)
    got, tail = list_items(t)
    assert got == items
    assert tail == Atom("[]")


def test_list_items_partial_tail():
    x = fresh_var("T")
    t = make_list([Atom("a")], tail=x)
    items, tail = list_items(t)
    assert items == [Atom("a")]
    assert tail == x


# ---------------------------------------------------------------- properties

_atoms = st.sampled_from([Atom("a"), Atom("b"), Atom("c")])
_nums = st.integers(min_value=-5, max_value=5).map(Num)
_vars = st.integers(min_value=0, max_value=3).map(lambda i: Var(f"H{i}", -100 - i))


def _terms(depth=2):
    base = st.one_of(_atoms, _nums, _vars, st.just(Str("s")))
    if depth == 0:
        return base
    return st.one_of(
        base,
        st.tuples(st.sampled_from("fgh"),
                  st.lists(_terms(depth - 1), min_size=1, max_size=3))
        .map(lambda fa: Struct(fa[0], tuple(fa[1]))))


@st.composite
def _substitutions(draw):
    """Triangular substitutions over the variables of `_terms`, with no
    cycle. Taken in a drawn order, each variable stays free, is bound to
    the next one (so chains of bindings come up) or to a term."""
    order = draw(st.permutations([Var(f"H{i}", -100 - i) for i in range(4)]))
    s = EMPTY_SUBST
    for v, after in zip(order, order[1:] + [None]):
        t = draw(st.sampled_from([None, after]) | _terms(1))
        if t is not None and not occurs_in(v.id, t, s):
            s = s.bind(v, t)
    return s


@given(_terms(), _substitutions())
@settings(max_examples=300)
def test_variant_key_reads_through_the_substitution(t, s):
    assert variant_key(t, s) == variant_key(s.apply(t))


@given(_terms())
@settings(max_examples=150)
def test_unify_with_self_never_fails(t):
    assert unify(t, t) is not None


@given(_terms(), _terms())
@settings(max_examples=150)
def test_unifier_makes_terms_equal(a, b):
    s = unify(a, b)
    if s is not None:
        assert s.apply(a) == s.apply(b)


@given(_terms())
@settings(max_examples=150)
def test_rename_apart_gives_variant(t):
    assert variant(t, rename_apart(t))


@given(_terms(), _terms())
@settings(max_examples=150)
def test_unification_is_symmetric_in_success(a, b):
    assert (unify(a, b) is None) == (unify(b, a) is None)


# the records an audit event keeps its goal in

_RECORD_LEAVES = st.sampled_from([
    Atom("a"), Str("a"), Num(1), Num(1.0), Num(-2.5), Atom("[]"), Atom("!"),
    Atom("it's"), Str(""), Var("X", 5), Var("X", 6), Var("Y", 5),
    Var("_", 7), Var("_G", 8), Var("_G12", 9)])
_RECORD_FUNCTORS = st.sampled_from(["f", "A b", "it's", ".", "-", ",", "@", "[]"])


def _record_terms(depth=3):
    if depth == 0:
        return _RECORD_LEAVES
    sub = _record_terms(depth - 1)
    return st.one_of(
        _RECORD_LEAVES,
        st.tuples(_RECORD_FUNCTORS, st.lists(sub, min_size=1, max_size=3))
        .map(lambda fa: Struct(fa[0], tuple(fa[1]))),
        st.tuples(st.lists(sub, min_size=1, max_size=3), sub)
        .map(lambda it: make_list(*it)))


def _same(a, b) -> bool:
    """Equal, down to the Python type of every number."""
    if type(a) is not type(b):
        return False
    if type(a) is Struct:
        return (a.functor == b.functor and len(a.args) == len(b.args)
                and all(map(_same, a.args, b.args)))
    return a == b and (type(a) is not Num or type(a.value) is type(b.value))


@given(_record_terms())
@settings(max_examples=300)
@example(Atom("a"))
@example(Str("a"))
@example(Num(1))
@example(Num(1.0))
@example(Struct("f", (Var("_G", 3), Var("X", 3))))
def test_encode_then_decode_gives_the_term_back(t):
    record = encode(t)
    assert all(v is None or type(v) in (str, int, float) for v in record)
    assert _same(decode(record), t)


def test_a_record_tells_atoms_strings_and_numbers_apart():
    leaves = [Atom("a"), Str("a"), Num(1), Num(1.0), Num(0), Atom("[]")]
    assert [decode(encode(t)) for t in leaves] == leaves
    assert type(decode(encode(Num(1.0))).value) is float
