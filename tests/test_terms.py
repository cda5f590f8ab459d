"""Unification, substitutions, renaming, and term utilities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import struct
from logicweb.terms import (EMPTY_SUBST, Atom, Num, Str, Struct, Substitution,
                            Var, fresh_var, list_items, make_list, occurs_in,
                            rename_apart, unify, variant, variant_key)


def test_fresh_vars_are_distinct():
    a, b = fresh_var("X"), fresh_var("X")
    assert a.id != b.id
    assert a != b


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
