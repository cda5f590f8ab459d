"""Program identifiers, composition expressions, clause and goal shapes."""

import gc

import pytest
from conftest import make_session
from hypothesis import given, settings
from hypothesis import strategies as st

from logicweb.model import (EMPTY_PROGRAM, Clause, Encapsulation,
                            ExpressionError, Intersection, LWProgram,
                            ProgramId, Restriction, Union, clause_from_term,
                            clause_text, expr_from_term, expr_text,
                            parse_goal, parse_program, rename_clause,
                            validate_expression_term)
from logicweb.syntax import parse_term_text
from logicweb.terms import (EMPTY_SUBST, Atom, Num, Str, Struct, Var,
                            fresh_var, functor_of, make_list, rename_apart,
                            unify)


ME = ProgramId.get("http://me/")


def expr(text, ctx=EMPTY_PROGRAM):
    t, _ = parse_term_text(text)
    return expr_from_term(t, ctx)


IMMUTABLE = [
    (Var("X", 1), "name"), (Atom("a"), "name"), (Num(1), "value"),
    (Str("s"), "value"), (Struct("f", (Atom("a"),)), "args"),
    (Clause(Atom("a")), "body"), (ME, "url"), (EMPTY_PROGRAM, None),
    (Union(ME, ME), "left"), (Intersection(ME, ME), "right"),
    (Restriction(ME, ME), "prog"), (Encapsulation(ME), "expr"),
]


@pytest.mark.parametrize("obj, field", IMMUTABLE,
                         ids=[type(obj).__name__ for obj, _ in IMMUTABLE])
def test_terms_clauses_and_expressions_refuse_assignment(obj, field):
    # clause tuples and terms are shared (the logical update view), so no
    # field may change and no attribute may be added or removed
    before = repr(obj)
    for name in ([field] if field else []) + ["added"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, Atom("b"))
    if field:
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert repr(obj) == before


# ---------------------------------------------------------------- identifiers

def test_program_id_basics():
    pid = ProgramId.get("http://x.example/")
    assert pid.method == "get"
    assert pid.to_term() == Struct("lw", (Atom("get"), Str("http://x.example/")))
    assert ProgramId.from_term(pid.to_term()) == pid


def test_program_id_post_fields_are_order_sensitive():
    a = ProgramId.post("http://x.example/cgi", [("a", "1"), ("b", "2")])
    b = ProgramId.post("http://x.example/cgi", [("b", "2"), ("a", "1")])
    assert a != b
    assert ProgramId.from_term(a.to_term()) == a


def test_program_id_rejects_bad_method():
    with pytest.raises(ValueError):
        ProgramId("put", "http://x.example/")
    with pytest.raises(ValueError):
        ProgramId.get("")


def test_serialize_round_trip():
    pid = ProgramId.head("http://x.example/page")
    t, _ = parse_term_text(pid.serialize())
    assert ProgramId.from_term(t) == pid


# ---------------------------------------------------------------- expressions

def test_expr_from_term_operators():
    e = expr('lw(get, "http://a/") + lw(get, "http://b/")')
    assert isinstance(e, Union)
    e = expr('lw(get, "http://a/") * (#)', ME)
    assert isinstance(e, Intersection)
    assert e.right is ME
    e = expr('lw(get, "http://a/") / lw(get, "http://b/")')
    assert isinstance(e, Restriction)
    e = expr('@lw(get, "http://a/")')
    assert isinstance(e, Encapsulation)
    assert expr("empty") is EMPTY_PROGRAM


def test_bare_url_string_abbreviates_get_program():
    e = expr('"http://a.example/page"')
    assert e == ProgramId.get("http://a.example/page")


def test_reduce_forms():
    a, b, c = '"http://a/"', '"http://b/"', '"http://c/"'
    assert expr(f"(+)<>[{a}, {b}, {c}]") == expr(f"{a} + {b} + {c}")
    assert expr(f"(*)<>[{a}, {b}, {c}]") == expr(f"{a} * {b} * {c}")
    assert expr(f"(+)<>[{a}]") == expr(a)
    assert expr(f"(/)<>({a} + {b}, [{b}, {c}])") == expr(f"({a} + {b}) / {b} / {c}")
    assert expr(f"(/)<>({a} + {b}, [])") == expr(f"{a} + {b}")


def test_reduce_forms_reject_bad_lists():
    with pytest.raises(ExpressionError):
        expr("(+)<>[]")
    with pytest.raises(ExpressionError):
        expr('(/)<>("http://a/", ["http://b/" + "http://c/"])')
    with pytest.raises(ExpressionError):
        expr('(*)<>["http://a/" | T]')


def test_restriction_requires_identifier_rhs():
    with pytest.raises(ExpressionError):
        expr('lw(get, "http://a/") / (lw(get, "http://b/") + lw(get, "http://c/"))')


def test_expr_rejects_non_expressions():
    with pytest.raises(ExpressionError):
        expr("banana")
    with pytest.raises(ExpressionError):
        expr("f(x)")


def test_expr_round_trip_text():
    e = expr('@(lw(get, "http://a/") + lw(head, "http://b/"))')
    t = e.to_term()
    assert expr_from_term(t, EMPTY_PROGRAM) == e
    assert expr_text(e) == '@(lw(get, "http://a/") + lw(head, "http://b/"))'


def test_ids_collect_everything():
    e = expr('(lw(get, "http://a/") + lw(head, "http://b/")) / lw(get, "http://c/")')
    urls = {p.url for p in e.ids}
    assert urls == {"http://a/", "http://b/", "http://c/"}


def leaf_walk(e):
    """The identifiers and empty programs of an expression, left to right,
    found by walking it: the reference for what a node works out when it
    is built."""
    if isinstance(e, (Union, Intersection)):
        yield from leaf_walk(e.left)
        yield from leaf_walk(e.right)
    elif isinstance(e, Restriction):
        yield from leaf_walk(e.expr)
        yield e.prog
    elif isinstance(e, Encapsulation):
        yield from leaf_walk(e.expr)
    else:
        yield e


_FIELDS = make_list([Struct("field", (Str("k"), Str("v")))])
_ID_TERMS = st.sampled_from([
    Str("http://a/"), Str("http://b/"),
    Struct("lw", (Atom("get"), Str("http://a/"))),
    Struct("lw", (Atom("head"), Str("http://c/"))),
    Struct("lw", (Struct("post", (_FIELDS,)), Str("http://a/")))])
_HERE = Atom("(#)")


def _expression_terms(depth=3):
    """Composition terms: identifiers, `empty`, `(#)`, every operator and
    every reduce form, and the doubling `(#) + (#)`."""
    leaf = st.one_of(_ID_TERMS, st.just(Atom("empty")), st.just(_HERE),
                     st.just(Struct("+", (_HERE, _HERE))))
    if depth == 0:
        return leaf
    sub = _expression_terms(depth - 1)
    pair = st.tuples(sub, sub)
    return st.one_of(
        leaf,
        pair.map(lambda ab: Struct("+", ab)),
        pair.map(lambda ab: Struct("*", ab)),
        st.tuples(sub, _ID_TERMS).map(lambda ab: Struct("/", ab)),
        sub.map(lambda a: Struct("@", (a,))),
        st.tuples(st.sampled_from("+*"), st.lists(sub, min_size=1, max_size=3)).map(
            lambda ml: Struct("<>", (Atom(ml[0]), make_list(ml[1])))),
        st.tuples(sub, st.lists(_ID_TERMS, max_size=3)).map(
            lambda el: Struct("<>", (Atom("/"),
                                     Struct(",", (el[0], make_list(el[1])))))))


def _build(terms):
    """Each term read in the context the one before it built, from empty."""
    ctx = EMPTY_PROGRAM
    for t in terms:
        ctx = expr_from_term(t, ctx)
    return ctx


@given(st.lists(_expression_terms(), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_an_expression_knows_its_ids_size_and_hash_from_its_parts(terms):
    e = _build(terms)
    leaves = list(leaf_walk(e))
    assert e.ids == tuple(dict.fromkeys(x for x in leaves if isinstance(x, ProgramId)))
    assert e.size == len(leaves)
    twin = _build(terms)
    assert twin == e and hash(twin) == hash(e)
    # and it prints as a term and a text that read back to it
    validate_expression_term(e.to_term())
    assert expr_from_term(e.to_term(), EMPTY_PROGRAM) == e
    assert expr(expr_text(e)) == e


def test_building_expressions_leaves_no_garbage_cycles():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in range(200):
            pid = ProgramId.post(f"http://p{i}/", [("k", "v")])
            ctx = Restriction(Encapsulation(Union(pid, EMPTY_PROGRAM)), pid)
            ctx = Intersection(ctx, ctx)
            assert ctx.ids == pid.ids and ctx.size == 6
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_wide_context_takes_each_id_once_by_hash(monkeypatch):
    # a balanced `+` tree of 2 x 2048 ids, the second half equal copies of
    # the first: looking for each id among the ones before it by a scan
    # would compare millions of pairs, a hashed lookup one pair per copy
    def balanced(pids):
        if len(pids) == 1:
            return pids[0]
        half = len(pids) // 2
        return Union(balanced(pids[:half]), balanced(pids[half:]))

    urls = [f"http://w.example/p{i}.html" for i in range(2048)]
    pids = [ProgramId.get(u) for u in urls + urls]
    compared = []
    eq = ProgramId.__eq__
    monkeypatch.setattr(ProgramId, "__eq__",
                        lambda a, b: compared.append(b) or eq(a, b))
    e = balanced(pids)
    assert len(compared) <= len(urls)
    monkeypatch.undo()
    assert e.ids == tuple(pids[:len(urls)]) and e.size == len(pids)


def test_current_context_resolves_to_the_given_context():
    a = ProgramId.get("http://a/")
    assert expr('lw(get, "http://a/") + (#)', ME) == Union(a, ME)
    assert expr('(#)', ME) is ME
    assert expr('(#)') is EMPTY_PROGRAM
    assert expr('"http://a/" / (#)', ME) == Restriction(a, ME)
    assert expr('(+)<>[(#), "http://a/"]', ME) == Union(ME, a)


def test_current_context_rejects_compound_ctx_in_restriction():
    ctx = Union(ProgramId.get("http://a/"), ProgramId.get("http://b/"))
    with pytest.raises(ExpressionError):
        expr('lw(get, "http://c/") / (#)', ctx)
    with pytest.raises(ExpressionError):
        expr('(/)<>("http://c/", [(#)])', ctx)


# ---------------------------------------------------------------- goals

def test_goals_stay_terms():
    g, _ = parse_goal("a, b")
    assert g == Struct(",", (Atom("a"), Atom("b")))
    g, _ = parse_goal('lw(get, "http://a/") #> b')
    assert g == Struct("#>", (ProgramId.get("http://a/").to_term(), Atom("b")))
    g, _ = parse_goal("true")
    assert g == Atom("true")


def test_goal_rejects_malformed_switch_expression():
    with pytest.raises(ExpressionError):
        parse_goal("f(a) #> b")
    with pytest.raises(ExpressionError):
        parse_goal('a, "http://a/" #> (b, f(a) #> c)')
    # only the `,`/`#>` spine is checked; goals passed as data are not
    parse_goal("run(f(a) #> b)")


def test_clause_from_term():
    t, _ = parse_term_text("p(X) :- q(X), r(X)")
    c = clause_from_term(t)
    x = c.head.args[0]
    assert c.body == Struct(",", (Struct("q", (x,)), Struct("r", (x,))))
    t, _ = parse_term_text("p(a)")
    c = clause_from_term(t)
    assert c.body == Atom("true")


def test_clause_rejects_reserved_heads():
    for bad in ("true", "!", "a :- b"):
        t, _ = parse_term_text(f"({bad}) :- x" if bad != "a :- b" else "(a :- b) :- x")
        with pytest.raises(ExpressionError):
            clause_from_term(t)


def test_clause_text_round_trip():
    src = "p(X) :- q(X), r(f(X))."
    c = parse_program(src)[0]
    assert clause_text(c) == src


def test_rename_clause_keeps_head_body_sharing():
    c = parse_program("p(X) :- q(X).")[0]
    mapping = {}
    head = rename_apart(c.head, mapping)
    body = rename_clause(c, mapping)
    assert head.args[0] == body.args[0]
    assert head.args[0] != c.head.args[0]


# ---------------------------------------------------------------- store

def test_store_install_and_lookup():
    session = make_session({}, security=False)
    pid = ProgramId.get("http://x/")
    prog = LWProgram(pid, parse_program("f(a)."))
    session.install_local(prog)
    assert pid in session.store
    assert session.store.get(pid) is prog
    assert len(session.store) == 1


def test_store_install_is_idempotent():
    session = make_session({}, security=False)
    pid = ProgramId.get("http://x/")
    first = LWProgram(pid, parse_program("f(a)."))
    second = LWProgram(pid, parse_program("f(b)."))
    session.install_local(first)
    session.install_local(second)
    assert session.store == {pid: first}


def test_program_defines():
    prog = LWProgram(ProgramId.get("http://x/"),
                     parse_program("f(a).\ng(X) :- f(X)."))
    assert prog.defines("f", 1)
    assert prog.defines("g", 1)
    assert not prog.defines("f", 2)
    assert not prog.defines("h", 1)


# ---------------------------------------------------------------- the index

# first arguments that share a key (f(X), f(a)), differ only in type (a and
# "a", 1 and 1.0) or arity (f(X), f(X, Y)), or have no key at all (X)
FIRST_ARGS = ["X", "a", '"a"', "b", "1", "1.0", "f(X)", "f(a)", "f(X, Y)",
              "[]", "[H|T]"]


@st.composite
def _indexed_cases(draw):
    heads = draw(st.lists(st.tuples(st.sampled_from(["p", "q"]),
                                    st.sampled_from(FIRST_ARGS)), max_size=14))
    # the second argument numbers each clause, so a dropped or reordered
    # clause changes the answer list
    text = "".join(f"{name}({first}, {i}).\n"
                   for i, (name, first) in enumerate(heads))
    name = draw(st.sampled_from(["p", "q", "r"]))
    first = draw(st.sampled_from(FIRST_ARGS))
    via_subst = draw(st.booleans())
    return text, name, first, via_subst


def _unifying(clauses, goal, s):
    return [c for c in clauses
            if unify(goal, c.head, s, {}) is not None]


@given(_indexed_cases())
@settings(max_examples=300)
def test_index_selects_what_a_linear_scan_selects(case):
    text, name, first, via_subst = case
    prog = LWProgram(ME, parse_program(text))
    if via_subst:
        # the first argument is a variable that the substitution binds
        g = fresh_var("G")
        t, _ = parse_term_text(first)
        goal, s = Struct(name, (g, fresh_var("N"))), EMPTY_SUBST.bind(g, t)
    else:
        (goal, _), s = parse_goal(f"{name}({first}, N)"), EMPTY_SUBST
    candidates = prog.candidates(goal, s)
    assert _unifying(candidates, goal, s) == _unifying(prog.clauses, goal, s)
    assert [c for c in prog.clauses if c in candidates] == list(candidates)
    assert prog.defines(name, 2) == any(functor_of(c.head) == (name, 2)
                                        for c in prog.clauses)


def test_index_atom_goal_and_unknown_predicate():
    prog = LWProgram(ME, parse_program("go.\ngo :- go.\np(a, 1)."))
    go, _ = parse_goal("go")
    assert prog.candidates(go, EMPTY_SUBST) == prog.clauses[:2]
    missing, _ = parse_goal("p(a)")
    assert prog.candidates(missing, EMPTY_SUBST) == ()


def test_index_holds_each_clause_once():
    # keyed and variable-first clauses of one predicate: the keyed buckets
    # and the variable-first bucket share no clause, so the index stays
    # linear in the clause count
    text = "".join(f"p(k{i}).\np(_).\n" for i in range(300)) + "go.\n"
    prog = LWProgram(ME, parse_program(text))
    # per predicate: its clauses, and one position for each clause with a
    # first argument, either under its key or among the variable-first ones
    size = sum(len(clauses) + sum(map(len, keyed.values())) + len(free)
               for clauses, keyed, free in prog._index.values())
    assert size == 2 * len(prog.clauses) - 1
    goal, _ = parse_goal("p(k7)")
    # p(k7) is clause 14; the variable-first ones are the odd positions
    assert prog.candidates(goal, EMPTY_SUBST) == tuple(
        c for i, c in enumerate(prog.clauses) if i % 2 or i == 14)


def test_replace_reindexes_and_keeps_the_old_buckets():
    # a program's clauses are replaced by building a program from new ones;
    # the old program, and a selection already made from it, keep theirs
    old = LWProgram(ME, parse_program("q(z, 0).\np(a, 1).\np(X, 2)."))
    assert isinstance(old.clauses, tuple)
    goal, _ = parse_goal("p(b, N)")
    before = old.candidates(goal, EMPTY_SUBST)
    new = LWProgram(ME, old.clauses + tuple(parse_program("p(b, 3).")))
    assert [clause_text(c) for c in before] == ["p(X, 2)."]
    assert old.candidates(goal, EMPTY_SUBST) == before
    assert [clause_text(c) for c in new.candidates(goal, EMPTY_SUBST)] == [
        "p(X, 2).", "p(b, 3)."]
    shorter = LWProgram(ME, new.clauses[1:])
    assert not shorter.defines("q", 2) and shorter.defines("p", 2)
    assert old.defines("q", 2)


@given(_indexed_cases(), st.lists(st.integers(0, 20), max_size=6),
       st.lists(st.sampled_from(FIRST_ARGS), max_size=4))
@settings(max_examples=100)
def test_add_and_remove_index_as_a_fresh_program_does(case, drops, firsts):
    text, _, _, _ = case
    prog = LWProgram(ME, parse_program(text))
    for first in firsts:
        prog.add(parse_program(f"p({first}, new).")[0])
    for drop in drops:
        if prog.clauses:
            prog.remove(prog.clauses[drop % len(prog.clauses)])
    assert prog._index == LWProgram(ME, prog.clauses)._index


def test_add_and_remove_keep_every_other_bucket():
    prog = LWProgram(ME, parse_program("p(a).\nq(b).\nq(c)."))
    p_bucket = prog.clauses_of(("p", 1))
    prog.add(parse_program("q(d).")[0])
    prog.remove(prog.clauses_of(("q", 1))[0])
    assert prog.clauses_of(("p", 1)) is p_bucket
    assert [clause_text(c) for c in prog.clauses] == ["p(a).", "q(c).", "q(d)."]
