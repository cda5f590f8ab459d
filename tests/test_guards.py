"""Resource guards: loop detection, depth, clause and program budgets,
timeouts, and the ancestor-stack bookkeeping they depend on."""

import random
import subprocess
import sys
import time

import pytest
from conftest import PERMISSIVE_URL, base_pages, make_session, of_kind, policy_page
from logicweb.engine import EngineError, solutions
from logicweb.fetching import PageEntry
from logicweb.guards import (CLAUSE_COUNT_EXCEEDED, DEPTH_EXCEEDED, Guard,
                             GuardConfig, GuardOutcome, GuardTermination,
                             LOOP_FOUND, MESSAGES, PROGRAM_COUNT_EXCEEDED,
                             TIMED_OUT, guarded_solve)
from logicweb.model import (EMPTY_PROGRAM, Encapsulation, ProgramId,
                            Restriction, Union, parse_goal)
from logicweb.syntax import to_text
from logicweb.terms import Atom, Num, Str, Struct, fresh_var
from loop_reference import check_loop

MAIN = "http://progs.example/main.html"
OTHER = "http://progs.example/other.html"


def sess(progs, guard=None, **kw):
    pages = base_pages()
    for url, clauses in progs.items():
        pages[url] = PageEntry(policy_page("Prog", clauses))
    return make_session(pages, security=False,
                        guard=guard or Guard(), **kw)


def run(session, goal_text, limit=None):
    goal, _ = parse_goal(goal_text)
    return guarded_solve(session, ProgramId.get(MAIN), goal, limit=limit)


def test_loop_found():
    s = sess({MAIN: "p :- p.\n"})
    out = run(s, "p")
    assert out.terminated
    assert out.termination.reason == LOOP_FOUND
    assert out.termination.message == "loop found"
    assert out.solutions == []


def test_loop_check_catches_variant_goals():
    s = sess({MAIN: "p(X) :- p(Y).\n"})
    out = run(s, "p(1)")
    assert out.termination.reason == LOOP_FOUND


def test_distinct_goals_are_not_loops():
    s = sess({MAIN: "count(0).\ncount(s(N)) :- count(N).\n"})
    out = run(s, "count(s(s(s(0))))")
    assert not out.terminated
    assert len(out.solutions) == 1


def test_sibling_conjuncts_do_not_read_as_loops():
    # A suspended solved goal to the left of an identical pending goal is
    # not an ancestor of it.
    s = sess({MAIN: "t.\ntwice :- t, t.\n"})
    out = run(s, "twice")
    assert not out.terminated
    assert len(out.solutions) == 1


def test_same_goal_in_different_contexts_is_not_a_loop():
    other = "http://progs.example/other.html"
    s = sess({MAIN: f'p :- "{other}" #> p.\n', other: "p.\n"})
    out = run(s, "p")
    assert not out.terminated
    assert len(out.solutions) == 1


def test_depth_exceeded_when_loop_check_off():
    s = sess({MAIN: "p :- p.\n"},
             guard=Guard(GuardConfig(loop_check=False, max_depth=25)))
    out = run(s, "p")
    assert out.termination.reason == DEPTH_EXCEEDED
    assert out.termination.message == "maximum recursion depth exceeded"
    assert s.hooks.depth <= 26


def test_depth_allows_exactly_the_limit():
    # a chain of n distinct calls occupies n stack entries
    chain = "\n".join(f"d{i} :- d{i + 1}." for i in range(6)) + "\nd6.\n"
    s = sess({MAIN: chain}, guard=Guard(GuardConfig(max_depth=7)))
    assert len(run(s, "d0").solutions) == 1
    s2 = sess({MAIN: chain}, guard=Guard(GuardConfig(max_depth=6)))
    assert run(s2, "d0").termination.reason == DEPTH_EXCEEDED


def test_builtin_goals_take_no_depth():
    s = sess({MAIN: "leaf(X) :- X is 1 + 1.\n"},
             guard=Guard(GuardConfig(max_depth=1)))
    out = run(s, "leaf(X)")
    assert not out.terminated
    assert len(out.solutions) == 1


def test_clause_budget_resets_per_query():
    churn = ("t(0).\n" + "\n".join(
        f"t({i}) :- t({i - 1}), t({i - 1})." for i in range(1, 9)) + "\n")
    s = sess({MAIN: churn}, guard=Guard(GuardConfig(max_clauses=120)))
    out = run(s, "t(8)")
    assert out.termination.reason == CLAUSE_COUNT_EXCEEDED
    assert out.termination.message == "maximum clause count exceeded"
    # a fresh query starts from zero and fits the budget
    assert len(run(s, "t(5)").solutions) == 1


def test_program_budget_spans_queries():
    pages = {MAIN: ""}
    for i in range(6):
        pages[f"http://progs.example/n{i}.html"] = f"here({i}).\n"
    s = sess(pages, guard=Guard(GuardConfig(max_programs=5)))
    for i in range(3):
        assert not run(s, f'"http://progs.example/n{i}.html" #> here(X)').terminated
    # main + three fetched pages = 4; the next two cross the limit of 5
    out = run(s, '"http://progs.example/n3.html" #> here(X), '
                 '"http://progs.example/n4.html" #> here(X)')
    assert out.termination.reason == PROGRAM_COUNT_EXCEEDED
    assert out.termination.message == "maximum LogicWeb program count exceeded"
    assert s.hooks.programs_created == 6


def test_timeout():
    s = sess({MAIN: ""}, guard=Guard(GuardConfig(timeout_ms=150)))
    out = run(s, "sleep(5000)")
    assert out.termination.reason == TIMED_OUT
    assert out.termination.message == "time limit exceeded"


def test_timeout_stops_a_sleep_past_the_float_range():
    s = sess({MAIN: ""}, guard=Guard(GuardConfig(timeout_ms=50)))
    out = run(s, "sleep(1" + "0" * 400 + ")")
    assert out.termination.reason == TIMED_OUT


def test_timeout_uses_injected_clock():
    # every guard checkpoint advances the fake clock half a second
    now = {"t": 0.0}

    def clock():
        now["t"] += 0.5
        return now["t"]

    guard = Guard(GuardConfig(timeout_ms=2000, loop_check=False,
                              max_depth=None), clock=clock)
    s = sess({MAIN: "nat(0).\nnat(M) :- nat(N), M is N + 1.\n"}, guard=guard)
    out = run(s, "nat(X)")
    assert out.termination.reason == TIMED_OUT
    assert now["t"] <= 5.0


def test_timeout_kills_a_running_system_command(monkeypatch):
    started = []
    popen = subprocess.Popen
    monkeypatch.setattr(subprocess, "Popen",
                        lambda *a, **kw: started.append(popen(*a, **kw)) or started[-1])
    s = sess({MAIN: ""}, guard=Guard(GuardConfig(timeout_ms=300)))
    start = time.monotonic()
    out = run(s, 'system("sleep 5")')
    assert out.termination.reason == TIMED_OUT
    assert time.monotonic() - start < 2.0
    assert len(started) == 1 and started[0].poll() is not None


def test_a_stop_closes_the_streams_the_query_opened(tmp_path):
    s = sess({MAIN: "deep(N) :- M is N + 1, deep(M).\n"
                    f'q :- open("{tmp_path / "out.txt"}", write, _), deep(0).\n'},
             guard=Guard(GuardConfig(max_depth=20)))
    handles = []
    new_stream = s.new_stream
    s.new_stream = lambda handle: handles.append(handle) or new_stream(handle)
    out = run(s, "q")
    assert out.termination.reason == DEPTH_EXCEEDED
    assert len(handles) == 1 and handles[0].closed
    assert s.streams == {}


def test_an_error_closes_the_streams_the_query_opened(tmp_path):
    s = sess({MAIN: ""})
    handles = []
    new_stream = s.new_stream
    s.new_stream = lambda handle: handles.append(handle) or new_stream(handle)
    with pytest.raises(EngineError):
        run(s, f'open("{tmp_path / "out.txt"}", write, S), X #> true')
    assert len(handles) == 1 and handles[0].closed
    assert s.streams == {}


def test_solutions_starts_every_query_afresh():
    # 100 queries of 10 clause applications each: the default budget of 500
    # holds only because every query starts from zero
    s = sess({MAIN: "".join(f"n({i}).\n" for i in range(10))})
    for _ in range(100):
        assert len(solutions(s, MAIN, "n(X)")) == 10


def test_solutions_arms_the_timeout():
    s = sess({MAIN: ""}, guard=Guard(GuardConfig(timeout_ms=150)))
    with pytest.raises(GuardTermination) as info:
        solutions(s, MAIN, "sleep(5000)")
    assert info.value.reason == TIMED_OUT


def test_context_size_cap_reports_loop():
    grower = 'g :- ((#) + "{0}") #> g.\n'.format(MAIN)
    s = sess({MAIN: grower},
             guard=Guard(GuardConfig(loop_check=False, max_depth=None,
                                     max_context_size=8)))
    out = run(s, "g")
    assert out.termination.reason == LOOP_FOUND


def test_context_size_counts_leaves_and_takes_one_id_at_sight():
    main, other = ProgramId.get(MAIN), ProgramId.get(OTHER)
    expr = Restriction(Union(Encapsulation(main), EMPTY_PROGRAM), other)
    assert expr.size == 3 and expr.ids == (main, other)
    assert main.size == EMPTY_PROGRAM.size == 1
    assert main.ids == (main,) and EMPTY_PROGRAM.ids == ()


def test_answers_before_the_trip_are_kept():
    s = sess({MAIN: "p(1).\np(2).\np(X) :- p(X).\n"})
    goal, varmap = parse_goal("p(X)")
    out = guarded_solve(s, ProgramId.get(MAIN), goal)
    assert out.termination.reason == LOOP_FOUND
    got = [to_text(sol.subst.apply(varmap["X"])) for sol in out.solutions]
    assert got == ["1", "2"]


def test_session_survives_a_guard_stop():
    s = sess({MAIN: "p(1).\nloop :- loop.\n"})
    assert run(s, "loop").terminated
    out = run(s, "p(X)")
    assert not out.terminated
    assert len(out.solutions) == 1


def test_guarded_solve_limit_short_circuits():
    s = sess({MAIN: "p(1).\np(2).\np(3).\n"})
    out = run(s, "p(X)", limit=2)
    assert len(out.solutions) == 2
    assert not out.terminated


def test_guarded_solve_limit_zero_returns_no_answers():
    s = sess({MAIN: "p(1).\np(2).\n"})
    out = run(s, "p(X)", limit=0)
    assert out.solutions == []
    assert not out.terminated


def test_abort_leaves_an_audit_notice():
    s = sess({MAIN: "loop :- loop.\n"})
    run(s, "loop")
    notes = [e.detail for e in of_kind(s.audit, "notice")]
    assert "query aborted: loop found" in notes


def _stops(guard, ctx, goal):
    """Whether the guard stops this goal as a loop; else it is pushed."""
    try:
        guard.enter_goal(ctx, goal)
    except GuardTermination as exc:
        assert exc.reason == LOOP_FOUND
        return True
    return False


def test_check_loop_requires_equal_context_and_variant_goal():
    ctx, elsewhere = ProgramId.get(MAIN), ProgramId.get(OTHER)
    t, _ = parse_goal("p(X, X)")
    renamed, _ = parse_goal("p(Y, Y)")
    other, _ = parse_goal("p(A, B)")

    def loops(ancestor, ancestor_ctx, goal, goal_ctx):
        guard = Guard(GuardConfig(max_depth=None))
        guard.start()
        assert not _stops(guard, ancestor_ctx, ancestor)
        return _stops(guard, goal_ctx, goal)

    assert loops(t, ctx, t, ctx)
    assert loops(t, ctx, renamed, ctx)
    assert not loops(t, ctx, t, elsewhere)
    assert not loops(other, ctx, t, ctx)


def test_keyed_loop_check_agrees_with_the_ancestor_scan():
    # random pushes and exits, some at tokens already shed, against the
    # reference scan over the same live ancestors
    rng = random.Random(5)
    ctxs = (ProgramId.get(MAIN), ProgramId.get(OTHER))
    x, y = fresh_var("X"), fresh_var("Y")
    leaves = (x, y, Num(1), Num(1.0), Atom("a"), Str("a"))

    def arg():
        leaf = rng.choice(leaves)
        return Struct("f", (leaf,)) if rng.random() < 0.2 else leaf

    def goal():
        return Struct(rng.choice("pq"),
                      tuple(arg() for _ in range(rng.choice((1, 1, 2)))))

    guard = Guard(GuardConfig(max_depth=None, max_clauses=None,
                              max_context_size=None))
    stops = 0
    for _ in range(400):
        guard.start()
        live, tokens = [], []
        for _ in range(50):
            if rng.random() < 0.6:
                ctx, g = rng.choice(ctxs), goal()
                expected = check_loop(live, ctx, g)
                assert _stops(guard, ctx, g) == expected
                if expected:
                    stops += 1
                else:
                    tokens.append(len(live))
                    live.append((ctx, g))
            elif tokens:
                token = rng.choice(tokens)
                guard.exit_goal(token)
                del live[token:]
            assert guard.depth == len(live)
    assert stops >= 200


LEN = "len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.\n"


def test_loop_check_costs_a_bounded_factor_on_list_recursion():
    # each goal holds the rest of the list: a check that compared it with
    # every ancestor would be cubic in the length. The cost is the number of
    # Python calls the query makes, which the machine's load cannot move.
    items = ", ".join(str(i) for i in range(200))
    progs = {MAIN: f"big([{items}]).\n" + LEN}

    def calls(loop_check):
        s = sess(progs, guard=Guard(GuardConfig(
            loop_check=loop_check, max_depth=None, max_clauses=None)))
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        sys.setprofile(profile)
        try:
            out = run(s, "big(L), len(L, N)")
        finally:
            sys.setprofile(None)
        assert not out.terminated and len(out.solutions) == 1
        return count

    assert calls(True) < 5 * calls(False)


def test_int_and_float_goals_are_not_variants():
    s = sess({MAIN: 'p(1) :- p(1.0).\np(1.0).\nq(a) :- q("a").\nq("a").\n'})
    for goal in ("p(1)", "q(a)"):
        out = run(s, goal)
        assert not out.terminated and len(out.solutions) == 1


def test_messages_table_is_total():
    for reason in (LOOP_FOUND, DEPTH_EXCEEDED, PROGRAM_COUNT_EXCEEDED,
                   CLAUSE_COUNT_EXCEEDED, TIMED_OUT):
        assert MESSAGES[reason]


def test_outcome_flags():
    assert not GuardOutcome().terminated
    assert GuardOutcome(termination=GuardTermination("x", "y")).terminated
