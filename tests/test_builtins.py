"""Behaviour of the built-in predicate table, driven through open sessions."""

import os
import time
from pathlib import Path

import pytest
from conftest import HOME_URL, PERMISSIVE_URL, make_session, of_kind
from logicweb import builtins as bi
from logicweb.engine import solutions
from logicweb.fetching import PageEntry
from logicweb.model import LWProgram, ProgramId, clause_text, parse_program
from logicweb.syntax import to_text
from logicweb.terms import Num, Str, Var


def run(open_session, goal, limit=None):
    return solutions(open_session, HOME_URL, goal, limit=limit)


def texts(got, name):
    return [to_text(b[name]) for b in got]


# ---------------------------------------------------------------- files

def test_open_read_close(open_session, tmp_path):
    f = tmp_path / "in.txt"
    f.write_text("x")
    got = run(open_session, f'open("{f}", read, S)')
    assert len(got) == 1
    stream = got[0]["S"]
    assert stream.functor == "$stream"
    assert run(open_session, f"close({to_text(stream)})") == [{}]
    # the handle is gone afterwards
    assert run(open_session, f"close({to_text(stream)})") == []


def test_open_write_creates_file(open_session, tmp_path):
    f = tmp_path / "out.txt"
    got = run(open_session, f'open("{f}", write, S)')
    assert len(got) == 1
    assert f.exists()


def test_open_type_errors(open_session, tmp_path):
    f = tmp_path / "in.txt"
    f.write_text("x")
    assert run(open_session, f'open("{f}", sideways, S)') == []
    assert run(open_session, "open(37, read, S)") == []
    assert run(open_session, f'open("{f}", read, already_bound)') == []
    assert run(open_session, f'open("{tmp_path}/absent", read, S)') == []
    notes = [e.detail for e in of_kind(open_session.audit, "notice")]
    assert any("open" in n for n in notes)


def test_close_rejects_bare_number(open_session, tmp_path):
    f = tmp_path / "in.txt"
    f.write_text("x")
    run(open_session, f'open("{f}", read, S)')
    assert run(open_session, "close(0)") == []


def test_system_exit_status(open_session):
    assert run(open_session, 'system("true")') == [{}]
    assert run(open_session, 'system("false")') == []
    assert run(open_session, "system(nocommandhere_xyz)") == []


def test_system_runs_command(open_session, tmp_path):
    target = tmp_path / "made"
    assert run(open_session, f'system("touch {target}")') == [{}]
    assert target.exists()


def _running(pid: int) -> bool:
    """True while `pid` exists and is not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_system_kills_the_jobs_its_shell_leaves_behind(open_session, tmp_path):
    pidfile = tmp_path / "pid"
    assert run(open_session, f'system("sleep 30 & echo $! > {pidfile}")') == [{}]
    pid = int(pidfile.read_text())
    # SIGKILL is delivered asynchronously; a job left running would sleep 30 s
    for _ in range(100):
        if not _running(pid):
            break
        time.sleep(0.01)
    assert not _running(pid)


def test_report_deletion_notice(open_session, capsys):
    assert run(open_session, 'report_deletion("rm /tmp/x")') == [{}]
    notes = [e.detail for e in of_kind(open_session.audit, "notice")]
    assert any(n.startswith("deletion-report") and "rm /tmp/x" in n for n in notes)
    assert "rm /tmp/x" in capsys.readouterr().out


def test_display_prints(open_session, capsys):
    assert run(open_session, "display(f(a, [1, 2]))") == [{}]
    assert "f(a, [1, 2])" in capsys.readouterr().out


# ---------------------------------------------------------------- text

def test_contains(open_session):
    assert run(open_session, 'contains("http://a.example/x", "a.example")') == [{}]
    assert run(open_session, 'contains("abc", "z")') == []
    assert run(open_session, "contains(abc, b)") == [{}]  # atoms count as text
    assert run(open_session, "contains(Unbound, x)") == []


def test_append_strings(open_session):
    assert run(open_session, 'append("ab", "cd", X)') == [{"X": Str("abcd")}]
    got = run(open_session, 'append("/tmp/", Rest, "/tmp/file")')
    assert got == [{"Rest": Str("file")}]
    assert run(open_session, 'append("rm ", _, "rm -rf /")') == [{}]
    assert run(open_session, 'append("rm ", _, "ls")') == []


def test_append_strings_with_the_whole_and_the_suffix_bound(open_session):
    assert run(open_session, 'X = "abc", append(A, "bc", X)') == [
        {"X": Str("abc"), "A": Str("a")}]
    assert run(open_session, 'append(A, "x", "abc")') == []


def test_append_string_enumeration(open_session):
    got = run(open_session, 'append(A, B, "xy")')
    pairs = [(b["A"].value, b["B"].value) for b in got]
    assert pairs == [("", "xy"), ("x", "y"), ("xy", "")]


def test_append_lists(open_session):
    got = run(open_session, "append([1, 2], [3], X)")
    assert texts(got, "X") == ["[1, 2, 3]"]
    got = run(open_session, "append(A, B, [1, 2])")
    assert len(got) == 3


def test_member(open_session):
    got = run(open_session, "member(X, [a, b, c])")
    assert texts(got, "X") == ["a", "b", "c"]
    assert run(open_session, "member(b, [a, b, b])") == [{}, {}]
    assert run(open_session, "member(z, [a, b])") == []


# ---------------------------------------------------------------- arithmetic

HUGE = "1" + "0" * 400      # an int too large to convert to a float

def test_is_evaluates(open_session):
    assert run(open_session, "X is 2 + 3 * 4") == [{"X": Num(14)}]
    assert run(open_session, "X is 7 - 2 - 1") == [{"X": Num(4)}]
    assert run(open_session, "X is '-'(3)") == [{"X": Num(-3)}]
    assert run(open_session, "X is '-'(2 - 5.5)") == [{"X": Num(3.5)}]
    assert run(open_session, "4 is 2 + 2") == [{}]
    assert run(open_session, "5 is 2 + 2") == []
    assert run(open_session, "X is foo + 1") == []
    assert run(open_session, "X is Y + 1") == []
    # no text reads back as an infinity, so is/2 refuses to make one
    assert run(open_session, "X is 1.0e300 * 1.0e300") == []
    notes = [e.detail for e in of_kind(open_session.audit, "notice")]
    assert notes[-1] == "is/2: non-finite result: 1e+300 * 1e+300"
    assert run(open_session, f"X is 1.0 + {HUGE}") == []


def test_comparisons(open_session):
    assert run(open_session, "1 < 2") == [{}]
    assert run(open_session, "2 < 1") == []
    assert run(open_session, "2 =< 2") == [{}]
    assert run(open_session, "3 >= 4") == []
    assert run(open_session, "2 + 1 =:= 3") == [{}]
    assert run(open_session, "2 =\\= 3") == [{}]
    assert run(open_session, "a < b") == []
    assert run(open_session, f"1.0 + {HUGE} > 1") == []


def test_sleep_completes(open_session):
    assert run(open_session, "sleep(30)") == [{}]


def test_sleep_past_the_ceiling_without_a_deadline_fails_at_once(open_session,
                                                                 monkeypatch):
    naps = []
    monkeypatch.setattr(time, "sleep", naps.append)
    millis = bi.UNTIMED_CEILING_S * 1000
    assert run(open_session, f"sleep({millis + 1})") == []
    assert run(open_session, "sleep(1.0e300)") == []
    assert naps == []
    notes = [e.detail for e in of_kind(open_session.audit, "notice")]
    assert len(notes) == 2 and all(n.startswith("sleep/1 failed") for n in notes)
    assert run(open_session, f"sleep({millis})") == [{}]
    assert sum(naps) == pytest.approx(bi.UNTIMED_CEILING_S)


# ---------------------------------------------------------------- terms

def test_unify_and_friends(open_session):
    got = run(open_session, "X = f(Y), Y = 1")
    assert texts(got, "X") == ["f(1)"]
    assert run(open_session, "f(X) = g(X)") == []
    assert run(open_session, "X \\= Y") == []
    assert run(open_session, "a \\= b") == [{}]
    assert run(open_session, "f(a) == f(a)") == [{}]
    assert run(open_session, "X == Y") == []
    assert len(run(open_session, "X \\== Y")) == 1
    # an integer and a float neither unify nor compare equal
    assert run(open_session, "1 == 1.0") == []
    assert run(open_session, "f(1) == f(1.0)") == []
    assert run(open_session, "1 \\== 1.0") == [{}]
    assert run(open_session, "1 =:= 1.0") == [{}]


def test_unify_respects_occurs_check(open_session):
    assert run(open_session, "X = f(X)") == []


def test_type_tests(open_session):
    assert run(open_session, "atom(a)") == [{}]
    assert run(open_session, 'atom("a")') == []
    assert run(open_session, "number(3)") == [{}]
    assert run(open_session, 'string("s")') == [{}]
    got = run(open_session, "var(X)")
    assert len(got) == 1 and isinstance(got[0]["X"], Var)
    assert run(open_session, "X = 1, var(X)") == []


# ---------------------------------------------------------------- store

def test_program_exists(session):
    assert solutions(session, HOME_URL, f'lw(get, "{HOME_URL}") #> true')
    got = solutions(session, HOME_URL,
                    f'program_exists(lw(get, "{HOME_URL}"))')
    assert got == [{}]
    got = solutions(session, HOME_URL,
                    'program_exists(lw(get, "http://never.fetched/"))')
    assert got == []


# ---------------------------------------------------------------- policy state

def test_assert_needs_a_policy_context(open_session):
    # With no policy mediating the call, assert has no program to extend.
    assert solutions(open_session, HOME_URL, "assert(f(a))") == []
    assert solutions(open_session, HOME_URL, "retract(f(a))") == []


def test_passthrough_policy_owns_asserted_clauses(pages):
    # Under a policy that forwards every call, assert executes inside the
    # policy program, so the clause lands there and not in the page.
    session = make_session(pages)
    assert solutions(session, HOME_URL, "assert(marker(1))") == [{}]
    assert solutions(session, HOME_URL, "marker(X)") == []
    got = solutions(session, HOME_URL,
                    f'lw(get, "{PERMISSIVE_URL}") #> marker(X)')
    assert got == [{"X": Num(1)}]


def test_assert_stores_a_copy(pages):
    # the stored clause shares no variable with the caller's goal
    session = make_session(pages)
    for goal in ("assert(c(X)), retract(c(5))",
                 "assert(c(X)), assert(d(X)), retract(c(Y)), Y = 3"):
        (got,) = solutions(session, HOME_URL, goal)
        assert isinstance(got["X"], Var)


def test_selection_keeps_the_clauses_it_started_with(pages):
    clauses = ("p(1).\np(2).\n"
               "valid_program(_, _).\n"
               "valid_systemCall(_).\n"
               "call_system(G) :- built_ins:call_builtin(G).\n")
    url = "http://policies.example.org/growing.html"
    from conftest import policy_page
    pages = dict(pages)
    pages[url] = PageEntry(policy_page("Growing", clauses))
    session = make_session(pages, default_policy=url)

    def in_policy(goal):
        got = solutions(session, HOME_URL, f'lw(get, "{url}") #> ({goal})')
        return [b["X"].value for b in got]

    assert in_policy("p(X), assert(p(9))") == [1, 2]
    assert in_policy("p(X)") == [1, 2, 9, 9]


def test_stateful_policy_counter(pages):
    clauses = ("counter(0).\n"
               "valid_program(_, _).\n"
               "valid_systemCall(_).\n"
               "call_system(G) :- built_ins:call_builtin(G).\n"
               "bump :- retract(counter(N)), M is N + 1, assert(counter(M)).\n")
    url = "http://policies.example.org/stateful.html"
    from conftest import policy_page
    pages = dict(pages)
    pages[url] = PageEntry(policy_page("Stateful", clauses))
    session = make_session(pages, default_policy=url)

    def in_policy(goal):
        return solutions(session, HOME_URL, f'lw(get, "{url}") #> ({goal})')

    assert in_policy("counter(N)") == [{"N": Num(0)}]
    assert in_policy("bump") == [{}]
    assert in_policy("counter(N)") == [{"N": Num(1)}]
    assert in_policy("retract(counter(5))") == []


LEDGER = ("first(1).\n"
          "valid_program(_, _).\n"
          "valid_systemCall(_).\n"
          "call_system(G) :- built_ins:call_builtin(G).\n"
          "calls(0).\n"
          "rule(a).\n"
          "rule(b) :- first(1).\n"
          "last(1).\n")


@pytest.fixture
def ledger(pages):
    """A session whose default policy is LEDGER, a runner of goals inside
    it, and its stored program once fetched."""
    from conftest import policy_page
    url = "http://policies.example.org/ledger.html"
    pages = dict(pages)
    pages[url] = PageEntry(policy_page("Ledger", LEDGER))
    session = make_session(pages, default_policy=url)

    def in_policy(goal):
        return solutions(session, HOME_URL, f'lw(get, "{url}") #> ({goal})')

    assert in_policy("calls(0)") == [{}]
    return in_policy, session.store.get(ProgramId.get(url))


def test_assert_keeps_the_buckets_of_other_predicates(ledger):
    in_policy, prog = ledger
    valid = prog.clauses_of(("valid_systemCall", 1))
    assert in_policy("retract(calls(0)), assert(calls(1))") == [{}]
    assert prog.clauses_of(("valid_systemCall", 1)) is valid
    assert in_policy("calls(N)") == [{"N": Num(1)}]


def test_retract_with_a_variable_takes_the_first_clause(ledger):
    in_policy, prog = ledger
    before = prog.clauses
    (got,) = in_policy("retract(X)")
    assert clause_text(before[0]) == to_text(got["X"]) + "."
    assert prog.clauses == before[1:]


def test_retract_of_a_rule_pattern_leaves_the_facts(ledger):
    in_policy, prog = ledger
    assert texts(in_policy("retract((rule(X) :- B))"), "X") == ["b"]
    assert texts(in_policy("rule(X)"), "X") == ["a"]
    assert in_policy("retract((rule(X) :- B))") == []


def test_retract_of_the_last_clause_undefines_the_predicate(ledger):
    in_policy, prog = ledger
    assert in_policy("retract(last(1))") == [{}]
    assert not prog.defines("last", 1)
    assert [c for c in prog.clauses if c.head.functor == "last"] == []


def test_unknown_predicate_just_fails(open_session):
    assert run(open_session, "no_such_builtin(1, 2)") == []
    assert of_kind(open_session.audit, "notice") == []


def test_qualified_unknown_builtin_leaves_notice(open_session):
    assert run(open_session, "built_ins:call_builtin(no_such_builtin(1))") == []
    notes = [e.detail for e in of_kind(open_session.audit, "notice")]
    assert any("no_such_builtin" in n for n in notes)
