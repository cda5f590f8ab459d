"""Behaviour of the built-in predicate table, driven through open sessions."""

import os
import time
from pathlib import Path

import builtin_reference
import pytest
from conftest import (HOME_URL, PERMISSIVE_URL, make_session, of_kind,
                      policy_page)
from hypothesis import given, settings
from hypothesis import strategies as st
from logicweb import builtins as bi
from logicweb.engine import solutions
from logicweb.fetching import PageEntry
from logicweb.model import LWProgram, ProgramId, clause_text, parse_program
from logicweb.syntax import to_text
from logicweb.terms import (EMPTY_SUBST, NIL, Atom, Num, Str, Struct,
                            Substitution, Var, make_list, occurs_in)


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


def test_close_takes_only_the_integer_stream_id(open_session, tmp_path):
    # '$stream'(0.0) does not unify with the '$stream'(0) open/3 made, so it
    # must not close that stream
    (got,) = run(open_session, f'open("{tmp_path / "out.txt"}", write, S)')
    stream = got["S"]
    assert run(open_session, f"close('$stream'({stream.args[0].value}.0))") == []
    notes = [e.detail for e in of_kind(open_session.audit, "notice")]
    assert notes == ["close/1: not an open stream"]
    assert run(open_session, f"close({to_text(stream)})") == [{}]


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


# ---------------------------------------------------------------- purity

def test_the_pure_builtins_are_the_ones_the_readme_lists():
    two = ["<", ">", "=<", ">=", "=:=", "=\\=", "=", "\\=", "==", "\\==", "is",
           "contains", "member"]
    listed = ({(name, 2) for name in two} | {("append", 3)}
              | {(name, 1) for name in ("atom", "var", "number", "string")})
    assert len(listed) == 18
    assert bi.PURE == listed
    assert bi.PURE <= bi.TABLE.keys()
    for impure in [("assert", 1), ("retract", 1), ("open", 3), ("close", 1),
                   ("system", 1), ("display", 1), ("sleep", 1),
                   ("report_deletion", 1), ("program_exists", 1)]:
        assert impure in bi.TABLE and impure not in bi.PURE


# ---------------------------------------------------------------- protocol

_VARS = [Var(f"H{i}", -400 - i) for i in range(4)]
_var = st.sampled_from(_VARS)
_numbers = st.sampled_from([Num(0), Num(1), Num(2), Num(1.5)])
_text = st.sampled_from([Str(""), Str("a"), Str("ab"), Atom("a")])


def _arith(sub):
    return (st.tuples(st.sampled_from("+-*"), st.lists(sub, min_size=1, max_size=2))
            .map(lambda fa: Struct(fa[0], tuple(fa[1]))))


def _lists(sub):
    return (st.tuples(st.lists(sub, max_size=3), st.just(NIL) | _var)
            .map(lambda items_tail: make_list(*items_tail)))


def _nested(leaves, compounds):
    """Small terms over `leaves` and variables."""
    return st.recursive(leaves | _var, compounds, max_leaves=5)


# the terms each built-in is called with, and its variables bound to
_ARITH = _nested(_numbers | st.just(Atom("a")), _arith)
_LISTS = _nested(_numbers | _text, _lists)
_TERMS = {"contains": _text | _var, "append": _LISTS, "member": _LISTS,
          **dict.fromkeys(["<", ">", "=<", ">=", "=:=", "=\\=", "is"], _ARITH)}
_ANY = _nested(_numbers | _text, lambda sub: _arith(sub) | _lists(sub))


@st.composite
def _goals_in_context(draw, key):
    """A call of the built-in `key` and a substitution, with no cycle, that
    binds some of the call's variables to nested terms or to each other.
    Half the arguments are variables, and most variables are bound."""
    name, arity = key
    terms = _TERMS.get(name, _ANY)
    goal = Struct(name, tuple(draw(_var if draw(st.booleans()) else terms)
                              for _ in range(arity)))
    order = draw(st.permutations(_VARS))
    s = EMPTY_SUBST
    for v, after in zip(order, order[1:] + [None]):
        # free, bound to the next variable, or, twice as often, to a term
        t = draw(st.sampled_from([None, after, terms, terms]))
        t = draw(t) if t is terms else t
        if t is not None and not occurs_in(v.id, t, s):
            s = s.bind(v, t)
    return goal, s


class _Notices:
    def __init__(self):
        self.notices = []

    def notice(self, message):
        self.notices.append(message)


def _answers(call, goal, s):
    session = _Notices()
    got = [[s1.apply(v) for v in _VARS] for s1 in call(goal, s, session, None)]
    return got, session.notices


@pytest.mark.parametrize("key", sorted(bi.PURE), ids=lambda k: f"{k[0]}/{k[1]}")
def test_a_pure_built_in_answers_as_the_delta_protocol_did(key):
    @given(_goals_in_context(key))
    @settings(max_examples=50, derandomize=True, deadline=None)
    def agrees(case):
        goal, s = case
        assert (_answers(bi.call_builtin, goal, s)
                == _answers(builtin_reference.call_builtin, goal, s))
    agrees()


H0, H1, H2, H3 = _VARS


@pytest.mark.parametrize("goal, bindings", [
    (Struct("append", (H0, H1, H2)), {H2: Str("ab")}),
    (Struct("append", (H0, H1, H2)), {H2: make_list([H3, Num(1)]), H3: Str("a")}),
    (Struct("append", (H0, H1, H2)), {H2: make_list([H3, H3]), H3: make_list([Num(1)])}),
    (Struct("append", (H0, H1, H2)), {H2: make_list([Num(1)], H3),
                                       H3: make_list([Num(2)])}),
    (Struct("member", (H0, H1)), {H1: make_list([H2, H3, H2]), H2: Num(1)}),
    (Struct("member", (H0, H1)), {H1: make_list([H2], H3), H3: make_list([H2])}),
])
def test_an_enumerating_built_in_answers_in_the_order_the_delta_protocol_did(
        goal, bindings):
    s = Substitution({v.id: t for v, t in bindings.items()})
    got = _answers(bi.call_builtin, goal, s)
    assert len(got[0]) > 1
    assert got == _answers(builtin_reference.call_builtin, goal, s)


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


LEDGER_URL = "http://policies.example.org/ledger.html"
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
    pages = dict(pages)
    pages[LEDGER_URL] = PageEntry(policy_page("Ledger", LEDGER))
    session = make_session(pages, default_policy=LEDGER_URL)

    def in_policy(goal):
        return solutions(session, HOME_URL,
                         f'lw(get, "{LEDGER_URL}") #> ({goal})')

    assert in_policy("calls(0)") == [{}]
    return in_policy, session.store.get(ProgramId.get(LEDGER_URL))


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


# ---------------------------------------------------------------- refusals

TOO_LONG = "1" + "0" * 2200     # its square has more digits than Python prints

# (goal, the one notice it leaves, run inside a policy program): every
# place a built-in refuses its call, and each cause of an arithmetic refusal
REFUSALS = {
    "unknown": ("built_ins:call_builtin(no_such_builtin(1))",
                "unknown built-in: no_such_builtin(1)", False),
    "open-name": ("open(37, read, S)",
                  "open/3: file name must be an atom or string", False),
    "open-mode": ('open("f", sideways, S)',
                  "open/3: mode must be read or write", False),
    "open-stream": ('open("f", read, bound)',
                    "open/3: stream argument must be unbound", False),
    "open-fails": ('open("a\0b", read, S)',
                   "open/3 failed: embedded null byte", False),
    "close": ("close(3)", "close/1: not an open stream", False),
    "system-text": ("system(37)",
                    "system/1: command must be an atom or string", False),
    "system-nul": ('system("a\0b")', "system/1 failed: embedded null byte",
                   False),
    "system-ceiling": ('system("sleep 5")',
                       "system/1 failed: 'sleep 5' ran past 0 seconds", False),
    "sleep-number": ("sleep(a)", "sleep/1: milliseconds must be a number",
                     False),
    "sleep-ceiling": ("sleep(1.0e300)",
                      "sleep/1 failed: over 30 seconds with no time limit",
                      False),
    "assert-context": ("assert(f(a))",
                       "assert/1: only policy programs may change their clauses",
                       False),
    "assert-head": ("assert(3)", "assert/1: illegal clause head: 3", True),
    "retract-context": ("retract(f(a))",
                        "retract/1: only policy programs may change their clauses",
                        False),
    "program-id": ("program_exists(foo)",
                   "program_exists/1: not a program identifier", False),
    "contains": ("contains(X, a)", "contains/2: both arguments must be text",
                 False),
    "is-arith": ("X is foo + 1", "is/2: not arithmetic: foo", False),
    "is-overflow": (f"X is 1.0 + {HUGE}",
                    "is/2: int too large to convert to float", False),
    "is-infinite": ("X is 1.0e300 * 1.0e300",
                    "is/2: non-finite result: 1e+300 * 1e+300", False),
    "is-too-long": (f"X is {TOO_LONG} * {TOO_LONG}",
                    "is/2: integer result too long to print", False),
    "compare": ("a < b", "<: not arithmetic: a", False),
    "compare-overflow": (f"1.0 + {HUGE} >= 1",
                         ">=: int too large to convert to float", False),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_refused_call_fails_and_leaves_one_notice_naming_why(case, pages,
                                                               monkeypatch):
    goal, notice, in_policy = REFUSALS[case]
    if case == "system-ceiling":
        monkeypatch.setattr(bi, "UNTIMED_CEILING_S", 0)
    if in_policy:
        pages = dict(pages)
        pages[LEDGER_URL] = PageEntry(policy_page("Ledger", LEDGER))
        session = make_session(pages, default_policy=LEDGER_URL)
        goal = f'lw(get, "{LEDGER_URL}") #> ({goal})'
    else:
        session = make_session(pages, security=False)
    assert solutions(session, HOME_URL, goal) == []
    assert [e.detail for e in of_kind(session.audit, "notice")] == [notice]
