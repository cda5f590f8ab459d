"""Core evaluation: composition operators, control constructs, and the
security-mode differences in switching and system calls."""

import random
from pathlib import Path
from typing import NamedTuple

import genfix
import pytest
import verdict_reference
from conftest import (DEPT_URL, HOME_URL, PERMISSIVE_CLAUSES, PERMISSIVE_URL,
                      RMIT_URL, base_pages, make_session, of_kind, policy_page)
from logicweb import engine, security
from logicweb.engine import EngineError, solutions
from logicweb.fetching import PageEntry
from logicweb.guards import (Guard, GuardConfig, GuardTermination,
                             guarded_solve)
from logicweb.model import (Clause, Encapsulation, Intersection, LWProgram,
                            ProgramId, parse_goal)
from logicweb.syntax import parse_term_text, to_text
from logicweb.terms import Atom, Num, Struct, variant, variant_key

MAIN = "http://progs.example/main.html"
A = "http://progs.example/a.html"
B = "http://progs.example/b.html"
C = "http://progs.example/c.html"
REJECT_URL = "http://policies.example.org/reject.html"
BINDER_URL = "http://policies.example.org/binder.html"
SECOND_URL = "http://policies.example.org/second.html"
THIRD_URL = "http://policies.example.org/third.html"

REJECT_CLAUSES = ("valid_program(_, _) :- fail.\n"
                  "valid_systemCall(_).\n"
                  "call_system(G) :- built_ins:call_builtin(G).\n")

BINDER_CLAUSES = ("valid_program(_, _).\n"
                  'valid_systemCall(contains(_, _)).\n'
                  'call_system(contains("forced", "force")).\n')


def sess(progs, security=False, default_policy=PERMISSIVE_URL, **kw):
    pages = base_pages()
    pages[REJECT_URL] = PageEntry(policy_page("Reject All", REJECT_CLAUSES))
    pages[BINDER_URL] = PageEntry(policy_page("Binder", BINDER_CLAUSES))
    for url, clauses in progs.items():
        pages[url] = PageEntry(policy_page("Prog", clauses))
    return make_session(pages, security=security,
                        default_policy=default_policy, **kw)


def q(session, goal, var="X"):
    return [to_text(b[var]) for b in solutions(session, MAIN, goal)]


def count(session, goal):
    return len(solutions(session, MAIN, goal))


# ---------------------------------------------------------------- operators

def test_union_keeps_textual_then_operand_order():
    s = sess({MAIN: "", A: "p(1).\np(3).\n", B: "p(2).\n"})
    assert q(s, f'("{A}" + "{B}") #> p(X)') == ["1", "3", "2"]
    assert q(s, f'("{B}" + "{A}") #> p(X)') == ["2", "1", "3"]


def test_union_resolves_bodies_across_operands():
    s = sess({MAIN: "", A: "q(X) :- r(X).\nr(0).\n", B: "r(1).\n"})
    assert q(s, f'("{A}" + "{B}") #> q(X)') == ["0", "1"]


def test_intersection_pairs_clauses():
    s = sess({MAIN: "",
              A: "s(1).\ns(2).\nboth(X) :- s(X).\n",
              B: "s(2).\ns(3).\nboth(X) :- s(X).\n"})
    assert q(s, f'("{A}" * "{B}") #> s(X)') == ["2"]
    assert q(s, f'("{A}" * "{B}") #> both(X)') == ["2"]


def test_intersection_requires_both_sides():
    s = sess({MAIN: "", A: "only_here(1).\n", B: "s(2).\n"})
    assert count(s, f'("{A}" * "{B}") #> only_here(X)') == 0


def test_restriction_hides_predicates_defined_by_filter():
    s = sess({MAIN: "", A: "p(1).\nq(2).\n", B: "p(9).\n"})
    assert count(s, f'("{A}" / "{B}") #> p(X)') == 0
    assert q(s, f'("{A}" / "{B}") #> q(X)') == ["2"]
    # the filter program's own clauses are not part of the context
    assert count(s, f'("{A}" / "{B}") #> p(9)') == 0


def test_reduce_restrict_folds():
    s = sess({MAIN: "", A: "p(1).\nq(2).\n", B: "p(9).\n", C: "p(5).\nr(7).\n"})
    goal = f'(/)<>("{A}" + "{C}", ["{B}"]) #> '
    assert count(s, goal + "p(X)") == 0
    assert q(s, goal + "q(X)") == ["2"]
    assert q(s, goal + "r(X)") == ["7"]


def test_reduce_union_and_intersection():
    s = sess({MAIN: "", A: "p(1).\np(3).\ns(2).\n", B: "p(2).\ns(2).\ns(9).\n",
              C: "p(5).\n"})
    assert q(s, f'(+)<>["{A}", "{B}", "{C}"] #> p(X)') == ["1", "3", "2", "5"]
    assert q(s, f'(*)<>["{A}", "{B}"] #> s(X)') == ["2"]


def test_encapsulation_seals_helper_resolution():
    progs = {MAIN: "", A: "pub(X) :- helper(X).\nhelper(1).\n", B: "helper(2).\n"}
    s = sess(progs)
    assert q(s, f'("{A}" + "{B}") #> pub(X)') == ["1", "2"]
    assert q(s, f'(@"{A}" + "{B}") #> pub(X)') == ["1"]
    # the wall is one-way: any goal provable inside still exports
    assert q(s, f'(@"{A}" + "{B}") #> helper(X)') == ["1", "2"]


def test_current_context_marker_unions_with_caller():
    s = sess({MAIN: "m(0).\n", A: "p(1).\np(3).\n"})
    assert q(s, f'((#) + "{A}") #> m(X)') == ["0"]
    assert q(s, f'((#) + "{A}") #> p(X)') == ["1", "3"]


def test_marker_inside_a_downloaded_page():
    s = sess({MAIN: "",
              A: f'combo(X) :- ((#) + "{B}") #> pq(X).\npq(4).\n',
              B: "pq(2).\n"})
    assert q(s, f'"{A}" #> combo(X)') == ["4", "2"]


def test_empty_program_context():
    s = sess({MAIN: ""})
    assert count(s, "empty #> p(X)") == 0
    assert count(s, "empty #> true") == 1


def test_switch_to_unfetchable_page_fails_quietly():
    s = sess({MAIN: ""})
    assert count(s, '"http://nowhere.example/" #> true') == 0
    assert len(of_kind(s.audit, "fetch")) >= 1


# ---------------------------------------------------------------- control

CONTROL = """\
first(X) :- member(X, [1, 2, 3]), !.
cutfail :- member(_, [1, 2]), !, fail.
alt(X) :- (X = 1, ! ; X = 2).
viaq(X) :- c(X).
c(X) :- X = 1, !.
c(2).
blocked :- yes, !, fail.
blocked.
unreached :- fail, !.
unreached.
yes.
ite1(X) :- (1 =:= 1 -> X = yes ; X = no).
ite2(X) :- (1 =:= 2 -> X = yes ; X = no).
ite3(X) :- (member(X, [1, 2]) -> true ; X = none).
ite4(X) :- (fail -> X = 1).
disj(X) :- (X = a ; X = b).
"""


@pytest.fixture(scope="module")
def ctl():
    return sess({MAIN: CONTROL})


def test_cut_commits_to_first_answer(ctl):
    assert q(ctl, "first(X)") == ["1"]


def test_cut_then_fail_kills_the_predicate(ctl):
    assert count(ctl, "cutfail") == 0
    assert count(ctl, "blocked") == 0


def test_cut_is_local_to_its_clause(ctl):
    assert q(ctl, "viaq(X)") == ["1"]
    assert count(ctl, "unreached") == 1


def test_cut_inside_disjunction(ctl):
    assert q(ctl, "alt(X)") == ["1"]


def test_if_then_else(ctl):
    assert q(ctl, "ite1(X)") == ["yes"]
    assert q(ctl, "ite2(X)") == ["no"]
    assert q(ctl, "ite3(X)") == ["1"]
    assert count(ctl, "ite4(X)") == 0


def test_disjunction_yields_both(ctl):
    assert q(ctl, "disj(X)") == ["a", "b"]


# ---------------------------------------------------------------- security modes

def test_switch_checks_only_apply_with_active_policies():
    progs = {MAIN: "", A: "p(1).\n"}
    closed = sess(progs, security=True, default_policy=REJECT_URL)
    # the very first switch carries no policies yet, so the main program
    # always loads; everything after that must pass the reject-all policy
    assert count(closed, "true") == 1
    assert count(closed, f'"{A}" #> p(X)') == 0

    open_ = sess(progs, security=False, default_policy=REJECT_URL)
    assert q(open_, f'"{A}" #> p(X)') == ["1"]


def test_switch_to_a_policy_program_is_never_vetted():
    s = sess({MAIN: ""}, security=True, default_policy=REJECT_URL)
    assert count(s, f'lw(get, "{REJECT_URL}") #> valid_systemCall(x)') == 1


def test_policy_set_grows_and_dedupes_across_switches():
    pages = base_pages()
    pages[MAIN] = PageEntry(policy_page("Main", ""))
    pages[A] = PageEntry(policy_page("A", "p(1).\n"))
    pages[SECOND_URL] = PageEntry(
        policy_page("Second", pages[PERMISSIVE_URL].body.split("<LW_CODE>")[1]
                    .split("</LW_CODE>")[0]))
    s = make_session(pages, security=True)
    perm = ProgramId.get(PERMISSIVE_URL)
    second = ProgramId.get(SECOND_URL)
    s.registry.assign(ProgramId.get(A), second)

    list(solutions(s, MAIN, f'"{A}" #> p(X)'))
    switches = [ev for ev in of_kind(s.audit, "switch")
                if ev.sigma and len(ev.chain) > 1]
    assert switches[0].sigma == (perm,)
    assert switches[-1].sigma == (second, perm)

    # switching back into an already-active policy's program adds nothing
    s.audit.events.clear()
    list(solutions(s, MAIN, f'"{MAIN}" #> true'))
    last = of_kind(s.audit, "switch")[-1]
    assert last.sigma == (perm,)


def test_system_call_bindings_flow_back_from_the_policy():
    s = sess({MAIN: ""}, security=True, default_policy=BINDER_URL)
    got = solutions(s, MAIN, "contains(X, Y)")
    assert [(to_text(b["X"]), to_text(b["Y"])) for b in got] == [
        ('"forced"', '"force"')]

    open_ = sess({MAIN: ""}, security=False)
    assert solutions(open_, MAIN, "contains(X, Y)") == []


def test_policy_can_reject_specific_system_calls():
    clauses = ("valid_program(_, _).\n"
               "valid_systemCall(G) :- G \\= system(_).\n"
               "call_system(G) :- built_ins:call_builtin(G).\n")
    url = "http://policies.example.org/nosystem.html"
    pages = base_pages()
    pages[MAIN] = PageEntry(policy_page("Main", ""))
    pages[url] = PageEntry(policy_page("No System", clauses))
    s = make_session(pages, default_policy=url)
    assert count(s, 'system("true")') == 0
    assert count(s, 'contains("ab", "a")') == 1


def test_qualified_builtins_need_an_empty_policy_set():
    secured = sess({MAIN: ""}, security=True)
    assert count(secured, 'built_ins:contains("ab", "a")') == 0
    open_ = sess({MAIN: ""}, security=False)
    assert count(open_, 'built_ins:contains("ab", "a")') == 1
    assert count(open_, "built_ins:builtin(contains(x, y))") == 1
    assert count(open_, "built_ins:builtin(nonsense(x))") == 0


def test_syscall_audit_records_chain_and_policies():
    s = sess({MAIN: 'go :- contains("ab", "a").\n'}, security=True)
    assert count(s, "go") == 1
    events = of_kind(s.audit, "syscall")
    # first the vetted user-level call, then its execution inside the policy
    assert [bool(ev.sigma) for ev in events] == [True, False]
    ev = events[0]
    assert ev.detail == 'contains("ab", "a")'
    assert len(ev.chain) == 2
    assert ev.sigma == (ProgramId.get(PERMISSIVE_URL),)


def test_a_switch_takes_its_programs_in_expression_order():
    """B is named first, so it is fetched first and its policy enters the
    set first, although A's id prints first."""
    pol_a = ProgramId.get("http://policies.example.org/pol-a.html")
    pol_b = ProgramId.get("http://policies.example.org/pol-b.html")
    s = sess({MAIN: "", A: "g.\n", B: "g.\n",
              pol_a.url: PERMISSIVE_CLAUSES, pol_b.url: PERMISSIVE_CLAUSES},
             security=True)
    s.registry.assign(ProgramId.get(A), pol_a)
    s.registry.assign(ProgramId.get(B), pol_b)

    assert count(s, f'(lw(get, "{B}") + lw(get, "{A}")) #> g') == 2
    fetched = [ev.detail for ev in of_kind(s.audit, "fetch")]
    b_text, a_text = ProgramId.get(B).serialize(), ProgramId.get(A).serialize()
    assert fetched.index(b_text) < fetched.index(a_text)
    last = of_kind(s.audit, "switch")[-1]
    assert last.sigma == (pol_b, pol_a, ProgramId.get(PERMISSIVE_URL))


# ---------------------------------------------------------------- errors

def test_unbound_goal_is_an_error():
    s = sess({MAIN: ""})
    with pytest.raises(EngineError):
        list(solutions(s, MAIN, "X"))


def test_uninstantiated_switch_expression_is_an_error():
    s = sess({MAIN: ""})
    with pytest.raises(EngineError, match="not instantiated"):
        list(solutions(s, MAIN, "E #> true"))


def test_restricting_by_a_compound_current_context_is_an_error():
    s = sess({MAIN: "", A: f'r :- ("{B}" / (#)) #> true.\n', B: ""})
    with pytest.raises(EngineError, match="restriction"):
        list(solutions(s, MAIN, f'("{A}" + "{B}") #> r'))


def test_switch_to_an_empty_url_is_an_error():
    s = sess({MAIN: 'p :- lw(get, "") #> true.\n'})
    with pytest.raises(EngineError, match="empty URL"):
        list(solutions(s, MAIN, "p"))
    with pytest.raises(EngineError, match="empty URL"):
        list(solutions(s, MAIN, '"" #> true'))


def test_partially_bound_goals_run():
    s = sess({MAIN: "p(1).\n"})
    assert q(s, "G = p(X), G") == ["1"]


# ---------------------------------------------------------------- goals as data

CONNECTIVES = f"""\
run(G) :- G.
written(X, Y) :- member(X, [1, 2, 3]), X > 1, !, "{A}" #> q(Y).
via(X, Y) :- run((member(X, [1, 2, 3]), X > 1, !, "{A}" #> q(Y))).
switch_via(E, Y) :- run(E #> q(Y)).
"""


@pytest.mark.parametrize("security", [False, True])
def test_goal_reached_through_a_variable_runs_like_the_written_body(security):
    s = sess({MAIN: CONNECTIVES, A: "q(5).\nq(6).\n"}, security=security)

    def pairs(goal):
        return [(to_text(b["X"]), to_text(b["Y"]))
                for b in solutions(s, MAIN, goal)]

    expected = [("2", "5"), ("2", "6")]
    assert pairs("written(X, Y)") == expected
    assert pairs("via(X, Y)") == expected
    assert pairs(f'G = (member(X, [1, 2, 3]), X > 1, !, "{A}" #> q(Y)), G') \
        == expected
    assert q(s, f'switch_via("{A}", X)') == ["5", "6"]


def test_solutions_limit_zero_returns_no_answers():
    s = sess({MAIN: "p(1).\np(2).\n"})
    assert solutions(s, MAIN, "p(X)", limit=0) == []
    first = solutions(s, MAIN, "p(X)", limit=1)
    assert [to_text(b["X"]) for b in first] == ["1"]


def test_a_builtin_goal_runs_once_under_encapsulation(capsys):
    s = sess({MAIN: "", A: "p(1).\n"}, security=True)
    assert count(s, f'@"{A}" #> contains("ab", "a")') == 1
    s.audit.events.clear()
    assert count(s, f'@"{A}" #> display(hello)') == 1
    assert capsys.readouterr().out == "hello\n"
    # one vetted call, and one direct run inside the policy
    assert len(of_kind(s.audit, "syscall")) == 2


def test_page_clauses_for_a_builtin_are_never_selected():
    s = sess({MAIN: "member(X, _) :- X = extra.\n"})
    assert q(s, "member(X, [a, b])") == ["a", "b"]


# ---------------------------------------------------------------- the index

def test_a_keyed_lookup_renames_one_clause_of_twenty_thousand(monkeypatch):
    s = sess({})
    facts = [Clause(Struct("f", (Atom(f"k{i}"), Num(i)))) for i in range(20000)]
    s.install_local(LWProgram(ProgramId.get(MAIN), facts))
    tried, original = [], engine.unify

    def counting(goal, head, *rest):
        tried.append(head)
        return original(goal, head, *rest)

    monkeypatch.setattr(engine, "unify", counting)
    assert q(s, "f(k19999, X)") == ["19999"] and len(tried) == 1
    assert q(s, "f(k20000, X)") == [] and len(tried) == 1
    # an unbound first argument takes every clause
    assert q(s, "f(K, 7)", var="K") == ["k7"] and len(tried) == 20001


GROWING_URL = "http://policies.example.org/growing.html"


def test_keyed_selection_keeps_the_clauses_it_started_with():
    growing = PERMISSIVE_CLAUSES + "p(a, 1).\np(Y, 0).\np(b, 2).\np(a, 3).\n"
    s = sess({MAIN: "", GROWING_URL: growing}, security=True,
             default_policy=GROWING_URL)

    def in_policy(goal):
        return q(s, f'lw(get, "{GROWING_URL}") #> ({goal})')

    # the running selection does not see the clause it asserts ...
    assert in_policy("p(a, X), assert(p(a, 9))") == ["1", "0", "3"]
    # ... and the next one does
    assert in_policy("p(a, X)") == ["1", "0", "3", "9", "9", "9"]
    # a retracted clause stays in the selection that was running
    assert in_policy("p(a, X), (retract(p(a, 3)) ; true)") == [
        "1", "1", "0", "3", "9", "9", "9"]
    assert in_policy("p(a, X)") == ["1", "0", "9", "9", "9"]
    assert in_policy("p(c, X)") == ["0"]


def test_the_trail_prints_intersection_and_restriction_contexts():
    s = make_session(security=False)
    pair = f'lw(get, "{DEPT_URL}") %s lw(get, "{RMIT_URL}")'
    for op in "*/":
        assert solutions(s, HOME_URL, f"({pair % op}) #> X = 1") == [{"X": Num(1)}]
    lines = [line.split(" ", 1)[1] for line in s.audit.lines()
             if " syscall " in line]
    assert lines == [f"syscall X = 1 | context: empty -> lw(get, \"{HOME_URL}\") -> "
                     f"{pair % op} | policies: -" for op in "*/"]


# ---------------------------------------------------------------- the verdict memo

BENCH = Path(__file__).resolve().parents[1] / "bench"
MEMO_URL = "http://policies.example.org/memo.html"


def plain_vetting(monkeypatch):
    """Every vet proves its goal, as before the memo."""
    monkeypatch.setattr(engine.Session, "_prove_isolated",
                        lambda self, pids, goal, chain=():
                        self._prove(tuple(pids), goal))


def counting_proofs(monkeypatch):
    proofs = []
    prove = engine.Session._prove

    def counted(self, sigma, goal):
        proofs.append(to_text(goal))
        return prove(self, sigma, goal)

    monkeypatch.setattr(engine.Session, "_prove", counted)
    return proofs


def trail(session):
    """Syscall and fetch events outside the vetting proofs, which a reused
    verdict replaces with one `vet` event."""
    return [(ev.kind, ev.detail, ev.chain, ev.sigma) for ev in session.audit.events
            if ev.kind in ("syscall", "fetch")
            and not (len(ev.chain) == 2
                     and isinstance(ev.chain[1], (Encapsulation, Intersection)))]


def memo_session(clauses, main="", **kw):
    """A secured session whose main program runs under a policy made of
    `clauses`, plus a permissive `valid_program` and, unless `clauses` has
    one, a plain `call_system`."""
    if "call_system" not in clauses:
        clauses += "call_system(C) :- built_ins:call_builtin(C).\n"
    s = sess({MAIN: main, MEMO_URL: "valid_program(_, _).\n" + clauses},
             security=True, default_policy=MEMO_URL, **kw)
    # the policy is in the store before the first vet, so that vet can be kept
    assert count(s, f'lw(get, "{MEMO_URL}") #> true') == 1
    return s


def test_variant_key_numbers_variables_by_first_occurrence():
    def key(text):
        return variant_key(parse_goal(text)[0])

    assert key("p(X, Y, X)") == key("p(A, B, A)")
    assert key("p(X, Y, X)") != key("p(A, B, B)")
    assert key("p(1)") != key("p(1.0)")
    assert key("p(a)") != key('p("a")')
    assert key("p(f(a))") != key("p(f(a, a))")


def test_a_reused_verdict_replaces_the_proof_with_one_vet_event(monkeypatch):
    s = memo_session("valid_systemCall(C) :- contains(\"ab\", \"a\").\n")
    proofs = counting_proofs(monkeypatch)
    for _ in range(3):
        assert count(s, 'contains("xy", "x")') == 1
    assert len(proofs) == 1
    vets = of_kind(s.audit, "vet")
    assert [ev.detail for ev in vets] == [
        'allow: valid_systemCall(contains("xy", "x"))'] * 2
    assert vets[0].sigma == (ProgramId.get(MEMO_URL),)
    assert vets[0].chain[-1] == ProgramId.get(MAIN)


def test_a_verdict_is_dropped_when_a_clause_it_read_changes():
    # the first call spends the token, so the same call then is refused
    s = memo_session("token(yes).\n"
                     "valid_systemCall(_) :- token(yes).\n"
                     "call_system(C) :- retract(token(_)), assert(token(no)), "
                     "built_ins:call_builtin(C).\n")
    assert count(s, 'contains("ab", "a"), contains("ab", "a")') == 0
    assert count(s, 'contains("ab", "a")') == 0


def test_a_verdict_survives_changes_to_predicates_it_never_read(monkeypatch):
    s = memo_session("calls(0).\n"
                     "valid_systemCall(_) :- check.\n"
                     "check.\n"
                     "call_system(C) :- retract(calls(K)), K1 is K + 1, "
                     "assert(calls(K1)), built_ins:call_builtin(C).\n")
    proofs = counting_proofs(monkeypatch)
    assert count(s, 'contains("ab", "a"), contains("ab", "a")') == 1
    assert count(s, 'contains("ab", "a")') == 1
    assert proofs == ['valid_systemCall(contains("ab", "a"))']
    assert q(s, f'lw(get, "{MEMO_URL}") #> calls(X)') == ["3"]


@pytest.mark.parametrize("form", [
    f'program_exists(lw(get, "{MAIN}"))',      # a built-in that is not pure
    "G = true, G",                             # a variable goal
    f'lw(get, "{MEMO_URL}") #> true',          # a switch
    "built_ins:builtin(contains(_, _))",       # a qualified goal
    "assert(seen(x))",
    "(retract(seen(x)) ; true)",
])
def test_an_impure_policy_is_proved_on_every_call(monkeypatch, form):
    s = memo_session(f"valid_systemCall(_) :- check.\ncheck :- {form}.\n")
    proofs = counting_proofs(monkeypatch)
    for _ in range(2):
        assert count(s, 'contains("ab", "a")') == 1
    assert len(proofs) == 2
    assert of_kind(s.audit, "vet") == []


@pytest.mark.parametrize("body", ["G", "(true, G)", "(fail ; G)", "(true -> G)"])
def test_a_policy_calling_what_a_head_variable_stands_for_is_proved_every_time(
        monkeypatch, body):
    # `G` stands for the goal's own `contains/2` term: still a variable goal,
    # as the whole body or inside a conjunction, disjunction or condition
    s = memo_session(f"valid_systemCall(C) :- allowed(C).\nallowed(G) :- {body}.\n")
    proofs = counting_proofs(monkeypatch)
    for _ in range(2):
        assert count(s, 'contains("ab", "a")') == 1
    assert len(proofs) == 2
    assert of_kind(s.audit, "vet") == []


def test_a_policy_is_proved_again_when_a_clause_it_read_changes(monkeypatch):
    # the first call turns `check` impure, so later calls are proved
    s = memo_session("valid_systemCall(_) :- check.\n"
                     "check.\n"
                     "call_system(C) :- (retract(check) -> "
                     "assert((check :- assert(seen(x)))) ; true), "
                     "built_ins:call_builtin(C).\n")
    proofs = counting_proofs(monkeypatch)
    for _ in range(3):
        assert count(s, 'contains("ab", "a")') == 1
    assert len(proofs) == 3
    assert of_kind(s.audit, "vet") == []


def test_a_verdict_is_kept_when_its_proof_never_selects_an_impure_clause(
        monkeypatch):
    s = memo_session("valid_systemCall(open(F, _, _)) :- display(F).\n"
                     "valid_systemCall(contains(_, _)).\n")
    proofs = counting_proofs(monkeypatch)
    for _ in range(3):
        assert count(s, 'contains("ab", "a")') == 1
    assert len(proofs) == 1
    assert len(of_kind(s.audit, "vet")) == 2


def test_a_proof_that_fetches_its_policy_is_not_kept(monkeypatch):
    # as `memo_session`, but the first vet downloads the policy
    s = sess({MAIN: "", MEMO_URL: "valid_program(_, _).\n"
                                  "valid_systemCall(_) :- check.\ncheck.\n"
                                  "call_system(C) :- built_ins:call_builtin(C).\n"},
             security=True, default_policy=MEMO_URL)
    proofs = counting_proofs(monkeypatch)
    for _ in range(3):
        assert count(s, 'contains("ab", "a")') == 1
    assert len(proofs) == 2
    assert len(of_kind(s.audit, "vet")) == 1


def test_a_verdict_is_dropped_when_its_predicate_gains_a_clause_it_never_selects(
        monkeypatch):
    # the bucket read is the predicate's, not the clauses the index offered
    s = memo_session("valid_systemCall(contains(_, _)).\n"
                     "call_system(C) :- assert(valid_systemCall(open(_, _, _))), "
                     "built_ins:call_builtin(C).\n")
    proofs = counting_proofs(monkeypatch)
    for _ in range(3):
        assert count(s, 'contains("ab", "a")') == 1
    assert len(proofs) == 3
    assert of_kind(s.audit, "vet") == []


def test_a_vet_made_inside_an_unkept_proof_is_kept_on_its_own(monkeypatch):
    # the switch drops the outer proof's record and ends its watch, so the
    # guard watches the vet of the inner switch by itself
    s = memo_session(f'valid_systemCall(_) :- lw(get, "{MAIN}") #> '
                     f'(lw(get, "{HOME_URL}") #> true).\n', guard=Guard())
    proofs = counting_proofs(monkeypatch)
    for _ in range(3):
        assert count(s, 'contains("ab", "a")') == 1
    outer = 'valid_systemCall(contains("ab", "a"))'
    assert proofs == [outer, f'valid_program(get, "{HOME_URL}")', outer, outer]
    assert len(of_kind(s.audit, "vet")) == 2


def test_a_session_runs_on_after_a_guard_stops_a_vet_proof():
    s = memo_session("valid_systemCall(_) :- down(30).\n"
                     "down(0).\ndown(N) :- N > 0, M is N - 1, down(M).\n",
                     guard=Guard(GuardConfig(max_depth=10)))
    main = ProgramId.get(MAIN)
    out = guarded_solve(s, main, parse_goal('contains("ab", "a")')[0])
    assert out.termination.reason == "depth_exceeded"
    # the stopped proof's record is gone, so this switch finds none to drop
    out = guarded_solve(s, main, parse_goal(f'lw(get, "{MAIN}") #> true')[0])
    assert len(out.solutions) == 1 and out.termination is None


def test_a_proof_that_leaves_a_notice_is_not_kept(monkeypatch):
    s = memo_session('valid_systemCall(_) :- (contains(1, "a") ; true).\n')
    proofs = counting_proofs(monkeypatch)
    for _ in range(2):
        assert count(s, 'contains("ab", "a")') == 1
    assert len(proofs) == 2


def test_a_proof_that_leaves_a_goal_open_is_not_kept(monkeypatch):
    class Unclosed(Guard):
        # every goal a watched proof enters stays live past its end
        def exit_goal(self, token):
            if self._watch is None:
                super().exit_goal(token)

    s = memo_session("valid_systemCall(_) :- check.\ncheck.\n", guard=Unclosed())
    proofs = counting_proofs(monkeypatch)
    for _ in range(2):
        assert count(s, 'contains("ab", "a")') == 1
    assert len(proofs) == 2


def test_a_notice_is_seen_after_the_audit_trail_wraps(monkeypatch):
    monkeypatch.setattr(security, "MAX_EVENTS", 3)
    s = memo_session('valid_systemCall(_) :- (contains(1, "a") ; true).\n')
    assert s.audit.dropped > 0
    proofs = counting_proofs(monkeypatch)
    for _ in range(2):
        assert count(s, 'contains("ab", "a")') == 1
    assert len(proofs) == 2
    call = parse_goal('contains("ab", "a")')[0]
    key = ((ProgramId.get(MEMO_URL),),
           variant_key(Struct("valid_systemCall", (call,))))
    assert s.verdicts.get(key) is None
    assert len(s.audit.events) == 3


def test_syscall_and_vet_details_print_their_goals_through_three_policies():
    pol2, pol3 = ProgramId.get(SECOND_URL), ProgramId.get(THIRD_URL)
    s = sess({MAIN: f'go :- "{A}" #> step.\n',
              A: f'step :- "{B}" #> work.\n',
              B: 'work :- contains("a\\"b", "\\""), X is -3 * 2, '
                 "append([a, 'B c'], [1.5], L), X < 0.\n",
              SECOND_URL: PERMISSIVE_CLAUSES, THIRD_URL: PERMISSIVE_CLAUSES},
             security=True)
    s.registry.register_policy(pol2)
    s.registry.register_policy(pol3)
    s.registry.assign(ProgramId.get(A), pol2)
    s.registry.assign(ProgramId.get(B), pol3)
    for _ in range(2):
        assert count(s, "go") == 1
    events = of_kind(s.audit, "syscall") + of_kind(s.audit, "vet")
    assert {ev.kind for ev in events} == {"syscall", "vet"}
    assert max(len(ev.sigma) for ev in events) == 3
    assert 'contains("a\\"b", "\\"")' in {ev.detail for ev in events}
    for ev in events:
        text = to_text(ev.subject)
        assert ev.detail == ev.prefix + text
        assert ev.prefix == ("allow: " if ev.kind == "vet" else "")
        assert variant(parse_term_text(text)[0], ev.subject)


# the vet of contains/2 is made at a greater depth, and after more clauses,
# for every answer
GUARDED_MAIN = """\
go(X) :- member(X, [1, 2, 3]), down(X).
down(0) :- contains("ab", "a").
down(N) :- N > 0, M is N - 1, down(M).
"""


def guarded_run(**caps):
    s = memo_session("valid_systemCall(_) :- check.\ncheck.\n", main=GUARDED_MAIN,
                     guard=Guard(GuardConfig(**caps)))
    goal, varmap = parse_goal("go(X)")
    out = guarded_solve(s, ProgramId.get(MAIN), goal)
    answers = [to_text(sol.subst.apply(varmap["X"])) for sol in out.solutions]
    return answers, out.termination and out.termination.reason, trail(s)


@pytest.mark.parametrize("config", [
    GuardConfig(), GuardConfig(loop_check=False, max_context_size=None)],
    ids=["checks_on", "checks_off"])
def test_a_guard_sums_up_the_goals_a_watched_proof_entered_and_exited(config):
    ctx = ProgramId.get(MEMO_URL)
    both = Intersection(Encapsulation(ctx), Encapsulation(ProgramId.get(MAIN)))
    guard = Guard(config)
    guard.start()
    guard.enter_goal(ctx, Atom("live"))
    guard.on_clause_applied()
    guard.watch()
    outer = guard.enter_goal(both, parse_goal("p(X)")[0])
    inner = guard.enter_goal(ctx, parse_goal("q(Y, Y)")[0])
    guard.on_clause_applied()
    assert guard.depth == 3
    guard.exit_goal(outer)
    guard.exit_goal(inner)              # shed already, by the outer exit
    assert guard.depth == 1
    # the summary holds every key and size, whichever checks are on
    assert guard.summary() == (1, 2, 2, frozenset(
        [(both, variant_key(parse_goal("p(A)")[0])),
         (ctx, variant_key(parse_goal("q(B, B)")[0]))]))
    guard.watch()
    guard.enter_goal(ctx, Atom("open"))
    assert guard.summary() is None
    assert guard.depth == 2


def admissions(monkeypatch):
    """Whether the guard admitted each kept verdict offered to it."""
    admitted = []
    admits = Guard.admits

    def judged(self, summary):
        admitted.append(admits(self, summary))
        return admitted[-1]

    monkeypatch.setattr(Guard, "admits", judged)
    return admitted


@pytest.mark.parametrize("cap", ["max_depth", "max_clauses"])
def test_a_guard_stops_a_reused_verdict_where_it_stops_the_proof(monkeypatch, cap):
    admitted = admissions(monkeypatch)
    limits = range(1, 10) if cap == "max_depth" else range(1, 76)
    cached = [guarded_run(**{cap: n}) for n in limits]
    assert False in admitted        # some caps fell inside a kept proof
    plain_vetting(monkeypatch)
    assert cached == [guarded_run(**{cap: n}) for n in limits]


def test_a_live_variant_of_a_goal_in_a_kept_proof_stops_its_reuse(monkeypatch):
    # the first query keeps the verdict, whose proof enters `check` in the
    # policy; the second runs `check` there itself, so reusing the verdict
    # for the call in its body meets a live variant of that goal
    policy = 'valid_systemCall(_) :- check.\ncheck :- contains("ab", "a").\n'
    queries = ['contains("ab", "a")', f'lw(get, "{MEMO_URL}") #> check']

    stop = Guard._stop

    def runs():
        stops = []

        def seen(self, reason):
            stops.append((reason, len(self.ancestors), self.clauses_applied))
            stop(self, reason)

        monkeypatch.setattr(Guard, "_stop", seen)
        s = memo_session(policy)
        outs = [guarded_solve(s, ProgramId.get(MAIN), parse_goal(g)[0])
                for g in queries]
        return [(len(out.solutions), out.termination and out.termination.reason)
                for out in outs], stops, trail(s)

    admitted = admissions(monkeypatch)
    cached = runs()
    assert cached[0] == [(1, None), (0, "loop_found")]
    assert admitted == [False]
    plain_vetting(monkeypatch)
    assert cached == runs()


class Kept(NamedTuple):
    verdict: engine.Verdict
    steps: list             # the hook calls its proof made, as recorded
    session: engine.Session
    sigma: tuple
    goal: object


def kept_verdicts(monkeypatch):
    """The verdicts kept on the benchmark chains and in 120 worlds, each
    with the hook calls its proof made and where it was proved."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    kept, last = [], {}
    prove, put = engine.Session._prove, engine.VerdictMemo.put

    def proved(self, sigma, goal):
        # the live guard watches the proof through the recorder
        live = self.hooks
        self.hooks = recorder = verdict_reference.StepRecorder(live)
        last["proof"] = (recorder.steps, self, sigma, goal)
        try:
            return prove(self, sigma, goal)
        finally:
            self.hooks = live

    def keep(self, key, verdict):
        kept.append(Kept(verdict, *last["proof"]))
        put(self, key, verdict)

    monkeypatch.setattr(engine.Session, "_prove", proved)
    monkeypatch.setattr(engine.VerdictMemo, "put", keep)
    s = workloads.chain_session(security=True)
    for n in (1, 3):
        for path, _refuse in workloads.CHAINS.values():
            workloads.solve_outcome(s, workloads.SYS + path[0], f"run({n}, X)")
    for seed in range(120):
        genfix.run_world(genfix.random_world(random.Random(seed)))
    return kept


def test_an_admitted_summary_ends_where_its_step_replay_ends(monkeypatch):
    kept = kept_verdicts(monkeypatch)
    assert len(kept) > 100
    for k in kept:
        assert k.verdict.summary == verdict_reference.summarize(k.steps)
    pool = sorted({key for k in kept for key in k.verdict.summary.keys}, key=repr)
    rng = random.Random(18)
    seen = []
    reproved = 0

    def replay_state(guard):
        return guard.clauses_applied, list(guard.ancestors), set(guard._live)

    for k in kept:
        summary = k.verdict.summary
        for _ in range(12):
            depth, clauses = rng.randint(0, 5), rng.randint(0, 40)
            loop_check = rng.random() < 0.8
            live = rng.sample(pool, depth)
            if loop_check and depth and rng.random() < 0.3:
                live[rng.randrange(depth)] = rng.choice(sorted(summary.keys, key=repr))
            caps = dict(
                loop_check=loop_check,
                max_depth=rng.choice([None, max(depth, depth + summary.deepest
                                                + rng.randint(-2, 1))]),
                max_clauses=rng.choice([None, max(clauses, clauses + summary.clauses
                                                  + rng.randint(-2, 1))]),
                max_context_size=rng.choice([None, 100, summary.largest,
                                             max(1, summary.largest - 1)]),
                timeout_ms=rng.choice([None] * 9 + [1]))
            late = caps["timeout_ms"] is not None

            def guard():
                now = [0.0]
                g = Guard(GuardConfig(**caps), clock=lambda: now[0])
                g.start()
                now[0] = 1.0 if late else 0.0
                g.ancestors = list(live) if loop_check else [None] * depth
                g._live = set(live) if loop_check else set()
                g.clauses_applied = clauses
                return g

            fast, step = guard(), guard()
            try:
                verdict_reference.replay(k.steps, step)
                want = replay_state(step)
            except GuardTermination as exc:
                want = exc.reason
            try:
                admitted = fast.admits(summary)
            except GuardTermination as exc:
                assert exc.reason == want == "timed_out"
                seen.append(want)
                continue
            if admitted:
                assert replay_state(fast) == want
                seen.append("admitted")
                continue
            assert isinstance(want, str)            # the summary would stop
            seen.append(want)
            key = (k.sigma, variant_key(k.goal))
            if k.session.verdicts.get(key) is not k.verdict:
                continue                # dropped since: it is not offered
            # a refused reuse proves the goal again, which stops as the
            # reference replay does
            live_hooks, k.session.hooks = k.session.hooks, guard()
            try:
                with pytest.raises(GuardTermination) as stopped:
                    k.session._prove_isolated(k.sigma, k.goal)
            finally:
                k.session.hooks = live_hooks
            assert stopped.value.reason == want
            reproved += 1
    assert set(seen) == {"admitted", "loop_found", "depth_exceeded",
                         "clause_count_exceeded", "timed_out"}
    assert reproved > 100


def test_the_memo_changes_nothing_in_500_worlds(monkeypatch):
    def runs():
        out = []
        for seed in range(500):
            world = genfix.random_world(random.Random(seed))
            s = genfix.world_session(world)
            got = guarded_solve(s, ProgramId.get(world.main_url),
                                parse_goal(world.query)[0])
            out.append((len(got.solutions),
                        got.termination and got.termination.reason, trail(s)))
        return out

    cached = runs()
    plain_vetting(monkeypatch)
    assert cached == runs()


def test_the_memo_changes_nothing_with_the_loop_and_context_checks_off(monkeypatch):
    proofs = counting_proofs(monkeypatch)

    def runs():
        out = []
        del proofs[:]
        for seed in range(200):
            world = genfix.random_world(random.Random(seed))
            s = genfix.world_session(world, loop_check=False,
                                     max_context_size=None)
            got = guarded_solve(s, ProgramId.get(world.main_url),
                                parse_goal(world.query)[0])
            out.append((len(got.solutions),
                        got.termination and got.termination.reason, trail(s)))
        return out, len(proofs)

    cached, cached_proofs = runs()
    plain_vetting(monkeypatch)
    plain, plain_proofs = runs()
    assert cached == plain
    assert cached_proofs < plain_proofs


def test_the_memo_changes_nothing_on_the_benchmark_chains(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    def runs():
        s = workloads.chain_session(security=True)
        out = []
        for n in (1, 4, 2, 4):
            for path, _refuse in workloads.CHAINS.values():
                out.append(workloads.solve_outcome(s, workloads.SYS + path[0],
                                                   f"run({n}, X)"))
        return out, trail(s)

    cached = runs()
    plain_vetting(monkeypatch)
    assert cached == runs()


def test_an_evicted_verdict_changes_nothing_on_the_benchmark_chains(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    puts = []
    put = engine.VerdictMemo.put
    monkeypatch.setattr(engine.VerdictMemo, "put",
                        lambda memo, key, v: puts.append(key) or put(memo, key, v))
    monkeypatch.setattr(engine, "MAX_VERDICTS", 3)

    def runs():
        s = workloads.chain_session(security=True)
        out = []
        for n in (1, 4, 2, 4):
            for path, _refuse in workloads.CHAINS.values():
                out.append(workloads.solve_outcome(s, workloads.SYS + path[0],
                                                   f"run({n}, X)"))
        assert len(s.verdicts._entries) <= 3
        return out, trail(s)

    evicting = runs()
    assert len(set(puts)) > 3
    plain_vetting(monkeypatch)
    assert evicting == runs()


def test_a_warm_benchmark_pass_proves_few_of_its_vets(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    wl = workloads.SecuredSyscalls(seed=1, workdir=tmp_path)
    wl.warm_up()
    vets = []
    vet = engine.Session._prove_isolated
    monkeypatch.setattr(engine.Session, "_prove_isolated",
                        lambda self, *args: vets.append(1) or vet(self, *args))
    proofs = counting_proofs(monkeypatch)
    for bound in (450, 0):
        vets.clear()
        proofs.clear()
        assert [wl.run(query) for query in wl.queries] == [
            query.expected for query in wl.queries]
        assert len(vets) > 2500
        assert len(proofs) <= bound
