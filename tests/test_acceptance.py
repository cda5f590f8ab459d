"""End-to-end gate: one test per promised behavior of the package.

Each test here states a contract the package must keep, from exact page
translation through policy enforcement, randomized safety audits, resource
guards, and signature handling. Timing bounds are asserted inside the tests
that carry them.
"""

from __future__ import annotations

import random
import string
import time
from pathlib import Path

import pytest

import genfix
import naive
from conftest import (DANGEROUS_URL, DEPT_PAGE, DEPT_URL, DOMAIN_URL, F1_URL,
                      FDLIMIT_URL, HISTORICAL_URL, HOME_PAGE, HOME_URL,
                      OK_URL, PERMISSIVE_URL, RMIT_PAGE, RMIT_URL, SAFE_URL,
                      base_pages, make_session, of_kind, policy_page)
from logicweb.engine import solutions
from logicweb.fetching import PageEntry, download
from logicweb.guards import Guard, GuardConfig, guarded_solve
from logicweb.model import ProgramId, clause_text, parse_goal, parse_program
from logicweb.security import PolicyRegistry
from logicweb.signatures import (UNKNOWN_SIGNER, KeyStore, authenticate,
                                 generate_keypair, sign_page)
from logicweb.syntax import parse_term_text
from logicweb.terms import Struct


# ------------------------------------------------------------ 1. translation

EMBEDDED_SRC = """\
interests(["Logic Programming", "AI", "Web", "Agents"]).
friend_page("http://www.cs.mu.oz.au/~f1/").
friend_page("http://www.cs.mu.oz.au/~f2").
interested_in(X) :- interests(Is), member(X, Is).
interested_in(X) :- friend_page(URL), lw(get, URL) #> interested_in(X).
"""


def test_home_page_translates_to_exact_clause_set():
    t0 = time.monotonic()
    sess = make_session()
    pid = ProgramId.get(HOME_URL)
    download(pid, sess)
    prog = sess.store.get(pid)
    assert prog is not None
    texts = [clause_text(c) for c in prog.clauses]

    # Independent oracle for the page-text fact: cut the code span out of
    # the raw source by plain string indexing, nothing shared with the
    # html machinery under test.
    start = HOME_PAGE.index("<LW_CODE>")
    end = HOME_PAGE.index("</LW_CODE>") + len("</LW_CODE>")
    expected_text = HOME_PAGE[:start] + HOME_PAGE[end:]

    size = len(HOME_PAGE.encode("utf-8"))
    assert texts[:4] == [
        'about("content-type", "text/html").',
        f'about("content-length", "{size}").',
        'actual_url("http://www.cs.mu.oz.au/~swl/").',
        'my_id(get, "http://www.cs.mu.oz.au/~swl/").',
    ]
    assert prog.clauses[4].head.functor == "h_text"
    assert prog.clauses[4].head.args[0].value == expected_text
    assert texts[5:7] == [
        'link("Department of Computer Science", "http://www.cs.mu.oz.au/").',
        'link("University of Melbourne", "http://www.unimelb.edu.au/").',
    ]
    assert texts[7:] == [clause_text(c) for c in parse_program(EMBEDDED_SRC)]
    assert len(texts) == 12
    assert time.monotonic() - t0 < 1.0


# ------------------------------------------------------------ 2. enumeration

def test_interest_enumeration_follows_depth_first_page_order():
    t0 = time.monotonic()
    sess = make_session()
    sols = solutions(sess, HOME_URL, "interested_in(X)")
    assert [s["X"].value for s in sols] == [
        "Logic Programming", "AI", "Web", "Agents",
        "Robotics", "Planning", "Semantics",
    ]
    assert time.monotonic() - t0 < 1.0


# ------------------------------------------------------------ 3. domain gate

def test_domain_policy_blocks_foreign_host_and_admits_own():
    t0 = time.monotonic()
    sess = make_session(default_policy=DOMAIN_URL)
    blocked = solutions(sess, HOME_URL, f'lw(get, "{RMIT_URL}") #> h_text(T)')
    assert blocked == []
    allowed = solutions(sess, HOME_URL, f'lw(get, "{DEPT_URL}") #> h_text(T)')
    assert len(allowed) == 1
    assert allowed[0]["T"].value == DEPT_PAGE
    assert time.monotonic() - t0 < 1.0


# ------------------------------------------------------------ 4. one-shot

def test_one_shot_policy_locks_downloads_after_first_open(tmp_path):
    sess = make_session(default_policy=HISTORICAL_URL)

    before = solutions(sess, HOME_URL, "interested_in(X)")
    assert len(before) == 7  # friend-page switches still admitted

    target = tmp_path / "hist.txt"
    opened = solutions(sess, HOME_URL, f'open("{target}", write, S)')
    assert len(opened) == 1

    # From here on every program check fails, whether the page would be a
    # fresh download or is already sitting in the cache.
    assert solutions(sess, HOME_URL, f'lw(get, "{DEPT_URL}") #> h_text(T)') == []
    assert solutions(sess, HOME_URL,
                     f'lw(get, "{F1_URL}") #> interested_in(X)') == []


# ------------------------------------------------------------ 5. trust levels

def test_three_trust_levels_enforce_their_nine_contracts(tmp_path, capsys):
    # dangerous: nothing runs, nothing downloads
    d = make_session(default_policy=DANGEROUS_URL)
    assert solutions(d, HOME_URL, "display(hello)") == []            # case 1
    assert "hello" not in capsys.readouterr().out
    # plain clause resolution still works, it needs no system services
    assert len(solutions(d, HOME_URL, "friend_page(U)")) == 2
    wants = f'lw(get, "{F1_URL}") #> interested_in(X)'
    assert solutions(d, HOME_URL, wants) == []                       # case 2
    assert ProgramId.get(F1_URL) not in d.store

    # ok: file writes under /tmp/ only, no "rm " commands
    ok = make_session(default_policy=OK_URL)
    inside = tmp_path / "ok_write.txt"
    assert len(solutions(ok, HOME_URL, f'open("{inside}", write, S)')) == 1
    assert inside.exists()                                            # case 3
    probe = Path("/root/pkg/acc_probe_should_not_exist.txt")
    try:
        assert solutions(ok, HOME_URL, f'open("{probe}", write, S)') == []
        assert not probe.exists()                                     # case 4
    finally:
        probe.unlink(missing_ok=True)
    keep = tmp_path / "keep.txt"
    keep.write_text("survives")
    assert solutions(ok, HOME_URL, f'system("rm {keep}")') == []
    assert keep.exists()                                              # case 5
    assert len(solutions(ok, HOME_URL, 'system("true")')) == 1        # case 6

    # safe: everything runs, deletions get reported
    sf = make_session(default_policy=SAFE_URL)
    gone = tmp_path / "gone.txt"
    gone.write_text("doomed")
    assert len(solutions(sf, HOME_URL, f'system("rm {gone}")')) == 1
    assert not gone.exists()                                          # case 7
    reports = [e.detail for e in of_kind(sf.audit, "notice")
               if e.detail.startswith("deletion-report")]
    assert reports == [f'deletion-report "rm {gone}"']                # case 8
    assert len(solutions(sf, HOME_URL, 'system("true")')) == 1
    reports_after = [e.detail for e in of_kind(sf.audit, "notice")
                     if e.detail.startswith("deletion-report")]
    assert reports_after == reports                                   # case 9


# ------------------------------------------------------------ 6. composition

def test_composed_policies_equal_conjunction_of_verdicts():
    p_url = "http://policies.example.org/gen-a.html"
    q_url = "http://policies.example.org/gen-b.html"
    mismatches = []
    for seed in range(200):
        rng = random.Random(seed)
        p_text = genfix.random_policy_clauses(rng)
        q_text = genfix.random_policy_clauses(rng)
        call = genfix.random_call(rng)

        session, pids = genfix.policy_session({p_url: p_text, q_url: q_text})
        composed = genfix.allows(session, [pids[p_url], pids[q_url]], call)

        call_term, _ = parse_term_text(call)
        goal = Struct("valid_systemCall", (call_term,))
        separately = (naive.prove(naive.load(p_text), goal)
                      and naive.prove(naive.load(q_text), goal))
        if composed != separately:
            mismatches.append((seed, call, composed, separately))
    assert mismatches == []


# ------------------------------------------ 7 and 8. randomized safety audit

@pytest.fixture(scope="module")
def safety_runs():
    t0 = time.monotonic()
    reports = []
    for seed in range(500):
        world = genfix.random_world(random.Random(seed))
        session = genfix.run_world(world)
        reports.append(genfix.check_world(world, session))
    return reports, time.monotonic() - t0


def test_audit_trail_shows_no_illegal_operation_in_500_worlds(safety_runs):
    reports, elapsed = safety_runs
    assert elapsed < 60.0
    assert sum(r.syscall_events for r in reports) > 0
    assert sum(r.fetch_events for r in reports) > 0
    escapes = [v for r in reports for v in r.violations if "escaped" in v]
    assert escapes == []
    # verdicts the session reused agree with the reference resolver
    assert sum(r.vet_events for r in reports) > 0
    wrong = [v for r in reports for v in r.violations if "cached verdict" in v]
    assert wrong == []


def test_policy_set_covers_every_context_at_each_switch(safety_runs):
    reports, _ = safety_runs
    assert sum(r.switch_events for r in reports) > 0
    gaps = [v for r in reports for v in r.violations if "missed" in v]
    assert gaps == []


# ------------------------------------------------------------ 9. equivalence

def test_engine_agrees_with_reference_resolver_on_200_programs():
    mismatches = []
    for seed in range(200):
        rng = random.Random(1000 + seed)
        prog, query = genfix.random_pure_program(rng)
        got = genfix.engine_answers(prog, query)
        want = genfix.naive_answers(prog, query)
        if got != want:
            mismatches.append((seed, prog, query, got, want))
    assert mismatches == []


# ------------------------------------------------------------ 10. guards

def test_guards_stop_runaway_queries_with_named_reasons():
    a_url = "http://crawl.example.org/a.html"
    b_url = "http://crawl.example.org/b.html"

    # (a) mutual recursion across two pages
    pages = base_pages()
    pages[a_url] = PageEntry(policy_page(
        "Ping", f'ping :- lw(get, "{b_url}") #> pong.\n'))
    pages[b_url] = PageEntry(policy_page(
        "Pong", f'pong :- lw(get, "{a_url}") #> ping.\n'))
    sess = make_session(pages, security=False)
    goal, _ = parse_goal("ping")
    t0 = time.monotonic()
    out = guarded_solve(sess, ProgramId.get(a_url), goal)
    assert time.monotonic() - t0 < 5.0
    assert out.terminated
    assert out.termination.reason == "loop_found"
    assert out.termination.message == "loop found"
    assert out.solutions == []

    # (b) left recursion, loop check off, default depth ceiling
    assert GuardConfig().max_depth == 40
    pages = {a_url: PageEntry(policy_page("Down", "p :- p.\n"))}
    sess = make_session(pages, security=False,
                        guard=Guard(GuardConfig(loop_check=False)))
    goal, _ = parse_goal("p")
    t0 = time.monotonic()
    out = guarded_solve(sess, ProgramId.get(a_url), goal)
    assert time.monotonic() - t0 < 5.0
    assert out.termination.reason == "depth_exceeded"
    assert out.termination.message == "maximum recursion depth exceeded"

    # (c) a crawl through more programs than the session allows
    assert GuardConfig().max_programs == 100
    urls = [f"http://crawl.example.org/p{i}.html" for i in range(103)]
    pages = {}
    for i in range(102):
        pages[urls[i]] = PageEntry(policy_page(
            f"C{i}", f'go :- lw(get, "{urls[i + 1]}") #> go.\n'))
    pages[urls[102]] = PageEntry(policy_page("End", "go.\n"))
    sess = make_session(pages, security=False,
                        guard=Guard(GuardConfig(max_depth=None,
                                                max_clauses=None)))
    goal, _ = parse_goal("go")
    t0 = time.monotonic()
    out = guarded_solve(sess, ProgramId.get(urls[0]), goal)
    assert time.monotonic() - t0 < 5.0
    assert out.termination.reason == "program_count_exceeded"
    assert out.termination.message == "maximum LogicWeb program count exceeded"
    assert sess.hooks.programs_created == 101

    # (d) clause churn past the default budget
    assert GuardConfig().max_clauses == 500
    rules = ["t0.\n"]
    for k in range(1, 11):
        rules.append(f"t{k} :- t{k - 1}, t{k - 1}.\n")
    pages = {a_url: PageEntry(policy_page("Churn", "".join(rules)))}
    sess = make_session(pages, security=False)
    goal, _ = parse_goal("t10")
    t0 = time.monotonic()
    out = guarded_solve(sess, ProgramId.get(a_url), goal)
    assert time.monotonic() - t0 < 5.0
    assert out.termination.reason == "clause_count_exceeded"
    assert out.termination.message == "maximum clause count exceeded"

    # (e) a sleeping built-in against a wall-clock budget
    pages = {a_url: PageEntry(policy_page("Slow", "slow :- sleep(5000).\n"))}
    sess = make_session(pages, security=False,
                        guard=Guard(GuardConfig(timeout_ms=300)))
    goal, _ = parse_goal("slow")
    t0 = time.monotonic()
    out = guarded_solve(sess, ProgramId.get(a_url), goal)
    elapsed = time.monotonic() - t0
    assert out.termination.reason == "timed_out"
    assert out.termination.message == "time limit exceeded"
    assert elapsed < 0.5  # budget plus 200ms slack


# ------------------------------------------------------------ 11. fd budget

def test_descriptor_budget_policy_caps_open_files_at_ten(tmp_path):
    sess = make_session(default_policy=FDLIMIT_URL)
    streams = []
    for i in range(10):
        sols = solutions(sess, HOME_URL, f'open("{tmp_path}/fd{i}.txt", write, S)')
        assert len(sols) == 1
        streams.append(sols[0]["S"])

    assert solutions(sess, HOME_URL, f'open("{tmp_path}/over.txt", write, S)') == []

    # Closing any held stream frees a slot. The handle term from the first
    # answer is fed back in as a ready-made goal.
    close_goal = Struct("close", (streams[0],))
    assert len(list(sess.run_query(ProgramId.get(HOME_URL), close_goal))) == 1
    assert len(solutions(sess, HOME_URL,
                         f'open("{tmp_path}/after.txt", write, S)')) == 1


# ------------------------------------------------------------ 12. signatures

def test_signatures_round_trip_and_detect_single_byte_tampering():
    private_key, public_key = generate_keypair()
    keystore = KeyStore({"alice": public_key})
    rng = random.Random(424242)
    body_chars = string.ascii_letters + string.digits + " .,;:!?()[]<>/='\"\n"
    pool = string.ascii_letters + string.digits + "+/=<>! -"

    for _ in range(100):
        body = "".join(rng.choice(body_chars)
                       for _ in range(rng.randint(40, 400)))
        html = f"<HTML><BODY>{body}</BODY></HTML>\n"
        signed = sign_page(html, private_key, "alice")
        assert authenticate(signed, keystore) == "alice"

        i = rng.randrange(len(signed))
        c = rng.choice(pool)
        while c == signed[i]:
            c = rng.choice(pool)
        tampered = signed[:i] + c + signed[i + 1:]
        assert authenticate(tampered, keystore) == UNKNOWN_SIGNER

    registry = PolicyRegistry({"unknown": ProgramId.get(PERMISSIVE_URL)})
    assert (registry.determine_policy_id(HOME_URL, HOME_PAGE)
            == ProgramId.get(PERMISSIVE_URL))


# ------------------------------------------------------------ 13. security off

def test_disabling_security_admits_the_blocked_query():
    goal = f'lw(get, "{RMIT_URL}") #> h_text(T)'
    locked = make_session(default_policy=DOMAIN_URL)
    assert solutions(locked, HOME_URL, goal) == []

    unlocked = make_session(security=False)
    got = solutions(unlocked, HOME_URL, goal)
    assert len(got) == 1
    assert got[0]["T"].value == RMIT_PAGE
