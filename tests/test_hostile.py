"""Hostile pages: inputs built to exhaust the client. Each must end in
answers, a clean failure or a named guard stop, and quickly. Every page is
generated here; nothing is downloaded."""

import time

from conftest import base_pages, make_session, policy_page
from logicweb.cli import main
from logicweb.fetching import PageEntry
from logicweb.guards import Guard, GuardConfig, LOOP_FOUND, guarded_solve
from logicweb.model import ProgramId, parse_goal

MAIN = "http://hostile.example/main.html"

# The context doubles at every level, so walking it as a tree takes time
# exponential in the depth.
DOUBLING = "g :- ((#) + (#)) #> g.\n"


def test_doubling_context_stops_as_a_loop():
    pages = base_pages()
    pages[MAIN] = PageEntry(policy_page("Doubling", DOUBLING))
    # the timeout turns a regression into a failure instead of a hang
    s = make_session(pages, security=False,
                     guard=Guard(GuardConfig(timeout_ms=3000)))
    goal, _ = parse_goal("g")
    start = time.monotonic()
    out = guarded_solve(s, ProgramId.get(MAIN), goal)
    assert out.termination.reason == LOOP_FOUND
    assert time.monotonic() - start < 1.0


def _lw_query(tmp_path, clauses, goal, command="query", *extra):
    (tmp_path / "index.html").write_text(policy_page("Hostile", clauses),
                                         encoding="utf-8")
    return main([command, "http://hostile.example/", goal, "--no-security",
                 "--offline", "--mount", f"http://hostile.example/={tmp_path}",
                 *extra])


def test_doubling_context_stops_lw_query(tmp_path, capsys):
    code = _lw_query(tmp_path, DOUBLING, "g", "query", "--timeout-ms", "3000")
    _, err = capsys.readouterr()
    assert (code, err) == (2, "stopped: loop found\n")


def test_mixed_first_arguments_install_and_answer_quickly(tmp_path, capsys):
    # thousands of keyed facts interleaved with as many variable-first ones:
    # an index that copied each variable-first clause into every key's
    # bucket would hold n * n entries
    n = 4000
    page = "".join(f"p(k{i}, yes).\np(_, no).\n" for i in range(n))
    start = time.monotonic()
    code = _lw_query(tmp_path, page, f"p(k{n - 1}, yes)")
    assert time.monotonic() - start < 1.5
    assert (code, capsys.readouterr().out) == (0, "true\n")


def test_integer_literal_too_long_to_print_is_a_bad_goal(tmp_path, capsys):
    code = _lw_query(tmp_path, "q.\n", "X = " + "1" * 5001)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: bad goal: integer too long to print")


# each step squares the number, so sq(2, 14, Y) would make 2^16384, which
# has 4933 decimal digits
SQUARING = "sq(X, 0, X).\nsq(X, N, Y) :- N > 0, Z is X*X, M is N-1, sq(Z, M, Y).\n"


def test_is_result_too_long_to_print_fails_with_a_notice(tmp_path, capsys):
    code = _lw_query(tmp_path, SQUARING, "sq(2, 14, Y)", "trace")
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    notices = [line for line in out.splitlines() if "is/2:" in line]
    assert len(notices) == 1 and "integer result too long to print" in notices[0]
    # one step less stays printable
    assert _lw_query(tmp_path, SQUARING, "sq(2, 13, Y)") == 0
    assert capsys.readouterr().out == f"Y = {2 ** 8192}\n"
