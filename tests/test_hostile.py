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


def test_doubling_context_stops_lw_query(tmp_path, capsys):
    (tmp_path / "index.html").write_text(policy_page("Doubling", DOUBLING),
                                         encoding="utf-8")
    code = main(["query", "http://hostile.example/", "g", "--no-security",
                 "--offline", "--mount", f"http://hostile.example/={tmp_path}",
                 "--timeout-ms", "3000"])
    _, err = capsys.readouterr()
    assert (code, err) == (2, "stopped: loop found\n")
