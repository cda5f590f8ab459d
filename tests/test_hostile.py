"""Hostile pages: inputs built to exhaust the client. Each must end in
answers, a clean failure or a named guard stop, and quickly. Every page is
generated here or in `hostile_pages.py`; nothing is downloaded."""

import time

import pytest

from conftest import base_pages, make_session, policy_page
from hostile_pages import (DOUBLING, HOSTILE_PAGES, READ_LINKS,
                           balanced_union)
from logicweb.cli import main
from logicweb.fetching import PageEntry
from logicweb.guards import Guard, GuardConfig, LOOP_FOUND, guarded_solve
from logicweb.model import ProgramId, parse_goal

MAIN = "http://hostile.example/main.html"


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


def test_last_fact_of_a_10k_clause_page_answers_quickly(tmp_path, capsys):
    n = 10_000
    page = "".join(f"f(k{i}, v{i}).\n" for i in range(n))
    start = time.monotonic()
    code = _lw_query(tmp_path, page, f"f(k{n - 1}, X)")
    assert time.monotonic() - start < 3.0
    assert (code, capsys.readouterr().out) == (0, f"X = v{n - 1}\n")


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="ROADMAP item 4: each call nests Python frames")
def test_len_over_500_elements_ends_lw_query_cleanly(tmp_path, capsys):
    items = ", ".join(str(i) for i in range(500))
    page = (f"big([{items}]).\n"
            "len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.\n")
    code = _lw_query(tmp_path, page, "big(L), len(L, N)", "query",
                     "--max-depth", "2000", "--max-clauses", "100000")
    assert code == 0 and capsys.readouterr().out.endswith(", N = 500\n")


def _deep_answer(tmp_path, capsys, steps):
    # each clause application adds a 250-deep layer; no cap is raised
    deep = "X"
    for _ in range(250):
        deep = f"f({deep})"
    links = ["a", *(f"X{i}" for i in range(1, steps)), "Y"]
    body = ", ".join(f"g({a}, {b})" for a, b in zip(links, links[1:]))
    code = _lw_query(tmp_path, f"g(X, {deep}).\nd(Y) :- {body}.\n", "d(Y), Y = Y")
    depth = 250 * steps
    answer = "Y = " + "f(" * depth + "a" + ")" * depth + "\n"
    assert (code, capsys.readouterr().out) == (0, answer)


def test_a_500_deep_answer_under_the_default_caps_ends_lw_query_cleanly(
        tmp_path, capsys):
    _deep_answer(tmp_path, capsys, 2)


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="ROADMAP item 11: term walks nest Python frames")
def test_a_1000_deep_answer_under_the_default_caps_ends_lw_query_cleanly(
        tmp_path, capsys):
    _deep_answer(tmp_path, capsys, 4)


# a fact the reader takes and the printer writes back, at a depth that
# two Python frames a level would not reach
DEEP_FACT = "p(1).\nd(" + "f(" * 400 + "a" + ")" * 401 + ".\n"


def test_a_deep_fact_is_stored_cleanly(tmp_path, capsys):
    code = _lw_query(tmp_path, DEEP_FACT, "p(X)", "query",
                     "--store-dir", str(tmp_path / "cache"))
    assert (code, capsys.readouterr().out) == (0, "X = 1\n")


def test_a_deep_fact_is_printed_cleanly_by_lw_fetch(tmp_path, capsys):
    (tmp_path / "index.html").write_text(policy_page("Hostile", DEEP_FACT),
                                         encoding="utf-8")
    code = main(["fetch", "http://hostile.example/", "--no-security",
                 "--offline", "--mount", f"http://hostile.example/={tmp_path}"])
    assert (code, capsys.readouterr().out.splitlines()[-2]) == (0, "p(1).")


@pytest.mark.parametrize("command", ["query", "trace"])
def test_a_400_deep_goal_is_printed_cleanly(command, tmp_path, capsys):
    deep = "f(" * 400 + "a" + ")" * 400
    code = _lw_query(tmp_path, "p(1).\n", f"X = {deep}", command)
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in out + err
    assert f"X = {deep}\n" in out


def test_integer_literal_too_long_to_print_is_a_bad_goal(tmp_path, capsys):
    code = _lw_query(tmp_path, "q.\n", "X = " + "1" * 5001)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: bad goal: integer too long to print")


DEEP_TERM = "p(" + "f(" * 600 + "a" + ")" * 601
LONG_CONJUNCTION = ", ".join(["true"] * 5000)


@pytest.mark.parametrize("goal", [DEEP_TERM, LONG_CONJUNCTION],
                         ids=["600_deep", "5000_conjuncts"])
def test_a_goal_nested_too_deeply_is_a_bad_goal(goal, tmp_path, capsys):
    code = _lw_query(tmp_path, "p(a).\n", goal)
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("error: bad goal: term nested too deeply at line 1, ")


def test_a_call_nested_too_deeply_is_an_error(tmp_path, capsys):
    (tmp_path / "index.html").write_text(policy_page("Policy", "valid_systemCall(_).\n"),
                                         encoding="utf-8")
    code = main(["policy-check", "http://hostile.example/", "--call", DEEP_TERM,
                 "--no-security", "--offline",
                 "--mount", f"http://hostile.example/={tmp_path}"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("error: term nested too deeply at line 1, ")


def test_a_clause_nested_too_deeply_drops_its_code_block(tmp_path, capsys, caplog):
    code = _lw_query(tmp_path, f"p(1).\n{DEEP_TERM}.\n", "p(X)")
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "")
    assert "term nested too deeply at line 2, " in caplog.text


# Python names no file and runs no command with a NUL in it
@pytest.mark.parametrize("clause", ['p :- open("a\0b", read, S).\n',
                                    'p :- system("true\0x").\n'],
                         ids=["open", "system"])
def test_a_nul_in_a_path_or_command_fails_with_a_notice(clause, tmp_path, capsys):
    code = _lw_query(tmp_path, clause, "p", "trace")
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in out + err
    assert "failed: embedded null byte" in out


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


@pytest.mark.parametrize("case, goal", [
    pytest.param(case, goal, id=case + suffix)
    for case in sorted(HOSTILE_PAGES)
    for goal, suffix in (("p(X)", ""), (READ_LINKS, "-reading_links"))])
def test_hostile_page_ends_lw_query_cleanly(case, goal, tmp_path, capsys):
    body, expected, seconds = HOSTILE_PAGES[case]
    page = tmp_path / "index.html"
    page.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8"))
    start = time.monotonic()
    code = main(["query", "http://hostile.example/", goal, "--no-security",
                 "--offline", "--mount", f"http://hostile.example/={tmp_path}"])
    elapsed = time.monotonic() - start
    out, err = capsys.readouterr()
    assert code == expected and "Traceback" not in out + err
    assert out == ("X = 1\n" if expected == 0 else "")
    assert elapsed < seconds


def test_a_switch_stops_fetching_at_its_first_missing_program(tmp_path, capsys):
    # the switch fails once one of its 200 mounted pages is missing, so it
    # tries no other: with the network on, each would be a request
    code = _lw_query(tmp_path, f"q :- {balanced_union(200)} #> r.\n", "q", "trace")
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    fetches = [line for line in out.splitlines() if " fetch " in line]
    assert len(fetches) == 2 and 'hostile.example/p0.html"' in fetches[1]


def test_failed_fetches_count_against_the_program_cap(tmp_path, capsys):
    # each clause switches into its own missing page: uncounted, every one
    # would be fetched, and with the network on each would be a request
    page = "".join(f'q :- "http://hostile.example/m{i}.html" #> r.\n'
                   for i in range(200))
    code = _lw_query(tmp_path, page, "q", "trace", "--max-programs", "5")
    out, err = capsys.readouterr()
    assert (code, err) == (2, "stopped: maximum LogicWeb program count exceeded\n")
    # the page itself, then m0 to m4: the fifth failure crosses the cap
    assert len([line for line in out.splitlines() if " fetch " in line]) == 6
