"""The audit trail of every seed-1 query of the gated benchmark workloads
matches its pin in `tests/golden/trail.json`, and the traced work of one
seed-1 pass of each its pin in `tests/golden/counts.json` (see
`golden.py`)."""

import golden


def test_the_gated_workloads_leave_their_pinned_trails():
    got = golden.digests()
    assert len(got) == 368
    assert golden.moved(got, golden.load()) == []


def test_one_traced_pass_of_each_gated_workload_does_its_pinned_work():
    assert golden.traced_counts() == golden.load_counts()


def test_a_moved_count_is_named_with_its_pin_and_its_new_value():
    pinned = {"w": {"a": 1, "b": 2}, "gone": {"c": 3}}
    got = {"w": {"a": 1, "b": 5, "d": 4}}
    assert golden.moved_counts(got, pinned) == [
        "w b 2 -> 5", "w d None -> 4", "gone c 3 -> None"]


def test_a_moved_line_moves_its_query_and_no_other():
    pinned = {"a": golden.digest(["x"]), "b": golden.digest(["y"])}
    got = {"a": golden.digest(["x", "switch"]), "b": golden.digest(["y"]),
           "c": golden.digest([])}
    assert golden.moved(got, pinned) == ["a", "c"]


def test_times_and_fresh_variable_numbers_do_not_count():
    assert (golden.digest(["1792604446.571405 syscall X = _G12 | context: -"])
            == golden.digest(["1.5 syscall X = _G7 | context: -"]))
    assert golden.digest(["syscall 1"]) != golden.digest(["syscall 2"])


def test_check_shows_the_new_lines_of_the_first_three_moved_queries(
        monkeypatch, capsys):
    runs = {f"q{i}": [f"1.5 syscall {i} X = _G{i}"] for i in range(5)}
    monkeypatch.setattr(golden, "trails", lambda: runs)
    monkeypatch.setattr(golden, "load",
                        lambda: {"q0": golden.digest(runs["q0"])})
    monkeypatch.setattr(golden, "traced_counts", lambda: {"w": {"a": 2}})
    monkeypatch.setattr(golden, "load_counts", lambda: {"w": {"a": 1}})
    assert golden.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "moved: q1", "    syscall 1 X = _G",
        "moved: q2", "    syscall 2 X = _G",
        "moved: q3", "    syscall 3 X = _G",
        "moved: q4",
        "queries=5 moved=4",
        "count moved: w a 1 -> 2",
        "counts=1 moved=1"]
