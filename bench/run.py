"""Benchmark for the logicweb interpreter.

    python3 bench/run.py --workload site_crawl --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1 --seconds 40          # all three workloads
    python3 bench/run.py --workload deep_resolution --smoke

One workload runs in one process, one query at a time (a closed loop with
one client): the next query is sent only when the previous one finished.
The run passes over the workload's fixed query list several times: as many
passes as its nominal pass time fits into `--seconds`, at least two. It sets
the workload up before the first pass and again after every pass, and
reports the median set-up time. Every answer is checked against the
expectation computed by the workload generator.

With `--trace 0` the last line of output is the end-to-end result; with
`--trace 1` each query is run untraced and then traced, over a fixed number
of passes, the spans are written to `.bench_out/`, and the last line holds
the per-layer metrics and the tracing overhead. Metric names and units come
from BENCHMARK.json. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("site_crawl", "deep_resolution", "secured_syscalls")
# cli.main reads these; a developer's setting could switch the benchmark
# onto another registry or onto the store path
LW_ENV = ("LW_REGISTRY", "LW_KEYSTORE", "LW_FIXTURE_ROOT", "LW_STORE_DIR")
MIN_PASSES = 2
SMOKE_QUERIES = 8
# the one failure expected today: deep down/1 overflows the Python stack
KNOWN_FAILURE = "deep:error:RecursionError"

SHARED_NOTE = ("shared sandbox: other tenants load the machine, so compare "
               "only figures measured in the same session")


class SetupError(Exception):
    pass


def load_program():
    """Import the interpreter from this checkout's `src/`, never from an
    installed copy, then the benchmark modules that build on it."""
    if not (SRC / "logicweb" / "__init__.py").is_file():
        raise SetupError(f"no interpreter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import logicweb
    if Path(logicweb.__file__).resolve().parent != SRC / "logicweb":
        raise SetupError(f"imported logicweb from {logicweb.__file__}")
    import workloads
    return workloads


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order: the end-to-end
    metrics, or with `trace` the per-layer ones."""
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {SPEC.name}: {exc}") from exc
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_record(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "logicweb").glob("*.py")))
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
        "src_logicweb_lines": src_lines,
        "note": SHARED_NOTE,
    }


def tail_percentile(fixed_count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it at
    the workload's fixed query count."""
    return max(50, math.floor(100 * (fixed_count - 10) / fixed_count))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def judge(run, query, expected) -> tuple[str, float]:
    """Run one query; (verdict, seconds). The verdict is `ok`, `wrong`
    (a finished query gave other answers or another exit code), `stopped`
    (an unexpected guard stop) or `error:<exception>`."""
    start = time.perf_counter()
    try:
        got = run(query)
    except Exception as exc:            # the query, not the benchmark, failed
        return f"error:{type(exc).__name__}", time.perf_counter() - start
    took = time.perf_counter() - start
    if got == expected:
        return "ok", took
    if got.code == 2:
        return "stopped", took
    return "wrong", took


class Tally:
    """Executions, and failures by query class and verdict. The run is
    correct when its only failures are the known one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def add(self, kind: str, verdicts: list[str]) -> bool:
        self.attempted += 1
        bad = [v for v in verdicts if v != "ok"]
        for v in bad:
            self.reasons[f"{kind}:{v}"] += 1
        self.failed += bool(bad)
        return not bad

    @property
    def correct(self) -> bool:
        return all(r == KNOWN_FAILURE for r in self.reasons)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def run_passes(queries: list, passes: int, execute,
               after_pass=None) -> tuple[Tally, dict, set]:
    """`passes` passes over the fixed query list. `execute(query)` runs one
    query in one or more ways and returns {way: (verdict, seconds)};
    `after_pass()`, if given, runs after each pass. Returns the tally, each
    way's fastest time per query, and the indexes of the queries that failed
    in any pass."""
    tally = Tally()
    best: dict[str, list[float]] = {}
    failed: set[int] = set()
    for _ in range(passes):
        for i, query in enumerate(queries):
            ways = execute(query)
            for way, (_verdict, took) in ways.items():
                times = best.setdefault(way, [float("inf")] * len(queries))
                times[i] = min(times[i], took)
            if not tally.add(query.kind, [v for v, _took in ways.values()]):
                failed.add(i)
        if after_pass is not None:
            after_pass()
    if len(failed) == len(queries):
        raise SetupError("no query completed correctly")
    return tally, best, failed


def measure(wl, queries: list, passes: int,
            after_pass=None) -> tuple[Tally, dict, dict]:
    """The untraced run. Each query's time is its fastest pass, which keeps
    bursts of load from other tenants out of the figures; the number of
    passes is fixed so that the fastest of them means the same in every run.
    A query that fails in any pass counts as failed."""
    def execute(query):
        ways = {"secured": judge(wl.run, query, query.expected)}
        if wl.has_twin:
            ways["open"] = judge(wl.run_open, query,
                                 query.expected_open or query.expected)
        return ways

    tally, best, failed = run_passes(queries, passes, execute, after_pass)
    good = [t for i, t in enumerate(best["secured"]) if i not in failed]
    pct = tail_percentile(len(queries))
    p50 = statistics.median(good) * 1000
    # deep_resolution runs with security off already: its open figure is
    # the same measurement
    open_p50 = p50
    if wl.has_twin:
        open_p50 = statistics.median(
            t for i, t in enumerate(best["open"]) if i not in failed) * 1000
    metrics = {
        "queries_per_s": len(good) / sum(best["secured"]),
        "query_p50_ms": p50,
        "query_tail_ms": nearest_rank(good, pct) * 1000,
        "peak_rss_mb": peak_rss_mb(),
        "open_query_p50_ms": open_p50,
    }
    extra = {
        "queries": f"{len(queries)} fixed, {len(good)} correct in every pass",
        "passes": passes,
        "tail_percentile": f"p{pct} of {len(queries)}",
        "failures": dict(tally.reasons),
        "security_cost": (f"query_p50_ms / open_query_p50_ms = {p50 / open_p50:.3f} "
                          f"({p50:.3f} ms / {open_p50:.3f} ms)"),
    }
    return tally, metrics, extra


def measure_traced(wl, queries: list, passes: int,
                   spans_path: Path) -> tuple[Tally, dict, dict]:
    """The traced run: `passes` passes, each query untraced and then traced.
    Per-layer metrics come from the traced executions, per execution, so
    their counts depend on the seed alone. The overhead compares the
    queries' fastest traced and untraced times. The spans are written to
    `spans_path` at the end."""
    import tracer as tracing
    tracer = tracing.Tracer()
    executions = 0

    def execute(query):
        nonlocal executions
        ways = {"untraced": judge(wl.run, query, query.expected)}
        tracer.begin_query(executions)
        executions += 1
        tracer.install()
        try:
            ways["traced"] = judge(wl.run, query, query.expected)
        finally:
            tracer.remove()
        return ways

    tally, best, failed = run_passes(queries, passes, execute)
    metrics = tracer.metrics(tally.attempted)
    untraced, traced = (statistics.median(t for i, t in enumerate(best[way])
                                          if i not in failed) * 1000
                        for way in ("untraced", "traced"))
    metrics["trace.overhead"] = traced / untraced
    metrics["trace.traced_p50_ms"] = traced
    metrics["trace.untraced_p50_ms"] = untraced
    tracer.write_spans(spans_path)
    extra = {"queries": f"{len(queries)} fixed", "passes": passes,
             "spans": len(tracer.spans), "failures": dict(tally.reasons)}
    return tally, metrics, extra


def set_up(cls, seed: int, workdir: Path) -> tuple[object, float]:
    """One set-up in `workdir`: the interpreter imported in a fresh
    interpreter process, then the workload generated and warmed up. Returns
    the workload and the seconds all of it took."""
    workdir.mkdir()
    imported = import_seconds()
    start = time.perf_counter()
    wl = cls(seed, workdir)
    wl.warm_up()
    return wl, imported + time.perf_counter() - start


def import_seconds() -> float:
    """Time to import the interpreter in a fresh interpreter process."""
    code = ("import time; t = time.perf_counter(); import logicweb; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"cannot import logicweb: {proc.stderr.strip()}")
    return float(proc.stdout)


def run_one(args) -> int:
    for name in LW_ENV:
        os.environ.pop(name, None)
    record = run_record(args.seed)
    units = declared_units(args.trace)
    workloads = load_program()
    cls = workloads.WORKLOADS[args.workload]

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl, took = set_up(cls, args.seed, workdir / "setup0")
        setups = [took]
        queries = wl.queries[:SMOKE_QUERIES] if args.smoke else wl.queries
        if args.trace:
            passes = 1 if args.smoke else max(
                1, round(args.seconds / wl.traced_pass_seconds))
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{args.workload}.tsv.gz"
            tally, metrics, extra = measure_traced(wl, queries, passes, spans)
            extra["spans_file"] = spans.relative_to(ROOT).as_posix()
        else:
            passes = 1 if args.smoke else max(
                MIN_PASSES, round(args.seconds / wl.pass_seconds))

            def set_up_again():
                # measured like the first set-up, then dropped, so that the
                # set-up times sample the whole run, not its first seconds
                again = workdir / f"setup{len(setups)}"
                setups.append(set_up(cls, args.seed, again)[1])
                shutil.rmtree(again, ignore_errors=True)

            tally, metrics, extra = measure(wl, queries, passes, set_up_again)
            metrics["setup_s"] = statistics.median(setups)
            extra["setup_runs_s"] = [round(s, 4) for s in setups]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  trace {int(args.trace)}")
    print("record " + json.dumps(record, sort_keys=True))
    for key, value in extra.items():
        print(f"  {key}: {value}")
    # failed_frac is reported but not gated: it is 0 on two workloads
    for name, unit in [*units.items(), ("failed_frac", "ratio")]:
        value = tally.failed_frac if name == "failed_frac" else metrics[name]
        print(f"  {name:28s} {value:14.4f} {unit}")
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        if args.smoke:
            cmd.append("--smoke")
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"one set-up and one pass over {SMOKE_QUERIES} queries, "
                        "for the self-tests")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
