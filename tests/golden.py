"""Pins of the audit trail of the two gated benchmark workloads and of
a few composed and hostile pages.

For every seed-1 query of `secured_syscalls` (the secured session and its
open twin) and of `site_crawl` (`lw trace`, secured and `--no-security`),
this keeps one sha256 of what the query leaves: the session's new audit
lines for the first, the exit code and the whole output of `lw trace` for
the second. It keeps the same for `lw trace` over the doubling-context
page and composed programs (secured and `--no-security`), whose goals take
every path of clause selection: the three reduce forms, union,
intersection, restriction and encapsulation; and over each hostile page of
`hostile_pages.py` that ends in well under a second. Timestamps are stripped and fresh variable names `_G<n>` read
`_G`, so a digest depends on the interpreter's behaviour alone.

It also pins the work of one traced seed-1 pass of each gated workload, run
as `bench/run.py --trace 1` runs one: the workload warmed up, then each
query untraced and then traced by `bench/tracer.py`. What is kept is the
tracer's integer counts (clause tries, vets, switches, audit events,
`apply`, `unify` and `compose` calls, clauses parsed, downloads, store
mutations and the rest), which depend on the seed alone. A change that
moves the trail or the work on purpose rewrites the pins and says why.

    PYTHONPATH=src python tests/golden.py --check   # exit 1 naming each query or count that moved
    PYTHONPATH=src python tests/golden.py --write   # rewrite tests/golden/trail.json and counts.json

Under each of the first three queries that moved, `--check` prints that
query's new trail lines as they were digested.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from hostile_pages import (DOUBLING, HOSTILE_PAGES, READ_LINKS,  # noqa: E402
                           SLOW_PAGES)
from logicweb import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SecuredSyscalls, SiteCrawl  # noqa: E402

PINS = Path(__file__).resolve().parent / "golden" / "trail.json"
COUNT_PINS = PINS.with_name("counts.json")
SEED = 1
SHOWN = 3       # moved queries whose new lines --check prints

# a page's logged warnings are not its trail: this handler keeps Python's
# last-resort one from writing them into the `lw trace` stderr read here,
# as pytest's log capture does
logging.getLogger("logicweb").addHandler(logging.NullHandler())

_STAMP = re.compile(r"^\d+\.\d+ ", re.MULTILINE)     # an audit line's time
_FRESH = re.compile(r"_G\d+")


def normalised(lines: list[str]) -> str:
    return _FRESH.sub("_G", _STAMP.sub("", "\n".join(lines)))


def digest(lines: list[str]) -> str:
    return hashlib.sha256(normalised(lines).encode()).hexdigest()


def secured_syscalls_trails(workdir: Path) -> Iterator[tuple[str, list[str]]]:
    wl = SecuredSyscalls(SEED, workdir)
    for twin, session, run in (("secured", wl.session, wl.run),
                               ("open", wl.open_session, wl.run_open)):
        audit = session.audit
        for i, query in enumerate(wl.queries):
            before = audit.emitted
            run(query)
            new = audit.emitted - before
            if new > len(audit.events):
                raise RuntimeError(f"query {i} overflowed the audit ring")
            events = list(audit.events)[len(audit.events) - new:]
            yield (f"secured_syscalls {twin} {i:03d} {query.goal}",
                   [ev.format_line() for ev in events])


def lw_trace(argv: list[str]) -> list[str]:
    """The exit code and every output line of `lw trace` run on `argv`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["trace", *argv])
    return [f"exit {code}", *out.getvalue().splitlines(),
            *err.getvalue().splitlines()]


def site_crawl_trails(workdir: Path) -> Iterator[tuple[str, list[str]]]:
    wl = SiteCrawl(SEED, workdir)
    for twin, extra in (("secured", []), ("open", ["--no-security"])):
        for i, query in enumerate(wl.queries):
            yield (f"site_crawl {twin} {i:03d} {query.start} {query.goal}",
                   lw_trace([query.start, query.goal, *wl.session_args, *extra]))


SITE = "http://progs.example/"
POLICY_HOST = "http://policies.example.org/"
A, B, C = (f'"{SITE}{name}.html"' for name in "abc")
PROGRAMS = {
    "main": "",
    "a": "p(1).\np(3).\nq(2).\ns(2).\npub(X) :- helper(X).\nhelper(1).\n",
    "b": "p(2).\ns(2).\ns(9).\nhelper(2).\n",
    "c": "p(5).\nr(7).\n",
    "doubling": DOUBLING,
}
RESTRICTED = f"(/)<>({A} + {C}, [{B}])"
# (page, goal): the reduce forms, each operator and the doubling context
PAGE_GOALS = [("main", f"{RESTRICTED} #> {g}") for g in ("p(X)", "q(X)", "r(X)")] + [
    ("main", f"(+)<>[{A}, {B}, {C}] #> p(X)"),
    ("main", f"(*)<>[{A}, {B}] #> s(X)"),
    ("main", f"({A} * {B}) #> s(X)"),
    ("main", f"(@{A} + {B}) #> pub(X)"),
    ("main", f"({A} + {B}) #> pub(X)"),
    ("doubling", "g"),
]
PERMISSIVE = ("valid_program(_, _).\nvalid_systemCall(_).\n"
              "call_system(Call) :- built_ins:call_builtin(Call).\n")


def page(clauses: str) -> str:
    return f"<HTML><BODY>\n<!--\n<LW_CODE>\n{clauses}</LW_CODE>\n-->\n</BODY></HTML>\n"


def page_trails(workdir: Path) -> Iterator[tuple[str, list[str]]]:
    workdir = workdir / "pages"
    site, policies = workdir / "progs", workdir / "policies"
    site.mkdir(parents=True)
    policies.mkdir()
    for name, clauses in PROGRAMS.items():
        (site / f"{name}.html").write_text(page(clauses), encoding="utf-8")
    (policies / "permissive.html").write_text(page(PERMISSIVE), encoding="utf-8")
    registry = workdir / "registry"
    registry.write_text(f"default {POLICY_HOST}permissive.html\n", encoding="utf-8")
    common = ["--offline", "--mount", f"{SITE}={site}",
              "--mount", f"{POLICY_HOST}={policies}",
              "--registry", str(registry), "--timeout-ms", "3000"]
    for twin, extra in (("secured", []), ("open", ["--no-security"])):
        for name, goal in PAGE_GOALS:
            url = f"{SITE}{name}.html"
            yield (f"pages {twin} {url} {goal}",
                   lw_trace([url, goal, *common, *extra]))
    for case, (body, _, _) in HOSTILE_PAGES.items():
        if case in SLOW_PAGES:
            continue
        root = workdir / "hostile" / case
        root.mkdir(parents=True)
        (root / "index.html").write_bytes(
            body if isinstance(body, bytes) else body.encode("utf-8"))
        for goal in ("p(X)", READ_LINKS):
            yield (f"hostile {case} {goal}",
                   lw_trace(["http://hostile.example/", goal, "--no-security",
                             "--offline", "--mount", f"http://hostile.example/={root}"]))


def trails() -> dict[str, list[str]]:
    """The trail lines of every pinned query, run afresh."""
    with tempfile.TemporaryDirectory() as tmp:
        return dict(chain(secured_syscalls_trails(Path(tmp)),
                          site_crawl_trails(Path(tmp)), page_trails(Path(tmp))))


def digests() -> dict[str, str]:
    """The digest of every pinned query's trail, run afresh."""
    return {key: digest(lines) for key, lines in trails().items()}


def traced_counts() -> dict[str, dict[str, int]]:
    """The tracer's counts over one traced seed-1 pass of each gated
    workload, by workload."""
    out = {}
    for cls in (SecuredSyscalls, SiteCrawl):
        with tempfile.TemporaryDirectory() as tmp:
            wl = cls(SEED, Path(tmp))
            wl.warm_up()
            tracer = Tracer()
            for query in wl.queries:
                wl.run(query)
                tracer.install()
                try:
                    wl.run(query)
                finally:
                    tracer.remove()
        out[cls.name] = dict(sorted(tracer.counts.items()))
    return out


def load() -> dict[str, str]:
    return json.loads(PINS.read_text(encoding="utf-8"))


def load_counts() -> dict[str, dict[str, int]]:
    return json.loads(COUNT_PINS.read_text(encoding="utf-8"))


def moved(got: dict[str, str], pinned: dict[str, str]) -> list[str]:
    """The queries whose digest differs from its pin, or that only one side has."""
    return [key for key in dict.fromkeys([*pinned, *got])
            if got.get(key) != pinned.get(key)]


def moved_counts(got: dict[str, dict[str, int]],
                 pinned: dict[str, dict[str, int]]) -> list[str]:
    """`workload count pinned -> got` for each count that differs from its
    pin; a count only one side has reads None on the other."""
    out = []
    for name in dict.fromkeys([*pinned, *got]):
        old, new = pinned.get(name, {}), got.get(name, {})
        out += [f"{name} {key} {old.get(key)} -> {new.get(key)}"
                for key in dict.fromkeys([*old, *new])
                if old.get(key) != new.get(key)]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the pins")
    mode.add_argument("--check", action="store_true",
                      help="compare with the pins; exit 1 if any query or count moved")
    args = p.parse_args(argv)
    runs = trails()
    got = {key: digest(lines) for key, lines in runs.items()}
    counts = traced_counts()
    if args.write:
        PINS.parent.mkdir(exist_ok=True)
        PINS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        COUNT_PINS.write_text(json.dumps(counts, indent=1) + "\n", encoding="utf-8")
        print(f"queries={len(got)} written to {PINS}")
        print(f"counts of {len(counts)} workloads written to {COUNT_PINS}")
        return 0
    bad = moved(got, load())
    for i, key in enumerate(bad):
        print(f"moved: {key}")
        if i < SHOWN and key in runs:
            for line in normalised(runs[key]).splitlines():
                print(f"    {line}")
    print(f"queries={len(got)} moved={len(bad)}")
    bad_counts = moved_counts(counts, load_counts())
    for line in bad_counts:
        print(f"count moved: {line}")
    print(f"counts={sum(map(len, counts.values()))} moved={len(bad_counts)}")
    return 1 if bad or bad_counts else 0


if __name__ == "__main__":
    sys.exit(main())
