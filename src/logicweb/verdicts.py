"""A session's memo of pure policy verdicts.

Vetting proves `valid_program/2` or `valid_systemCall/1` in every active
policy. A verdict is kept when every predicate reachable from the goal in
each policy calls only control constructs, its policy's own predicates and
the pure built-ins below. It is reused for a variant of the goal under the
same policy tuple while the clauses of those predicates are the very ones
the proof read. So `assert` and `retract` on any other predicate, such as a
policy's call counter, leave it valid. A policy found impure is proved
every time, but is not walked again until a clause the walk read changes.

The guards must see a reused verdict as they saw the proof. The session
proves a goal it may keep under the hooks' `watch`, and the hooks sum up
the proof: the clauses it applies, its deepest goal, its largest context
and the loop keys of the goals it enters (`guards.ProofSummary`). A
verdict keeps only that summary. The live hooks admit it in one step, or
refuse it when the proof would cross a bound from the live state; then the
goal is proved again, so the stop falls at the same point with the same
reason.
"""

from __future__ import annotations

from typing import NamedTuple

from .builtins import TABLE
from .guards import ProofSummary
from .terms import Atom, Struct, Term, functor_of

# verdicts, and policy walks, kept per session; the oldest goes first
MAX_ENTRIES = 4096

PURE_BUILTINS = frozenset(
    [(op, 2) for op in ("<", ">", "=<", ">=", "=:=", "=\\=",
                        "=", "\\=", "==", "\\==", "is", "contains", "member")]
    + [(name, 1) for name in ("atom", "var", "number", "string")]
    + [("append", 3)])
_CONNECTIVES = (",", ";", "->")
_CONTROL_ATOMS = ("!", "true", "fail", "false")
_ESCAPES = (("#>", 2), (":", 2))        # a switch and a `built_ins:` goal


def user_calls(body: Term) -> list[tuple[str, int]] | None:
    """The predicates a goal or clause body calls outside the built-in
    table, or None when it may do more than pure resolution: call any
    other built-in, a variable, a switch or a qualified goal."""
    out = []
    stack = [body]
    while stack:
        g = stack.pop()
        if isinstance(g, Struct) and g.functor in _CONNECTIVES and len(g.args) == 2:
            stack.extend(g.args)
        elif isinstance(g, Atom) and g.name in _CONTROL_ATOMS:
            continue
        elif isinstance(g, (Atom, Struct)):
            pred = functor_of(g)
            if pred in TABLE:
                if pred not in PURE_BUILTINS:
                    return None
            elif pred in _ESCAPES:
                return None
            else:
                out.append(pred)
        else:                               # a variable, a number or a string
            return None
    return out


def policy_reads(store, pids, roots) -> tuple[bool, list] | None:
    """Walk, in each policy, the predicates reachable from `roots`: whether
    every body met is pure, and the clause buckets read on the way as
    (program, predicate, clauses) triples; None when a policy is not in the
    store yet. The walk stops at the first impure body, so the same buckets
    lead it to the same one again."""
    reads = []
    for pid in pids:
        program = store.get(pid)
        if program is None:
            return None
        seen = set()
        todo = list(roots)
        while todo:
            pred = todo.pop()
            if pred in seen:
                continue
            seen.add(pred)
            bucket = program.clauses_of(pred)
            reads.append((program, pred, bucket))
            for clause in bucket:
                called = user_calls(clause.body)
                if called is None:
                    return False, reads
                todo.extend(called)
    return True, reads


def unchanged(reads) -> bool:
    """Whether every bucket read is still the very same tuple: a program
    replaces a predicate's bucket only when `add`, `remove` or its link
    build changes that predicate."""
    for program, pred, bucket in reads:
        if program.clauses_of(pred) is not bucket:
            return False
    return True


class Verdict(NamedTuple):
    allowed: bool
    reads: list
    summary: ProofSummary


class VerdictMemo:
    """Verdicts keyed by (policy tuple, variant key of the goal), and the
    outcome of each policy walk keyed by (policy tuple, predicates the goal
    calls), so a policy found impure is not walked again until a clause the
    walk read changes."""

    def __init__(self):
        self._entries: dict[tuple, Verdict] = {}
        self._walks: dict[tuple, tuple[bool, list]] = {}

    def get(self, key) -> Verdict | None:
        verdict = self._entries.get(key)
        if verdict is not None and unchanged(verdict.reads):
            return verdict
        return None

    def put(self, key, verdict: Verdict) -> None:
        _put(self._entries, key, verdict)

    def pure_reads(self, store, pids: tuple, goal: Term) -> list | None:
        """The buckets a proof of `goal` under `pids` may read, when every
        reachable body is pure and every policy is in the store; else None."""
        roots = user_calls(goal)
        if roots is None:
            return None
        key = (pids, tuple(roots))
        walk = self._walks.get(key)
        if walk is None or not unchanged(walk[1]):
            walk = policy_reads(store, pids, roots)
            if walk is None:
                return None
            _put(self._walks, key, walk)
        pure, reads = walk
        return reads if pure else None


def _put(entries: dict, key, value) -> None:
    entries.pop(key, None)
    if len(entries) >= MAX_ENTRIES:
        del entries[next(iter(entries))]
    entries[key] = value
