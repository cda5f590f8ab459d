"""A session's memo of pure policy verdicts.

Vetting proves `valid_program/2` or `valid_systemCall/1` in every active
policy. While the session proves a vet, it records the clause bucket of
every predicate the proof selects clauses for, in each policy. The engine
drops that record wherever the proof does more than pure resolution: a
built-in outside `PURE_BUILTINS`, a variable goal, a switch or a qualified
goal; and a proof that first fetches a policy is not recorded at all. A
verdict whose record survives is kept, and reused for a variant of the goal
under the same policy tuple while each of those predicates still has the
very clauses the proof read. So `assert` and `retract` on any other
predicate, such as a policy's call counter, leave it valid.

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

from .guards import ProofSummary

# verdicts kept per session; the oldest goes first
MAX_ENTRIES = 4096

PURE_BUILTINS = frozenset(
    [(op, 2) for op in ("<", ">", "=<", ">=", "=:=", "=\\=",
                        "=", "\\=", "==", "\\==", "is", "contains", "member")]
    + [(name, 1) for name in ("atom", "var", "number", "string")]
    + [("append", 3)])


def unchanged(reads: dict) -> bool:
    """Whether every bucket read is still the very same tuple: a program
    replaces a predicate's bucket only when `add`, `remove` or its link
    build changes that predicate."""
    for (program, pred), bucket in reads.items():
        if program.clauses_of(pred) is not bucket:
            return False
    return True


class Verdict(NamedTuple):
    allowed: bool
    reads: dict             # (program, predicate) -> the bucket the proof read
    summary: ProofSummary


class VerdictMemo:
    """Verdicts keyed by (policy tuple, variant key of the goal)."""

    def __init__(self):
        self._entries: dict[tuple, Verdict] = {}

    def get(self, key) -> Verdict | None:
        verdict = self._entries.get(key)
        if verdict is not None and unchanged(verdict.reads):
            return verdict
        return None

    def put(self, key, verdict: Verdict) -> None:
        entries = self._entries
        entries.pop(key, None)
        if len(entries) >= MAX_ENTRIES:
            del entries[next(iter(entries))]
        entries[key] = verdict
