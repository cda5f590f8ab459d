"""Resource limits layered over the evaluator through engine hooks.

The engine reports goal entry/exit, clause applications, and program
installs; a Guard keeps an ancestor stack and counters and aborts the
derivation with GuardTermination when a bound is crossed. The loop check
keys each live goal by its context and the variant key of the goal, read
through the goal's substitution, so a goal is a loop exactly when its key
is already live: one set lookup, in time linear in the goal's size. A
context's size and hash come with it, worked out from its parts when it
was built, so the size cap and the loop key never walk the context. A
policy verdict the session may keep (`engine.VerdictMemo`) is proved under
`watch`, and the Guard sums up the goals it enters and the clauses it
applies while that proof runs. A reused verdict is offered to `admits` as that summary,
which a Guard checks against its live state in one step; when the summary
would cross a bound, the guard refuses it and the goal is proved again, so
the stop falls at its exact point with its reason. Aborts unwind the
generator stack, so answers already produced stay valid and the session
remains usable afterwards.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, NamedTuple, Optional

# `variant` stays importable here for tools that patch it by this name
from .terms import EMPTY_SUBST, Substitution, Term, variant, variant_key  # noqa: F401

LOOP_FOUND = "loop_found"
DEPTH_EXCEEDED = "depth_exceeded"
PROGRAM_COUNT_EXCEEDED = "program_count_exceeded"
CLAUSE_COUNT_EXCEEDED = "clause_count_exceeded"
TIMED_OUT = "timed_out"

MESSAGES = {
    LOOP_FOUND: "loop found",
    DEPTH_EXCEEDED: "maximum recursion depth exceeded",
    PROGRAM_COUNT_EXCEEDED: "maximum LogicWeb program count exceeded",
    CLAUSE_COUNT_EXCEEDED: "maximum clause count exceeded",
    TIMED_OUT: "time limit exceeded",
}


class GuardTermination(Exception):
    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message


class ProofSummary(NamedTuple):
    """What a kept proof's hook calls can stop on when its goal is proved
    again: the proof exits every goal it enters, so only these meet the
    live state."""
    clauses: int            # clauses applied
    deepest: int            # the deepest goal, relative to the proof's start
    largest: int            # the largest context size entered
    keys: frozenset         # the (context, variant key) of every goal entered


class EngineHooks:
    """Do-nothing hook set; the engine calls these at its checkpoints."""

    # the clock time the query must stop at; None when it has no limit
    deadline: Optional[float] = None

    def start(self) -> None:
        pass

    def enter_goal(self, ctx, goal: Term, s: Substitution = EMPTY_SUBST) -> int:
        return 0

    def exit_goal(self, token: int) -> None:
        pass

    def on_clause_applied(self) -> None:
        pass

    def on_program_created(self, pid) -> None:
        pass

    def check_now(self) -> None:
        pass

    def watch(self) -> None:
        """Begin to sum up the proof about to run."""

    def summary(self) -> ProofSummary | None:
        """End the watch: the summary of the proof watched, or None when a
        goal it entered is still live. Hooks that do nothing have no bound
        to cross."""
        return ProofSummary(0, 0, 0, frozenset())

    def admits(self, summary: ProofSummary) -> bool:
        """Whether the hook calls of a kept proof summed up by `summary`
        may be taken as made, in place of proving its goal again. Hooks
        that do nothing have no bound to cross."""
        return True


class GuardConfig(NamedTuple):
    max_depth: Optional[int] = 40
    loop_check: bool = True
    max_clauses: Optional[int] = 500
    max_programs: Optional[int] = 100
    timeout_ms: Optional[int] = None
    # a cap on context size catches the loops the ancestor check cannot,
    # where the context keeps growing, as one that doubles at every level does
    max_context_size: Optional[int] = 100


class Guard(EngineHooks):
    def __init__(self, config: GuardConfig | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or GuardConfig()
        self.clock = clock
        # one entry per live goal: its loop key, or None with the check off
        self.ancestors: list[tuple | None] = []
        # the keys in `ancestors`; the check stops before one enters twice
        self._live: set[tuple] = set()
        self.clauses_applied = 0
        self.programs_created = 0
        # while a proof is watched: the depth and clause count it began at,
        # and its deepest goal, largest context and loop keys so far
        self._watch: tuple[int, int] | None = None
        self._deepest = self._largest = 0
        self._keys: set[tuple] = set()

    @property
    def depth(self) -> int:
        return len(self.ancestors)

    def start(self) -> None:
        """Reset the per-query state. The program count is per session and
        survives across queries; the clause count does not."""
        self.ancestors.clear()
        self._live.clear()
        self.clauses_applied = 0
        self._watch = None
        self.deadline = None
        if self.config.timeout_ms is not None:
            self.deadline = self.clock() + self.config.timeout_ms / 1000.0

    def check_now(self) -> None:
        if self.deadline is not None and self.clock() > self.deadline:
            self._stop(TIMED_OUT)

    def enter_goal(self, ctx, goal: Term, s: Substitution = EMPTY_SUBST) -> int:
        self.check_now()
        key = None
        if self.config.loop_check:
            key = (ctx, variant_key(goal, s))
            if key in self._live:
                self._stop(LOOP_FOUND)
        if (self.config.max_context_size is not None
                and ctx.size > self.config.max_context_size):
            self._stop(LOOP_FOUND)
        token = len(self.ancestors)
        self.ancestors.append(key)
        if key is not None:
            self._live.add(key)
        if (self.config.max_depth is not None
                and len(self.ancestors) > self.config.max_depth):
            self._stop(DEPTH_EXCEEDED)
        if self._watch is not None:
            # the summary holds every key and size, whichever checks are on
            self._keys.add(key or (ctx, variant_key(goal, s)))
            self._largest = max(self._largest, ctx.size)
            self._deepest = max(self._deepest, token + 1 - self._watch[0])
        return token

    def exit_goal(self, token: int) -> None:
        # Also sheds frames left behind by abandoned branches.
        self._live.difference_update(self.ancestors[token:])
        del self.ancestors[token:]

    def on_clause_applied(self) -> None:
        self.check_now()
        self.clauses_applied += 1
        if (self.config.max_clauses is not None
                and self.clauses_applied > self.config.max_clauses):
            self._stop(CLAUSE_COUNT_EXCEEDED)

    def on_program_created(self, pid) -> None:
        self.check_now()
        self.programs_created += 1
        if (self.config.max_programs is not None
                and self.programs_created > self.config.max_programs):
            self._stop(PROGRAM_COUNT_EXCEEDED)

    def watch(self) -> None:
        self._watch = (len(self.ancestors), self.clauses_applied)
        self._deepest = self._largest = 0
        self._keys = set()

    def summary(self) -> ProofSummary | None:
        depth, clauses = self._watch
        self._watch = None
        if len(self.ancestors) > depth:
            return None
        return ProofSummary(self.clauses_applied - clauses, self._deepest,
                            self._largest, frozenset(self._keys))

    def admits(self, summary: ProofSummary) -> bool:
        """Take a kept proof's hook calls as made when, from the live state,
        none of them would stop: one clock check stands for theirs, and the
        clause count advances by theirs. A proof that raised no stop makes
        the same calls when proved again, so only the live depth, clause
        count and loop keys can make it stop now."""
        self.check_now()
        config = self.config
        clauses = self.clauses_applied + summary.clauses
        if ((config.max_depth is not None
             and len(self.ancestors) + summary.deepest > config.max_depth)
                or (config.max_clauses is not None
                    and clauses > config.max_clauses)
                or (config.max_context_size is not None
                    and summary.largest > config.max_context_size)
                or (config.loop_check
                    and not self._live.isdisjoint(summary.keys))):
            return False
        self.clauses_applied = clauses
        return True

    def _stop(self, reason: str) -> None:
        raise GuardTermination(reason, MESSAGES[reason])


class GuardOutcome:
    def __init__(self, solutions: list | None = None,
                 termination: GuardTermination | None = None):
        self.solutions = [] if solutions is None else solutions
        self.termination = termination

    @property
    def terminated(self) -> bool:
        return self.termination is not None


def guarded_solve(session, main, goal, limit: int | None = None) -> GuardOutcome:
    """Run a query to completion or to the first guard abort, keeping
    whatever answers arrived first. A stop or an error closes the streams
    the session holds open."""
    outcome = GuardOutcome()
    try:
        for sol in itertools.islice(session.run_query(main, goal), limit):
            outcome.solutions.append(sol)
    except BaseException as exc:
        session.close_streams()
        if not isinstance(exc, GuardTermination):
            raise
        outcome.termination = exc
        session.notice(f"query aborted: {exc.message}")
    return outcome
