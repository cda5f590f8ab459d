"""A kept proof written down the plain way, as a reference for the summary
the verdict memo keeps: record every hook call the proof makes, sum the
calls up afterwards, and make them again one by one against other hooks."""

import itertools

from logicweb.guards import EngineHooks, ProofSummary, context_size
from logicweb.terms import variant_key

ENTER, EXIT, CLAUSE, CHECK = range(4)


class StepRecorder(EngineHooks):
    """Forwards every hook call to the live hooks and records it. Each goal
    entered gets a token of its own, so the steps do not depend on the
    tokens the live hooks give."""

    def __init__(self, live: EngineHooks):
        self.live = live
        self.steps: list[tuple] = []
        self._ids = itertools.count()
        self._live_token: dict[int, int] = {}

    def enter_goal(self, ctx, goal) -> int:
        token = next(self._ids)
        self._live_token[token] = self.live.enter_goal(ctx, goal)
        self.steps.append((ENTER, ctx, goal, token))
        return token

    def exit_goal(self, token: int) -> None:
        self.live.exit_goal(self._live_token[token])
        self.steps.append((EXIT, token))

    def on_clause_applied(self) -> None:
        self.live.on_clause_applied()
        self.steps.append((CLAUSE,))

    def on_program_created(self, pid) -> None:
        self.live.on_program_created(pid)

    def check_now(self) -> None:
        self.live.check_now()
        self.steps.append((CHECK,))


def summarize(steps: list[tuple]) -> ProofSummary | None:
    """The summary of recorded hook calls, or None when they do not exit
    every goal they enter. An exit returns to the depth its goal entered
    at, shedding any goal entered above it."""
    depth_at = {}
    depth = deepest = largest = clauses = 0
    keys = set()
    for step in steps:
        op = step[0]
        if op == ENTER:
            keys.add((step[1], variant_key(step[2])))
            largest = max(largest, context_size(step[1]))
            depth_at[step[3]] = depth
            depth += 1
            deepest = max(deepest, depth)
        elif op == EXIT:
            depth = depth_at[step[1]]
        elif op == CLAUSE:
            clauses += 1
    if depth:
        return None
    return ProofSummary(clauses, deepest, largest, frozenset(keys))


def replay(steps: list[tuple], hooks: EngineHooks) -> None:
    """Make the recorded hook calls again, each token the proof was given
    standing for the one `hooks` give now."""
    tokens = {}
    for step in steps:
        op = step[0]
        if op == ENTER:
            tokens[step[3]] = hooks.enter_goal(step[1], step[2])
        elif op == EXIT:
            hooks.exit_goal(tokens[step[1]])
        elif op == CLAUSE:
            hooks.on_clause_applied()
        else:
            hooks.check_now()
