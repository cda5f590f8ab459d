"""A session's memo of pure policy verdicts.

Vetting proves `valid_program/2` or `valid_systemCall/1` in every active
policy. A verdict is kept when every predicate reachable from the goal in
each policy calls only control constructs, its policy's own predicates and
the pure built-ins below. It is reused for a variant of the goal under the
same policy tuple while the clauses of those predicates are the very ones
the proof read. So `assert` and `retract` on any other predicate, such as a
policy's call counter, leave it valid. A policy found impure is proved
every time, but is not walked again until a clause the walk read changes.

The guards must see a reused verdict as they saw the proof: its hook calls
are recorded, and on its first reuse summed up as the clauses it applied,
its deepest relative depth, its largest context and the loop keys it
entered. When the live hooks admit that summary, the reuse is one guard
step; when they do not (the proof would cross a bound from the live
state, or the hooks are not a guard), the calls are replayed one by one,
so a depth, clause, loop or time stop falls at the same point with the
same reason.
"""

from __future__ import annotations

from .builtins import TABLE
from .guards import EngineHooks, ProofSummary, context_size
from .terms import Atom, Struct, Term, functor_of, variant_key

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

_ENTER, _EXIT, _CLAUSE, _CHECK = range(4)
_UNSUMMED = object()


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
    """Whether every bucket read still holds the very same clauses. A
    predicate no `assert` or `retract` changed keeps its very bucket tuple."""
    for program, pred, bucket in reads:
        now = program.clauses_of(pred)
        if now is not bucket and now != bucket:
            return False
    return True


class Recorder(EngineHooks):
    """Forwards every hook call to the live hooks and records it."""

    def __init__(self, live: EngineHooks):
        self.live = live
        self.steps: list[tuple] = []

    def enter_goal(self, ctx, goal: Term) -> int:
        token = self.live.enter_goal(ctx, goal)
        self.steps.append((_ENTER, ctx, goal, token))
        return token

    def exit_goal(self, token: int) -> None:
        self.live.exit_goal(token)
        self.steps.append((_EXIT, token))

    def on_clause_applied(self) -> None:
        self.live.on_clause_applied()
        self.steps.append((_CLAUSE,))

    def on_program_created(self, pid) -> None:
        self.live.on_program_created(pid)

    def check_now(self) -> None:
        self.live.check_now()
        self.steps.append((_CHECK,))


def summarize(steps: list[tuple]) -> ProofSummary | None:
    """The summary of recorded hook calls, or None when they do not exit
    every goal they enter. A guard's token is the depth its goal entered
    at, and an exit returns to it."""
    depth_at = {}
    depth = deepest = largest = clauses = 0
    keys = set()
    for step in steps:
        op = step[0]
        if op == _ENTER:
            keys.add((step[1], variant_key(step[2])))
            largest = max(largest, context_size(step[1]))
            depth_at[step[3]] = depth
            depth += 1
            deepest = max(deepest, depth)
        elif op == _EXIT:
            depth = depth_at[step[1]]
        elif op == _CLAUSE:
            clauses += 1
    if depth:
        return None
    return ProofSummary(clauses, deepest, largest, frozenset(keys))


class Verdict:
    __slots__ = ("allowed", "reads", "steps", "summary")

    def __init__(self, allowed: bool, reads: list, steps: list[tuple]):
        self.allowed = allowed
        self.reads = reads
        self.steps = steps
        self.summary = _UNSUMMED      # built on first reuse

    def replay(self, hooks: EngineHooks) -> None:
        """Make the recorded hook calls again, each token the proof was
        given standing for the one the live hooks give now, unless the
        hooks admit the proof's summary in one step."""
        if self.summary is _UNSUMMED:
            self.summary = summarize(self.steps)
        if self.summary is not None and hooks.admits(self.summary):
            return
        tokens = {}
        for step in self.steps:
            op = step[0]
            if op == _ENTER:
                tokens[step[3]] = hooks.enter_goal(step[1], step[2])
            elif op == _EXIT:
                hooks.exit_goal(tokens[step[1]])
            elif op == _CLAUSE:
                hooks.on_clause_applied()
            else:
                hooks.check_now()


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
