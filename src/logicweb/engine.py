"""Goal evaluation over composed web programs.

Depth-first, leftmost-goal resolution with chronological backtracking over
textual clause order, implemented as nested generators of substitutions.
Context switching downloads the programs a goal is about to run against,
vets the non-policy ones against every active policy, and extends the
policy set so the new programs' own policies travel with the derivation.
System calls are routed through the policy programs; with no policies
active (a policy's own code, or security switched off) they run directly
against the built-in table. A session reuses a vetting verdict while the
clauses its proof read stand (`VerdictMemo`).
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Iterable, Iterator, NamedTuple

from . import builtins as bi
from .fetching import FetchConfig, add_programs
from .guards import EngineHooks, ProofSummary
from .model import (EMPTY_PROGRAM, EmptyProgram, Encapsulation,
                    ExpressionError, Intersection, LWProgram,
                    ProgramExpression, ProgramId, Restriction, Union,
                    expr_from_term, parse_goal, rename_clause)
from .security import AuditLog, PolicyRegistry
from .syntax import to_text
from .terms import (TRUE_ATOM, Atom, EMPTY_SUBST, Str, Struct, Substitution,
                    Term, Var, fresh_var_id, functor_of, unify, variant_key)

PolicySet = tuple[ProgramId, ...]      # newest first; the last entry belongs
                                       # to the query's main program


class EngineError(Exception):
    pass


class EngineConfig(NamedTuple):
    security_enabled: bool = True


class Solution(NamedTuple):
    subst: Substitution


class Barrier:
    """Cut barrier for one clause body."""
    __slots__ = ("cut",)

    def __init__(self):
        self.cut = False


# verdicts kept per session; the oldest goes first
MAX_VERDICTS = 4096


class Verdict(NamedTuple):
    allowed: bool
    reads: dict             # (program, predicate) -> the bucket the proof read
    summary: ProofSummary


class VerdictMemo:
    """Kept vetting verdicts, keyed by (policy tuple, variant key of the
    goal). A verdict stands while every bucket its proof read is still the
    very same tuple: a program replaces a predicate's bucket only when
    `add`, `remove` or its link build changes that predicate."""

    def __init__(self):
        self._entries: dict[tuple, Verdict] = {}

    def get(self, key) -> Verdict | None:
        verdict = self._entries.get(key)
        if verdict is None:
            return None
        for (program, pred), bucket in verdict.reads.items():
            if program.clauses_of(pred) is not bucket:
                return None
        return verdict

    def put(self, key, verdict: Verdict) -> None:
        entries = self._entries
        entries.pop(key, None)
        if len(entries) >= MAX_VERDICTS:
            del entries[next(iter(entries))]
        entries[key] = verdict


class Session:
    """Everything one interpreter instance owns (store, registry, fetch
    setup, audit trail, guard hooks, open streams, reusable policy
    verdicts) and the evaluator that runs goals over them."""

    def __init__(self, registry: PolicyRegistry,
                 fetch_config: FetchConfig | None = None,
                 config: EngineConfig | None = None,
                 hooks: EngineHooks | None = None):
        self.registry = registry
        self.fetch_config = fetch_config or FetchConfig()
        self.config = config or EngineConfig()
        self.store: dict[ProgramId, LWProgram] = {}
        self.audit = AuditLog()
        self.hooks = hooks or EngineHooks()
        self.streams: dict[int, object] = {}
        self._stream_ids = itertools.count(0)
        self.verdicts = VerdictMemo()
        # while a vet that may be kept is proved: the clause bucket of each
        # (program, predicate) it selected from; None otherwise
        self._reads: dict | None = None

    def new_stream(self, handle) -> int:
        n = next(self._stream_ids)
        self.streams[n] = handle
        return n

    def close_streams(self) -> None:
        """Close every stream `open/3` left open."""
        for handle in self.streams.values():
            handle.close()
        self.streams.clear()

    def _drop_reads(self) -> None:
        """The vet being proved does more than pure resolution or leaves a
        notice: drop its record and end the watch on it, so the verdict is
        not kept."""
        if self._reads is not None:
            self._reads = None
            self.hooks.summary()

    def notice(self, message: str) -> None:
        """Leave a notice in the audit log: the one way notices are made. A
        vet whose proof leaves one is not kept."""
        self._drop_reads()
        self.audit.emit("notice", message)

    def install_local(self, program: LWProgram, contents: str = "") -> None:
        """Place a program in the store, unless its id is there already,
        and, under security, give it a policy from its page text `contents`
        unless it has one: the one way in for a download, the disk cache and
        a program built in place."""
        self.store.setdefault(program.id, program)
        if self.config.security_enabled:
            self.registry.assign_policy(program.id, contents)

    def run_query(self, main: ProgramId, goal: Term) -> Iterator[Solution]:
        """Evaluate `goal` against the program at `main`, the way a browser
        session would: no policies yet, empty starting context. The hooks
        start afresh for every query."""
        self.hooks.start()
        for s in self.context_switch((), main, goal):
            yield Solution(s)

    # ------------------------------------------------------------- solve

    def solve(self, sigma: PolicySet, ctx: ProgramExpression, goal: Term,
              s: Substitution, chain: tuple[ProgramExpression, ...],
              barrier: Barrier) -> Iterator[Substitution]:
        if type(goal) is Var:
            self._drop_reads()
        t = s.walk(goal)
        kind = type(t)
        if kind is Var:
            raise EngineError("goal is an unbound variable")
        if kind is Atom:
            if t.name == "true":
                yield s
                return
            if t.name in ("fail", "false"):
                return
            if t.name == "!":
                yield s
                barrier.cut = True
                return
        elif kind is Struct:
            functor = t.functor if len(t.args) == 2 else None
            if functor == ",":
                for s1 in self.solve(sigma, ctx, t.args[0], s, chain, barrier):
                    yield from self.solve(sigma, ctx, t.args[1], s1, chain, barrier)
                    if barrier.cut:
                        return
                return
            if functor == ";":
                yield from self._disjunction(sigma, ctx, t, s, chain, barrier)
                return
            if functor == "->":
                yield from self._if_then_else(sigma, ctx, t.args[0], t.args[1],
                                              None, s, chain, barrier)
                return
            if functor == "#>":
                self._drop_reads()
                yield from self._switch_term(sigma, ctx, t.args[0], t.args[1],
                                             s, chain, barrier)
                return
            if functor == ":":
                self._drop_reads()
                if type(t.args[0]) is Atom and t.args[0].name == "built_ins":
                    yield from self._builtin_qualified(sigma, ctx, t.args[1],
                                                       s, chain)
                    return
        else:
            raise EngineError(f"goal is not callable: {to_text(t)}")

        # A built-in goal is a system call and nothing else: clauses a page
        # writes for a built-in's name and arity are never selected.
        if bi.lookup(t) is None:
            yield from self._user_call(sigma, ctx, t, s, chain)
        elif sigma:
            yield from self._system_call(sigma, t, s, chain)
        else:
            yield from self._run_builtin(ctx, t, s, chain)

    def _disjunction(self, sigma, ctx, t, s, chain, barrier):
        lhs, rhs = t.args
        lhs_w = s.walk(lhs)
        if isinstance(lhs_w, Struct) and lhs_w.functor == "->" and len(lhs_w.args) == 2:
            yield from self._if_then_else(sigma, ctx, lhs_w.args[0], lhs_w.args[1],
                                          rhs, s, chain, barrier)
            return
        yield from self.solve(sigma, ctx, lhs, s, chain, barrier)
        if barrier.cut:
            return
        yield from self.solve(sigma, ctx, rhs, s, chain, barrier)

    def _if_then_else(self, sigma, ctx, cond, then, els, s, chain, barrier):
        committed = None
        for s1 in self.solve(sigma, ctx, cond, s, chain, Barrier()):
            committed = s1
            break
        if committed is not None:
            yield from self.solve(sigma, ctx, then, committed, chain, barrier)
        elif els is not None:
            yield from self.solve(sigma, ctx, els, s, chain, barrier)

    def _user_call(self, sigma, ctx, t, s, chain):
        # The ancestor stack must mirror the live call path, so the goal is
        # popped while a solution is handed upward (the continuation is not
        # beneath it) and pushed back when backtracking resumes here.
        hooks = self.hooks
        token = hooks.enter_goal(ctx, t, s)
        try:
            inner = Barrier()
            for s1, body in self.select_clause(sigma, ctx, t, s, chain):
                for s2 in self.solve(sigma, ctx, body, s1, chain, inner):
                    hooks.exit_goal(token)
                    yield s2
                    token = hooks.enter_goal(ctx, t, s)
                if inner.cut:
                    break
        finally:
            hooks.exit_goal(token)

    # ------------------------------------------------------------- clause choice

    def select_clause(self, sigma, e: ProgramExpression, goal: Term,
                      s: Substitution, chain: tuple[ProgramExpression, ...]
                      ) -> Iterator[tuple[Substitution, Term]]:
        """Clauses of the composition `e` whose head unifies with `goal`,
        as (extended substitution, renamed body) pairs. A program tries
        only the clauses its first-argument index gives, from tuples that
        `assert` and `retract` replace, never edit, so a selection walks
        the clauses as they stood when it began (the logical update view).
        A head is matched in its clause's own frame, and only a matched
        clause's body is renamed. A vet being proved records the bucket."""
        if isinstance(e, EmptyProgram):
            return
        if isinstance(e, ProgramId):
            program = self.store.get(e)
            if program is None:
                return
            reads = self._reads
            if reads is not None:
                pred = functor_of(goal)
                reads[program, pred] = program.clauses_of(pred)
            for clause in program.candidates(goal, s):
                mapping = {} if reads is None else goal_variables(clause.body)
                s1 = unify(goal, clause.head, s, mapping)
                if s1 is None:
                    continue
                self.hooks.on_clause_applied()
                yield s1, rename_clause(clause, mapping)
        elif isinstance(e, Union):
            yield from self.select_clause(sigma, e.left, goal, s, chain)
            yield from self.select_clause(sigma, e.right, goal, s, chain)
        elif isinstance(e, Intersection):
            for s1, b1 in self.select_clause(sigma, e.left, goal, s, chain):
                for s2, b2 in self.select_clause(sigma, e.right, goal, s1, chain):
                    yield s2, Struct(",", (b1, b2))
        elif isinstance(e, Restriction):
            # every selected head unifies with the goal, so it has the
            # goal's functor: the filter hides all of them or none
            hidden = self.store.get(e.prog)
            if hidden is None or not hidden.defines(*functor_of(goal)):
                yield from self.select_clause(sigma, e.expr, goal, s, chain)
        else:                               # an Encapsulation
            for s1 in self.solve(sigma, e.expr, goal, s, chain, Barrier()):
                yield s1, TRUE_ATOM

    # ------------------------------------------------------------- switching

    def _switch_term(self, sigma, ctx, expr_term: Term, goal: Term, s, chain,
                     barrier):
        try:
            f = expr_from_term(s.apply(expr_term), ctx)
        except ExpressionError as exc:
            raise EngineError(str(exc)) from exc
        yield from self.context_switch(sigma, f, goal, s, chain, barrier)

    def context_switch(self, sigma: PolicySet, f: ProgramExpression, goal: Term,
                       s: Substitution = EMPTY_SUBST,
                       chain: tuple[ProgramExpression, ...] = (EMPTY_PROGRAM,),
                       barrier: Barrier | None = None) -> Iterator[Substitution]:
        """Move the derivation into the composition `f`, after vetting and
        downloading the programs involved. The programs are taken in the
        order the expression names them, and their policies enter the set
        in that order."""
        if barrier is None:
            barrier = Barrier()
        registry = self.registry
        security = self.config.security_enabled
        ids = f.ids
        new_ids = [p for p in ids if not registry.is_policy(p)]

        if security and sigma and new_ids:
            if not self._programs_allowed(sigma, new_ids, chain):
                return

        if not add_programs(self, ids, chain, sigma):
            return

        if security:
            fresh = dict.fromkeys(registry.pol(p) for p in new_ids)
            new_sigma: PolicySet = tuple(p for p in fresh if p not in sigma) + sigma
        else:
            new_sigma = ()

        new_chain = chain + (f,)
        self.audit.emit("switch", "context switch", new_chain, new_sigma)
        yield from self.solve(new_sigma, f, goal, s, new_chain, barrier)

    def _programs_allowed(self, sigma: PolicySet, pids: list[ProgramId],
                          chain=()) -> bool:
        """Every active policy must accept every new program id. Evaluated
        as one conjunction inside the intersection of the encapsulated
        policies; any bindings it makes are discarded."""
        checks = [Struct("valid_program", (pid.method_term(), Str(pid.url)))
                  for pid in pids]
        goal = reduce(lambda rest, check: Struct(",", (check, rest)),
                      reversed(checks))
        return self._prove_isolated(sigma, goal, chain)

    def _call_allowed(self, sigma: PolicySet, g: Term, chain=()) -> bool:
        """Every active policy must accept the system call `g`."""
        return self._prove_isolated(sigma, Struct("valid_systemCall", (g,)), chain)

    def _prove_isolated(self, pids: Iterable[ProgramId], goal: Term,
                        chain=()) -> bool:
        """Whether every given policy proves `goal` (the vet of a call or a
        switch made in `chain`). The session reuses its verdict for a
        variant of `goal` under the same policies while the clause buckets
        that proof selected from are unchanged and the hooks admit the
        proof's summary; a reuse leaves one `vet` event in place of the
        proof's events. A refused reuse proves the goal again, which then
        stops where it stops without the memo. Only a proof whose policies
        were all in the store when it began, that ran nothing but pure
        resolution and left no notice (the session drops its record
        otherwise), raised nothing and exited every goal it entered is kept,
        with the buckets it read and the summary the hooks made of it while
        they watched it."""
        sigma = tuple(pids)
        key = (sigma, variant_key(goal))
        kept = self.verdicts.get(key)
        if kept is not None and self.hooks.admits(kept.summary):
            self.audit.emit("vet", goal, chain, sigma,
                            "allow: " if kept.allowed else "deny: ")
            return kept.allowed
        if not all(p in self.store for p in sigma):
            return self._prove(sigma, goal)
        # watches never nest: a proof vets only after a switch, which has
        # dropped its record and ended its watch
        self._reads = reads = {}
        self.hooks.watch()
        try:
            allowed = self._prove(sigma, goal)
        finally:
            pure = self._reads is reads
            self._reads = None
        if pure:
            summary = self.hooks.summary()
            if summary is not None:
                self.verdicts.put(key, Verdict(allowed, reads, summary))
        return allowed

    def _prove(self, sigma: PolicySet, goal: Term) -> bool:
        """One solution of `goal` in the composition where every given
        policy must agree (the encapsulated policies, intersected left to
        right), from a pristine derivation state: no policies, empty
        context, fresh chain."""
        expr = reduce(Intersection, (Encapsulation(p) for p in sigma))
        for _ in self.context_switch((), expr, goal):
            return True
        return False

    # ------------------------------------------------------------- system calls

    def _system_call(self, sigma, t: Term, s, chain):
        g = s.apply(t)
        if not self._call_allowed(sigma, g, chain):
            return
        self.audit.emit("syscall", g, chain, sigma)
        run = Struct("call_system", (g,))
        for s_inner in self.context_switch((), sigma[-1], run):
            yield s.compose(s_inner)

    def _run_builtin(self, ctx, t: Term, s, chain):
        """Run the built-in `t`, read through `s`, directly, with no policy
        active; each of its answers extends `s`."""
        if self._reads is not None and functor_of(t) not in bi.PURE:
            self._drop_reads()
        self.audit.emit("syscall", t, chain, (), subst=s)
        yield from bi.call_builtin(t, s, self, ctx)

    def _builtin_qualified(self, sigma, ctx, inner_term: Term, s, chain):
        """`built_ins:G` runs the built-in directly. Only derivations with
        no active policies get that shortcut, which in a secured session
        means policy code itself (policies always evaluate from an empty
        policy set) and nothing downloaded."""
        if sigma:
            return
        g = s.walk(inner_term)
        target = g
        if isinstance(g, Struct) and g.functor == "call_builtin" and len(g.args) == 1:
            target = s.walk(g.args[0])
        elif isinstance(g, Struct) and g.functor == "builtin" and len(g.args) == 1:
            if bi.lookup(s.walk(g.args[0])) is not None:
                yield s
            return
        yield from self._run_builtin(ctx, target, s, chain)


Engine = Session  # bench/tracer.py patches the evaluator through this name


def goal_variables(body: Term) -> dict[int, Term]:
    """A fresh variable for each variable `solve` reads as a goal of `body`
    (the body, or an argument of a `,`, `;` or `->` there): a recorded vet's
    bodies keep them variables, since a variable goal drops the record."""
    out: dict[int, Term] = {}
    stack = [body]
    while stack:
        t = stack.pop()
        if type(t) is Var:
            out.setdefault(t.id, Var(t.name, fresh_var_id()))
        elif type(t) is Struct and t.functor in (",", ";", "->") and len(t.args) == 2:
            stack.extend(t.args)
    return out


def solutions(session: Session, main_url: str, goal_text: str,
              limit: int | None = None) -> list[dict[str, Term]]:
    """Convenience: answer bindings for the goal's variables, in order."""
    goal, varmap = parse_goal(goal_text)
    qvars = list(varmap.values())
    stream = session.run_query(ProgramId.get(main_url), goal)
    return [{v.name: sol.subst.apply(v) for v in qvars}
            for sol in itertools.islice(stream, limit)]
