"""Per-layer tracing from outside the program.

The tracer replaces a module's entry points with timing wrappers, each
where the name is looked up (for example `logicweb.engine.unify`, not only
`logicweb.terms.unify`), and puts the originals back when it is removed.
Nothing under `src/` is edited.

Spans are kept in memory as [name, start_ns, end_ns, parent, query id,
child_ns] and written out when the run ends. A generator is timed
by the intervals in which it runs: every resumption is one span. Self time
is a span's duration minus what its child spans cover.

Hot leaf calls (unification, substitution algebra, clause renaming, goal
entry, policy membership, audit emission) are too many to keep as spans.
They are counted, and timed where a metric needs it, in aggregate. Not
being spans, they stay inside the self time of the span that makes them:
clause selection's self time includes renaming and head unification.
"""

from __future__ import annotations

import functools
import gzip
from collections import Counter
from time import perf_counter_ns

from logicweb import (builtins, cli, engine, fetching, guards, pages,
                      security, signatures, terms)

NAME, START, END, PARENT, QID, CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.leaf_ns: Counter = Counter()
        self.open_names: Counter = Counter()
        self.active_leaves: set[str] = set()
        self.qid = -1
        self.max_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        self.open_names[name] += 1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.qid, 0])
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = perf_counter_ns()
        self.open_names[span[NAME]] -= 1
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        elif idx in self.stack:
            # also drops spans an exception skipped over
            del self.stack[self.stack.index(idx):]
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def span(self, name: str, fn, before=None, after=None):
        """Wrap a function. `before(args)` and `after(args, result)` update
        counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def span_gen(self, name: str, genfn, before=None, outermost: bool = False):
        """Wrap a generator function, one span per resumption. With
        `outermost`, generators created while a span of the same name is
        open run unwrapped: they are only ever resumed inside it."""
        @functools.wraps(genfn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            gen = genfn(*args, **kwargs)
            if outermost and self.open_names[name]:
                return gen
            return self._drive(name, gen)
        return wrapper

    def _drive(self, name: str, gen):
        try:
            while True:
                idx = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item
        finally:
            gen.close()

    def leaf(self, name: str, fn, after=None, timed: bool = False):
        """Wrap a hot function: counted, and with `timed` timed, in
        aggregate. A recursive call is not counted again."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self.active_leaves:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            self.active_leaves.add(name)
            start = perf_counter_ns() if timed else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                self.active_leaves.discard(name)
                if timed:
                    self.leaf_ns[name] += perf_counter_ns() - start
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Patch every boundary. Functions are wrapped where they are looked
        up; methods on their class."""
        c = self.counts

        def head_match(args, result):
            c["engine.head_matches"] += result is not None

        def verified(args, result):
            c["signatures.verified"] += result != signatures.UNKNOWN_SIGNER

        def parsed(args, result):
            c["syntax.clauses_parsed"] += len(result)

        def translated(args, result):
            c["pages.bytes"] += len(args[0].body.encode("utf-8"))

        def vetted(args, result):
            c["engine.vet_calls"] += 1
            c["engine.vet_allowed"] += bool(result)

        def downloading(args):
            pid, session = args[0], args[1]
            c["fetching.download_calls"] += 1
            c["fetching.store_hits"] += session.store.get(pid) is not None

        def builtin_called(args):
            t = args[0]
            c["builtins.calls"] += 1
            c["builtins.store_mutations"] += (
                isinstance(t, terms.Struct) and len(t.args) == 1
                and t.functor in ("assert", "retract"))

        def entered(args, result):
            self.max_depth = max(self.max_depth, len(args[0].ancestors))

        def switched(args):
            c["engine.switches"] += 1

        self._patch(cli, "main", self.span("cli.main", cli.main))
        for mod in (pages, fetching):
            self._patch(mod, "parse_program",
                        self.span("syntax.parse", mod.parse_program, after=parsed))
        self._patch(fetching, "translate_page",
                    self.span("pages.translate", fetching.translate_page,
                              after=translated))
        self._patch(pages, "extract_links",
                    self.span("pages.links", pages.extract_links))
        self._patch(signatures, "authenticate",
                    self.span("signatures.verify", signatures.authenticate,
                              after=verified))
        self._patch(fetching, "fetch_response",
                    self.span("fetching.fetch", fetching.fetch_response))
        download = self.span("fetching.download", fetching.download,
                             before=downloading)
        for mod in (fetching, cli):
            self._patch(mod, "download", download)
        reg = security.PolicyRegistry
        self._patch(reg, "assign_policy",
                    self.span("security.assign_policy", reg.assign_policy))
        self._patch(reg, "is_policy", self.leaf("security.is_policy", reg.is_policy))
        self._patch(security.AuditLog, "emit",
                    self.leaf("audit.emit", security.AuditLog.emit, timed=True))
        eng = engine.Engine
        self._patch(eng, "select_clause",
                    self.span_gen("engine.select", eng.select_clause, outermost=True))
        self._patch(engine, "rename_clause",
                    self.leaf("engine.rename_clause", engine.rename_clause))
        self._patch(engine, "unify",
                    self.leaf("terms.unify", engine.unify, head_match,
                              timed=True))
        self._patch(builtins, "unify",
                    self.leaf("terms.unify", builtins.unify, timed=True))
        self._patch(eng, "context_switch",
                    self.span_gen("engine.switch", eng.context_switch,
                                  before=switched))
        self._patch(eng, "_prove_isolated",
                    self.span("engine.vet", eng._prove_isolated, after=vetted))
        self._patch(eng, "_system_call",
                    self.span_gen("engine.syscall", eng._system_call))
        self._patch(builtins, "call_builtin",
                    self.span_gen("builtins.call", builtins.call_builtin,
                                  before=builtin_called))
        sub = terms.Substitution
        self._patch(sub, "compose",
                    self.leaf("terms.compose", sub.compose, timed=True))
        self._patch(sub, "apply", self.leaf("terms.apply", sub.apply))
        self._patch(guards.Guard, "enter_goal",
                    self.leaf("guards.enter_goal", guards.Guard.enter_goal, entered,
                              timed=True))
        self._patch(guards, "variant", self.leaf("guards.variant", guards.variant))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_query(self, qid: int) -> None:
        self.qid = qid
        self.stack.clear()
        self.open_names.clear()
        self.active_leaves.clear()

    # ------------------------------------------------------------ results

    def totals(self) -> tuple[Counter, Counter]:
        """(inclusive ns, self ns) per span name."""
        incl, own = Counter(), Counter()
        for name, start, end, _parent, _qid, child in self.spans:
            incl[name] += end - start
            own[name] += end - start - child
        return incl, own

    def metrics(self, queries: int) -> dict[str, float]:
        """Per-execution figures, except ratios and the maximum depth."""
        incl, own = self.totals()
        c = self.counts
        n = max(queries, 1)

        def ms(ns):
            return ns / 1e6 / n

        def per(count):
            return count / n

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "cli.main_self_ms": ms(own["cli.main"]),
            "syntax.parse_ms": ms(incl["syntax.parse"]),
            "syntax.clauses_parsed": per(c["syntax.clauses_parsed"]),
            "pages.translate_self_ms": ms(own["pages.translate"]),
            "pages.links_ms": ms(incl["pages.links"]),
            "pages.bytes": per(c["pages.bytes"]),
            "signatures.verify_ms": ms(incl["signatures.verify"]),
            "signatures.verified": per(c["signatures.verified"]),
            "fetching.fetch_ms": ms(incl["fetching.fetch"]),
            "fetching.downloads": per(c["fetching.download_calls"]
                                      - c["fetching.store_hits"]),
            "fetching.store_hit_ratio": ratio(c["fetching.store_hits"],
                                              c["fetching.download_calls"]),
            "security.assign_policy_ms": ms(incl["security.assign_policy"]),
            "security.is_policy_calls": per(c["security.is_policy"]),
            "audit.events": per(c["audit.emit"]),
            "audit.emit_ms": ms(self.leaf_ns["audit.emit"]),
            "engine.select_self_ms": ms(own["engine.select"]),
            "engine.clause_tries": per(c["engine.rename_clause"]),
            "engine.head_match_ratio": ratio(c["engine.head_matches"],
                                             c["engine.rename_clause"]),
            "engine.switches": per(c["engine.switches"]),
            "engine.switch_self_ms": ms(own["engine.switch"]),
            "engine.vet_ms": ms(incl["engine.vet"]),
            "engine.vet_calls": per(c["engine.vet_calls"]),
            "engine.vet_allow_ratio": ratio(c["engine.vet_allowed"],
                                            c["engine.vet_calls"]),
            "engine.syscall_self_ms": ms(own["engine.syscall"]),
            "terms.unify_calls": per(c["terms.unify"]),
            "terms.unify_ms": ms(self.leaf_ns["terms.unify"]),
            "terms.compose_calls": per(c["terms.compose"]),
            "terms.compose_ms": ms(self.leaf_ns["terms.compose"]),
            "terms.apply_calls": per(c["terms.apply"]),
            "guards.enter_goal_ms": ms(self.leaf_ns["guards.enter_goal"]),
            "guards.variant_calls": per(c["guards.variant"]),
            "guards.max_depth": float(self.max_depth),
            "builtins.calls": per(c["builtins.calls"]),
            "builtins.self_ms": ms(own["builtins.call"]),
            "builtins.store_mutations": per(c["builtins.store_mutations"]),
        }

    def write_spans(self, path) -> None:
        """Gzipped, one span a line, tab-separated: name, start, end, parent
        index, query id, child ns."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")
