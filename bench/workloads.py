"""The three benchmark workloads: seeded inputs, expected outcomes, runners.

Every workload builds its inputs from a seed alone and knows, for every
query, the answers and exit code the interpreter must produce. Those
expectations are computed here in plain Python (a depth-first walk of the
generated site, or a closed form), never by the interpreter under test.

Queries are issued one at a time through the public entry points:
`logicweb.cli.main` called in-process for `site_crawl`, and `Session` with
`guarded_solve` for the other two.

Each workload has a fixed list of `query_count` queries, and nominal
`pass_seconds` and `traced_pass_seconds`: how long one untraced or traced
pass over the list took at the commit that defined the benchmark, on a
shared 2-core x86-64 machine with CPython 3.11. The runner turns `--seconds`
into a number of passes with them. The list is built
from blocks that hold one query of each class in a seeded order, and sizes
are drawn stratified over their range, so every seed gives nearly the same
mix of work.
"""

from __future__ import annotations

import base64
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from logicweb import cli
from logicweb.engine import EngineConfig, Session
from logicweb.fetching import FetchConfig, PageEntry
from logicweb.guards import Guard, GuardConfig, guarded_solve
from logicweb.model import LWProgram, ProgramId, parse_goal, parse_program
from logicweb.security import PolicyRegistry
from logicweb.signatures import generate_keypair, sign_page
from logicweb.terms import Atom, Num, Str, Struct, Var

# The lw exit codes; Session results are mapped onto the same scale.
EXIT_OK, EXIT_NO, EXIT_STOPPED = 0, 1, 2


@dataclass(frozen=True)
class Outcome:
    """What one query produced: an lw exit code and the answers in order."""
    code: int
    answers: tuple


@dataclass(frozen=True)
class Query:
    kind: str
    start: str                          # URL of the query's main program
    goal: str
    expected: Outcome
    expected_open: Optional[Outcome] = None   # on the unsecured twin


def plain(t) -> object:
    """A term as plain Python data, so answers compare against expectations
    built without the interpreter: numbers stay numbers, atoms become their
    name, strings are quoted, lists become Python lists and any other
    compound becomes (functor, *args)."""
    if isinstance(t, Num):
        return t.value
    if isinstance(t, Str):
        return f'"{t.value}"'
    if isinstance(t, Atom):
        return [] if t.name == "[]" else t.name
    if isinstance(t, Var):
        return "_"
    items = []
    while isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
        items.append(plain(t.args[0]))
        t = t.args[1]
    if items:
        tail = plain(t)
        return items if tail == [] else (".", items, tail)
    return (t.functor,) + tuple(plain(a) for a in t.args)


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` integers covering [lo, hi] evenly (one draw per equal-width
    bin), in seeded order."""
    width = (hi - lo + 1) / count
    out = [lo + int(i * width + rng.random() * width) for i in range(count)]
    out = [min(hi, v) for v in out]
    rng.shuffle(out)
    return out


def blocks(rng: random.Random, kinds: list[str], nblocks: int) -> list[str]:
    """`nblocks` blocks, each holding every kind once in seeded order."""
    order = []
    for _ in range(nblocks):
        block = list(kinds)
        rng.shuffle(block)
        order += block
    return order


def solve_outcome(session: Session, main_url: str, goal_text: str) -> Outcome:
    """One query through `guarded_solve`, answers as plain data."""
    goal, varmap = parse_goal(goal_text)
    result = guarded_solve(session, ProgramId.get(main_url), goal)
    qvars = list(varmap.values())
    answers = tuple(tuple(plain(sol.subst.apply(v)) for v in qvars)
                    for sol in result.solutions)
    if result.terminated:
        return Outcome(EXIT_STOPPED, answers)
    return Outcome(EXIT_OK if answers else EXIT_NO, answers)


def policy_page(title: str, clauses: str) -> str:
    return (f"<HTML><HEAD><TITLE>{title}</TITLE></HEAD><BODY>\n<!--\n"
            f"<LW_CODE>\n{clauses}</LW_CODE>\n-->\n</BODY></HTML>\n")


WORDS = ("logic web page program clause policy agent robot query answer "
         "network server client proof goal term list tree graph search "
         "context switch signature key trust domain cache store parse token "
         "module layer model theory method result value index table store "
         "melbourne campus department faculty lecture seminar paper draft").split()


def words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


# ====================================================================
# site_crawl: cold `lw query` hops across a generated site
# ====================================================================

SITE = "http://site.example/"
POLICY_HOST = "http://policy.example/"
OFFSITE = "http://elsewhere.example/"
SIGNER = "bench-signer"

DOMAIN_POLICY = f"""\
valid_program(get, URL) :- contains(URL, "{SITE}").
valid_systemCall(_).
call_system(Call) :- built_ins:call_builtin(Call).
"""

PERMISSIVE_POLICY = """\
valid_program(_, _).
valid_systemCall(_).
call_system(Call) :- built_ins:call_builtin(Call).
"""

REACH_CLAUSES = """\
reach(T, _) :- topic(T).
reach(T, D) :- D > 0, D1 is D - 1, next(U), lw(get, U) #> reach(T, D1).
"""


@dataclass
class SitePage:
    url: str
    node: int                   # its place in the graph shape
    topics: list[str]
    nexts: list[str]
    html: str


N_PAGES = 60


@dataclass(frozen=True)
class NodeShape:
    """What decides a page's cost: its next/1 targets (None is off-site),
    its size, anchor count and topic count, and whether it is signed."""
    targets: tuple
    size: int
    anchors: int
    topics: int
    signed: bool


def site_shape(npages: int) -> list[NodeShape]:
    """The site's shape, drawn once from a fixed generator: 0, 1 or 2
    next/1 targets per page, about one in seven off-site; sizes of 2-30 KB
    and 10-200 anchors, drawn stratified; one page in five signed. A seed
    only relabels the pages and draws their text, so every seed asks for
    the same work."""
    rng = random.Random("site_crawl:graph")
    degrees = [i % 3 for i in range(npages)]
    rng.shuffle(degrees)
    targets = [tuple(None if rng.random() < 0.15 else rng.randrange(npages)
                     for _ in range(degree)) for degree in degrees]
    sizes = stratified(rng, 2_000, 30_000, npages)
    anchors = stratified(rng, 10, 200, npages)
    signed = set(rng.sample(range(npages), npages // 5))
    return [NodeShape(targets[k], sizes[k], anchors[k], 1 + rng.randrange(3),
                      k in signed) for k in range(npages)]


def generate_site(rng: random.Random, npages: int = N_PAGES) -> dict[str, SitePage]:
    """`npages` pages laid out on `site_shape`: the seed picks which URL
    holds which node, the topics, the anchors' targets and the words."""
    shape = site_shape(npages)
    label = list(range(npages))        # shape node -> page
    rng.shuffle(label)
    node_of = {page: node for node, page in enumerate(label)}
    urls = [f"{SITE}p{i:02d}" + (".lwpgp.html" if shape[node_of[i]].signed
                                 else ".html") for i in range(npages)]
    site = {}
    for i, url in enumerate(urls):
        node = shape[node_of[i]]
        topics = [f"t{rng.randrange(40)}" for _ in range(node.topics)]
        nexts = [f"{OFFSITE}x{rng.randrange(100)}.html" if target is None
                 else urls[label[target]] for target in node.targets]
        code = "".join(f'topic("{t}").\n' for t in topics)
        code += "".join(f'next("{u}").\n' for u in nexts)
        code += REACH_CLAUSES
        body = []
        for _ in range(node.anchors):
            roll = rng.random()
            if roll < 0.7:
                href = rng.choice(urls)[len(SITE):]
            elif roll < 0.85:
                href = rng.choice(urls)
            else:
                href = f"{OFFSITE}{rng.choice(WORDS)}/{rng.randrange(1000)}.html"
            body.append(f'{words(rng, 3)} <A HREF="{href}">{words(rng, 1 + rng.randrange(3))}</A>')
        text = "\n".join(body)
        while len(text) < node.size - 400:
            text += "\n<P>" + words(rng, 12) + "</P>"
        html = (f"<HTML><HEAD><TITLE>Page {i}</TITLE></HEAD><BODY>\n<H1>Page {i}</H1>\n"
                f"{text}\n<!--\n<LW_CODE>\n{code}</LW_CODE>\n-->\n</BODY></HTML>\n")
        site[url] = SitePage(url, node_of[i], topics, nexts, html)
    return site


def expect_reach(site: dict[str, SitePage], url: str, depth: int) -> list[str]:
    """Answers of reach(T, depth) at `url`, by a depth-first walk: own topics
    first, then each next/1 pointer in order. Off-site pointers give
    nothing, whether a policy refuses them or the offline fetch fails."""
    page = site.get(url)
    if page is None:
        return []
    out = list(page.topics)
    if depth > 0:
        for nxt in page.nexts:
            out += expect_reach(site, nxt, depth - 1)
    return out


class SiteCrawl:
    """Each query is one in-process `lw query` over a mounted site: a new
    session per call, so every hop fetches, authenticates, translates and
    parses its page again. The same call with --no-security is the twin."""

    name = "site_crawl"
    query_count = N_PAGES              # every page once
    pass_seconds = 3.0                 # the twin included
    traced_pass_seconds = 3.4
    has_twin = True

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"site_crawl:{seed}")
        self.site = generate_site(self.rng)
        site_dir, pol_dir = workdir / "site", workdir / "policies"
        site_dir.mkdir()
        pol_dir.mkdir()
        private, public = generate_keypair()
        for page in self.site.values():
            html = page.html
            if page.url.endswith(".lwpgp.html"):
                html = sign_page(html, private, SIGNER)
            (site_dir / page.url[len(SITE):]).write_text(html, encoding="utf-8")
        (pol_dir / "domain.html").write_text(
            policy_page("Domain only", DOMAIN_POLICY), encoding="utf-8")
        (pol_dir / "permissive.html").write_text(
            policy_page("Permissive", PERMISSIVE_POLICY), encoding="utf-8")
        registry = workdir / "registry"
        registry.write_text(f"default {POLICY_HOST}domain.html\n"
                            f"signer {SIGNER} {POLICY_HOST}permissive.html\n",
                            encoding="utf-8")
        keystore = workdir / "keystore"
        keystore.write_text(f"{SIGNER} {base64.b64encode(public).decode()}\n",
                            encoding="utf-8")
        self.session_args = [
            "--mount", f"{SITE}={site_dir}", "--mount", f"{POLICY_HOST}={pol_dir}",
            "--registry", str(registry), "--keystore", str(keystore), "--offline"]
        self.queries = self._make_queries()

    def _make_queries(self) -> list[Query]:
        rng = self.rng
        kinds = blocks(rng, ["d0", "d1", "d2", "d3"], self.query_count // 4)
        # the page at shape node k starts the query of depth k % 4, so the
        # work per query is the same for every seed
        starts: dict[str, list[str]] = {f"d{d}": [] for d in range(4)}
        for page in sorted(self.site.values(), key=lambda p: p.node):
            starts[f"d{page.node % 4}"].append(page.url)
        for urls in starts.values():
            rng.shuffle(urls)
        out = []
        for kind in kinds:
            depth = int(kind[1])
            start = starts[kind].pop()
            answers = tuple(f'T = "{t}"' for t in expect_reach(self.site, start, depth))
            out.append(Query(kind, start, f"reach(T, {depth})",
                             Outcome(EXIT_OK if answers else EXIT_NO, answers)))
        return out

    def _lw(self, query: Query, extra: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["query", query.start, query.goal,
                             *self.session_args, *extra])
        return Outcome(code, tuple(out.getvalue().splitlines()))

    def run(self, query: Query) -> Outcome:
        return self._lw(query, [])

    def run_open(self, query: Query) -> Outcome:
        return self._lw(query, ["--no-security"])

    def warm_up(self) -> None:
        for query in self.queries[:4]:
            self.run(query)
            self.run_open(query)


# ====================================================================
# deep_resolution: the resolution core on one warm, open session
# ====================================================================

MAIN = "http://mem.example/main.html"
FACTS = "http://mem.example/facts.html"
N_FACTS = 5000

RESOLUTION_PROGRAM = """\
len([], 0).
len([_|T], N) :- len(T, M), N is M + 1.
plen([], z).
plen([_|T], s(N)) :- plen(T, N).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
down(0).
down(N) :- N > 0, M is N - 1, down(M).
"""

# size ranges per query class; `deep` is `down/1` beyond the depth the
# generator-based engine survives today
SIZES = {"len": (5, 30), "plen": (10, 80), "nrev": (5, 25),
         "fact": (0, N_FACTS - 1), "down": (10, 150), "deep": (200, 400)}
# one deep query in every DEEP_EVERY blocks of the five ordinary classes
DEEP_EVERY = 10


def fact_value(k: int) -> int:
    return (k * 7919) % 100_003


def peano(n: int) -> object:
    out: object = "z"
    for _ in range(n):
        out = ("s", out)
    return out


class DeepResolution:
    """One warm session with security off and the default guard (loop check
    on), limits raised just above what the largest expected answer needs."""

    name = "deep_resolution"
    query_count = 2 * (5 * DEEP_EVERY + 1)
    pass_seconds = 5.0
    traced_pass_seconds = 13.0
    has_twin = False

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"deep_resolution:{seed}")
        frng = random.Random(f"deep_resolution:facts:{seed}")
        keys = list(range(N_FACTS))
        frng.shuffle(keys)
        facts = "".join(f"f(k{k}, {fact_value(k)}).\n" for k in keys)
        registry = PolicyRegistry({"unknown": ProgramId.get("lw:no-policy")})
        # down(N) nests N + 1 goals and applies N + 1 clauses; nrev of 25
        # elements applies 351
        deepest = SIZES["deep"][1] + 1
        guard = Guard(GuardConfig(max_depth=deepest, max_clauses=deepest))
        self.session = Session(registry, FetchConfig(allow_network=False),
                               EngineConfig(security_enabled=False), hooks=guard)
        self.session.install_local(LWProgram(ProgramId.get(MAIN),
                                             parse_program(RESOLUTION_PROGRAM)))
        self.session.install_local(LWProgram(ProgramId.get(FACTS),
                                             parse_program(facts)))
        self.queries = self._make_queries()

    def _make_queries(self) -> list[Query]:
        rng = self.rng
        ordinary = ["len", "plen", "nrev", "fact", "down"]
        nblocks = self.query_count // (5 * DEEP_EVERY + 1) * DEEP_EVERY
        kinds = blocks(rng, ordinary, nblocks)
        for b in reversed(range(0, nblocks, DEEP_EVERY)):
            kinds.insert(5 * b + rng.randrange(5 * DEEP_EVERY), "deep")
        counts = {k: kinds.count(k) for k in SIZES}
        sizes = {k: stratified(rng, *SIZES[k], counts[k]) for k in SIZES}
        return [self._query(kind, sizes[kind].pop()) for kind in kinds]

    def _query(self, kind: str, n: int) -> Query:
        items = [f"a{i}" for i in range(n)]
        lst = "[" + ", ".join(items) + "]"
        if kind == "len":
            return Query(kind, MAIN, f"len({lst}, N)", Outcome(EXIT_OK, ((n,),)))
        if kind == "plen":
            return Query(kind, MAIN, f"plen({lst}, N)", Outcome(EXIT_OK, ((peano(n),),)))
        if kind == "nrev":
            return Query(kind, MAIN, f"nrev({lst}, R)",
                         Outcome(EXIT_OK, ((items[::-1],),)))
        if kind == "fact":
            return Query(kind, FACTS, f"f(k{n}, X)", Outcome(EXIT_OK, ((fact_value(n),),)))
        return Query(kind, MAIN, f"down({n})", Outcome(EXIT_OK, ((),)))

    def run(self, query: Query) -> Outcome:
        return solve_outcome(self.session, query.start, query.goal)

    def warm_up(self) -> None:
        for kind in ("len", "plen", "nrev", "fact", "down"):
            self.run(self._query(kind, SIZES[kind][0]))


# ====================================================================
# secured_syscalls: vetted system calls on a warm, secured session
# ====================================================================

SYS = "http://sys.example/"
SYS_POLICY = "http://sys-policy.example/"

# The main programs' policy counts every call it routes.
MAIN_POLICY = f"""\
calls(0).
valid_program(_, URL) :- contains(URL, "{SYS}").
valid_systemCall(_).
call_system(Call) :-
  retract(calls(K)), K1 is K + 1, assert(calls(K1)),
  built_ins:call_builtin(Call).
"""

# Refuses the `secret` probe that one chain makes after its loop.
POLICY_A = f"""\
valid_program(get, URL) :- contains(URL, "{SYS}").
valid_systemCall(contains(_, Sub)) :- Sub == "secret", !, fail.
valid_systemCall(_).
call_system(Call) :- built_ins:call_builtin(Call).
"""

# Refuses downloads from the restricted area.
POLICY_B = """\
valid_program(_, URL) :- (contains(URL, "/restricted/") -> fail ; true).
valid_systemCall(_).
call_system(Call) :- built_ins:call_builtin(Call).
"""

# Lets comparisons through only between numbers.
POLICY_C = """\
valid_program(_, _).
valid_systemCall(A > B) :- !, number(A), number(B).
valid_systemCall(_).
call_system(Call) :- built_ins:call_builtin(Call).
"""

AREAS = {"start/": "main", "a/": "a", "b/": "b", "c/": "c", "restricted/": "r"}
POLICIES = {"main": MAIN_POLICY, "a": POLICY_A, "b": POLICY_B, "c": POLICY_C,
            "r": PERMISSIVE_POLICY}

LOOP_CLAUSES = """\
loop(0, Acc, Acc).
loop(N, Acc, X) :-
  N > 0, M is N - 1, contains("vetted loop page", "loop"),
  append(Acc, [M], Acc1), loop(M, Acc1, X).
"""

# Each chain: its start page, then the pages it hops through. The loop runs
# on the last page. `refuse` names what a policy on the chain stops.
CHAINS = {
    "hop1": (["start/h1.html", "a/h1.html"], None),
    "hop2": (["start/h2.html", "a/h2.html", "b/h2.html"], None),
    "hop3": (["start/h3.html", "a/h3.html", "b/h3.html", "c/h3.html"], None),
    "call_refused": (["start/s4.html", "a/s4.html", "c/s4.html"], "call"),
    "download_refused": (["start/s5.html", "b/s5.html", "restricted/s5.html"],
                         "download"),
}
# per block: the three plain chains twice, each refused chain once
BLOCK = ["hop1", "hop2", "hop3", "hop1", "hop2", "hop3",
         "call_refused", "download_refused"]


def chain_pages() -> dict[str, PageEntry]:
    pages = {}
    for name, (path, refuse) in CHAINS.items():
        urls = [SYS + p for p in path]
        pages[urls[0]] = PageEntry(policy_page(
            f"start {name}", f'run(N, X) :- lw(get, "{urls[1]}") #> hop(N, X).\n'))
        for here, nxt in zip(urls[1:-1], urls[2:]):
            pages[here] = PageEntry(policy_page(
                f"hop {name}", f'hop(N, X) :- lw(get, "{nxt}") #> hop(N, X).\n'))
        probe = ', contains("top secret page", "secret")' if refuse == "call" else ""
        pages[urls[-1]] = PageEntry(policy_page(
            f"loop {name}", f"hop(N, X) :- loop(N, [], X){probe}.\n{LOOP_CLAUSES}"))
    for key, clauses in POLICIES.items():
        pages[f"{SYS_POLICY}{key}.html"] = PageEntry(policy_page(key, clauses))
    return pages


def chain_session(security: bool) -> Session:
    trusted = [(SYS + area, ProgramId.get(f"{SYS_POLICY}{key}.html"))
               for area, key in AREAS.items()]
    registry = PolicyRegistry({"unknown": ProgramId.get(f"{SYS_POLICY}main.html")},
                              trusted=trusted, trusted_enabled=True)
    # the default limits hold: the longest chain at N=12 applies under 300
    # clauses, vetting included, at a depth under 20
    return Session(registry, FetchConfig(pages=chain_pages(), allow_network=False),
                   EngineConfig(security_enabled=security), hooks=Guard())


class SecuredSyscalls:
    """`run(N, X)` on a warm secured session, repeated on an unsecured twin
    that holds the same pages."""

    name = "secured_syscalls"
    query_count = 13 * len(BLOCK)
    pass_seconds = 6.5                 # the twin included
    traced_pass_seconds = 14.0
    has_twin = True

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"secured_syscalls:{seed}")
        self.session = chain_session(security=True)
        self.open_session = chain_session(security=False)
        self.queries = self._make_queries()

    def _make_queries(self) -> list[Query]:
        rng = self.rng
        kinds = blocks(rng, BLOCK, self.query_count // len(BLOCK))
        loops = {k: stratified(rng, 1, 12, kinds.count(k)) for k in CHAINS}
        return [self._query(kind, loops[kind].pop()) for kind in kinds]

    def _query(self, kind: str, n: int) -> Query:
        path, refuse = CHAINS[kind]
        answer = Outcome(EXIT_OK, ((list(range(n - 1, -1, -1)),),))
        expected = Outcome(EXIT_NO, ()) if refuse else answer
        return Query(kind, SYS + path[0], f"run({n}, X)", expected, answer)

    def run(self, query: Query) -> Outcome:
        return solve_outcome(self.session, query.start, query.goal)

    def run_open(self, query: Query) -> Outcome:
        return solve_outcome(self.open_session, query.start, query.goal)

    def warm_up(self) -> None:
        """Fetch every page either session will ever need."""
        for kind in CHAINS:
            query = self._query(kind, 1)
            self.run(query)
            self.run_open(query)


WORKLOADS: dict[str, Callable] = {
    w.name: w for w in (SiteCrawl, DeepResolution, SecuredSyscalls)}

