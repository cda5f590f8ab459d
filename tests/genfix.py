"""Randomized fixture generators plus an independent safety checker.

Three families:
  * pure stratified programs, for comparing the engine against the
    reference resolver;
  * stateless policy programs and candidate system calls, for checking
    that composed enforcement equals per-policy enforcement;
  * small multi-page worlds with preassigned policies, whose audit trails
    the checker re-examines after the fact.

The checker re-derives what each recorded operation was subject to from
ground-truth clause text and the page-to-policy map, proving the policy
goals with the reference resolver rather than the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from logicweb.engine import EngineConfig, Session
from logicweb.fetching import FetchConfig, PageEntry
from logicweb.guards import Guard, GuardConfig
from logicweb.model import (Encapsulation, Intersection, LWProgram,
                            ProgramExpression, ProgramId, Restriction, Union,
                            parse_goal, parse_program)
from logicweb.security import PolicyRegistry
from logicweb.syntax import parse_term_text
from logicweb.terms import Str, Struct, Term

import naive

PERMISSIVE_URL = "http://policies.example.org/permissive.html"


# ================================================================ pure programs

_CONSTS = ["a", "b", "c", "1", "2", '"u"', '"v"']
_VARS = ["X", "Y", "Z"]


def random_pure_program(rng: random.Random) -> tuple[str, str]:
    """(clause text, query text) for a terminating builtin-free program.

    Rule bodies only call predicates from strictly lower strata, so the
    derivation tree is finite regardless of the random choices."""
    n = rng.randint(2, 4)
    arity = {i: rng.randint(1, 2) for i in range(n)}
    lines: list[str] = []

    def const() -> str:
        return rng.choice(_CONSTS)

    def fact(i: int) -> str:
        args = ", ".join(const() for _ in range(arity[i]))
        return f"q{i}({args})."

    for _ in range(rng.randint(1, 3)):
        lines.append(fact(0))
    for i in range(1, n):
        for _ in range(rng.randint(0, 2)):
            lines.append(fact(i))
        for _ in range(rng.randint(1, 2)):
            head_vars = [rng.choice(_VARS) for _ in range(arity[i])]
            if rng.random() < 0.3:
                head_vars[rng.randrange(len(head_vars))] = const()
            body: list[str] = []
            pool = list(dict.fromkeys(v for v in head_vars if v[0].isupper()))
            for _ in range(rng.randint(1, 2)):
                j = rng.randrange(i)
                body_args = []
                for _ in range(arity[j]):
                    roll = rng.random()
                    if pool and roll < 0.6:
                        body_args.append(rng.choice(pool))
                    elif roll < 0.8:
                        body_args.append(const())
                    else:
                        body_args.append("_")
                body.append(f"q{j}({', '.join(body_args)})")
            lines.append(f"q{i}({', '.join(head_vars)}) :- {', '.join(body)}.")

    top = n - 1
    qargs = ", ".join(f"A{k}" for k in range(arity[top]))
    return "\n".join(lines) + "\n", f"q{top}({qargs})"


def engine_answers(program_text: str, query_text: str) -> list[tuple[str, ...]]:
    registry = PolicyRegistry({"unknown": ProgramId.get(PERMISSIVE_URL)})
    session = Session(registry, FetchConfig(allow_network=False),
                      EngineConfig(security_enabled=False))
    pid = ProgramId.get("http://fixtures.example.org/prog/")
    session.install_local(LWProgram(pid, parse_program(program_text)))
    goal, varmap = parse_goal(query_text)
    qvars = list(varmap.values())
    out = []
    for sol in session.run_query(pid, goal):
        out.append(naive.normalize_many([sol.subst.apply(v) for v in qvars]))
    return out


def naive_answers(program_text: str, query_text: str) -> list[tuple[str, ...]]:
    clauses = naive.load(program_text)
    term, varmap = parse_term_text(query_text)
    return naive.answers(clauses, term, list(varmap.values()))


# ================================================================ policy pairs

_CALL_POOL = [
    "open('/tmp/a.txt', write, S)",
    "open('/tmp/b.txt', read, S)",
    "open('/var/data.txt', write, S)",
    'system("rm /tmp/a.txt")',
    'system("ls /tmp")',
    "display(hello)",
    'contains("abc", "b")',
    "sleep(5)",
]

_POLICY_RULES = [
    'valid_systemCall(open(P, write, _)) :- contains(P, "/tmp/").',
    "valid_systemCall(open(_, read, _)).",
    'valid_systemCall(system(C)) :- contains(C, "ls").',
    "valid_systemCall(display(_)).",
    "valid_systemCall(contains(_, _)).",
    "valid_systemCall(sleep(_)).",
]


def random_policy_clauses(rng: random.Random) -> str:
    picked = rng.sample(_POLICY_RULES, rng.randint(1, 4))
    rng.shuffle(picked)
    if rng.random() < 0.1:
        picked.append("valid_systemCall(_).")
    picked.append("valid_program(_, _).")
    picked.append("call_system(Call) :- built_ins:call_builtin(Call).")
    return "\n".join(picked) + "\n"


def random_call(rng: random.Random) -> str:
    return rng.choice(_CALL_POOL)


def policy_page(title: str, clauses: str) -> str:
    return (f"<HTML>\n<HEAD><TITLE>{title}</TITLE></HEAD>\n<BODY>\n<!--\n"
            f"<LW_CODE>\n{clauses}</LW_CODE>\n-->\n</BODY>\n</HTML>\n")


def policy_session(policy_pages: dict[str, str]) -> tuple[Session, dict[str, ProgramId]]:
    """A session whose fetch table holds the given policy pages, each
    registered as a policy program."""
    registry = PolicyRegistry({"unknown": ProgramId.get(PERMISSIVE_URL)})
    pages = {url: PageEntry(policy_page("P", clauses))
             for url, clauses in policy_pages.items()}
    session = Session(registry, FetchConfig(pages=pages, allow_network=False),
                      EngineConfig(), hooks=Guard())
    pids = {}
    for url in policy_pages:
        pid = ProgramId.get(url)
        registry.register_policy(pid)
        pids[url] = pid
    return session, pids


def allows(session: Session, policy_pids: list[ProgramId], call_text: str) -> bool:
    """Whether the composed policies admit the system call."""
    term, _ = parse_term_text(call_text)
    return session._call_allowed(policy_pids, term)


# ================================================================ worlds

_HOSTS = ["http://alpha.example.org/", "http://beta.example.org/"]

_SYSCALLS_OK = ['contains("abcd", "bc")', "atom(tok)", "number(7)",
                'append("ab", R, "abcd")']
_SYSCALLS_FAILING = ['contains("abcd", "zz")', "atom(9)"]

_VALID_CALL_RULES = [
    "valid_systemCall(contains(_, _)).",
    "valid_systemCall(atom(_)).",
    "valid_systemCall(number(_)).",
    "valid_systemCall(append(_, _, _)).",
    'valid_systemCall(contains(T, _)) :- contains(T, "a").',
]


@dataclass
class World:
    pages: dict[str, PageEntry]
    policy_clauses: dict[str, str]          # policy url -> embedded clause text
    page_policy: dict[str, str]             # page url -> policy url
    main_url: str
    query: str


def random_world(rng: random.Random) -> World:
    n_pol = rng.randint(1, 3)
    policy_clauses: dict[str, str] = {}
    for k in range(n_pol):
        url = f"http://policies.example.org/world-p{k}.html"
        rules = []
        if rng.random() < 0.7:
            rules.append("valid_program(_, _).")
        else:
            host = rng.choice(_HOSTS)
            rules.append(f'valid_program(get, U) :- contains(U, "{host}").')
        rules.extend(rng.sample(_VALID_CALL_RULES, rng.randint(1, 4)))
        rules.append("call_system(Call) :- built_ins:call_builtin(Call).")
        policy_clauses[url] = "\n".join(rules) + "\n"

    n_pages = rng.randint(2, 4)
    page_urls = [f"{rng.choice(_HOSTS)}page{i}.html" for i in range(n_pages)]
    page_policy = {u: rng.choice(list(policy_clauses)) for u in page_urls}

    pages: dict[str, PageEntry] = {}
    for i, url in enumerate(page_urls):
        body: list[str] = [f"datum({i})."]
        goals: list[str] = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.45 and i + 1 < n_pages:
                target = rng.choice(page_urls[i + 1:])
                goals.append(f'lw(get, "{target}")#>go')
            elif roll < 0.8:
                goals.append(rng.choice(_SYSCALLS_OK))
            else:
                goals.append(rng.choice(_SYSCALLS_FAILING))
        body.append(f"go :- {', '.join(goals)}.")
        if rng.random() < 0.4:
            body.append("go.")
        pages[url] = PageEntry(policy_page(f"World page {i}", "\n".join(body) + "\n"))
    for url, clauses in policy_clauses.items():
        pages[url] = PageEntry(policy_page("World policy", clauses))

    return World(pages, policy_clauses, page_policy, page_urls[0], "go")


def world_session(world: World, **guard) -> Session:
    """A secured session over the world's pages and policy assignments;
    `guard` sets fields of its guard's config."""
    registry = PolicyRegistry({"unknown": ProgramId.get(PERMISSIVE_URL)})
    for pol_url in world.policy_clauses:
        registry.register_policy(ProgramId.get(pol_url))
    for page_url, pol_url in world.page_policy.items():
        registry.assign(ProgramId.get(page_url), ProgramId.get(pol_url))
    return Session(registry,
                   FetchConfig(pages=dict(world.pages), allow_network=False),
                   EngineConfig(),
                   hooks=Guard(GuardConfig(max_depth=200, max_clauses=5000,
                                           **guard)))


def run_world(world: World) -> Session:
    """Evaluate the world's query with security on; the audit trail stays
    on the returned session."""
    session = world_session(world)
    goal, _ = parse_goal(world.query)
    for _ in session.run_query(ProgramId.get(world.main_url), goal):
        pass
    return session


# ---------------------------------------------------------------- checker

def walk_expr_ids(e: ProgramExpression) -> set[ProgramId]:
    """Recursive identifier collection, written out independently of the
    engine's own traversal."""
    if isinstance(e, ProgramId):
        return {e}
    if isinstance(e, (Union, Intersection)):
        return walk_expr_ids(e.left) | walk_expr_ids(e.right)
    if isinstance(e, Restriction):
        return walk_expr_ids(e.expr) | walk_expr_ids(e.prog)
    if isinstance(e, Encapsulation):
        return walk_expr_ids(e.expr)
    return set()


@dataclass
class SafetyReport:
    syscall_events: int = 0
    fetch_events: int = 0
    switch_events: int = 0
    vet_events: int = 0
    violations: list[str] = None

    def __post_init__(self):
        if self.violations is None:
            self.violations = []


def check_world(world: World, session: Session) -> SafetyReport:
    """Re-examine the audit trail against the world's ground truth.

    Every recorded system call and download must be provable under the
    policy of every non-policy program mentioned anywhere in the context
    sequence, and every switch must carry a policy set covering those
    policies. A reused verdict (a `vet` record) must be the one the
    reference resolver reaches: allow exactly when every policy of its set
    proves the goal."""
    ground = {ProgramId.get(url): naive.load(text)
              for url, text in world.policy_clauses.items()}
    page_pol = {ProgramId.get(page): ProgramId.get(pol)
                for page, pol in world.page_policy.items()}
    phi = set(ground)
    report = SafetyReport()

    def chain_policies(chain) -> set[ProgramId]:
        pols: set[ProgramId] = set()
        for e in chain:
            for pid in walk_expr_ids(e):
                if pid in phi:
                    continue
                pols.add(page_pol[pid])
        return pols

    for ev in session.audit.events:
        if ev.kind == "syscall":
            report.syscall_events += 1
            call, _ = parse_term_text(ev.detail)
            goal = Struct("valid_systemCall", (call,))
            for pol in chain_policies(ev.chain):
                if not naive.prove(ground[pol], goal):
                    report.violations.append(
                        f"system call {ev.detail} escaped {pol.serialize()}")
        elif ev.kind == "fetch":
            report.fetch_events += 1
            id_term, _ = parse_term_text(ev.detail)
            pid = ProgramId.from_term(id_term)
            if pid in phi:
                continue
            goal = Struct("valid_program", (pid.method_term(), Str(pid.url)))
            for pol in chain_policies(ev.chain):
                if not naive.prove(ground[pol], goal):
                    report.violations.append(
                        f"download of {ev.detail} escaped {pol.serialize()}")
        elif ev.kind == "vet":
            report.vet_events += 1
            verdict, _, text = ev.detail.partition(": ")
            goal, _ = parse_term_text(text)
            if (verdict == "allow") != all(naive.prove(ground[pol], goal)
                                           for pol in ev.sigma):
                report.violations.append(f"cached verdict {ev.detail} is wrong")
        elif ev.kind == "switch":
            report.switch_events += 1
            missing = chain_policies(ev.chain) - set(ev.sigma)
            if missing:
                report.violations.append(
                    f"policy set at {ev.detail!r} missed "
                    + ", ".join(p.serialize() for p in missing))
    return report
