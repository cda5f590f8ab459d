"""Shared fixtures: a small offline web of pages and policy programs.

Every test session fetches from an in-memory page table, so nothing here
touches the network. The home page and its two friend pages form the demo
application; the policy pages cover the trust levels the suite exercises.
"""

from __future__ import annotations

import pytest

from logicweb.engine import EngineConfig, Session
from logicweb.fetching import FetchConfig, PageEntry
from logicweb.guards import Guard, GuardConfig
from logicweb.model import ProgramId
from logicweb.security import AuditEvent, AuditLog, PolicyRegistry
from logicweb.terms import Struct, Term

# ---------------------------------------------------------------- page URLs

HOME_URL = "http://www.cs.mu.oz.au/~swl/"
F1_URL = "http://www.cs.mu.oz.au/~f1/"
F2_URL = "http://www.cs.mu.oz.au/~f2"
DEPT_URL = "http://www.cs.mu.oz.au/"
RMIT_URL = "http://www.cs.rmit.edu.au/"

POLICY_HOST = "http://policies.example.org/"
PERMISSIVE_URL = POLICY_HOST + "permissive.html"
DOMAIN_URL = POLICY_HOST + "domain.html"
HISTORICAL_URL = POLICY_HOST + "historical.html"
DANGEROUS_URL = POLICY_HOST + "dangerous.html"
OK_URL = POLICY_HOST + "ok.html"
SAFE_URL = POLICY_HOST + "safe.html"
FDLIMIT_URL = POLICY_HOST + "fdlimit.html"

# ---------------------------------------------------------------- pages

HOME_PAGE = """<HTML>
<HEAD>
<TITLE>Seng Wai Loke's Home Page</TITLE>
</HEAD>

<BODY><H1>Seng Wai Loke's Home Page</H1>
I'm from the<A HREF="http://www.cs.mu.oz.au/">
Department of Computer Science</A> at the
<A HREF="http://www.unimelb.edu.au/">
University of Melbourne</A>.
<!--
<LW_CODE>
interests(["Logic Programming", "AI", "Web", "Agents"]).

friend_page("http://www.cs.mu.oz.au/~f1/").
friend_page("http://www.cs.mu.oz.au/~f2").

interested_in(X) :- interests(Is), member(X, Is).
interested_in(X) :-
  friend_page(URL), lw(get, URL)#>interested_in(X).
</LW_CODE>
-->
</BODY>
</HTML>
"""

F1_PAGE = """<HTML>
<HEAD><TITLE>Friend One</TITLE></HEAD>
<BODY><H1>Friend One</H1>
Robots, mostly.
<!--
<LW_CODE>
interested_in("Robotics").
interested_in("Planning").
</LW_CODE>
-->
</BODY>
</HTML>
"""

F2_PAGE = """<HTML>
<HEAD><TITLE>Friend Two</TITLE></HEAD>
<BODY><H1>Friend Two</H1>
<!--
<LW_CODE>
interested_in("Semantics").
</LW_CODE>
-->
</BODY>
</HTML>
"""

DEPT_PAGE = """<HTML>
<HEAD><TITLE>Department of Computer Science</TITLE></HEAD>
<BODY><H1>Department of Computer Science</H1>
Welcome.
</BODY>
</HTML>
"""

RMIT_PAGE = """<HTML>
<HEAD><TITLE>RMIT CS</TITLE></HEAD>
<BODY><H1>RMIT CS</H1>
Hello from another campus.
</BODY>
</HTML>
"""


def policy_page(title: str, clauses: str) -> str:
    return (f"<HTML>\n<HEAD><TITLE>{title}</TITLE></HEAD>\n<BODY>\n<!--\n"
            f"<LW_CODE>\n{clauses}</LW_CODE>\n-->\n</BODY>\n</HTML>\n")


PERMISSIVE_CLAUSES = """\
valid_program(_, _).
valid_systemCall(_).
call_system(Call) :- built_ins:call_builtin(Call).
"""

DOMAIN_CLAUSES = """\
valid_program(get, URL) :- contains(URL, "http://www.cs.mu.oz.au/").
valid_systemCall(_).
call_system(Call) :- built_ins:call_builtin(Call).
"""

HISTORICAL_CLAUSES = """\
file_accessed(no).

valid_program(_, _) :-
  file_accessed(no).

valid_systemCall(_).

call_system(Call) :-
  Call \\= open(_, _, _),
  built_ins:call_builtin(Call).
call_system(open(F, R, S)) :-
  built_ins:call_builtin(open(F, R, S)),
  (file_accessed(no) ->
    retract(file_accessed(no)),
    assert(file_accessed(yes))
  ;
    true
  ).
"""

DANGEROUS_CLAUSES = """\
valid_program(_, _) :- fail.

valid_systemCall(_) :- fail.

call_system(_) :- fail.
"""

OK_CLAUSES = """\
valid_program(_, _).

valid_systemCall(open(Path, write, _)) :-
  !, append("/tmp/", _, Path).
valid_systemCall(system(Cmd)) :-
  append("rm ", _, Cmd), !, fail.
valid_systemCall(_).

call_system(Call) :-
  built_ins:call_builtin(Call).
"""

SAFE_CLAUSES = """\
valid_program(_, _).

valid_systemCall(_).

call_system(system(Cmd)) :-
  !,
  built_ins:call_builtin(system(Cmd)),
  (append("rm ", _, Cmd) ->
     report_deletion(Cmd)
  ;
     true
  ).
call_system(Call) :-
  built_ins:call_builtin(Call).
"""

FDLIMIT_CLAUSES = """\
open_count(0).

valid_program(_, _).

valid_systemCall(_).

call_system(P) :-
  P \\= open(_, _, _),
  P \\= close(_),
  built_ins:call_builtin(P).
call_system(open(F, R, S)) :-
  open_count(N), N < 10,
  increment_open_count,
  built_ins:call_builtin(open(F, R, S)).
call_system(close(S)) :-
  open_count(N), N > 0,
  decrement_open_count,
  built_ins:call_builtin(close(S)).

increment_open_count :-
  retract(open_count(N)), M is N + 1, assert(open_count(M)).
decrement_open_count :-
  retract(open_count(N)), M is N - 1, assert(open_count(M)).
"""


def base_pages() -> dict[str, PageEntry]:
    return {
        HOME_URL: PageEntry(HOME_PAGE),
        F1_URL: PageEntry(F1_PAGE),
        F2_URL: PageEntry(F2_PAGE),
        DEPT_URL: PageEntry(DEPT_PAGE),
        RMIT_URL: PageEntry(RMIT_PAGE),
        PERMISSIVE_URL: PageEntry(policy_page("Permissive", PERMISSIVE_CLAUSES)),
        DOMAIN_URL: PageEntry(policy_page("Domain Only", DOMAIN_CLAUSES)),
        HISTORICAL_URL: PageEntry(policy_page("Until First Open", HISTORICAL_CLAUSES)),
        DANGEROUS_URL: PageEntry(policy_page("Dangerous", DANGEROUS_CLAUSES)),
        OK_URL: PageEntry(policy_page("Ok", OK_CLAUSES)),
        SAFE_URL: PageEntry(policy_page("Safe", SAFE_CLAUSES)),
        FDLIMIT_URL: PageEntry(policy_page("Ten Files", FDLIMIT_CLAUSES)),
    }


# ---------------------------------------------------------------- builders

def struct(functor: str, *args: Term) -> Struct:
    return Struct(functor, tuple(args))


def of_kind(log: AuditLog, kind: str) -> list[AuditEvent]:
    """The events of one kind still in the log, oldest first."""
    return [ev for ev in log.events if ev.kind == kind]


def make_session(pages: dict[str, PageEntry] | None = None,
                 default_policy: str = PERMISSIVE_URL,
                 security: bool = True,
                 guard: Guard | None = None,
                 signers: dict[str, str] | None = None,
                 keystore=None) -> Session:
    """A fully offline session whose unknown-signer programs fall under
    `default_policy`. Extra signer ids map to policy URLs via `signers`."""
    signer_map = {"unknown": ProgramId.get(default_policy)}
    for signer, url in (signers or {}).items():
        signer_map[signer] = ProgramId.get(url)
    registry = PolicyRegistry(signer_map, keystore=keystore)
    fetch_cfg = FetchConfig(pages=dict(pages if pages is not None else base_pages()),
                            allow_network=False)
    session = Session(registry, fetch_cfg,
                      EngineConfig(security_enabled=security),
                      hooks=guard if guard is not None else Guard())
    _SESSIONS.append(session)
    return session


_SESSIONS: list[Session] = []


@pytest.fixture(autouse=True)
def close_session_streams():
    """Streams that `open/3` opened outlive their query by design (the
    descriptor-budget policy counts them across queries), so the sessions
    `make_session` made close theirs when the test ends."""
    yield
    while _SESSIONS:
        _SESSIONS.pop().close_streams()


@pytest.fixture
def pages():
    return base_pages()


@pytest.fixture
def session(pages):
    return make_session(pages)


@pytest.fixture
def open_session(pages):
    """Security switched off: the empty-policy-set evaluation rules."""
    return make_session(pages, security=False)
