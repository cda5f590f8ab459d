"""Policy assignment and the audit trail.

Every downloaded program gets exactly one policy program assigned at install
time, chosen by: trusted URL prefix (when enabled), else the verified signer
of a signed page, else the untrusted default. Policy programs themselves are
never assigned policies. The audit log records fetches and system calls with
the context chain and active policy set, so a session can be re-checked
after the fact. It keeps the newest `MAX_EVENTS` events, counts the older
ones as dropped, and keeps a goal as a flat tuple of plain values that the
garbage collector stops walking (`terms.encode`), printed only when read.
"""

from __future__ import annotations

import time
from collections import deque
from pathlib import Path
from typing import NamedTuple, Optional

from . import signatures
from .model import ProgramExpression, ProgramId, expr_text
from .signatures import KeyStore, UNKNOWN_SIGNER
from .syntax import read_text, to_text
from .terms import EMPTY_SUBST, Substitution, Term, decode, encode


class RegistryError(Exception):
    pass


class PolicyRegistry:
    def __init__(self, signer_to_policy: dict[str, ProgramId],
                 trusted: list[tuple[str, ProgramId]] | None = None,
                 trusted_enabled: bool = False,
                 keystore: KeyStore | None = None):
        if UNKNOWN_SIGNER not in signer_to_policy:
            raise RegistryError("registry must map the 'unknown' signer")
        self.signer_to_policy = dict(signer_to_policy)
        self.trusted = list(trusted or [])
        self.trusted_enabled = trusted_enabled
        self.keystore = keystore or KeyStore()
        self.program_to_policy: dict[ProgramId, ProgramId] = {}
        # the policies of the maps given here; afterwards only
        # register_policy and assign (the one writer of program_to_policy)
        # add to it
        self.policy_ids: set[ProgramId] = set(self.signer_to_policy.values())
        self.policy_ids.update(pid for _, pid in self.trusted)

    def is_policy(self, pid: ProgramId) -> bool:
        return pid in self.policy_ids

    def register_policy(self, pid: ProgramId) -> None:
        """Mark an id as a policy program without tying it to a signer,
        for ad hoc checks and tests."""
        self.policy_ids.add(pid)

    def assign(self, pid: ProgramId, policy: ProgramId) -> ProgramId:
        """Record `policy` for `pid` unless it already has one; the policy
        kept is returned and counts as a policy program from now on."""
        kept = self.program_to_policy.setdefault(pid, policy)
        self.policy_ids.add(kept)
        return kept

    @property
    def default_policy(self) -> ProgramId:
        return self.signer_to_policy[UNKNOWN_SIGNER]

    # -- per-program lookup

    def pol(self, pid: ProgramId) -> ProgramId:
        """The policy of a non-policy program. Undefined (and an error) for
        policy programs and for ids never assigned one."""
        if self.is_policy(pid):
            raise RegistryError(f"{pid.serialize()} is a policy program, it has no policy")
        got = self.program_to_policy.get(pid)
        if got is None:
            raise RegistryError(f"{pid.serialize()} has never been assigned a policy")
        return got

    # -- assignment pipeline, run once per installed program

    def determine_policy_id(self, url: str, contents: str) -> ProgramId:
        if self.trusted_enabled:
            for prefix, pid in self.trusted:
                if url.startswith(prefix):
                    return pid
        if signatures.is_signed(url):
            signer = signatures.authenticate(contents, self.keystore)
            # a signer nobody registered a policy for gets the untrusted
            # default rather than wedging the download
            return self.signer_to_policy.get(signer, self.default_policy)
        return self.default_policy

    def assign_policy(self, pid: ProgramId, contents: str) -> Optional[ProgramId]:
        """Pick and record the policy for a newly installed program.
        Policy programs get none; re-assignment never happens."""
        if self.is_policy(pid):
            return None
        if pid in self.program_to_policy:
            return self.program_to_policy[pid]
        return self.assign(pid, self.determine_policy_id(pid.url, contents))

    # -- config file

    @classmethod
    def load(cls, path: str | Path, keystore: KeyStore | None = None,
             trusted_enabled: bool = False) -> "PolicyRegistry":
        """Line format: `signer <id> <policy-url>`, `default <policy-url>`,
        `trusted <url-prefix> <policy-url>`. Signer ids may contain spaces;
        the URL is always the last field."""
        signer_map: dict[str, ProgramId] = {}
        trusted: list[tuple[str, ProgramId]] = []
        text = read_text(path)
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            kind, _, rest = line.partition(" ")
            rest = rest.strip()
            if kind == "default" and rest:
                signer_map[UNKNOWN_SIGNER] = ProgramId.get(rest)
            elif kind == "signer":
                signer, _, url = rest.rpartition(" ")
                if not signer or not url:
                    raise RegistryError(f"bad signer line {lineno}: {raw!r}")
                signer_map[signer] = ProgramId.get(url)
            elif kind == "trusted":
                prefix, _, url = rest.rpartition(" ")
                if not prefix or not url:
                    raise RegistryError(f"bad trusted line {lineno}: {raw!r}")
                trusted.append((prefix, ProgramId.get(url)))
            else:
                raise RegistryError(f"bad registry line {lineno}: {raw!r}")
        if UNKNOWN_SIGNER not in signer_map:
            raise RegistryError("registry has no default policy")
        return cls(signer_map, trusted, trusted_enabled, keystore)


# ---------------------------------------------------------------- audit

class AuditEvent(NamedTuple):
    ts: float
    kind: str                                  # syscall | fetch | switch | vet | notice
    record: str | tuple                        # id or message text, or goal
    chain: tuple[ProgramExpression, ...] = ()  # contexts from the query root
    sigma: tuple[ProgramId, ...] = ()          # active policies, newest first
    prefix: str = ""                           # a vet's `allow: ` or `deny: `

    @property
    def subject(self) -> str | Term:
        """The id or message text, or the goal rebuilt from its record."""
        return self.record if type(self.record) is str else decode(self.record)

    @property
    def detail(self) -> str:
        """The subject as text, printed when read; a vet's is `allow: GOAL`
        or `deny: GOAL`."""
        subject = self.subject
        return self.prefix + (subject if type(subject) is str
                              else to_text(subject))

    def format_line(self) -> str:
        chain = " -> ".join(expr_text(e) for e in self.chain) or "-"
        sigma = ", ".join(p.serialize() for p in self.sigma) or "-"
        return f"{self.ts:.6f} {self.kind} {self.detail} | context: {chain} | policies: {sigma}"


# events an audit log keeps; older ones are dropped and counted
MAX_EVENTS = 10_000


class AuditLog:
    """Always-on in-memory event trail that keeps the newest `MAX_EVENTS`
    events and counts every one emitted."""

    def __init__(self):
        self.events: deque[AuditEvent] = deque(maxlen=MAX_EVENTS)
        self.emitted = 0

    @property
    def dropped(self) -> int:
        """The events emitted that the trail no longer keeps."""
        return self.emitted - len(self.events)

    def emit(self, kind: str, subject: str | Term,
             chain: tuple[ProgramExpression, ...] = (),
             sigma: tuple[ProgramId, ...] = (), prefix: str = "",
             subst: Substitution = EMPTY_SUBST) -> AuditEvent:
        self.emitted += 1
        record = subject if type(subject) is str else encode(subject, subst)
        ev = AuditEvent(time.time(), kind, record, chain, sigma, prefix)
        self.events.append(ev)
        return ev

    def lines(self) -> list[str]:
        return [ev.format_line() for ev in self.events]
