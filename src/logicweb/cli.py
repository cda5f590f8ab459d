"""Command line front end for the interpreter.

Exit codes: 0 for a query with at least one answer (or a successful
command), 1 for a query that finitely fails or a fetch/check that comes
back negative, 2 when a resource guard stopped the derivation, 3 for
usage and configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import syntax
from .engine import EngineConfig, EngineError, Session
from .fetching import (FetchConfig, FetchError, clear_store, download,
                       load_store, save_store)
from .guards import Guard, GuardConfig, GuardTermination, guarded_solve
from .model import ExpressionError, ProgramId, clause_text, parse_goal
from .security import PolicyRegistry, RegistryError
from .signatures import (SIGNED_SUFFIX, KeyStore, SignatureError,
                         generate_keypair, load_private_key,
                         save_private_key, sign_page)
from .syntax import ParseError, parse_term_text, read_text

EXIT_OK = 0
EXIT_NO = 1
EXIT_STOPPED = 2
EXIT_USAGE = 3

NO_POLICY = ProgramId.get("lw:no-policy")   # default of a registry never consulted


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ------------------------------------------------------------- session setup

_GUARD_HELP = {"timeout_ms": "abort the query after N milliseconds",
               "loop_check": "stop on repeated ancestor goals"}


def _add_session_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--registry", metavar="FILE", help="policy registry")
    p.add_argument("--keystore", metavar="FILE", help="signer public keys")
    # None, not []: a cached parser puts its default object in every namespace
    p.add_argument("--mount", action="append", default=None, metavar="PREFIX=DIR",
                   help="serve URLs under PREFIX (file:/// too) from DIR; repeatable")
    p.add_argument("--store-dir", metavar="DIR", help="persistent program cache")
    p.add_argument("--no-security", action="store_true",
                   help="disable policy enforcement")
    p.add_argument("--trusted", action="store_true",
                   help="honour trusted-prefix lines in the registry")
    p.add_argument("--offline", action="store_true",
                   help="never touch the network")
    p.add_argument("--http-timeout", type=_timeout_seconds,
                   default=FetchConfig.timeout, metavar="SECS")
    # one flag per guard setting, named and defaulted by GuardConfig
    for name, default in GuardConfig._field_defaults.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, action=argparse.BooleanOptionalAction,
                           default=default, help=_GUARD_HELP.get(name))
        else:
            p.add_argument(flag, type=_non_negative, default=default,
                           metavar="N", help=_GUARD_HELP.get(name))


def _non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return n


# socket timeouts overflow a little above 9.2e9 s
MAX_HTTP_TIMEOUT = 1e9


def _timeout_seconds(text: str) -> float:
    secs = float(text)
    if not (math.isfinite(secs) and 0 < secs <= MAX_HTTP_TIMEOUT):
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds above 0 and at most "
            f"{MAX_HTTP_TIMEOUT:g}: {text}")
    return secs


def _parse_mounts(specs: list[str]) -> list[tuple[str, Path]]:
    out = []
    for spec in specs:
        prefix, sep, directory = spec.partition("=")
        if not sep or not prefix or not directory:
            raise CliError(f"bad --mount (want PREFIX=DIR): {spec!r}")
        out.append((prefix, Path(directory)))
    return out


def _build_session(args) -> Session:
    keystore = KeyStore.load(args.keystore) if args.keystore else KeyStore()

    security = not args.no_security
    if args.registry:
        registry = PolicyRegistry.load(args.registry, keystore,
                                       trusted_enabled=args.trusted)
    elif security:
        raise CliError("a policy registry is required unless --no-security is given")
    else:
        # never consulted: a run without security records no policies
        registry = PolicyRegistry({"unknown": NO_POLICY}, keystore=keystore)

    fetch_cfg = FetchConfig(
        mounts=_parse_mounts(args.mount or []),
        timeout=args.http_timeout,
        allow_network=not args.offline,
    )
    config = EngineConfig(security_enabled=security)
    guard = Guard(GuardConfig(*[getattr(args, n) for n in GuardConfig._fields]))
    session = Session(registry, fetch_cfg, config, hooks=guard)

    if args.store_dir:
        # a store that cannot be saved stops the command before it runs
        Path(args.store_dir).mkdir(parents=True, exist_ok=True)
        load_store(args.store_dir, session)
    return session


def _flush_store(session: Session, store_dir: str | None) -> None:
    if store_dir:
        save_store(store_dir, session)


# ------------------------------------------------------------------ commands

def cmd_query(args) -> int:
    session = _build_session(args)
    try:
        goal, varmap = parse_goal(args.goal)
    except ParseError as exc:
        raise CliError(f"bad goal: {exc}") from exc
    try:
        outcome = guarded_solve(session, ProgramId.get(args.url), goal,
                                limit=args.limit)
    finally:
        session.close_streams()

    qvars = list(varmap.values())
    for sol in outcome.solutions:
        if qvars:
            names = {}
            print(", ".join(
                f"{v.name} = {syntax.to_text(sol.subst.apply(v), names=names)}"
                for v in qvars))
        else:
            print("true")
    if args.trace:
        if session.audit.dropped:
            print(f"# {session.audit.dropped} earlier events dropped")
        for line in session.audit.lines():
            print(line)
    code = EXIT_OK if outcome.solutions else EXIT_NO
    if outcome.terminated:
        print(f"stopped: {outcome.termination.message}", file=sys.stderr)
        code = EXIT_STOPPED
    _flush_store(session, args.store_dir)     # last: a failed save hides no answer
    return code


def cmd_fetch(args) -> int:
    session = _build_session(args)
    try:
        program = download(ProgramId(args.method, args.url), session)
        for clause in program.clauses:
            print(clause_text(clause))
    except FetchError as exc:
        print(f"fetch failed ({exc.reason}): {exc.detail}", file=sys.stderr)
        return EXIT_NO
    finally:
        _flush_store(session, args.store_dir)
    return EXIT_OK


def cmd_policy_check(args) -> int:
    """Test a system call or a program id against one or more policies
    composed the way the engine composes them: every policy must agree."""
    session = _build_session(args)
    pids = [ProgramId.get(u) for u in args.policy_urls]
    for pid in pids:
        session.registry.register_policy(pid)

    try:
        if args.call:
            term, _ = parse_term_text(args.call)
            allowed = session._call_allowed(pids, term)
        else:
            id_term, _ = parse_term_text(args.program)
            allowed = session._programs_allowed(pids, [ProgramId.from_term(id_term)])
    finally:
        session.close_streams()
    print("allow" if allowed else "deny")
    return EXIT_OK if allowed else EXIT_NO


def _required_store_dir(args) -> str:
    if not args.store_dir:
        raise CliError("--store-dir is required")
    return args.store_dir


def cmd_store_list(args) -> int:
    session = Session(PolicyRegistry({"unknown": NO_POLICY}),
                      config=EngineConfig(security_enabled=False))
    load_store(_required_store_dir(args), session)
    for program in sorted(session.store.values(),
                          key=lambda p: p.id.serialize()):
        pol = session.registry.program_to_policy.get(program.id)
        suffix = f"  policy={pol.url}" if pol else ""
        print(f"{program.id.serialize()}  clauses={len(program.clauses)}{suffix}")
    return EXIT_OK


def cmd_store_clear(args) -> int:
    removed = clear_store(_required_store_dir(args))
    print(f"removed {removed} cached program(s)")
    return EXIT_OK


def cmd_keygen(args) -> int:
    private, public = generate_keypair()
    save_private_key(args.key_out, private)
    if args.keystore:
        path = Path(args.keystore)
        keystore = KeyStore.load(path) if path.is_file() else KeyStore()
        keystore.add(args.signer, public)
        keystore.save(path)
        print(f"key for {args.signer!r} written to {args.key_out}, "
              f"public key added to {args.keystore}")
    else:
        print(f"key for {args.signer!r} written to {args.key_out}")
    return EXIT_OK


def cmd_sign(args) -> int:
    html = read_text(args.page)
    signed = sign_page(html, load_private_key(args.key), args.signer)
    if args.out:
        Path(args.out).write_text(signed, encoding="utf-8")
        if not args.out.endswith(SIGNED_SUFFIX):
            print(f"note: name does not end in {SIGNED_SUFFIX}; pages served "
                  "from it will not be treated as signed", file=sys.stderr)
    else:
        sys.stdout.write(signed)
    return EXIT_OK


# -------------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lw` parser, built once per process: parsing leaves no state in
    it, so every call of `main` shares it."""
    p = _Parser(prog="lw",
                description="Run goals against logic programs on the web.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, trace, text in (
            ("query", False, "evaluate a goal against a page's program"),
            ("trace", True, "run a query, then print the audit trail")):
        q = sub.add_parser(name, help=text)
        q.add_argument("url")
        q.add_argument("goal")
        q.add_argument("--limit", type=_non_negative, default=None, metavar="N",
                       help="stop after N answers")
        _add_session_args(q)
        q.set_defaults(func=cmd_query, trace=trace)

    f = sub.add_parser("fetch", help="download one page and print its program")
    f.add_argument("url")
    f.add_argument("--method", choices=["get", "head"], default="get")
    _add_session_args(f)
    f.set_defaults(func=cmd_fetch)

    pc = sub.add_parser(
        "policy-check",
        help="ask whether the given policies all permit a call or program")
    pc.add_argument("policy_urls", nargs="+", metavar="POLICY_URL")
    group = pc.add_mutually_exclusive_group(required=True)
    group.add_argument("--call", metavar="TERM",
                       help="system call term, e.g. 'open(\"/tmp/x\", write, S)'")
    group.add_argument("--program", metavar="ID",
                       help="program id term, e.g. 'lw(get, \"http://a/\")'")
    _add_session_args(pc)
    pc.set_defaults(func=cmd_policy_check)

    sl = sub.add_parser("store-list", help="list the persistent program cache")
    sl.add_argument("--store-dir", metavar="DIR")
    sl.set_defaults(func=cmd_store_list)

    sc = sub.add_parser("store-clear", help="empty the persistent program cache")
    sc.add_argument("--store-dir", metavar="DIR")
    sc.set_defaults(func=cmd_store_clear)

    kg = sub.add_parser("keygen", help="create a signer keypair")
    kg.add_argument("signer")
    kg.add_argument("--key-out", required=True, metavar="FILE",
                    help="where to write the private key")
    kg.add_argument("--keystore", metavar="FILE",
                    help="keystore to add the public key to")
    kg.set_defaults(func=cmd_keygen)

    sg = sub.add_parser("sign", help="append a signature trailer to a page")
    sg.add_argument("page")
    sg.add_argument("--key", required=True, metavar="FILE")
    sg.add_argument("--signer", required=True)
    sg.add_argument("--out", metavar="FILE", help="default: stdout")
    sg.set_defaults(func=cmd_sign)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardTermination as exc:
        print(f"stopped: {exc.message}", file=sys.stderr)
        return EXIT_STOPPED
    except (RegistryError, SignatureError, ParseError, EngineError,
            ExpressionError, FetchError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
