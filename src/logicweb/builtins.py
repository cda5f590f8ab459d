"""The audited built-in predicate table.

Everything a program can do to the world outside pure resolution lives
here. An implementation takes the arguments, fully dereferenced, the
session and the calling context, and yields fresh substitutions over the
remaining variables, which the engine composes into the current answer.
One that refuses its call raises `Refusal`; `call_builtin` then fails the
goal quietly and leaves the reason as one notice in the audit log.
"""

from __future__ import annotations

import math
import operator
import os
import time
from typing import Callable, Iterator, Optional

from . import syntax
from .model import ProgramId, clause_from_term, clause_to_term
from .terms import (Atom, Num, Str, Struct, Substitution, Term, Var,
                    EMPTY_SUBST, functor_of, list_items, make_list,
                    proper_list, rename_apart, unify)

UNTIMED_CEILING_S = 30  # the longest system/1 or sleep/1 runs with no guard deadline

# (name, arity) -> implementation, called as impl(args, session, ctx)
TABLE: dict[tuple[str, int], Callable] = {}
# the built-ins that only read their arguments: a vet whose proof runs no
# other may be kept (`engine.Session._prove_isolated`)
PURE: set[tuple[str, int]] = set()


def _register(name: str, arity: int, pure: bool = False):
    def deco(fn):
        TABLE[(name, arity)] = fn
        if pure:
            PURE.add((name, arity))
        return fn
    return deco


def lookup(t: Term) -> Optional[Callable]:
    key = functor_of(t)
    return TABLE.get(key) if key else None


class Refusal(Exception):
    """A built-in refuses its call; the message says which and why."""


def call_builtin(t: Term, session, ctx) -> Iterator[Substitution]:
    """Type-checked execution of one built-in call made by `ctx`. A refused
    call fails and leaves its reason as a notice."""
    try:
        impl = lookup(t)
        if impl is None:
            raise Refusal(f"unknown built-in: {syntax.to_text(t)}")
        yield from impl(t.args if isinstance(t, Struct) else (), session, ctx)
    except Refusal as exc:
        session.notice(str(exc))


# ---------------------------------------------------------------- helpers

def _text(t: Term) -> Optional[str]:
    if isinstance(t, Str):
        return t.value
    if isinstance(t, Atom):
        return t.name
    return None


# ---------------------------------------------------------------- I/O

@_register("open", 3)
def _bi_open(args, session, ctx):
    """open(File, read|write, Stream): opens a real file"""
    fname, mode, stream = args
    path = _text(fname)
    if path is None:
        raise Refusal("open/3: file name must be an atom or string")
    if not (isinstance(mode, Atom) and mode.name in ("read", "write")):
        raise Refusal("open/3: mode must be read or write")
    if not isinstance(stream, Var):
        raise Refusal("open/3: stream argument must be unbound")
    try:
        handle = open(path, "r" if mode.name == "read" else "w", encoding="utf-8")
    except (OSError, ValueError) as exc:    # ValueError: a NUL in the name
        raise Refusal(f"open/3 failed: {exc}")
    n = session.new_stream(handle)
    yield EMPTY_SUBST.bind(stream, Struct("$stream", (Num(n),)))


@_register("close", 1)
def _bi_close(args, session, ctx):
    """close(Stream)"""
    (stream,) = args
    if (isinstance(stream, Struct) and stream.functor == "$stream"
            and len(stream.args) == 1 and isinstance(stream.args[0], Num)):
        handle = session.streams.pop(stream.args[0].value, None)
        if handle is not None:
            handle.close()
            yield EMPTY_SUBST
            return
    raise Refusal("close/1: not an open stream")


@_register("system", 1)
def _bi_system(args, session, ctx):
    """system(Command): run a shell command, succeed on exit 0. A guard
    stop kills the command; with no deadline it runs `UNTIMED_CEILING_S` at
    most. Jobs the shell leaves in the background are killed when it exits,
    except one that moved to a session of its own (`setsid`)."""
    cmd = _text(args[0])
    if cmd is None:
        raise Refusal("system/1: command must be an atom or string")
    hooks = session.hooks
    ceiling = (time.monotonic() + UNTIMED_CEILING_S
               if hooks.deadline is None else None)
    import signal
    import subprocess
    try:
        # its own process group, so that killing it reaches the shell's children
        proc = subprocess.Popen(cmd, shell=True, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
    except (OSError, ValueError) as exc:    # ValueError: a NUL in the command
        raise Refusal(f"system/1 failed: {exc}")
    delay = 0.0005
    try:
        # the exited shell stays unreaped until its group is killed, so its
        # pid, which names the group, cannot pass to another process first
        while os.waitid(os.P_PID, proc.pid,
                        os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            hooks.check_now()
            if ceiling is not None and time.monotonic() > ceiling:
                raise Refusal(f"system/1 failed: {cmd!r} ran past {UNTIMED_CEILING_S} seconds")
            time.sleep(delay)
            delay = min(delay * 2, 0.02)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:      # nothing of the group is left
            pass
        proc.wait()
    if proc.returncode == 0:
        yield EMPTY_SUBST


@_register("display", 1)
def _bi_display(args, session, ctx):
    """display(Term): print in canonical syntax"""
    print(syntax.to_text(args[0]))
    yield EMPTY_SUBST


@_register("report_deletion", 1)
def _bi_report_deletion(args, session, ctx):
    """report_deletion(Cmd): flag a deletion to the user"""
    text = syntax.to_text(args[0])
    session.notice(f"deletion-report {text}")
    print(f"deletion reported: {text}")
    yield EMPTY_SUBST


@_register("sleep", 1)
def _bi_sleep(args, session, ctx):
    """sleep(Millis): cooperative pause, wakes early on guard stop; with no
    guard deadline it may last `UNTIMED_CEILING_S`"""
    if not isinstance(args[0], Num):
        raise Refusal("sleep/1: milliseconds must be a number")
    hooks, millis = session.hooks, args[0].value
    if millis > UNTIMED_CEILING_S * 1000 and hooks.deadline is None:
        raise Refusal(f"sleep/1 failed: over {UNTIMED_CEILING_S} seconds with no time limit")
    # past the float range, only the deadline ends the pause
    remaining = millis / 1000.0 if millis < 1e300 else math.inf
    while remaining > 0:
        hooks.check_now()
        step = min(0.02, remaining)
        time.sleep(step)
        remaining -= step
    hooks.check_now()
    yield EMPTY_SUBST


# ---------------------------------------------------------------- store state

def policy_program(session, ctx):
    """The store entry for the calling context when it is a single policy
    program; None otherwise. Only such a context may change clauses, and
    only its own."""
    if isinstance(ctx, ProgramId) and session.registry.is_policy(ctx):
        return session.store.get(ctx)
    return None

@_register("assert", 1)
def _bi_assert(args, session, ctx):
    """assert(Clause): extend the calling policy program"""
    prog = policy_program(session, ctx)
    if prog is None:
        raise Refusal("assert/1: only policy programs may change their clauses")
    try:
        # a copy, so the stored clause shares no variable with the caller
        clause = clause_from_term(rename_apart(args[0]))
    except Exception as exc:
        raise Refusal(f"assert/1: {exc}")
    prog.add(clause)
    yield EMPTY_SUBST


@_register("retract", 1)
def _bi_retract(args, session, ctx):
    """retract(Clause): remove the first matching clause"""
    prog = policy_program(session, ctx)
    if prog is None:
        raise Refusal("retract/1: only policy programs may change their clauses")
    # a fact's clause term is its head, so a bare pattern matches facts and
    # a ':-'/2 pattern matches rules; only a variable head can match clauses
    # of more than one predicate
    pattern = args[0]
    head = (pattern.args[0] if isinstance(pattern, Struct)
            and pattern.functor == ":-" and len(pattern.args) == 2 else pattern)
    if isinstance(head, Var):
        clauses = prog.clauses
    else:
        pred = functor_of(head)
        clauses = prog.clauses_of(pred) if pred else ()
    for clause in clauses:
        s = unify(pattern, clause_to_term(clause))
        if s is not None:
            prog.remove(clause)
            yield s
            return


@_register("program_exists", 1)
def _bi_program_exists(args, session, ctx):
    """program_exists(lw(Method, URL))"""
    try:
        pid = ProgramId.from_term(args[0])
    except Exception:
        raise Refusal("program_exists/1: not a program identifier")
    if pid in session.store:
        yield EMPTY_SUBST


# ---------------------------------------------------------------- text & lists

@_register("contains", 2, pure=True)
def _bi_contains(args, session, ctx):
    """contains(Text, Sub): substring test"""
    text, sub = _text(args[0]), _text(args[1])
    if text is None or sub is None:
        raise Refusal("contains/2: both arguments must be text")
    if sub in text:
        yield EMPTY_SUBST


@_register("append", 3, pure=True)
def _bi_append(args, session, ctx):
    """append/3 over lists, or strings by concatenation"""
    a, b, c = args
    if isinstance(a, Str) or isinstance(b, Str) or isinstance(c, Str):
        yield from _append_strings(a, b, c)
        return
    yield from _append_lists(a, b, c)


def _append_strings(a, b, c):
    ta, tb, tc = _text(a), _text(b), _text(c)
    if ta is not None and tb is not None:
        s = unify(c, Str(ta + tb))
        if s is not None:
            yield s
        return
    if tc is not None:
        if ta is not None:
            if tc.startswith(ta):
                s = unify(b, Str(tc[len(ta):]))
                if s is not None:
                    yield s
            return
        if tb is not None:
            if tc.endswith(tb):
                s = unify(a, Str(tc[:len(tc) - len(tb)]))
                if s is not None:
                    yield s
            return
        for i in range(len(tc) + 1):
            s = unify(a, Str(tc[:i]))
            if s is None:
                continue
            s2 = unify(b, Str(tc[i:]), s)
            if s2 is not None:
                yield s2


def _append_lists(a, b, c):
    front = proper_list(a)
    if front is not None:
        s = unify(c, make_list(front, b))
        if s is not None:
            yield s
        return
    whole = proper_list(c)
    if whole is not None:
        for i in range(len(whole) + 1):
            s = unify(a, make_list(whole[:i]))
            if s is None:
                continue
            s2 = unify(b, make_list(whole[i:]), s)
            if s2 is not None:
                yield s2
        return
    # both open-ended: not needed by any policy we ship


@_register("member", 2, pure=True)
def _bi_member(args, session, ctx):
    """member(X, List): enumerate elements"""
    x, lst = args
    items, _tail = list_items(lst)
    for item in items:
        s = unify(x, item)
        if s is not None:
            yield s


# ---------------------------------------------------------------- comparison

@_register("=", 2, pure=True)
def _bi_unify(args, session, ctx):
    """unification"""
    s = unify(args[0], args[1])
    if s is not None:
        yield s


@_register("\\=", 2, pure=True)
def _bi_not_unify(args, session, ctx):
    """not unifiable"""
    if unify(args[0], args[1]) is None:
        yield EMPTY_SUBST


@_register("==", 2, pure=True)
def _bi_eq(args, session, ctx):
    """structural equality"""
    if args[0] == args[1]:
        yield EMPTY_SUBST


@_register("\\==", 2, pure=True)
def _bi_neq(args, session, ctx):
    """structural inequality"""
    if args[0] != args[1]:
        yield EMPTY_SUBST


def _eval_arith(t: Term):
    if isinstance(t, Num):
        return t.value
    if isinstance(t, Struct) and len(t.args) == 2 and t.functor in ("+", "-", "*"):
        lhs, rhs = _eval_arith(t.args[0]), _eval_arith(t.args[1])
        if t.functor == "+":
            return lhs + rhs
        if t.functor == "-":
            return lhs - rhs
        return lhs * rhs
    if isinstance(t, Struct) and t.functor == "-" and len(t.args) == 1:
        return -_eval_arith(t.args[0])
    raise Refusal(f"not arithmetic: {syntax.to_text(t)}")


@_register("is", 2, pure=True)
def _bi_is(args, session, ctx):
    """is(X, Expr): evaluate +, -, * over numbers"""
    try:
        value = _eval_arith(args[1])
    except (Refusal, OverflowError) as exc:
        raise Refusal(f"is/2: {exc}")
    if isinstance(value, float) and not math.isfinite(value):
        # no text reads back as an infinity, so none may be stored
        raise Refusal(f"is/2: non-finite result: {syntax.to_text(args[1])}")
    # nor an integer the printer refuses
    if isinstance(value, int) and not syntax.int_printable(value):
        raise Refusal("is/2: integer result too long to print")
    s = unify(args[0], Num(value))
    if s is not None:
        yield s


def _compare(op: str):
    table = {"<": operator.lt, ">": operator.gt, "=<": operator.le,
             ">=": operator.ge, "=:=": operator.eq, "=\\=": operator.ne}
    fn = table[op]

    def impl(args, session, ctx):
        """Arithmetic comparison of two evaluated expressions."""
        try:
            lhs, rhs = _eval_arith(args[0]), _eval_arith(args[1])
        except (Refusal, OverflowError) as exc:
            raise Refusal(f"{op}: {exc}")
        if fn(lhs, rhs):
            yield EMPTY_SUBST
    return impl


for _op in ("<", ">", "=<", ">=", "=:=", "=\\="):
    _register(_op, 2, pure=True)(_compare(_op))


# ---------------------------------------------------------------- type tests

def _type_test(kind: type):
    def impl(args, session, ctx):
        """Succeeds when the argument is an instance of the named type."""
        if isinstance(args[0], kind):
            yield EMPTY_SUBST
    return impl


for _name, _kind in (("atom", Atom), ("var", Var), ("number", Num),
                     ("string", Str)):
    _register(_name, 1, pure=True)(_type_test(_kind))

