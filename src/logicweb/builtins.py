"""The audited built-in predicate table.

Everything a program can do to the world outside pure resolution lives
here. Arguments arrive fully dereferenced; an implementation yields fresh
substitutions over the remaining variables, which the engine composes into
the current answer. Failures (type errors included) are quiet: the goal
just fails, optionally leaving a notice in the audit log.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import time
from typing import Callable, Iterator, Optional

from . import syntax
from .model import ProgramId, clause_from_term, clause_to_term
from .terms import (Atom, Num, Str, Struct, Substitution, Term, Var,
                    EMPTY_SUBST, functor_of, list_items, make_list,
                    rename_apart, unify)

UNTIMED_CEILING_S = 30  # the longest system/1 or sleep/1 runs with no guard deadline

# (name, arity) -> implementation, called with the arguments and a BuiltinCall
TABLE: dict[tuple[str, int], Callable] = {}


def _register(name: str, arity: int):
    def deco(fn):
        TABLE[(name, arity)] = fn
        return fn
    return deco


def lookup(t: Term) -> Optional[Callable]:
    key = functor_of(t)
    return TABLE.get(key) if key else None


def call_builtin(t: Term, rt) -> Iterator[Substitution]:
    """Type-checked execution of one built-in call. `rt` carries the session
    (store, registry, streams, audit, hooks) and the calling context."""
    impl = lookup(t)
    if impl is None:
        rt.notice(f"unknown built-in: {syntax.to_text(t)}")
        return
    args = t.args if isinstance(t, Struct) else ()
    yield from impl(args, rt)


# ---------------------------------------------------------------- helpers

def _text(t: Term) -> Optional[str]:
    if isinstance(t, Str):
        return t.value
    if isinstance(t, Atom):
        return t.name
    return None


def _proper_list(t: Term) -> Optional[list[Term]]:
    items, tail = list_items(t)
    if isinstance(tail, Atom) and tail.name == "[]":
        return items
    return None


# ---------------------------------------------------------------- I/O

@_register("open", 3)
def _bi_open(args, rt):
    """open(File, read|write, Stream): opens a real file"""
    fname, mode, stream = args
    path = _text(fname)
    if path is None:
        rt.notice("open/3: file name must be an atom or string")
        return
    if not (isinstance(mode, Atom) and mode.name in ("read", "write")):
        rt.notice("open/3: mode must be read or write")
        return
    if not isinstance(stream, Var):
        rt.notice("open/3: stream argument must be unbound")
        return
    try:
        handle = open(path, "r" if mode.name == "read" else "w", encoding="utf-8")
    except (OSError, ValueError) as exc:    # ValueError: a NUL in the name
        rt.notice(f"open/3 failed: {exc}")
        return
    n = rt.session.new_stream(handle)
    yield EMPTY_SUBST.bind(stream, Struct("$stream", (Num(n),)))


@_register("close", 1)
def _bi_close(args, rt):
    """close(Stream)"""
    (stream,) = args
    if (isinstance(stream, Struct) and stream.functor == "$stream"
            and len(stream.args) == 1 and isinstance(stream.args[0], Num)):
        handle = rt.session.streams.pop(stream.args[0].value, None)
        if handle is not None:
            handle.close()
            yield EMPTY_SUBST
            return
    rt.notice("close/1: not an open stream")


@_register("system", 1)
def _bi_system(args, rt):
    """system(Command): run a shell command, succeed on exit 0. A guard
    stop kills the command; with no deadline it runs `UNTIMED_CEILING_S` at
    most. Jobs the shell leaves in the background are killed when it exits,
    except one that moved to a session of its own (`setsid`)."""
    cmd = _text(args[0])
    if cmd is None:
        rt.notice("system/1: command must be an atom or string")
        return
    hooks = rt.session.hooks
    ceiling = (time.monotonic() + UNTIMED_CEILING_S
               if hooks.deadline is None else None)
    try:
        # its own process group, so that killing it reaches the shell's children
        proc = subprocess.Popen(cmd, shell=True, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
    except (OSError, ValueError) as exc:    # ValueError: a NUL in the command
        rt.notice(f"system/1 failed: {exc}")
        return
    delay = 0.0005
    try:
        # the exited shell stays unreaped until its group is killed, so its
        # pid, which names the group, cannot pass to another process first
        while os.waitid(os.P_PID, proc.pid,
                        os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            hooks.check_now()
            if ceiling is not None and time.monotonic() > ceiling:
                rt.notice(f"system/1 failed: {cmd!r} ran past {UNTIMED_CEILING_S} seconds")
                return
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
def _bi_display(args, rt):
    """display(Term): print in canonical syntax"""
    print(syntax.to_text(args[0]))
    yield EMPTY_SUBST


@_register("report_deletion", 1)
def _bi_report_deletion(args, rt):
    """report_deletion(Cmd): flag a deletion to the user"""
    text = syntax.to_text(args[0])
    rt.session.audit.emit("notice", f"deletion-report {text}")
    print(f"deletion reported: {text}")
    yield EMPTY_SUBST


@_register("sleep", 1)
def _bi_sleep(args, rt):
    """sleep(Millis): cooperative pause, wakes early on guard stop; with no
    guard deadline it may last `UNTIMED_CEILING_S`"""
    if not isinstance(args[0], Num):
        rt.notice("sleep/1: milliseconds must be a number")
        return
    hooks, millis = rt.session.hooks, args[0].value
    if millis > UNTIMED_CEILING_S * 1000 and hooks.deadline is None:
        rt.notice(f"sleep/1 failed: over {UNTIMED_CEILING_S} seconds with no time limit")
        return
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

@_register("assert", 1)
def _bi_assert(args, rt):
    """assert(Clause): extend the calling policy program"""
    prog = rt.policy_program()
    if prog is None:
        rt.notice("assert/1: only policy programs may change their clauses")
        return
    try:
        # a copy, so the stored clause shares no variable with the caller
        clause = clause_from_term(rename_apart(args[0]))
    except Exception as exc:
        rt.notice(f"assert/1: {exc}")
        return
    prog.add(clause)
    yield EMPTY_SUBST


@_register("retract", 1)
def _bi_retract(args, rt):
    """retract(Clause): remove the first matching clause"""
    prog = rt.policy_program()
    if prog is None:
        rt.notice("retract/1: only policy programs may change their clauses")
        return
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
def _bi_program_exists(args, rt):
    """program_exists(lw(Method, URL))"""
    try:
        pid = ProgramId.from_term(args[0])
    except Exception:
        rt.notice("program_exists/1: not a program identifier")
        return
    if pid in rt.session.store:
        yield EMPTY_SUBST


# ---------------------------------------------------------------- text & lists

@_register("contains", 2)
def _bi_contains(args, rt):
    """contains(Text, Sub): substring test"""
    text, sub = _text(args[0]), _text(args[1])
    if text is None or sub is None:
        rt.notice("contains/2: both arguments must be text")
        return
    if sub in text:
        yield EMPTY_SUBST


@_register("append", 3)
def _bi_append(args, rt):
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
    front = _proper_list(a)
    if front is not None:
        s = unify(c, make_list(front, b))
        if s is not None:
            yield s
        return
    whole = _proper_list(c)
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


@_register("member", 2)
def _bi_member(args, rt):
    """member(X, List): enumerate elements"""
    x, lst = args
    items, _tail = list_items(lst)
    for item in items:
        s = unify(x, item)
        if s is not None:
            yield s


# ---------------------------------------------------------------- comparison

@_register("=", 2)
def _bi_unify(args, rt):
    """unification"""
    s = unify(args[0], args[1])
    if s is not None:
        yield s


@_register("\\=", 2)
def _bi_not_unify(args, rt):
    """not unifiable"""
    if unify(args[0], args[1]) is None:
        yield EMPTY_SUBST


@_register("==", 2)
def _bi_eq(args, rt):
    """structural equality"""
    if args[0] == args[1]:
        yield EMPTY_SUBST


@_register("\\==", 2)
def _bi_neq(args, rt):
    """structural inequality"""
    if args[0] != args[1]:
        yield EMPTY_SUBST


class _ArithmeticError(Exception):
    pass


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
    raise _ArithmeticError(f"not arithmetic: {syntax.to_text(t)}")


@_register("is", 2)
def _bi_is(args, rt):
    """is(X, Expr): evaluate +, -, * over numbers"""
    try:
        value = _eval_arith(args[1])
    except (_ArithmeticError, OverflowError) as exc:
        rt.notice(f"is/2: {exc}")
        return
    if isinstance(value, float) and not math.isfinite(value):
        # no text reads back as an infinity, so none may be stored
        rt.notice(f"is/2: non-finite result: {syntax.to_text(args[1])}")
        return
    # nor an integer the printer refuses
    if isinstance(value, int) and not syntax.int_printable(value):
        rt.notice("is/2: integer result too long to print")
        return
    s = unify(args[0], Num(value))
    if s is not None:
        yield s


def _compare(op: str):
    import operator
    table = {"<": operator.lt, ">": operator.gt, "=<": operator.le,
             ">=": operator.ge, "=:=": operator.eq, "=\\=": operator.ne}
    fn = table[op]

    def impl(args, rt):
        """Arithmetic comparison of two evaluated expressions."""
        try:
            lhs, rhs = _eval_arith(args[0]), _eval_arith(args[1])
        except (_ArithmeticError, OverflowError) as exc:
            rt.notice(f"{op}: {exc}")
            return
        if fn(lhs, rhs):
            yield EMPTY_SUBST
    return impl


for _op in ("<", ">", "=<", ">=", "=:=", "=\\="):
    TABLE[(_op, 2)] = _compare(_op)


# ---------------------------------------------------------------- type tests

def _type_test(kind: type):
    def impl(args, rt):
        """Succeeds when the argument is an instance of the named type."""
        if isinstance(args[0], kind):
            yield EMPTY_SUBST
    return impl


for _name, _kind in (("atom", Atom), ("var", Var), ("number", Num),
                     ("string", Str)):
    TABLE[(_name, 1)] = _type_test(_kind)


class BuiltinCall:
    """Runtime context handed to built-in implementations."""

    def __init__(self, session, ctx):
        self.session = session
        self.ctx = ctx

    def notice(self, message: str) -> None:
        self.session.audit.emit("notice", message)

    def policy_program(self):
        """The store entry for the calling context when it is a single
        policy program; None otherwise."""
        if (isinstance(self.ctx, ProgramId)
                and self.session.registry.is_policy(self.ctx)):
            return self.session.store.get(self.ctx)
        return None
