"""The audited built-in predicate table.

Everything a program can do to the world outside pure resolution lives
here. An implementation takes the arguments, the caller's substitution
`s`, the session and the calling context; it reads each argument through
`s` and yields `s` extended, once for each answer. One that refuses its
call raises `Refusal`; `call_builtin` then fails the goal quietly and
leaves the reason as one notice in the audit log. `close/1` takes only the
integer stream id `open/3` made.
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
                    functor_of, list_items, make_list, proper_list,
                    rename_apart, unify)

UNTIMED_CEILING_S = 30  # the longest system/1 or sleep/1 runs with no guard deadline

# (name, arity) -> implementation, called as impl(args, s, session, ctx)
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


def call_builtin(t: Term, s: Substitution, session, ctx) -> Iterator[Substitution]:
    """Type-checked execution of one built-in call made by `ctx`, read
    through `s`. A refused call fails and leaves its reason as a notice."""
    try:
        impl = lookup(t)
        if impl is None:
            raise Refusal(f"unknown built-in: {syntax.to_text(s.apply(t))}")
        yield from impl(t.args if isinstance(t, Struct) else (), s, session, ctx)
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
def _bi_open(args, s, session, ctx):
    """open(File, read|write, Stream): opens a real file"""
    fname, mode, stream = [s.walk(a) for a in args]
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
    yield s.bind(stream, Struct("$stream", (Num(n),)))


@_register("close", 1)
def _bi_close(args, s, session, ctx):
    """close(Stream): Stream is the `'$stream'(N)` open/3 made, N an integer"""
    stream = s.apply(args[0])
    if (isinstance(stream, Struct) and stream.functor == "$stream"
            and len(stream.args) == 1 and isinstance(stream.args[0], Num)
            and type(stream.args[0].value) is int):
        handle = session.streams.pop(stream.args[0].value, None)
        if handle is not None:
            handle.close()
            yield s
            return
    raise Refusal("close/1: not an open stream")


@_register("system", 1)
def _bi_system(args, s, session, ctx):
    """system(Command): run a shell command, succeed on exit 0. A guard
    stop kills the command; with no deadline it runs `UNTIMED_CEILING_S` at
    most. Jobs the shell leaves in the background are killed when it exits,
    except one that moved to a session of its own (`setsid`)."""
    cmd = _text(s.walk(args[0]))
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
        yield s


@_register("display", 1)
def _bi_display(args, s, session, ctx):
    """display(Term): print in canonical syntax"""
    print(syntax.to_text(s.apply(args[0])))
    yield s


@_register("report_deletion", 1)
def _bi_report_deletion(args, s, session, ctx):
    """report_deletion(Cmd): flag a deletion to the user"""
    text = syntax.to_text(s.apply(args[0]))
    session.notice(f"deletion-report {text}")
    print(f"deletion reported: {text}")
    yield s


@_register("sleep", 1)
def _bi_sleep(args, s, session, ctx):
    """sleep(Millis): cooperative pause, wakes early on guard stop; with no
    guard deadline it may last `UNTIMED_CEILING_S`"""
    millis = s.walk(args[0])
    if not isinstance(millis, Num):
        raise Refusal("sleep/1: milliseconds must be a number")
    hooks, millis = session.hooks, millis.value
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
    yield s


# ---------------------------------------------------------------- store state

def policy_program(session, ctx):
    """The store entry for the calling context when it is a single policy
    program; None otherwise. Only such a context may change clauses, and
    only its own."""
    if isinstance(ctx, ProgramId) and session.registry.is_policy(ctx):
        return session.store.get(ctx)
    return None

@_register("assert", 1)
def _bi_assert(args, s, session, ctx):
    """assert(Clause): extend the calling policy program"""
    prog = policy_program(session, ctx)
    if prog is None:
        raise Refusal("assert/1: only policy programs may change their clauses")
    try:
        # a copy, so the stored clause shares no variable with the caller
        clause = clause_from_term(rename_apart(s.apply(args[0])))
    except Exception as exc:
        raise Refusal(f"assert/1: {exc}")
    prog.add(clause)
    yield s


@_register("retract", 1)
def _bi_retract(args, s, session, ctx):
    """retract(Clause): remove the first matching clause"""
    prog = policy_program(session, ctx)
    if prog is None:
        raise Refusal("retract/1: only policy programs may change their clauses")
    # a fact's clause term is its head, so a bare pattern matches facts and
    # a ':-'/2 pattern matches rules; only a variable head can match clauses
    # of more than one predicate
    pattern = s.apply(args[0])
    head = (pattern.args[0] if isinstance(pattern, Struct)
            and pattern.functor == ":-" and len(pattern.args) == 2 else pattern)
    if isinstance(head, Var):
        clauses = prog.clauses
    else:
        pred = functor_of(head)
        clauses = prog.clauses_of(pred) if pred else ()
    for clause in clauses:
        s1 = unify(pattern, clause_to_term(clause), s)
        if s1 is not None:
            prog.remove(clause)
            yield s1
            return


@_register("program_exists", 1)
def _bi_program_exists(args, s, session, ctx):
    """program_exists(lw(Method, URL))"""
    try:
        pid = ProgramId.from_term(s.apply(args[0]))
    except Exception:
        raise Refusal("program_exists/1: not a program identifier")
    if pid in session.store:
        yield s


# ---------------------------------------------------------------- text & lists

@_register("contains", 2, pure=True)
def _bi_contains(args, s, session, ctx):
    """contains(Text, Sub): substring test"""
    text, sub = _text(s.walk(args[0])), _text(s.walk(args[1]))
    if text is None or sub is None:
        raise Refusal("contains/2: both arguments must be text")
    if sub in text:
        yield s


@_register("append", 3, pure=True)
def _bi_append(args, s, session, ctx):
    """append/3 over lists, or strings by concatenation. Each answer of
    the split is the (term, value) pairs it unifies, in order."""
    a, b, c = [s.apply(x) for x in args]
    split = _append_strings if Str in (type(a), type(b), type(c)) else _append_lists
    for pairs in split(a, b, c):
        s1 = s
        for term, value in pairs:
            if (s1 := unify(term, value, s1)) is None:
                break
        else:
            yield s1


def _append_strings(a, b, c):
    ta, tb, tc = _text(a), _text(b), _text(c)
    if ta is not None and tb is not None:
        yield ((c, Str(ta + tb)),)
        return
    if tc is not None:
        if ta is not None:
            if tc.startswith(ta):
                yield ((b, Str(tc[len(ta):])),)
            return
        if tb is not None:
            if tc.endswith(tb):
                yield ((a, Str(tc[:len(tc) - len(tb)])),)
            return
        for i in range(len(tc) + 1):
            yield (a, Str(tc[:i])), (b, Str(tc[i:]))


def _append_lists(a, b, c):
    front = proper_list(a)
    if front is not None:
        yield ((c, make_list(front, b)),)
        return
    whole = proper_list(c)
    if whole is not None:
        for i in range(len(whole) + 1):
            yield (a, make_list(whole[:i])), (b, make_list(whole[i:]))
    # both open-ended: not needed by any policy we ship


@_register("member", 2, pure=True)
def _bi_member(args, s, session, ctx):
    """member(X, List): enumerate elements"""
    x, lst = args
    items, _tail = list_items(s.apply(lst))
    for item in items:
        s1 = unify(x, item, s)
        if s1 is not None:
            yield s1


# ---------------------------------------------------------------- comparison

@_register("=", 2, pure=True)
def _bi_unify(args, s, session, ctx):
    """unification"""
    s1 = unify(args[0], args[1], s)
    if s1 is not None:
        yield s1


@_register("\\=", 2, pure=True)
def _bi_not_unify(args, s, session, ctx):
    """not unifiable"""
    if unify(args[0], args[1], s) is None:
        yield s


@_register("==", 2, pure=True)
def _bi_eq(args, s, session, ctx):
    """structural equality"""
    if s.apply(args[0]) == s.apply(args[1]):
        yield s


@_register("\\==", 2, pure=True)
def _bi_neq(args, s, session, ctx):
    """structural inequality"""
    if s.apply(args[0]) != s.apply(args[1]):
        yield s


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
def _bi_is(args, s, session, ctx):
    """is(X, Expr): evaluate +, -, * over numbers"""
    expr = s.apply(args[1])
    try:
        value = _eval_arith(expr)
    except (Refusal, OverflowError) as exc:
        raise Refusal(f"is/2: {exc}")
    if isinstance(value, float) and not math.isfinite(value):
        # no text reads back as an infinity, so none may be stored
        raise Refusal(f"is/2: non-finite result: {syntax.to_text(expr)}")
    # nor an integer the printer refuses
    if isinstance(value, int) and not syntax.int_printable(value):
        raise Refusal("is/2: integer result too long to print")
    s1 = unify(args[0], Num(value), s)
    if s1 is not None:
        yield s1


def _compare(op: str):
    table = {"<": operator.lt, ">": operator.gt, "=<": operator.le,
             ">=": operator.ge, "=:=": operator.eq, "=\\=": operator.ne}
    fn = table[op]

    def impl(args, s, session, ctx):
        """Arithmetic comparison of two evaluated expressions."""
        try:
            lhs, rhs = _eval_arith(s.apply(args[0])), _eval_arith(s.apply(args[1]))
        except (Refusal, OverflowError) as exc:
            raise Refusal(f"{op}: {exc}")
        if fn(lhs, rhs):
            yield s
    return impl


for _op in ("<", ">", "=<", ">=", "=:=", "=\\="):
    _register(_op, 2, pure=True)(_compare(_op))


# ---------------------------------------------------------------- type tests

def _type_test(kind: type):
    def impl(args, s, session, ctx):
        """Succeeds when the argument is an instance of the named type."""
        if isinstance(s.walk(args[0]), kind):
            yield s
    return impl


for _name, _kind in (("atom", Atom), ("var", Var), ("number", Num),
                     ("string", Str)):
    _register(_name, 1, pure=True)(_type_test(_kind))

