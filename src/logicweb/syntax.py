"""Reader and printer for clause texts, goals, and program expressions.

Edinburgh-flavoured syntax: facts and rules terminated by `.`, `%` line
comments, double-quoted strings as a distinct scalar type, and the web
composition operators `+  *  /  @  <>  #>` plus the current-context marker
`(#)` usable wherever a program identifier may appear.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .terms import (Atom, Num, Str, Struct, Term, Var, fresh_var_id,
                    list_items, make_list)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a local file; a decode error names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        exc.reason += f" in {path}"
        raise


# ---------------------------------------------------------------- tokens

@dataclass(frozen=True)
class Token:
    kind: str          # NAME QATOM VAR NUM STR PUNCT OP END EOF
    text: str
    line: int
    col: int
    value: object = None


_SYMBOLIC_OPS = [
    ":-", "\\==", "=\\=", "\\=", "==", "=<", ">=", "=:=", "->", "#>",
    "<>", "=", "<", ">", "+", "-", "*", "/", "@", ";", ":", "!", "#",
]

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<name>[a-z][A-Za-z0-9_]*)
    | (?P<var>[A-Z_][A-Za-z0-9_]*)
    | (?P<str>"(?:\\.|[^"\\])*")
    | (?P<qatom>'(?:\\.|[^'\\])*')
    | (?P<op>""" + "|".join(re.escape(o) for o in sorted(_SYMBOLIC_OPS, key=len, reverse=True)) + r""")
    | (?P<punct>[()\[\],|])
    | (?P<end>\.)
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'"}


def _unescape(body: str, line: int, col: int) -> str:
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            i += 1
            if i >= len(body):
                raise ParseError("dangling escape", line, col)
            e = body[i]
            out.append(_ESCAPES.get(e, e))
        else:
            out.append(c)
        i += 1
    return "".join(out)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        tok_text = m.group()
        col = pos - line_start + 1
        if kind == "num":
            try:
                value = int(tok_text) if tok_text.isdigit() else float(tok_text)
            except ValueError:   # int() refuses what the printer could not write
                raise ParseError("integer too long to print", line, col) from None
            if value == math.inf:   # float() reads a too-large literal as inf
                raise ParseError(f"number out of range: {tok_text}", line, col)
        elif kind in ("str", "qatom"):
            value = _unescape(tok_text[1:-1], line, col)
        else:
            # a '.' between digits was already eaten by the number rule, so
            # an END token always ends a clause
            value = tok_text
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind.upper(), tok_text, line, col, value))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + tok_text.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("EOF", "", line, n - line_start + 1))
    return tokens


# ---------------------------------------------------------------- operator table

# (priority, fixity); comma handled as an infix operator too
INFIX_OPS: dict[str, tuple[int, str]] = {
    ":-": (1200, "xfx"),
    ";": (1100, "xfy"),
    "->": (1050, "xfy"),
    ",": (1000, "xfy"),
    "#>": (980, "xfy"),
    "=": (700, "xfx"), "\\=": (700, "xfx"),
    "==": (700, "xfx"), "\\==": (700, "xfx"),
    "<": (700, "xfx"), ">": (700, "xfx"),
    "=<": (700, "xfx"), ">=": (700, "xfx"),
    "=:=": (700, "xfx"), "=\\=": (700, "xfx"),
    "is": (700, "xfx"),
    "+": (500, "yfx"), "-": (500, "yfx"),
    "*": (400, "yfx"), "/": (400, "yfx"),
    "<>": (200, "xfx"),
    ":": (200, "xfy"),
}

PREFIX_OPS: dict[str, tuple[int, str]] = {
    "@": (200, "fy"),
}

CURRENT_CONTEXT_NAME = "(#)"    # atom standing for the calling context


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.varmap: dict[str, Var] = {}

    # -- token helpers

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return t

    def fail(self, msg: str) -> None:
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- grammar

    def parse_term(self, max_prec: int) -> Term:
        left = self.parse_primary(max_prec)
        while True:
            t = self.peek()
            name = t.text if t.kind == "OP" else None
            if t.kind == "PUNCT" and t.text == ",":
                name = ","
            if t.kind == "NAME" and t.text == "is":
                name = "is"
            if name is None or name not in INFIX_OPS:
                return left
            prec, fixity = INFIX_OPS[name]
            if prec > max_prec:
                return left
            self.next()
            sub = prec if fixity == "xfy" else prec - 1
            right = self.parse_term(sub)
            left = Struct(name, (left, right))

    def parse_primary(self, max_prec: int) -> Term:
        t = self.peek()
        if t.kind == "OP":
            if t.text == "@":
                prec, _ = PREFIX_OPS["@"]
                if prec > max_prec:
                    self.fail("operator priority clash for '@'")
                self.next()
                operand = self.parse_term(prec)
                return Struct("@", (operand,))
            if t.text == "-" and self.peek(1).kind == "NUM":
                self.next()
                num = self.next()
                return Num(-num.value)
            if t.text == "!":
                self.next()
                return Atom("!")
            self.fail(f"unexpected operator {t.text!r}")
        if t.kind == "PUNCT":
            if t.text == "(":
                return self.parse_paren()
            if t.text == "[":
                return self.parse_list()
            self.fail(f"unexpected {t.text!r}")
        if t.kind == "NUM":
            self.next()
            return Num(t.value)
        if t.kind == "STR":
            self.next()
            return Str(t.value)
        if t.kind == "VAR":
            self.next()
            if t.text == "_":
                return Var("_", fresh_var_id())
            v = self.varmap.get(t.text)
            if v is None:
                v = Var(t.text, fresh_var_id())
                self.varmap[t.text] = v
            return v
        if t.kind in ("NAME", "QATOM"):
            self.next()
            name = t.value
            nxt = self.peek()
            if nxt.kind == "PUNCT" and nxt.text == "(":
                self.next()
                args = [self.parse_term(999)]
                while self.peek().kind == "PUNCT" and self.peek().text == ",":
                    self.next()
                    args.append(self.parse_term(999))
                self.expect("PUNCT", ")")
                return Struct(name, tuple(args))
            return Atom(name)
        self.fail(f"unexpected {t.text or t.kind!r}")

    def parse_paren(self) -> Term:
        self.expect("PUNCT", "(")
        t = self.peek()
        # the context marker (#) and the reduce markers (+) (*) (/)
        if (t.kind == "OP" and t.text in ("#", "+", "*", "/")
                and self.peek(1).kind == "PUNCT" and self.peek(1).text == ")"):
            self.next()
            self.next()
            return Atom(CURRENT_CONTEXT_NAME) if t.text == "#" else Atom(t.text)
        inner = self.parse_term(1200)
        self.expect("PUNCT", ")")
        return inner

    def parse_list(self) -> Term:
        self.expect("PUNCT", "[")
        if self.peek().kind == "PUNCT" and self.peek().text == "]":
            self.next()
            return Atom("[]")
        items = [self.parse_term(999)]
        while self.peek().kind == "PUNCT" and self.peek().text == ",":
            self.next()
            items.append(self.parse_term(999))
        tail: Term = Atom("[]")
        if self.peek().kind == "PUNCT" and self.peek().text == "|":
            self.next()
            tail = self.parse_term(999)
        self.expect("PUNCT", "]")
        return make_list(items, tail)


def parse_term_text(text: str) -> tuple[Term, dict[str, Var]]:
    """One term from `text`; trailing '.' optional. Returns (term, name->var)."""
    p = _Parser(tokenize(text))
    t = p.parse_term(1200)
    if p.peek().kind == "END":
        p.next()
    if p.peek().kind != "EOF":
        p.fail("trailing input after term")
    return t, p.varmap


def parse_clause_terms(text: str) -> list[Term]:
    """All clauses in `text` as raw terms (facts stay bare, rules are ':-'/2).

    Variable scope is per clause."""
    toks = tokenize(text)
    p = _Parser(toks)
    out: list[Term] = []
    while p.peek().kind != "EOF":
        p.varmap = {}
        t = p.parse_term(1200)
        p.expect("END")
        out.append(t)
    return out


# ---------------------------------------------------------------- printing

_BARE_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*$")


def _atom_text(name: str) -> str:
    if _BARE_ATOM.match(name) or name in ("[]", "!"):
        return name
    if name == CURRENT_CONTEXT_NAME:
        return "(#)"
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _str_text(value: str) -> str:
    escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r"))
    return f'"{escaped}"'


def int_printable(n: int) -> bool:
    """Whether `to_text` can write `n`: Python prints no integer of more than
    sys.get_int_max_str_digits() digits (0: no limit). The bit count screens
    it cheaply."""
    limit = sys.get_int_max_str_digits()
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10 ** limit


def to_text(t: Term, max_prec: int = 1200,
            names: dict[int, int] | None = None) -> str:
    """Canonical text; operators printed infix, lists in bracket sugar.

    An anonymous variable prints as `_G<id>`. Given `names`, it prints as
    `_G<n>` instead, where `n` numbers the anonymous variables by first
    occurrence; `names` maps their ids to those numbers."""
    if isinstance(t, Var):
        if t.name == "_" or t.name.startswith("_G"):
            if names is None:
                return f"_G{t.id}"
            return f"_G{names.setdefault(t.id, len(names))}"
        return t.name
    if isinstance(t, Atom):
        return _atom_text(t.name)
    if isinstance(t, Num):
        return repr(t.value)
    if isinstance(t, Str):
        return _str_text(t.value)
    assert isinstance(t, Struct)
    if t.functor == "." and len(t.args) == 2:
        items, tail = list_items(t)
        inner = ", ".join(to_text(x, 999, names) for x in items)
        if isinstance(tail, Atom) and tail.name == "[]":
            return f"[{inner}]"
        return f"[{inner}|{to_text(tail, 999, names)}]"
    if t.functor == "@" and len(t.args) == 1:
        prec, _ = PREFIX_OPS["@"]
        body = f"@{to_text(t.args[0], prec, names)}"
        return body if prec <= max_prec else f"({body})"
    if len(t.args) == 2 and t.functor in INFIX_OPS:
        prec, fixity = INFIX_OPS[t.functor]
        lp = prec if fixity == "yfx" else prec - 1
        rp = prec if fixity == "xfy" else prec - 1
        sep = ", " if t.functor == "," else f" {t.functor} "
        body = f"{to_text(t.args[0], lp, names)}{sep}{to_text(t.args[1], rp, names)}"
        return body if prec <= max_prec else f"({body})"
    args = ", ".join(to_text(a, 999, names) for a in t.args)
    return f"{_atom_text(t.functor)}({args})"
