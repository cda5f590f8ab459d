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
from pathlib import Path
from typing import NamedTuple

from .terms import (Atom, Num, Str, Struct, Term, Var, fresh_var_id,
                    list_items, make_list)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """A ParseError naming the line and column of offset `pos` in `text`."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a local file; a decode error names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        exc.reason += f" in {path}"
        raise


# ---------------------------------------------------------------- tokens

class Token(NamedTuple):
    kind: str          # NAME QATOM VAR NUM STR PUNCT OP END EOF
    text: str          # as written: a string or quoted atom keeps its quotes
    pos: int           # offset of its first character in the text
    value: object = None


_SYMBOLIC_OPS = [
    ":-", "\\==", "=\\=", "\\=", "==", "=<", ">=", "=:=", "->", "#>",
    "<>", "=", "<", ">", "+", "-", "*", "/", "@", ";", ":", "!", "#",
]

# whitespace and comments match no named group, and BAD any character that
# nothing else takes; a '.' between digits belongs to the number, so an END
# token always ends a clause
_TOKEN_RE = re.compile(
    r"""
      \s+
    | %[^\n]*
    | (?P<NUM>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<NAME>[a-z][A-Za-z0-9_]*)
    | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
    | (?P<STR>"(?:\\.|[^"\\])*")
    | (?P<QATOM>'(?:\\.|[^'\\])*')
    | (?P<OP>""" + "|".join(re.escape(o) for o in sorted(_SYMBOLIC_OPS, key=len, reverse=True)) + r""")
    | (?P<PUNCT>[()\[\],|])
    | (?P<END>\.)
    | (?P<BAD>.)
    """,
    re.VERBOSE,
)

# a backslash stands for the character after it, but for these three
_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def _unescape(m: re.Match) -> str:
    return _ESCAPES.get(m[1], m[1])


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok, pos = m.group(), m.start()
        value: object = tok
        if kind == "NUM":
            try:
                value = int(tok) if tok.isdigit() else float(tok)
            except ValueError:   # int() refuses what the printer could not write
                raise _error_at(text, pos, "integer too long to print") from None
            if value == math.inf:   # float() reads a too-large literal as inf
                raise _error_at(text, pos, f"number out of range: {tok}")
        elif kind == "STR" or kind == "QATOM":
            value = _ESCAPE_RE.sub(_unescape, tok[1:-1])
        elif kind == "BAD":
            raise _error_at(text, pos, f"unexpected character {tok!r}")
        tokens.append(Token(kind, tok, pos, value))
    tokens.append(Token("EOF", "", len(text)))
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
    """Recursive descent over the tokens of one text. Tokens are told apart
    by their text: only a bare operator, `,` or `is` has the text of an
    INFIX_OPS key, and only punctuation has the text of punctuation."""

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.varmap: dict[str, Var] = {}

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def error(self, message: str, t: Token | None = None) -> ParseError:
        """A ParseError located at `t`, by default the next token."""
        return _error_at(self.text, (t or self.peek()).pos, message)

    def expect(self, text: str, want: str | None = None) -> None:
        t = self.next()
        if t.text != text:
            raise self.error(f"expected {want or text!r}, found {t.text or t.kind!r}", t)

    def parse_term(self, max_prec: int) -> Term:
        left = self.parse_primary(max_prec)
        while True:
            name = self.toks[self.i].text
            op = INFIX_OPS.get(name)
            if op is None or op[0] > max_prec:
                return left
            self.i += 1
            prec, fixity = op
            right = self.parse_term(prec if fixity == "xfy" else prec - 1)
            left = Struct(name, (left, right))

    def parse_primary(self, max_prec: int) -> Term:
        t = self.next()
        kind, text = t.kind, t.text
        if kind == "VAR":
            if text == "_":
                return Var("_", fresh_var_id())
            v = self.varmap.get(text)
            if v is None:
                v = self.varmap[text] = Var(text, fresh_var_id())
            return v
        if kind == "NUM":
            return Num(t.value)
        if kind == "STR":
            return Str(t.value)
        if text == "(":
            # the context marker (#) and the reduce markers (+) (*) (/)
            marker = self.peek().text
            if marker in ("#", "+", "*", "/") and self.toks[self.i + 1].text == ")":
                self.i += 2
                return Atom(CURRENT_CONTEXT_NAME if marker == "#" else marker)
            inner = self.parse_term(1200)
            self.expect(")")
            return inner
        if text == "@":
            prec, _ = PREFIX_OPS["@"]
            if prec > max_prec:
                raise self.error("operator priority clash for '@'", t)
            return Struct("@", (self.parse_term(prec),))
        if text == "-" and self.peek().kind == "NUM":
            return Num(-self.next().value)
        if text == "!":
            return Atom("!")
        if text == "[":
            if self.peek().text == "]":
                self.i += 1
                return Atom("[]")
        elif kind == "OP":
            raise self.error(f"unexpected operator {text!r}", t)
        elif kind != "NAME" and kind != "QATOM":
            raise self.error(f"unexpected {text or kind!r}", t)
        elif self.peek().text == "(":
            self.i += 1
        else:
            return Atom(t.value)
        # the items of a list or the arguments of a compound, in this frame
        # so that each level of nesting costs as few Python frames as it can
        items = [self.parse_term(999)]
        while self.toks[self.i].text == ",":
            self.i += 1
            items.append(self.parse_term(999))
        if text != "[":
            self.expect(")")
            return Struct(t.value, tuple(items))
        tail: Term = Atom("[]")
        if self.peek().text == "|":
            self.i += 1
            tail = self.parse_term(999)
        self.expect("]")
        return make_list(items, tail)


def parse_term_text(text: str) -> tuple[Term, dict[str, Var]]:
    """One term from `text`; trailing '.' optional. Returns (term, name->var)."""
    p = _Parser(text)
    try:
        t = p.parse_term(1200)
    except RecursionError:   # deeper than the Python stack allows
        raise p.error("term nested too deeply") from None
    if p.peek().kind == "END":
        p.next()
    if p.peek().kind != "EOF":
        raise p.error("trailing input after term")
    return t, p.varmap


def parse_clause_terms(text: str) -> list[Term]:
    """All clauses in `text` as raw terms (facts stay bare, rules are ':-'/2).

    Variable scope is per clause."""
    p = _Parser(text)
    out: list[Term] = []
    try:
        while p.peek().kind != "EOF":
            p.varmap = {}
            out.append(p.parse_term(1200))
            p.expect(".", "END")
    except RecursionError:
        raise p.error("term nested too deeply") from None
    return out


# ---------------------------------------------------------------- printing

_BARE_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*")


def _name_text(name: str) -> str:
    """`name` as a functor: bare when it reads back as a name, else quoted."""
    if _BARE_ATOM.fullmatch(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _atom_text(name: str) -> str:
    return name if name in ("[]", "!", CURRENT_CONTEXT_NAME) else _name_text(name)


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
    """Canonical text at any depth; operators infix, lists in bracket sugar.

    An anonymous variable prints as `_G<id>`. Given `names`, it prints as
    `_G<n>` instead, where `n` numbers the anonymous variables by first
    occurrence; `names` maps their ids to those numbers."""
    out: list[str] = []
    todo: list = [(t, max_prec)]    # text, or (term, priority), last first
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, max_prec = item
        kind = type(t)
        if kind is Var:
            name = t.name
            if name == "_" or name.startswith("_G"):
                name = f"_G{t.id if names is None else names.setdefault(t.id, len(names))}"
            out.append(name)
        elif kind is Atom:
            out.append(_atom_text(t.name))
        elif kind is Num:
            out.append(repr(t.value))
        elif kind is Str:
            out.append(_str_text(t.value))
        else:
            todo += reversed(_pieces(t, max_prec))
    return "".join(out)


def _pieces(t: Struct, max_prec: int) -> list:
    """What the compound `t` prints as under `max_prec`, in order: text,
    and a (term, priority) pair for each subterm."""
    functor, args = t.functor, t.args
    if functor == "." and len(args) == 2:
        items, tail = list_items(t)
        end = (("]",) if type(tail) is Atom and tail.name == "[]"
               else ("|", (tail, 999), "]"))
        return ["[", *_listed(items), *end]
    if functor == "@" and len(args) == 1:
        prec = PREFIX_OPS["@"][0]
        pieces = ["@", (args[0], prec)]
    elif len(args) == 2 and functor in INFIX_OPS:
        prec, fixity = INFIX_OPS[functor]
        sep = ", " if functor == "," else f" {functor} "
        pieces = [(args[0], prec if fixity == "yfx" else prec - 1), sep,
                  (args[1], prec if fixity == "xfy" else prec - 1)]
    else:
        return [_name_text(functor) + "(", *_listed(args), ")"]
    return pieces if prec <= max_prec else ["(", *pieces, ")"]


def _listed(terms) -> list:
    """Each term at priority 999, with `, ` between them."""
    pieces = [", "] * (2 * len(terms) - 1)
    pieces[::2] = [(x, 999) for x in terms]
    return pieces
