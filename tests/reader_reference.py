"""The reader as it was before it read a text with one `findall`: a
`finditer` tokenizer building a `Token` per token, and a parser that reads
them through `peek` and `next`. `logicweb.syntax` must read every text as
this does (test_reader_differential.py)."""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from logicweb.model import check_body
from logicweb.syntax import (CURRENT_CONTEXT_NAME, INFIX_OPS, PREFIX_OPS,
                             ParseError)
from logicweb.terms import (Atom, Num, Str, Struct, Term, Var, fresh_var_id,
                            make_list)


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """A ParseError naming the line and column of offset `pos` in `text`."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


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


def parse_goal(text: str) -> tuple[Term, dict[str, Var]]:
    t, varmap = parse_term_text(text)
    check_body(t)
    return t, varmap
