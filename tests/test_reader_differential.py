"""Differential tests of the reader.

`parse_clause_terms`, `parse_term_text` and `parse_goal` must read every
text as the `finditer`/`Token` reader kept in `reader_reference` does: the
same terms up to variable ids, the same variable-map names, and the same
error message, line and column; `_tokens` must give the reference's tokens
as (kind, text, value). Inputs are token soup, generated clause texts, the
benchmark's generated site and the fixture pages."""

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reader_reference
from conftest import base_pages
from logicweb.model import ExpressionError, parse_goal
from logicweb.pages import extract_lw_code
from logicweb.syntax import (INFIX_OPS, ParseError, _tokens,
                             parse_clause_terms, parse_term_text)
from logicweb.terms import Struct, Var

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

ENTRIES = {
    "clauses": (parse_clause_terms, reader_reference.parse_clause_terms),
    "term": (parse_term_text, reader_reference.parse_term_text),
    "goal": (parse_goal, reader_reference.parse_goal),
    "tokens": (_tokens, lambda text: [(t.kind, t.text, t.value)
                                      for t in reader_reference.tokenize(text)]),
}


def _same_terms(a, b, ids: dict, back: dict) -> bool:
    """Whether `a` and `b` are one term up to variable ids: variables of
    one name, paired one to one through `ids` and `back`."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b):
            return False
        if type(a) is Var:
            if (a.name != b.name or ids.setdefault(a.id, b.id) != b.id
                    or back.setdefault(b.id, a.id) != a.id):
                return False
        elif type(a) is Struct:
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            todo += zip(a.args, b.args)
        elif a != b:        # atoms, strings and numbers, 1 and 1.0 apart
            return False
    return True


def _outcome(read, text):
    try:
        return "read", read(text)
    except (ParseError, ExpressionError) as exc:
        # a message may print an anonymous variable, named by its fresh id
        return type(exc).__name__, re.sub(r"_G\d+", "_G", str(exc)), \
            getattr(exc, "line", None), getattr(exc, "column", None)


def assert_reads_alike(entry: str, text: str) -> None:
    ours, reference = (_outcome(read, text) for read in ENTRIES[entry])
    if ours[0] != "read" or reference[0] != "read":
        assert ours == reference
        return
    got, want = ours[1], reference[1]
    if entry == "tokens":
        assert got == want
        return
    ids, back = {}, {}
    if entry == "clauses":
        assert len(got) == len(want)
        assert all(_same_terms(g, w, ids, back) for g, w in zip(got, want))
        return
    (term, varmap), (ref_term, ref_varmap) = got, want
    assert _same_terms(term, ref_term, ids, back)
    assert list(varmap) == list(ref_varmap)
    assert all(_same_terms(varmap[n], ref_varmap[n], ids, back) for n in varmap)


# pieces that concatenate into texts the reader takes or refuses: Unicode
# digits and spaces, NUL, lone quotes and backslashes, unterminated quotes,
# a 5000-digit integer, an out-of-range float and comments
PIECES = st.sampled_from([
    "p", "foo", "is", "X", "_", "_G1", "Abc", "'a b'", "'it\\'s'", "''",
    '"s"', '"a\\nb"', '""', "0", "42", "1.5", "2.0e3", "1e400", "7" * 5000,
    "\u0661\u0662", "\u0663.\u0665", "\uff17", "(", ")", "[", "]", ",", "|",
    ".", ":-", ";", "->", "#>", "<>", "@", "#", "(#)", "!", "+", "-", "*",
    "/", "=", "\\=", "==", "\\==", "=<", ">=", "<", ">", ":", "=:=", "=\\=",
    " ", "\n", "\t", "\r\n", "\u3000", "\u2028", "\x85", "\x00", "\\", '"',
    "'", "'abc", '"abc', "é", "~", "$", "% comment", "%",
])
SOUP = st.lists(PIECES, max_size=25).map("".join)

LEAVES = st.sampled_from(["a", "'q r'", "X", "Y", "_", "0", "3.25", '"s"',
                          "[]", "(#)", "(+)", "!", "-1", "is"])
OPERATORS = st.sampled_from(sorted(INFIX_OPS))


def _compound(children):
    return st.one_of(
        st.tuples(st.sampled_from(["f", "g", "'h i'"]),
                  st.lists(children, min_size=1, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"),
        st.lists(children, max_size=3).map(lambda xs: f"[{', '.join(xs)}]"),
        st.tuples(children, children).map(lambda t: f"[{t[0]}|{t[1]}]"),
        st.tuples(children, OPERATORS, children).map(" ".join),
        children.map(lambda x: f"({x})"),
        children.map(lambda x: f"@{x}"),
    )


TERMS = st.recursive(LEAVES, _compound, max_leaves=12)
CLAUSES = st.lists(TERMS, max_size=4).map(lambda ts: "".join(t + ".\n" for t in ts))
TEXTS = st.one_of(SOUP, CLAUSES, st.tuples(CLAUSES, SOUP, CLAUSES).map("".join))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=250, deadline=None)
@given(text=TEXTS)
@example(text="p(a). % a comment with no newline")
@example(text="X % a comment with no newline")
@example(text="p('abc).")
@example(text='p("abc).')
@example(text="p(\\).")
@example(text="p(\x00).")
@example(text="X = " + "7" * 5000 + ".")
@example(text="X = 1e400.")
@example(text="X = \u0661\u0662.\u0663.")
@example(text="p(a).\u3000q(b).\u2028")
@example(text="@[a|_] #> a.\n")
def test_the_reader_reads_as_the_reference_does(entry, text):
    assert_reads_alike(entry, text)


def _page_codes():
    site = workloads.generate_site(random.Random(1))
    codes = [extract_lw_code(page.html)[0] for page in site.values()]
    return codes + [extract_lw_code(entry.body)[0] for entry in base_pages().values()]


def test_the_reader_reads_every_generated_and_fixture_page_as_the_reference():
    codes = _page_codes()
    assert len(codes) > 60 and all(codes[:60])
    for code in codes:
        assert_reads_alike("clauses", code)
