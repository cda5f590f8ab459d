"""Tokenizer, parser, and printer."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import printer_reference
from logicweb.syntax import (INFIX_OPS, ParseError, _tokens,
                             parse_clause_terms, parse_term_text, to_text)
from logicweb.terms import Atom, Num, Str, Struct, Var, make_list, variant


def parse(text):
    t, _ = parse_term_text(text)
    return t


def test_tokenize_skips_comments_and_whitespace():
    toks = _tokens("a % trailing words\n b")
    assert [kind for kind, _, _ in toks] == ["NAME", "NAME", "EOF"]


def test_tokenize_reports_position():
    with pytest.raises(ParseError) as err:
        parse_term_text("a\n  ^")
    assert err.value.line == 2
    assert err.value.column == 3


# (text, error through parse_term_text, error through parse_clause_terms);
# an error is (message, line, column), None where the text parses
MALFORMED = {
    "char_after_newline": ("p(a).\n  q(~).",
                           ("unexpected character '~'", 2, 5),
                           ("unexpected character '~'", 2, 5)),
    "tab_before_bad_char": ("p :-\n\tq, $.",
                            ("unexpected character '$'", 2, 5),
                            ("unexpected character '$'", 2, 5)),
    "non_ascii_char": ("p(é).",
                       ("unexpected character 'é'", 1, 3),
                       ("unexpected character 'é'", 1, 3)),
    "unclosed_paren": ("f(a",
                       ("expected ')', found 'EOF'", 1, 4),
                       ("expected ')', found 'EOF'", 1, 4)),
    "unclosed_bracket": ("p([a, b",
                         ("expected ']', found 'EOF'", 1, 8),
                         ("expected ']', found 'EOF'", 1, 8)),
    "bad_list_tail": ("[a|b, c]",
                      ("expected ']', found ','", 1, 5),
                      ("expected ']', found ','", 1, 5)),
    "string_where_paren_expected": ('f(a "s").',
                                    ("expected ')', found '\"s\"'", 1, 5),
                                    ("expected ')', found '\"s\"'", 1, 5)),
    "trailing_input": ("f(a) f(b)",
                       ("trailing input after term", 1, 6),
                       ("expected 'END', found 'f'", 1, 6)),
    "trailing_paren": ("f(a)).",
                       ("trailing input after term", 1, 5),
                       ("expected 'END', found ')'", 1, 5)),
    "missing_final_dot": ("p(a).\nq(b)",
                          ("trailing input after term", 2, 1),
                          ("expected 'END', found 'EOF'", 2, 5)),
    "dot_after_end": ("p.\n.q.",
                      ("trailing input after term", 2, 1),
                      ("unexpected '.'", 2, 1)),
    "float_out_of_range": ("X = 1e999.",
                           ("number out of range: 1e999", 1, 5),
                           ("number out of range: 1e999", 1, 5)),
    "integer_too_long": ("X = " + "7" * 5001 + ".",
                         ("integer too long to print", 1, 5),
                         ("integer too long to print", 1, 5)),
    "unterminated_quote": ("p('abc).",
                           ("unexpected character \"'\"", 1, 3),
                           ("unexpected character \"'\"", 1, 3)),
    "unterminated_quote_after_escape": ("p('it\\'s).",
                                        ("unexpected character \"'\"", 1, 3),
                                        ("unexpected character \"'\"", 1, 3)),
    "unterminated_string": ('p("abc).',
                            ("unexpected character '\"'", 1, 3),
                            ("unexpected character '\"'", 1, 3)),
    "string_escaped_newline": ('p("a\\\nb").',
                               ("unexpected character '\"'", 1, 3),
                               ("unexpected character '\"'", 1, 3)),
    "at_priority": ("a <> @b.",
                    ("operator priority clash for '@'", 1, 6),
                    ("operator priority clash for '@'", 1, 6)),
    "bad_context_marker": ("(# x) #> g.",
                           ("unexpected operator '#'", 1, 2),
                           ("unexpected operator '#'", 1, 2)),
    "unclosed_context_marker": ("(#",
                                ("unexpected operator '#'", 1, 2),
                                ("unexpected operator '#'", 1, 2)),
    "prefix_minus_atom": ("X = - a.",
                          ("unexpected operator '-'", 1, 5),
                          ("unexpected operator '-'", 1, 5)),
    "empty_argument": ("f(a,).",
                       ("unexpected ')'", 1, 5),
                       ("unexpected ')'", 1, 5)),
    "missing_operand": ("p :- .",
                        ("unexpected '.'", 1, 6),
                        ("unexpected '.'", 1, 6)),
    "only_a_comment": ("% nothing here\n", ("unexpected 'EOF'", 2, 1), None),
    "empty": ("", ("unexpected 'EOF'", 1, 1), None),
}


@pytest.mark.parametrize("entry", [parse_term_text, parse_clause_terms],
                         ids=["term", "clauses"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_text_error_message_and_position(case, entry):
    text, term_error, clauses_error = MALFORMED[case]
    expected = term_error if entry is parse_term_text else clauses_error
    if expected is None:
        entry(text)
        return
    with pytest.raises(ParseError) as err:
        entry(text)
    message, line, column = expected
    assert str(err.value) == f"{message} at line {line}, column {column}"
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_atom_and_struct():
    assert parse("foo") == Atom("foo")
    t = parse("foo(bar, 3)")
    assert t == Struct("foo", (Atom("bar"), Num(3)))


def test_parse_quoted_atom():
    assert parse("'hello world'") == Atom("hello world")
    assert parse("'/tmp/x.txt'") == Atom("/tmp/x.txt")


def test_parse_strings_with_escapes():
    assert parse(r'"a\nb"') == Str("a\nb")
    assert parse(r'"say \"hi\""') == Str('say "hi"')


def test_parse_numbers():
    assert parse("42") == Num(42)
    assert parse("-7") == Num(-7)
    assert parse("3.5") == Num(3.5)
    assert parse("1.5e-07") == Num(1.5e-07)
    assert parse("1e+16") == Num(1e16)
    with pytest.raises(ParseError):
        parse("1e999")


def test_variables_share_within_one_term():
    t, varmap = parse_term_text("f(X, X, Y)")
    assert t.args[0] == t.args[1]
    assert t.args[0] != t.args[2]
    assert set(varmap) == {"X", "Y"}


def test_underscore_vars_are_all_distinct():
    t, varmap = parse_term_text("f(_, _)")
    assert t.args[0] != t.args[1]
    assert varmap == {}


def test_operator_precedence():
    t = parse("a :- b, c")
    assert t.functor == ":-"
    body = t.args[1]
    assert body == Struct(",", (Atom("b"), Atom("c")))

    t = parse("1 + 2 * 3")
    assert t == Struct("+", (Num(1), Struct("*", (Num(2), Num(3)))))

    # left associativity of '-'
    t = parse("1 - 2 - 3")
    assert t == Struct("-", (Struct("-", (Num(1), Num(2))), Num(3)))


def test_context_switch_operator():
    t = parse('lw(get, "http://x/") #> goal(X)')
    assert t.functor == "#>"
    assert t.args[0].functor == "lw"


def test_switch_binds_tighter_than_comma():
    t = parse("p #> q, r")
    assert t.functor == ","
    assert t.args[0] == Struct("#>", (Atom("p"), Atom("q")))


def test_current_context_marker():
    t = parse("(#)")
    assert t == Atom("(#)")
    t = parse("(lw(get, \"u\") + (#)) #> g")
    plus = t.args[0]
    assert plus.args[1] == Atom("(#)")


def test_reduce_markers():
    t = parse('(+)<>[a, b]')
    assert t.functor == "<>"
    assert t.args[0] == Atom("+")
    t = parse('(/)<>(e, [i])')
    assert t.args[0] == Atom("/")


def test_encapsulation_prefix():
    t = parse("@p")
    assert t == Struct("@", (Atom("p"),))
    t = parse("@p * @q")
    assert t.functor == "*"


def test_lists():
    t = parse("[a, B, 3]")
    items = []
    while isinstance(t, Struct):
        items.append(t.args[0])
        t = t.args[1]
    assert t == Atom("[]")
    assert len(items) == 3

    t = parse("[H|T]")
    assert isinstance(t.args[0], Var)
    assert isinstance(t.args[1], Var)


def test_parse_clause_terms_scopes_variables_per_clause():
    terms = parse_clause_terms("p(X).\nq(X).")
    assert terms[0].args[0] != terms[1].args[0]


def test_parse_clause_terms_requires_end_dot():
    with pytest.raises(ParseError):
        parse_clause_terms("p(a)")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_term_text("f(a) f(b)")


def test_unclosed_paren_rejected():
    with pytest.raises(ParseError):
        parse_term_text("f(a")


def test_cut_is_an_atom():
    t = parse("a :- !, b")
    body = t.args[1]
    assert body.args[0] == Atom("!")


def test_print_quotes_when_needed():
    assert to_text(Atom("foo")) == "foo"
    assert to_text(Atom("hello world")) == "'hello world'"
    assert to_text(Atom("[]")) == "[]"
    assert to_text(Str('a"b')) == '"a\\"b"'


def test_print_lists_in_sugar():
    t = parse("[a, b|T]")
    assert to_text(t).startswith("[a, b|")


def test_print_parenthesizes_by_precedence():
    t = parse("(1 + 2) * 3")
    assert to_text(t) == "(1 + 2) * 3"
    t = parse("1 + 2 * 3")
    assert to_text(t) == "1 + 2 * 3"


# ---------------------------------------------------------------- round trip

# characters the reader treats specially inside or around a name or string
_AWKWARD = "ab_ '\"\\\n\t%.,|()[]"
_NAMES = st.one_of(
    st.sampled_from(["a", "b", "foo", "hello world", "x_1", "-", "+", "(#)",
                     "[]", "!", "is", "b\n"]),
    st.text(alphabet=_AWKWARD, max_size=5),
)
_FUNCTORS = st.one_of(
    st.sampled_from(["f", "g", "lw", "some_pred", "@", "!", "[]", "(#)",
                     *INFIX_OPS]),
    _NAMES,
)
_SIMPLE = st.one_of(
    _NAMES.map(Atom),
    st.integers(min_value=-99, max_value=99).map(Num),
    st.floats(allow_nan=False, allow_infinity=False).map(Num),
    st.text(alphabet=_AWKWARD, max_size=6).map(Str),
    st.sampled_from(["X", "Y", "Zed"]).map(lambda n: Var(n, -ord(n[0]))),
)


def _trees(depth=2):
    if depth == 0:
        return _SIMPLE
    return st.one_of(
        _SIMPLE,
        st.tuples(_FUNCTORS, st.lists(_trees(depth - 1), min_size=1, max_size=3))
        .map(lambda fa: Struct(fa[0], tuple(fa[1]))),
    )


@given(_trees())
@settings(max_examples=300)
# functors the printer once wrote bare, so that the text did not read back
@example(Struct("!", (Atom("x"),)))
@example(Struct("[]", (Atom("x"),)))
@example(Struct("(#)", (Atom("x"),)))
# a name with a trailing newline is no bare name
@example(Struct("r", (Atom("b\n"),)))
def test_print_parse_round_trip(t):
    """Printing then reparsing produces the same term up to variable ids."""
    text = to_text(t)
    back, _ = parse_term_text(text)
    assert variant(t, back), f"{text!r} reparsed as {to_text(back)!r}"


# ---------------------------------------------------------------- the printer's stack

_ANONYMOUS = st.sampled_from([Var("_", -1), Var("_", -2), Var("_G", -3),
                              Var("_G7", -4), Var("_Gx", -3)])


def _printable(depth=3):
    leaves = st.one_of(_SIMPLE, _ANONYMOUS)
    if depth == 0:
        return leaves
    sub = _printable(depth - 1)
    # operators of one priority and each fixity, often nested in each other
    binary = st.sampled_from(["-", "+", "*", ",", ";", "->", ":", "=", "<>", "."])
    return st.one_of(
        leaves,
        st.tuples(st.one_of(_FUNCTORS, st.just(".")), st.lists(sub, min_size=1, max_size=3))
        .map(lambda fa: Struct(fa[0], tuple(fa[1]))),
        st.tuples(binary, sub, sub).map(lambda fab: Struct(fab[0], fab[1:])),
        sub.map(lambda a: Struct("@", (a,))),
        st.tuples(st.lists(sub, min_size=1, max_size=3), st.one_of(sub, st.just(Atom("[]"))))
        .map(lambda it: make_list(*it)),
    )


@given(_printable(), st.sampled_from([0, 199, 200, 699, 999, 1200]), st.booleans())
@settings(max_examples=400)
@example(Struct("-", (Num(1), Struct("-", (Num(2), Num(3))))), 1200, False)
@example(Struct("-", (Struct("-", (Num(1), Num(2))), Num(3))), 1200, False)
@example(Struct("@", (Struct("@", (Atom("a"),)),)), 199, False)
@example(Struct(".", (Var("_", -1), Var("_G", -2))), 1200, True)
def test_printer_agrees_with_the_recursive_reference(t, max_prec, numbered):
    names = {} if numbered else None
    ref_names = {} if numbered else None
    assert (to_text(t, max_prec, names)
            == printer_reference.to_text(t, max_prec, ref_names))
    assert names == ref_names


def test_the_printer_takes_10k_deep_terms():
    n = 10_000
    nested, left, right = Atom("a"), Num(1), Num(1)
    for _ in range(n):
        nested = Struct("f", (nested,))
        left = Struct("-", (left, Num(1)))
        right = Struct("-", (Num(1), right))
    assert to_text(nested) == "f(" * n + "a" + ")" * n
    assert to_text(left) == " - ".join(["1"] * (n + 1))
    assert to_text(right) == "1 - (" * (n - 1) + "1 - 1" + ")" * (n - 1)
    lists = Atom("[]")
    for _ in range(n):
        lists = make_list([lists])
    assert to_text(lists) == "[" * n + "[]" + "]" * n


def _nested(shape: str, n: int) -> str:
    if shape == "compound":
        return "p(" + "f(" * n + "a" + ")" * n + ")."
    if shape == "list":
        return "p(" + "[" * n + "a" + "]" * n + ")."
    return "p :- " + ", ".join(["q"] * n) + "."


# (depth that reads, depth that is too deep), as the ROADMAP baseline
# records them for a reader called at the top of the stack
NESTING = {"compound": (450, 500), "list": (450, 500), "conjunction": (900, 1000)}


@pytest.mark.parametrize("entry", [parse_term_text, parse_clause_terms],
                         ids=["term", "clauses"])
@pytest.mark.parametrize("shape", sorted(NESTING))
def test_the_reader_nests_as_deep_as_the_baseline_records(shape, entry):
    reads, too_deep = NESTING[shape]
    entry(_nested(shape, reads))
    with pytest.raises(ParseError, match="^term nested too deeply at line 1, "):
        entry(_nested(shape, too_deep))
