"""Extraction of embedded code and links, page-to-program translation."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicweb.model import ProgramId, clause_text
from logicweb.pages import (HttpResponse, LWCodeError, _strip_wrappers,
                            extract_links, extract_lw_code, translate_page)
from logicweb.syntax import to_text


def test_extract_single_block():
    html = "before <LW_CODE> f(a). </LW_CODE> after"
    code, page = extract_lw_code(html)
    assert code == "f(a)."
    assert page == "before  after"


def test_extract_is_case_insensitive_and_tolerates_spacing():
    html = "< lw_code >f(a).< / lw_code >"
    code, _ = extract_lw_code(html)
    assert code == "f(a)."


def test_extract_strips_comment_wrapper():
    html = "<LW_CODE>\n<!--\nf(a).\ng(b).\n-->\n</LW_CODE>"
    code, _ = extract_lw_code(html)
    assert code == "f(a).\ng(b)."


def test_extract_strips_pre_wrapper_inside_comment():
    html = "<LW_CODE><!-- <PRE> f(a). </PRE> --></LW_CODE>"
    code, _ = extract_lw_code(html)
    assert code == "f(a)."


def test_extract_multiple_blocks_join():
    html = "<LW_CODE>f(a).</LW_CODE> mid <LW_CODE>g(b).</LW_CODE>"
    code, page = extract_lw_code(html)
    assert code == "f(a).\ng(b)."
    assert page == " mid "


def test_unbalanced_tags_rejected():
    with pytest.raises(LWCodeError):
        extract_lw_code("<LW_CODE>f(a).")
    with pytest.raises(LWCodeError):
        extract_lw_code("f(a).</LW_CODE>")
    with pytest.raises(LWCodeError):
        extract_lw_code("</LW_CODE>x<LW_CODE>")


# the tag search as it was: the pattern tried at every position of the page
_REFERENCE_TAG_RE = re.compile(r"<\s*(/?)\s*lw_code\s*>", re.IGNORECASE)


def reference_lw_code(html: str) -> tuple[str, str]:
    pieces: list[str] = []
    stripped: list[str] = []
    pos, opened = 0, None
    for m in _REFERENCE_TAG_RE.finditer(html):
        if opened is None and m[1]:
            raise LWCodeError("unmatched closing LW_CODE tag", m.start())
        if opened is None:
            opened = m
        elif m[1]:
            stripped.append(html[pos:opened.start()])
            pieces.append(_strip_wrappers(html[opened.end():m.start()]))
            pos, opened = m.end(), None
    if opened is not None:
        raise LWCodeError("unclosed LW_CODE tag", opened.start())
    stripped.append(html[pos:])
    return "\n".join(pieces), "".join(stripped)


def _tag_outcome(extract, html):
    try:
        return extract(html)
    except LWCodeError as exc:
        return str(exc), exc.offset


SPACE = st.sampled_from(["", " ", "\n", "\t ", "\x0b", "\u3000"])
NAME = st.sampled_from(["lw_code", "LW_CODE", "Lw_Code", "lW_cOdE"])
OPEN = st.builds("<{}{}{}>".format, SPACE, NAME, SPACE)
CLOSE = st.builds("<{}/{}{}{}>".format, SPACE, SPACE, NAME, SPACE)
# tags with attributes or misspelt, underscores everywhere, stray brackets,
# wrappers and code
NOISE = st.lists(st.sampled_from([
    "<LW_CODE x=1>", "</lw_code x>", "<lw_code/>", "< lw_code", "lw_code>",
    "<lw code>", "<lw__code>", "<lw_codex>", "</ /lw_code>", "<_", "_", "__",
    "<", ">", "/", "<!--", "-->", "<pre>", "</PRE>", "f(a).", "text", "\n",
    " ", "<a href='x_y.html'>x</a>"]), max_size=4).map("".join)
# mostly balanced blocks, with now and then a stray tag of either kind
PAGES = st.lists(st.one_of(st.builds("{}{}{}".format, OPEN, NOISE, CLOSE),
                           NOISE, OPEN, CLOSE), max_size=6).map("".join)


@settings(max_examples=400, deadline=None)
@given(PAGES)
@example("<LW_CODE>f(a).</LW_CODE> mid <LW_CODE>g(b).</LW_CODE>")
@example("< Lw_Code\t>f(a).<\n/\tLW_CODE >_<_")
@example("<LW_CODE>f(a).<LW_CODE>g(b).</LW_CODE></LW_CODE>")
@example("_<lw_code>x</lw_code x></lw_code>")
def test_the_tag_search_finds_what_the_pattern_finds_at_every_position(html):
    assert _tag_outcome(extract_lw_code, html) == _tag_outcome(reference_lw_code, html)


def test_extract_links_order_and_label_cleanup():
    html = ('<a href="http://a/">One\n  <b>bold</b> </a>'
            '<a name="x">no href</a>'
            '<a href="rel.html">Two</a>')
    assert extract_links(html) == [("One bold", "http://a/"), ("Two", "rel.html")]


def test_extract_links_unclosed_final_anchor():
    assert extract_links('<a href="http://a/">dangling') == [("dangling", "http://a/")]


PAGE = "http://site.example/page"


def _resp(body, url=PAGE, final=None, headers=None):
    return HttpResponse(requested_url=url, final_url=final or url,
                        headers=headers or [], body=body)


def test_translate_page_fact_order():
    body = ('<html><a href="other.html">Other</a>'
            "<LW_CODE><!-- f(a). --></LW_CODE></html>")
    prog = translate_page(_resp(body, headers=[("Content-Type", "text/html")]),
                          ProgramId.get(PAGE))
    texts = [clause_text(c) for c in prog.clauses]
    assert texts[0] == 'about("content-type", "text/html").'
    assert texts[1] == 'actual_url("http://site.example/page").'
    assert texts[2] == 'my_id(get, "http://site.example/page").'
    assert texts[3].startswith("h_text(")
    assert texts[4] == 'link("Other", "http://site.example/other.html").'
    assert texts[5] == "f(a)."


def test_h_text_excludes_code_blocks():
    prog = translate_page(_resp("visible<LW_CODE>f(a).</LW_CODE>"),
                          ProgramId.get(PAGE))
    h_text = next(c for c in prog.clauses if c.head.functor == "h_text")
    assert "visible" in h_text.head.args[0].value
    assert "f(a)" not in h_text.head.args[0].value


def test_links_resolve_against_final_url():
    body = '<a href="doc.html">Doc</a>'
    prog = translate_page(_resp(body, url="http://old.example/x",
                                final="http://new.example/dir/y"),
                          ProgramId.get("http://old.example/x"))
    link = next(c for c in prog.clauses if c.head.functor == "link")
    assert to_text(link.head.args[1]) == '"http://new.example/dir/doc.html"'


def test_post_translation_id():
    prog = translate_page(_resp("<LW_CODE>f(a).</LW_CODE>"),
                          ProgramId.post(PAGE, [("q", "1")]))
    assert prog.id.method == "post"
    assert prog.id.post_fields == (("q", "1"),)
    my_id = next(c for c in prog.clauses if c.head.functor == "my_id")
    assert to_text(my_id.head.args[0]) == 'post([field("q", "1")])'


def test_bad_embedded_clauses_are_dropped(caplog):
    body = "<LW_CODE>f(a. broken</LW_CODE>"
    with caplog.at_level("WARNING"):
        prog = translate_page(_resp(body), ProgramId.get(PAGE))
    names = {c.head.functor for c in prog.clauses}
    assert "f" not in names
    assert "h_text" in names
    assert any("dropping embedded clauses" in r.message for r in caplog.records)


def test_head_translation_is_header_facts_only():
    prog = translate_page(_resp("<LW_CODE>f(a).</LW_CODE>",
                                headers=[("Server", "demo")]),
                          ProgramId.head(PAGE))
    texts = [clause_text(c) for c in prog.clauses]
    assert texts == ['about("server", "demo").',
                     'actual_url("http://site.example/page").']
    assert prog.id.method == "head"


def test_malformed_href_drops_only_its_link(caplog):
    body = ("<a href='http://[::1'>bad</a><a href=\"ok.html\">Ok</a>"
            "<LW_CODE>f(a).</LW_CODE>")
    with caplog.at_level("WARNING"):
        prog = translate_page(_resp(body), ProgramId.get(PAGE))
    texts = [clause_text(c) for c in prog.clauses]
    assert [t for t in texts if t.startswith("link(")] == [
        'link("Ok", "http://site.example/ok.html").']
    assert texts[-1] == "f(a)."
    assert any("dropping link 'http://[::1'" in r.message for r in caplog.records)
