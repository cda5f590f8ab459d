"""Differential tests of the anchor scanner.

`extract_links` must give the same (label, href) list as the standard
library's `html.parser` (kept in `html_reference`) on generated HTML, on
the fixture pages and on the benchmark's generated site."""

import random
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import base_pages
from html_reference import reference_links
from logicweb.pages import extract_links, extract_lw_code

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def _case(word):
    """The word in lower, upper or mixed case."""
    return st.sampled_from([word, word.upper(), word.capitalize(),
                            "".join(c.upper() if i % 2 else c
                                    for i, c in enumerate(word))])


REFS = st.sampled_from(["&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&copy",
                        "&notin;", "&AMP", "&amp", "&#65;", "&#x41;", "&#X3c;",
                        "&#0;", "&#xD800;", "&#99999999;", "&bogus;", "&#;",
                        "&", "&#", "&am", "&ampx"])
TEXT = st.text(st.sampled_from("ab Z9\n\t\xa0\x1c;#&=/'\">.-"), max_size=8)
WORDS = st.lists(st.one_of(TEXT, REFS), max_size=4).map("".join)
# what may stand in an attribute value; `<` and `>` among it
VALUE = st.lists(st.one_of(st.sampled_from(["x.html", "../up", "a b", "<a href=y>",
                                            "q?k=1#f", ">", "", "é"]), REFS),
                 max_size=3).map("".join)


@st.composite
def attribute(draw, names=("href", "name", "title", "id")):
    name = draw(st.sampled_from(names).flatmap(_case))
    value = draw(VALUE)
    form = draw(st.sampled_from(["double", "single", "bare", "none", "spaced"]))
    if form == "double":
        return f'{name}="{value.replace(chr(34), "")}"'
    if form == "single":
        return f"{name}='{value.replace(chr(39), '')}'"
    if form == "spaced":
        return f'{name} = "{value.replace(chr(34), "")}"'
    if form == "bare":
        return f"{name}={value.replace(' ', '').replace('>', '') or 'v'}"
    return name


@st.composite
def start_tag(draw, names):
    name = draw(st.sampled_from(names).flatmap(_case))
    attrs = draw(st.lists(attribute(), max_size=3))
    sep = draw(st.sampled_from([" ", "\n", "  ", "\t"]))
    end = draw(st.sampled_from([">", ">", " >", "/>", " />"]))
    return "<" + name + "".join(sep + a for a in attrs) + end


END_TAGS = st.sampled_from(["</a>", "</A>", "</a >", "</A\n>", "</a foo>", "</ a>",
                            "</ab>", "</b>", "</p>", "</>", "</ x <a href=z>", "</a\x00>",
                            "</A\tx>", "</a\x0b>", "</a\x0bx>"])
OTHER = st.sampled_from(["<!DOCTYPE html>", "<?xml version='1.0'?>", "<!x>",
                         "<br/>", "< a href=x>", "a < b", "x > y", "<3",
                         "<!-- c -->", "<!---->", "<!-- a > <a href=h>c</a> -->",
                         "<!-- -- >", "<!-- x --!>"])


@st.composite
def raw_element(draw):
    name = draw(st.sampled_from(["script", "style"]).flatmap(_case))
    # U+017F folds to `s` under re.IGNORECASE: html.parser stops at
    # `</\u017fcript>` while looking for the end tag, yet it ends nothing
    inner = draw(st.lists(st.one_of(WORDS, start_tag(("a",)), END_TAGS,
                                    st.sampled_from(["</scriptx>", "</\u017fcript>",
                                                     "</\u017ftyle>"])),
                          max_size=3))
    close = draw(st.sampled_from([f"</{name}>", f"</{name.upper()} >",
                                  f"</ {name}>", ""]))
    return f"<{name}>" + "".join(inner) + close


PIECE = st.one_of(WORDS, start_tag(("a",)), start_tag(("a", "b", "p", "abbr", "img")),
                  start_tag(("script", "style", "scripts")), END_TAGS, OTHER,
                  raw_element())
TAIL = st.sampled_from(["", "", "<!-- unclosed <a href=u>", "<a href='x",
                        "<a href=\"t\">tail", "</a", "<", "&am", "<script>"])
PAGES = st.builds(lambda pieces, tail: "".join(pieces) + tail,
                  st.lists(PIECE, max_size=12), TAIL)


@settings(max_examples=1000, deadline=None)
@given(PAGES)
@example('<a href="x">one<a name=n>two</a><a href=y/>three')
@example("<p title='<a href=hidden>'><A HREF=&quot;q&quot;>&amp;lt;</A>")
@example("<script><a href=s>x</a></script><a href=t>u")
@example("<a href=x>y</a\x00>z<a href=w>v</A\tq>u")
@example("<a href=x><SCRIPT/>y<style>a</\u017ftyle>b")
@example('<a href=""><script><style></\u017fcript></style>')
@example("<a href=x>a<!---->b<!-- c <a href=y>d</a>e<!-- f >g")
@example("<a href=x>t<script>s &amp; <a href=y>u")
@example("<a href=x>t<style>s</style>u &amp; <a href=y <b")
@example("<a href=x>t</b>u <a href='y>v</a>")
def test_extract_links_matches_html_parser(html):
    assert extract_links(html) == reference_links(html)


def test_extract_links_matches_html_parser_on_fixture_pages():
    for url, entry in base_pages().items():
        _, text = extract_lw_code(entry.body)
        assert extract_links(text) == reference_links(text), url


def test_extract_links_matches_html_parser_on_generated_site():
    site = workloads.generate_site(random.Random(1))
    assert len(site) == 60
    for url, page in site.items():
        _, text = extract_lw_code(page.html)
        links = extract_links(text)
        assert links and links == reference_links(text), url
