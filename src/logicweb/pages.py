"""Turning fetched web pages into logic programs.

A GET/POST response becomes a program holding five kinds of facts (headers,
final URL, own identifier, the page text, and one `link/2` per anchor) plus
whatever clauses the author embedded between <LW_CODE> and </LW_CODE>.
A HEAD response yields only the header facts and the final URL.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from functools import partial
from html import unescape
from urllib.parse import urljoin

from .model import Clause, LWProgram, ProgramId, parse_program
from .terms import Str, Struct

log = logging.getLogger(__name__)


@dataclass
class HttpResponse:
    requested_url: str
    final_url: str
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: str = ""


class LWCodeError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_LW_TAG_RE = re.compile(r"<\s*(/?)\s*lw_code\s*>", re.IGNORECASE)


def extract_lw_code(html: str) -> tuple[str, str]:
    """(embedded clause text, page text with the code blocks removed).

    Tags must balance (an opening tag inside a block is block text);
    comment and <PRE> wrappers just inside a block are tolerated and
    stripped."""
    pieces: list[str] = []
    stripped: list[str] = []
    pos, opened = 0, None
    for m in _LW_TAG_RE.finditer(html):
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


def _strip_wrappers(block: str) -> str:
    text = block.strip()
    while True:
        low = text.lower()
        if low.startswith("<!--") and low.endswith("-->"):
            text = text[4:-3].strip()
        elif low.startswith("<pre>") and low.endswith("</pre>"):
            text = text[5:-6].strip()
        else:
            return text


# The next markup: comment, script or style element (raw text up to its end
# tag), start or end tag, declaration, or unclosed markup read as text to the
# next `>`. Lookahead plus back-reference keeps the engine from re-splitting
# attributes; the first one's name and value (most often HREF) are kept.
_ATTR = (r"""(?<=['"\s/])(%s[^\s/>][^\s/=>]*)"""
         r"""(?:\s*=+\s*(%s'[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*""")
_ATTR_RE = re.compile(_ATTR % ("", ""))
_MARKUP = r"""<(?:%(comment)s
    | (?:(?P<script>[sS][cC][rR][iI][pP][tT])|[sS][tT][yY][lL][eE])(?![^\t\n\r\f />\x00])
      (?=(?P<raw_attrs>(?:\s|/(?!>))*(?:%(attr)s)*))(?P=raw_attrs)
      >(?P<raw>.*?(?=%(close)s)|(?:.*</\s*(?i:(?(script)script|style))\s*>)?)(?:%(close)s|(?P<rest>.*))
    | (?:(?P<a>[aA])(?![^\t\n\r\f />\x00])|[a-zA-Z][^\t\n\r\f />\x00]*)
      (?=(?P<attrs>(?:\s|/(?!>))*(?:%(first)s)?(?:%(attr)s)*))(?P=attrs)(?P<empty>/?)>
    | /(?:(?P<a_end>\s*[aA]\s*|[aA][\t\n\r\f /\x00][^>]*)|[^>]*)>
    | (?!!--)[!?][^>]*> | (?P<text>[a-zA-Z!?/])[^>]*>)"""
_FORMS = {"attr": _ATTR % ("?:", "?:"), "first": _ATTR % ("?P<name>", "?P<value>"),
          "close": r"</\s*(?(script)[sS][cC][rR][iI][pP][tT]|[sS][tT][yY][lL][eE])\s*>",
          "comment": r"!--(?=(?P<comment>[^-]*(?:-(?!-\s*>)[^-]*)*))(?P=comment)--\s*>"}
_MARKUP_RE = re.compile(_MARKUP % _FORMS, re.S | re.X)
_LATE_MARKUP_RE = re.compile(_MARKUP % dict(_FORMS, comment="(?!)"), re.S | re.X)


def _href(tag: re.Match) -> str | None:
    """The value of the start tag's first HREF attribute that has one."""
    value = tag["value"]
    if value is None or tag["name"].lower() != "href":
        value = next((v for n, v in map(re.Match.groups, _ATTR_RE.finditer(tag["attrs"]))
                      if v is not None and n.lower() == "href"), None)
    return None if value is None else unescape(value[1:-1] if value[:1] in "'\"" else value)


def extract_links(html: str) -> list[tuple[str, str]]:
    """(label, href) per anchor, document order; markup inside the label is
    dropped, character references decoded and whitespace collapsed. An
    anchor without an HREF is skipped; it, a new anchor or the page's end
    closes the open one. Nothing inside a comment, script or style counts."""
    anchors: list[tuple[str, list[str]]] = []
    label = None                    # text pieces of the open anchor
    pos = 0
    # every form ends in `>`, so what follows the last one is text; and no
    # comment opened past the last `--` `>` can close, so none is tried there
    end = html.rfind(">") + 1
    last = max((m.start() for m in re.finditer(r"--\s*>", html)), default=0) - 4
    for markup in (_MARKUP_RE, _LATE_MARKUP_RE):
        for m in markup.finditer(html, pos, end):
            if label is not None:
                text = unescape(html[pos:m.end() if m["text"] else m.start()])
                label.append(text + (m["raw"] or ""))
                if m["a_end"] is not None:
                    label = None
            pos = m.end() if m["rest"] is None else len(html)   # an unclosed script or style
            if m["a"] is not None:
                href, label = _href(m), []
                if href is not None:
                    anchors.append((href, label))
                if href is None or m["empty"]:
                    label = None
            if pos > last:
                last = len(html)
                break
    if label is not None:
        label.append(unescape(html[pos:]))
    return [(" ".join("".join(p).split()), h) for h, p in anchors]


def link_facts(page_text: str, base: str, requested_url: str) -> list[Clause]:
    """A `link(Label, URL)` fact per anchor, its href resolved against `base`;
    an href that does not resolve is dropped with a warning, never raised."""
    facts = []
    for label, href in extract_links(page_text):
        try:
            facts.append(Clause(Struct("link", (Str(label), Str(urljoin(base, href))))))
        except ValueError as exc:
            log.warning("dropping link %r of %s: %s", href, requested_url, exc)
    return facts


def translate_page(resp: HttpResponse, pid: ProgramId) -> LWProgram:
    """The program named by `pid` from its response: header facts and the
    final URL, then for GET and POST the identity, page text, links and
    embedded clauses. The links are built on first use (`LWProgram`)."""
    clauses = [Clause(Struct("about", (Str(name.lower()), Str(value))))
               for name, value in resp.headers]
    clauses.append(Clause(Struct("actual_url", (Str(resp.final_url),))))
    if pid.method == "head":
        return LWProgram(pid, clauses)

    clause_text, page_text = extract_lw_code(resp.body)
    clauses.append(Clause(Struct("my_id", (pid.method_term(), Str(pid.url)))))
    clauses.append(Clause(Struct("h_text", (Str(page_text),))))
    links = (len(clauses), partial(link_facts, page_text, resp.final_url,
                                   resp.requested_url))
    if clause_text.strip():
        try:
            clauses.extend(parse_program(clause_text))
        except Exception as exc:
            log.warning("dropping embedded clauses of %s: %s", resp.requested_url, exc)
    return LWProgram(pid, clauses, links)
