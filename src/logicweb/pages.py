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
from html.parser import HTMLParser
from urllib.parse import urljoin

from .model import Clause, LWProgram, ProgramId, parse_program
from .terms import Str, Struct

log = logging.getLogger(__name__)


@dataclass
class HttpResponse:
    requested_url: str
    final_url: str
    status: int
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: str = ""


class LWCodeError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_OPEN_RE = re.compile(r"<\s*lw_code\s*>", re.IGNORECASE)
_CLOSE_RE = re.compile(r"<\s*/\s*lw_code\s*>", re.IGNORECASE)


def extract_lw_code(html: str) -> tuple[str, str]:
    """(embedded clause text, page text with the code blocks removed).

    Tags must balance; comment and <PRE> wrappers just inside a block are
    tolerated and stripped."""
    pieces: list[str] = []
    stripped: list[str] = []
    pos = 0
    while True:
        m_open = _OPEN_RE.search(html, pos)
        m_close = _CLOSE_RE.search(html, pos)
        if m_open is None and m_close is None:
            stripped.append(html[pos:])
            break
        if m_open is None or (m_close is not None and m_close.start() < m_open.start()):
            raise LWCodeError("unmatched closing LW_CODE tag", m_close.start())
        if m_close is None or m_close.start() < m_open.end():
            raise LWCodeError("unclosed LW_CODE tag", m_open.start())
        stripped.append(html[pos:m_open.start()])
        pieces.append(_strip_wrappers(html[m_open.end():m_close.start()]))
        pos = m_close.end()
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


class _AnchorScanner(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.links: list[tuple[str, str]] = []
        self._href: str | None = None
        self._label: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag != "a":
            return
        self._flush()
        href = next((v for k, v in attrs if k == "href" and v is not None), None)
        if href is not None:
            self._href = href
            self._label = []

    def handle_endtag(self, tag):
        if tag == "a":
            self._flush()

    def handle_data(self, data):
        if self._href is not None:
            self._label.append(data)

    def _flush(self):
        if self._href is not None:
            label = re.sub(r"\s+", " ", "".join(self._label)).strip()
            self.links.append((label, self._href))
            self._href = None
            self._label = []

    def close(self):
        super().close()
        self._flush()


def extract_links(html: str) -> list[tuple[str, str]]:
    """(label, href) per anchor, document order; markup inside the label is
    dropped and whitespace collapsed. Anchors without an HREF are skipped."""
    scanner = _AnchorScanner()
    scanner.feed(html)
    scanner.close()
    return scanner.links


def translate_page(resp: HttpResponse, pid: ProgramId) -> LWProgram:
    """The program named by `pid` from its response: header facts and the
    final URL, then for GET and POST the identity, page text, links and
    embedded clauses."""
    clauses = [Clause(Struct("about", (Str(name.lower()), Str(value))))
               for name, value in resp.headers]
    clauses.append(Clause(Struct("actual_url", (Str(resp.final_url),))))
    if pid.method == "head":
        return LWProgram(pid, clauses)

    clause_text, page_text = extract_lw_code(resp.body)
    clauses.append(Clause(Struct("my_id", (pid.method_term(), Str(pid.url)))))
    clauses.append(Clause(Struct("h_text", (Str(page_text),))))
    for label, href in extract_links(page_text):
        absolute = urljoin(resp.final_url, href)
        clauses.append(Clause(Struct("link", (Str(label), Str(absolute)))))

    if clause_text.strip():
        try:
            clauses.extend(parse_program(clause_text))
        except Exception as exc:
            log.warning("dropping embedded clauses of %s: %s", resp.requested_url, exc)
    return LWProgram(pid, clauses)
