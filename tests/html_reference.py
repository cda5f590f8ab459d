"""The reference anchor extractor: the standard library's `html.parser`.

`logicweb.pages.extract_links` scans a page with its own patterns; the
differential tests compare it with this subclass, which is what the
interpreter used before, on generated and fixture pages."""

import re
from html.parser import HTMLParser


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


def reference_links(html: str) -> list[tuple[str, str]]:
    scanner = _AnchorScanner()
    scanner.feed(html)
    scanner.close()
    return scanner.links
