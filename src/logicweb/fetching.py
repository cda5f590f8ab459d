"""Retrieving programs: the oracle between the store and the web.

Besides live http(s), URLs can resolve offline: an in-memory page table
(tests), or mount points mapping URL prefixes onto directories
(`file:///` is a prefix like any other). A download that cannot produce a
program raises FetchError naming what went wrong; the store is left
untouched in that case.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple, Optional
from urllib.parse import unquote, urlsplit

from .model import (ExpressionError, LWProgram, ProgramId, clause_text,
                    parse_program)
from .pages import HttpResponse, translate_page
from .syntax import ParseError, parse_term_text, read_text

MAX_REDIRECTS = 5
MAX_BODY_BYTES = 8 << 20          # a longer body is refused, whatever its source


class FetchConfig:
    timeout = 10.0      # seconds; the default `--http-timeout` too

    def __init__(self, pages: dict[str, "PageEntry"] | None = None,
                 mounts: list[tuple[str, Path]] | None = None,
                 timeout: float = timeout, allow_network: bool = True):
        self.pages = {} if pages is None else pages
        self.mounts = [] if mounts is None else mounts
        self.timeout = timeout
        self.allow_network = allow_network


class PageEntry(NamedTuple):
    body: str
    status: int = 200
    final_url: Optional[str] = None
    headers: list[tuple[str, str]] | None = None


class FetchError(Exception):
    """`reason` is network, status or translate."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


def _default_headers(length: int) -> list[tuple[str, str]]:
    """The headers of a page that names none: HTML of `length` bytes."""
    return [("Content-Type", "text/html"), ("Content-Length", str(length))]


def _check_length(url: str, length: int) -> None:
    if length > MAX_BODY_BYTES:
        raise FetchError("status", f"body of {url} exceeds {MAX_BODY_BYTES} bytes")


def _file_response(url: str, path: Path) -> HttpResponse:
    if not path.is_file():
        raise FetchError("status", f"no such fixture file: {path}")
    try:
        with path.open("rb") as f:  # a buffer the file's size: one the cap's is slow
            data = f.read(min(os.fstat(f.fileno()).st_size, MAX_BODY_BYTES) + 1)
        _check_length(url, len(data))
        body = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FetchError("status", f"cannot read fixture file {path}: {exc}") from exc
    length = len(data)
    if "\r" in body:   # each line end read as "\n", as text mode reads it
        length -= data.count(b"\r\n")
        body = body.replace("\r\n", "\n").replace("\r", "\n")
    return HttpResponse(url, url, _default_headers(length), body)


def _linked_out(root: Path, rel: str) -> bool:
    """Whether a symbolic link below `root` takes `root/rel` out of it. Only
    a path through a link is resolved, so most fetches pay one `lstat` per
    segment."""
    step = str(root)
    for part in rel.split("/"):
        step = os.path.join(step, part)
        if os.path.islink(step):
            try:
                return not (root / rel).resolve().is_relative_to(root.resolve())
            except (OSError, RuntimeError):     # such as a link loop
                return True
    return False


def fetch_response(url: str, cfg: FetchConfig, method: str = "get",
                   fields: tuple[tuple[str, str], ...] = ()) -> HttpResponse:
    """Resolve a URL to a response; raises FetchError on failure. Over http(s)
    it sends `method`, with a post's `fields` form-encoded in order."""
    entry = cfg.pages.get(url)
    if entry is not None:
        if entry.status != 200:
            raise FetchError("status", f"status {entry.status} for {url}")
        length = len(entry.body.encode("utf-8"))
        _check_length(url, length)
        headers = (entry.headers if entry.headers is not None
                   else _default_headers(length))
        return HttpResponse(url, entry.final_url or url, headers, entry.body)

    for prefix, root in sorted(cfg.mounts, key=lambda m: -len(m[0])):
        if url.startswith(prefix):
            # a `..` segment, percent-encoded or not, could leave the directory
            rel = unquote(url[len(prefix):].split("?", 1)[0].split("#", 1)[0]).lstrip("/")
            if ".." in rel.split("/"):
                raise FetchError("status", f"path leaves its mount: {url}")
            if not rel or rel.endswith("/"):
                rel += "index.html"
            if _linked_out(root, rel):
                raise FetchError("status", f"path leaves its mount: {url}")
            return _file_response(url, root / rel)

    try:
        scheme = urlsplit(url).scheme
    except ValueError as exc:       # such as an unclosed `[` in the host
        raise FetchError("network", f"malformed URL {url}: {exc}") from exc
    if scheme in ("http", "https"):
        if not cfg.allow_network:
            raise FetchError("network", f"network disabled, cannot fetch {url}")
        return _http_fetch(url, cfg, method, fields)

    raise FetchError("network", f"unsupported URL scheme: {url}")


def _http_fetch(url: str, cfg: FetchConfig, method: str, fields) -> HttpResponse:
    from email.message import Message

    import requests

    body = bytearray()
    with requests.Session() as http:
        http.max_redirects = MAX_REDIRECTS
        try:
            resp = getattr(http, method)(url, data=fields, timeout=cfg.timeout,
                                         allow_redirects=True, stream=True)
            if resp.status_code != 200:
                raise FetchError("status", f"status {resp.status_code} for {url}")
            for chunk in resp.iter_content(1 << 16):
                body += chunk
                _check_length(url, len(body))
        except requests.RequestException as exc:
            raise FetchError("network", str(exc)) from exc
    # the charset the Content-Type names, else UTF-8 (requests would take
    # ISO-8859-1 for any text/* type that names none)
    content_type = Message()
    content_type["Content-Type"] = resp.headers.get("Content-Type", "")
    try:
        text = body.decode(content_type.get_content_charset() or "utf-8",
                           errors="replace")
    except (LookupError, ValueError):   # a charset Python cannot decode text with
        text = body.decode("utf-8", errors="replace")
    return HttpResponse(url, resp.url, list(resp.headers.items()), text)


def download(pid: ProgramId, session, chain=(), sigma=()) -> LWProgram:
    """Install and return the program named by `pid`, fetching unless
    already cached; raises FetchError when there is no program.

    A cache hit is silent; an actual retrieval leaves a fetch event in the
    audit log before any bytes move. A failed retrieval counts against the
    program cap as an installed program does."""
    cached = session.store.get(pid)
    if cached is not None:
        return cached

    session.audit.emit("fetch", pid.serialize(), tuple(chain), tuple(sigma))
    try:
        resp = fetch_response(pid.url, session.fetch_config, pid.method, pid.post_fields)
        try:
            program = translate_page(resp, pid)
        except Exception as exc:
            raise FetchError("translate", str(exc)) from exc
    except FetchError:
        session.hooks.on_program_created(pid)
        raise

    session.install_local(program, resp.body)
    session.hooks.on_program_created(pid)
    return program


def add_programs(session, pids, chain=(), sigma=()) -> bool:
    """Bring every named program into the store, in the order given; True
    only if all are present. The first failed fetch stops the ones after it,
    which stay untried: the switch fails whatever they would bring."""
    for pid in pids:
        try:
            download(pid, session, chain, sigma)
        except FetchError as exc:
            import logging
            logging.getLogger(__name__).info("fetch failed for %r: %s", pid, exc)
            return False
    return True


# ---------------------------------------------------------------- disk cache

def _program_filename(pid: ProgramId) -> str:
    import hashlib
    digest = hashlib.sha1(pid.serialize().encode("utf-8")).hexdigest()[:16]
    return f"{digest}.lwp"


def save_store(dirpath: str | Path, session) -> None:
    """One file per program: its serialized id on the first line, followed
    by a tab and its policy's id when it has one, then its clause text. A
    store only grows, so no file already there needs deleting."""
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    policies = session.registry.program_to_policy
    for program in session.store.values():
        header = program.id.serialize()
        if program.id in policies:
            header += "\t" + policies[program.id].serialize()
        lines = [header] + [clause_text(c) for c in program.clauses]
        (root / _program_filename(program.id)).write_text(
            "\n".join(lines) + "\n", encoding="utf-8")


def load_store(dirpath: str | Path, session) -> None:
    """Install every program cached under `dirpath` through `install_local`,
    after recording every stored policy, so that a stored policy program
    counts as one whatever its file is named. An entry that does not read
    back is skipped with a warning naming it."""
    root = Path(dirpath)
    if not root.is_dir():
        return
    programs = []
    for path in sorted(root.glob("*.lwp")):
        try:
            first, newline, rest = read_text(path).partition("\n")
            ids = [ProgramId.from_term(parse_term_text(text)[0])   # program, policy
                   for text in first.split("\t", 1)]
            # led by the header's line end, a position counts the header line
            programs.append(LWProgram(ids[0], parse_program(newline + rest)))
        except (OSError, UnicodeDecodeError, ParseError, ExpressionError) as exc:
            import logging
            logging.getLogger(__name__).warning(
                "skipping cache file %s: %s", path, exc)
            continue
        if len(ids) == 2:
            session.registry.assign(*ids)
    for program in programs:
        session.install_local(program)


def clear_store(dirpath: str | Path) -> int:
    """Delete the cached program files, leaving any other entry; returns
    how many were removed."""
    root = Path(dirpath)
    if not root.is_dir():
        return 0
    programs = [path for path in root.glob("*.lwp") if path.is_file()]
    for path in programs:
        path.unlink()
    return len(programs)
