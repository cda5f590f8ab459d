"""Retrieving programs: the oracle between the store and the web.

Besides live http(s), URLs can resolve offline: an in-memory page table
(tests), or mount points mapping URL prefixes onto directories
(`file:///` is a prefix like any other). A download that cannot produce a
program raises FetchError naming what went wrong; the store is left
untouched in that case.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from urllib.parse import unquote, urlsplit

from .model import LWProgram, ProgramId, parse_program
from .pages import HttpResponse, translate_page

log = logging.getLogger(__name__)

MAX_REDIRECTS = 5
MAX_BODY_BYTES = 8 << 20          # a longer response body is refused
NO_POLICY = ProgramId.get("lw:no-policy")   # named by unsecured runs, never stored


@dataclass
class FetchConfig:
    pages: dict[str, "PageEntry"] = field(default_factory=dict)
    mounts: list[tuple[str, Path]] = field(default_factory=list)
    timeout: float = 10.0
    allow_network: bool = True


@dataclass
class PageEntry:
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


def _default_headers(body: str) -> list[tuple[str, str]]:
    return [("Content-Type", "text/html"),
            ("Content-Length", str(len(body.encode("utf-8"))))]


def _file_response(url: str, path: Path) -> HttpResponse:
    if not path.is_file():
        raise FetchError("status", f"no such fixture file: {path}")
    try:
        body = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FetchError("status", f"cannot read fixture file {path}: {exc}") from exc
    return HttpResponse(url, url, _default_headers(body), body)


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


def fetch_response(url: str, cfg: FetchConfig) -> HttpResponse:
    """Resolve a URL to a response; raises FetchError on failure."""
    entry = cfg.pages.get(url)
    if entry is not None:
        if entry.status != 200:
            raise FetchError("status", f"status {entry.status} for {url}")
        headers = entry.headers if entry.headers is not None else _default_headers(entry.body)
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
        return _http_fetch(url, cfg)

    raise FetchError("network", f"unsupported URL scheme: {url}")


def _http_fetch(url: str, cfg: FetchConfig) -> HttpResponse:
    from email.message import Message

    import requests

    body = bytearray()
    with requests.Session() as http:
        http.max_redirects = MAX_REDIRECTS
        try:
            resp = http.get(url, timeout=cfg.timeout, allow_redirects=True, stream=True)
            if resp.status_code != 200:
                raise FetchError("status", f"status {resp.status_code} for {url}")
            for chunk in resp.iter_content(1 << 16):
                body += chunk
                if len(body) > MAX_BODY_BYTES:
                    raise FetchError("status", f"body of {url} exceeds {MAX_BODY_BYTES} bytes")
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
    audit log before any bytes move. The program's policy is recorded only
    when security is on, so an unsecured run leaves no assignment behind."""
    cached = session.store.get(pid)
    if cached is not None:
        return cached

    session.audit.emit("fetch", pid.serialize(), tuple(chain), tuple(sigma))
    resp = fetch_response(pid.url, session.fetch_config)
    try:
        program = translate_page(resp, pid)
    except Exception as exc:
        raise FetchError("translate", str(exc)) from exc

    session.store.install(program)
    if session.config.security_enabled:
        session.registry.assign_policy(pid, resp.body)
    session.hooks.on_program_created(pid)
    return program


def add_programs(session, pids, chain=(), sigma=()) -> bool:
    """Bring every named program into the store, in the order given; True
    only if all are present. A failed fetch does not stop the ones after it."""
    for pid in pids:
        try:
            download(pid, session, chain, sigma)
        except FetchError as exc:
            log.info("fetch failed for %s: %s", pid.serialize(), exc)
    return all(pid in session.store for pid in pids)


# ---------------------------------------------------------------- disk cache

_ASSIGN_FILE = "_assignments"


def _program_filename(pid: ProgramId) -> str:
    digest = hashlib.sha1(pid.serialize().encode("utf-8")).hexdigest()[:16]
    return f"{digest}.lwp"


def save_store(dirpath: str | Path, store, registry) -> None:
    """One file per program: serialized id on the first line, clause text
    after. Policy assignments live in a sidecar map file. A store only
    grows, so no file already there needs deleting."""
    from .model import clause_text

    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    for program in store.programs():
        lines = [program.id.serialize()]
        lines += [clause_text(c) for c in program.clauses]
        (root / _program_filename(program.id)).write_text(
            "\n".join(lines) + "\n", encoding="utf-8")
    assign_lines = [f"{pid.serialize()}\t{pol.serialize()}"
                    for pid, pol in registry.program_to_policy.items()]
    (root / _ASSIGN_FILE).write_text("\n".join(assign_lines) + "\n", encoding="utf-8")


def load_store(dirpath: str | Path, store, registry) -> None:
    from .syntax import parse_term_text, read_text

    root = Path(dirpath)
    if not root.is_dir():
        return
    for path in sorted(root.glob("*.lwp")):
        text = read_text(path)
        first, _, rest = text.partition("\n")
        pid = ProgramId.from_term(parse_term_text(first)[0])
        store.install(LWProgram(pid, parse_program(rest)))
    assign = root / _ASSIGN_FILE
    if assign.is_file():
        for line in read_text(assign).splitlines():
            if not line.strip():
                continue
            left, _, right = line.partition("\t")
            pid = ProgramId.from_term(parse_term_text(left)[0])
            pol = ProgramId.from_term(parse_term_text(right)[0])
            if pol != NO_POLICY:        # older unsecured runs stored it
                registry.assign(pid, pol)


def clear_store(dirpath: str | Path) -> int:
    """Delete the cached programs and the assignment map; returns how many
    programs were removed."""
    root = Path(dirpath)
    if not root.is_dir():
        return 0
    programs = list(root.glob("*.lwp"))
    for path in programs:
        path.unlink()
    (root / _ASSIGN_FILE).unlink(missing_ok=True)
    return len(programs)
