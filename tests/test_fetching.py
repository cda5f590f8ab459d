"""Fetching, the in-memory page table, disk mounts, and the program cache."""

import functools

import pytest
from conftest import HOME_URL, PERMISSIVE_URL, make_session, of_kind
from logicweb import cli, fetching
from logicweb.fetching import (FetchConfig, FetchError, PageEntry,
                               add_programs, download, fetch_response,
                               load_store, save_store)
from logicweb.engine import solutions
from logicweb.model import ProgramId, clause_text
from logicweb.signatures import (KeyStore, authenticate, generate_keypair,
                                 sign_page)
from logicweb.terms import Num, Str


def test_pages_table_hit():
    cfg = FetchConfig(pages={"http://a/": PageEntry("<html>hi</html>")},
                      allow_network=False)
    resp = fetch_response("http://a/", cfg)
    assert resp.body == "<html>hi</html>"
    assert resp.final_url == "http://a/"
    assert ("content-type", "text/html") in [
        (k.lower(), v) for k, v in resp.headers]


def test_page_entry_redirect_and_headers():
    cfg = FetchConfig(pages={"http://a/": PageEntry(
        "x", final_url="http://b/", headers=[("Server", "demo")])})
    resp = fetch_response("http://a/", cfg)
    assert resp.final_url == "http://b/"
    assert resp.headers == [("Server", "demo")]


def test_page_entry_error_status():
    cfg = FetchConfig(pages={"http://a/": PageEntry("gone", status=404)})
    with pytest.raises(FetchError) as info:
        fetch_response("http://a/", cfg)
    assert info.value.reason == "status"


def test_network_disabled():
    cfg = FetchConfig(allow_network=False)
    with pytest.raises(FetchError) as info:
        fetch_response("http://unlisted.example/", cfg)
    assert info.value.reason == "network"


def test_unsupported_scheme():
    with pytest.raises(FetchError):
        fetch_response("gopher://old.example/", FetchConfig())


def test_file_scheme_mount(tmp_path):
    (tmp_path / "page.html").write_text("<html>f</html>", encoding="utf-8")
    (tmp_path / "my page.html").write_text("<html>g</html>", encoding="utf-8")
    cfg = FetchConfig(mounts=[("file:///", tmp_path)])
    assert fetch_response("file:///page.html", cfg).body == "<html>f</html>"
    assert fetch_response("file:///my%20page.html", cfg).body == "<html>g</html>"
    with pytest.raises(FetchError) as info:
        fetch_response("file:///absent.html", cfg)
    assert info.value.reason == "status"
    with pytest.raises(FetchError) as info:
        fetch_response("file:///page.html", FetchConfig())
    assert info.value.reason == "network"


@pytest.mark.parametrize("prefix", ["http://site.example/", "file:///"])
@pytest.mark.parametrize("rest", ["../x", "%2E%2E/x", "a/..%2F..%2Fx", "a/../../x?q"])
def test_mount_refuses_a_path_that_leaves_its_directory(
        tmp_path, monkeypatch, prefix, rest):
    root = tmp_path / "mount"
    (root / "a").mkdir(parents=True)
    (tmp_path / "x").write_text("secret", encoding="utf-8")
    opened = []
    monkeypatch.setattr(fetching, "_file_response",
                        lambda url, path: opened.append(path))
    with pytest.raises(FetchError) as info:
        fetch_response(prefix + rest, FetchConfig(mounts=[(prefix, root)]))
    assert info.value.reason == "status"
    assert opened == []


def test_mount_refuses_a_link_that_points_out_of_it(tmp_path):
    root = tmp_path / "mount"
    (root / "sub").mkdir(parents=True)
    (tmp_path / "secret.html").write_text("secret", encoding="utf-8")
    (root / "page.html").write_text("inside", encoding="utf-8")
    (root / "out.html").symlink_to(tmp_path / "secret.html")
    (root / "sub" / "up").symlink_to(tmp_path, target_is_directory=True)
    (root / "sub" / "in.html").symlink_to(root / "page.html")
    (root / "loop.html").symlink_to(root / "loop.html")
    cfg = FetchConfig(mounts=[("http://site.example/", root)])
    for rest in ("out.html", "sub/up/secret.html", "loop.html"):
        with pytest.raises(FetchError, match="path leaves its mount") as info:
            fetch_response("http://site.example/" + rest, cfg)
        assert info.value.reason == "status"
    assert fetch_response("http://site.example/sub/in.html", cfg).body == "inside"


def test_mount_keeps_decoded_slashes_and_nul_inside(tmp_path):
    (tmp_path / "etc").mkdir()
    (tmp_path / "etc" / "passwd").write_text("inside", encoding="utf-8")
    cfg = FetchConfig(mounts=[("http://site.example/", tmp_path)])
    assert fetch_response("http://site.example/%2Fetc/passwd", cfg).body == "inside"
    with pytest.raises(FetchError) as info:
        fetch_response("http://site.example/etc/passwd%00.html", cfg)
    assert info.value.reason == "status"


def test_mounts_longest_prefix_and_index(tmp_path):
    deep = tmp_path / "deep"
    deep.mkdir()
    (tmp_path / "index.html").write_text("shallow", encoding="utf-8")
    (deep / "index.html").write_text("deep", encoding="utf-8")
    (deep / "x.html").write_text("leaf", encoding="utf-8")
    cfg = FetchConfig(mounts=[("http://site.example/", tmp_path),
                              ("http://site.example/deep/", deep)])
    assert fetch_response("http://site.example/", cfg).body == "shallow"
    assert fetch_response("http://site.example/deep/", cfg).body == "deep"
    assert fetch_response("http://site.example/deep/x.html", cfg).body == "leaf"
    assert fetch_response("http://site.example/deep/x.html?q=1", cfg).body == "leaf"


def test_download_installs_and_assigns(pages):
    session = make_session(pages)
    pid = ProgramId.get(HOME_URL)
    program = download(pid, session)
    assert program is session.store.get(pid)
    assert session.registry.pol(pid) == ProgramId.get(PERMISSIVE_URL)
    fetches = of_kind(session.audit, "fetch")
    assert [e.detail for e in fetches] == [pid.serialize()]


def test_download_cache_hit_is_silent(pages):
    session = make_session(pages)
    pid = ProgramId.get(HOME_URL)
    download(pid, session)
    before = len(session.audit.events)
    again = download(pid, session)
    assert again is session.store.get(pid)
    assert len(session.audit.events) == before


def test_download_failure_reports_reason(pages):
    session = make_session(pages)
    pid = ProgramId.get("http://unlisted.example/")
    with pytest.raises(FetchError) as info:
        download(pid, session)
    assert info.value.reason == "network"
    assert pid not in session.store
    # the attempt still left a fetch event
    assert len(of_kind(session.audit, "fetch")) == 1


def test_download_counts_toward_program_budget(pages):
    session = make_session(pages)
    created = []
    session.hooks.on_program_created = created.append
    pid = ProgramId.get(HOME_URL)
    download(pid, session)
    download(pid, session)
    assert created == [pid]


def test_add_programs_fetches_in_stable_order(pages):
    """Ids are fetched in the order given, not in the order of their text;
    a repeated id is a cache hit."""
    session = make_session(pages)
    a = ProgramId.get("http://www.cs.mu.oz.au/~f2")
    b = ProgramId.get("http://www.cs.mu.oz.au/~f1/")
    assert add_programs(session, [a, b, a])
    fetched = [e.detail for e in of_kind(session.audit, "fetch")]
    assert fetched == [a.serialize(), b.serialize()]


def test_add_programs_false_when_any_fails(pages):
    session = make_session(pages)
    good = ProgramId.get(HOME_URL)
    bad = ProgramId.get("http://unlisted.example/")
    assert not add_programs(session, [good, bad])
    assert good in session.store
    # the first failure stops the fetches after it
    session = make_session(pages)
    assert not add_programs(session, [bad, good])
    assert good not in session.store
    assert [e.detail for e in of_kind(session.audit, "fetch")] == [bad.serialize()]


def test_store_round_trip(tmp_path, pages):
    session = make_session(pages)
    for url in (HOME_URL, PERMISSIVE_URL):
        download(ProgramId.get(url), session)
    save_store(tmp_path, session)

    fresh = make_session(pages)
    load_store(tmp_path, fresh)
    assert ({p.id for p in fresh.store.values()}
            == {p.id for p in session.store.values()})
    pid = ProgramId.get(HOME_URL)
    old = [clause_text(c) for c in session.store.get(pid).clauses]
    new = [clause_text(c) for c in fresh.store.get(pid).clauses]
    assert old == new
    assert fresh.registry.pol(pid) == session.registry.pol(pid)


def test_load_store_marks_assigned_policies(tmp_path, pages):
    pid = ProgramId.get(HOME_URL)
    pol = ProgramId.get("http://policies.example.org/elsewhere.html")
    (tmp_path / "home.lwp").write_text(
        f"{pid.serialize()}\t{pol.serialize()}\np(1).\n", encoding="utf-8")
    session = make_session(pages)
    assert not session.registry.is_policy(pol)
    load_store(tmp_path, session)
    assert session.registry.pol(pid) == pol
    assert session.registry.is_policy(pol)
    assert solutions(session, HOME_URL, "p(X)") == [{"X": Num(1)}]


def test_a_stored_policy_counts_as_one_whatever_its_file_sorts_as(tmp_path, pages):
    # the run's registry does not know the policy the stored program names,
    # and the policy's own file is read first
    pid = ProgramId.get(HOME_URL)
    pol = ProgramId.get("http://policies.example.org/elsewhere.html")
    (tmp_path / "a.lwp").write_text(
        f"{pol.serialize()}\nvalid_program(_, _).\n", encoding="utf-8")
    (tmp_path / "b.lwp").write_text(
        f"{pid.serialize()}\t{pol.serialize()}\np(1).\n", encoding="utf-8")
    session = make_session(pages)
    assert not session.registry.is_policy(pol)
    load_store(tmp_path, session)
    assert session.registry.is_policy(pol)
    assert pol not in session.registry.program_to_policy
    assert session.registry.pol(pid) == pol


def test_load_store_skips_a_file_that_does_not_read_back(tmp_path, pages, caplog):
    pid = ProgramId.get(HOME_URL)
    pol = ProgramId.get("http://policies.example.org/elsewhere.html")
    bad = {"undecodable.lwp": b"\xff\n",
           "unparsable.lwp": f"{pid.serialize()}\nq :- !(x).\n".encode(),
           "unnamed.lwp": b"p(1).\n",
           "bad-policy.lwp": f'{pid.serialize()}\tlw(put, "x")\n'.encode()}
    for name, data in bad.items():
        (tmp_path / name).write_bytes(data)
    other = ProgramId.get(PERMISSIVE_URL)
    (tmp_path / "z.lwp").write_text(
        f"{other.serialize()}\t{pol.serialize()}\nok.\n", encoding="utf-8")
    session = make_session(pages)
    with caplog.at_level("WARNING"):
        load_store(tmp_path, session)
    assert [p.id for p in session.store.values()] == [other]
    assert session.registry.program_to_policy == {other: pol}
    for name in bad:
        assert str(tmp_path / name) in caplog.text


def test_a_skipped_cache_file_is_warned_of_at_the_line_in_the_file(
        tmp_path, pages, caplog):
    (tmp_path / "bad.lwp").write_text(
        f"{ProgramId.get(HOME_URL).serialize()}\nq :- !(x).\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        load_store(tmp_path, make_session(pages))
    assert "line 2, column 7" in caplog.text


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_a_mounted_page_names_its_length_in_bytes(tmp_path, pages, line_end):
    # more bytes than characters; a "\r\n" is read, and counted, as "\n"
    text = "<p>café, naïve, ☃</p>\n<LW_CODE>p(1).</LW_CODE>\n"
    (tmp_path / "page.html").write_bytes(text.replace("\n", line_end).encode("utf-8"))
    session = make_session(pages, security=False)
    session.fetch_config.mounts.append(("http://mounted.example/", tmp_path))
    url = "http://mounted.example/page.html"
    assert solutions(session, url, 'about("content-length", N)') == [
        {"N": Str(str(len(text.encode("utf-8"))))}]
    page_text = text.replace("<LW_CODE>p(1).</LW_CODE>", "")
    assert solutions(session, url, "h_text(T)") == [{"T": Str(page_text)}]


def test_undecodable_fixture_page_fails_the_download(tmp_path, pages):
    (tmp_path / "bad.html").write_bytes(b"<html>\xff p(1).</html>")
    session = make_session(pages, security=False)
    session.fetch_config.mounts.append(("http://mounted.example/", tmp_path))
    pid = ProgramId.get("http://mounted.example/bad.html")
    with pytest.raises(FetchError) as info:
        download(pid, session)
    assert info.value.reason == "status"
    assert pid not in session.store
    assert solutions(session, pid.url, "p(X)") == []


def test_http_fetch_closes_its_connection_pool(monkeypatch, pages):
    requests = pytest.importorskip("requests")
    closed = []

    class Response:
        status_code = 200
        url = "http://live.example/final"
        headers = {"Server": "stub"}
        encoding = "utf-8"
        text = "<LW_CODE>p(1).</LW_CODE>"

        def iter_content(self, chunk_size):
            yield self.text.encode("utf-8")

    class StubSession(requests.Session):
        """Answers from memory; nothing leaves the process."""
        refuse = False

        def get(self, url, **kwargs):
            if self.refuse:
                raise requests.ConnectionError("refused")
            return Response()

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(requests, "Session", StubSession)
    cfg = FetchConfig(allow_network=True)
    resp = fetch_response("http://live.example/", cfg)
    assert (resp.final_url, resp.body) == (Response.url, Response.text)
    assert len(closed) == 1

    StubSession.refuse = True
    with pytest.raises(FetchError) as info:
        fetch_response("http://live.example/other", cfg)
    assert info.value.reason == "network"
    assert len(closed) == 2

    StubSession.refuse = False
    session = make_session(pages, security=False)
    session.fetch_config.allow_network = True
    program = download(ProgramId.get("http://live.example/"), session)
    texts = [clause_text(c) for c in program.clauses]
    assert texts[:2] == ['about("server", "stub").',
                         'actual_url("http://live.example/final").']
    assert texts[-1] == "p(1)."
    assert len(closed) == 3


def test_http_fetch_sends_the_method_and_fields_the_id_names(monkeypatch, pages):
    requests = pytest.importorskip("requests")
    sent = []

    class Response:
        status_code = 200
        url = "http://live.example/form"
        headers = {"Server": "stub"}

        def __init__(self, method):
            self.method = method

        def iter_content(self, chunk_size):
            if self.method != "HEAD":
                yield b"<LW_CODE>p(1).</LW_CODE>"

    class StubSession(requests.Session):
        """Records what each request would send; nothing leaves the process."""

        def request(self, method, url, **kwargs):
            prepared = requests.Request(method, url, data=kwargs.get("data")).prepare()
            sent.append((prepared.method, prepared.body))
            return Response(method)

    monkeypatch.setattr(requests, "Session", StubSession)
    session = make_session(pages, security=False)
    session.fetch_config.allow_network = True
    url = Response.url
    texts = {}
    for pid in (ProgramId.get(url), ProgramId.post(url, [("q", "1"), ("a", "x y")]),
                ProgramId.head(url)):
        texts[pid.method] = [clause_text(c) for c in download(pid, session).clauses]
    assert sent == [("GET", None), ("POST", "q=1&a=x+y"), ("HEAD", None)]
    assert texts["post"][-1] == "p(1)."
    assert "p(1)." not in texts["head"]


def test_http_fetch_refuses_a_body_over_the_cap(monkeypatch):
    requests = pytest.importorskip("requests")
    read = []

    class Endless:
        status_code = 200
        url = "http://live.example/big"
        headers = {}
        encoding = None

        def iter_content(self, chunk_size):
            while True:             # a body that never ends
                read.append(chunk_size)
                yield b"\xc3\xa9" * (chunk_size // 2)

    class StubSession(requests.Session):
        def get(self, url, **kwargs):
            assert kwargs["stream"]
            return Endless()

    monkeypatch.setattr(requests, "Session", StubSession)
    monkeypatch.setattr(fetching, "MAX_BODY_BYTES", 3 << 16)
    with pytest.raises(FetchError) as info:
        fetch_response("http://live.example/big", FetchConfig())
    assert info.value.reason == "status"
    assert "exceeds" in info.value.detail
    assert len(read) == 4               # stopped at the first chunk past the cap

    # a body at the cap is read whole and decoded, UTF-8 when no charset is given
    monkeypatch.setattr(fetching, "MAX_BODY_BYTES", 4 << 16)
    read.clear()
    Endless.iter_content = lambda self, size: iter([b"\xc3\xa9" * (size // 2)] * 4)
    resp = fetch_response("http://live.example/big", FetchConfig())
    assert resp.body == "\u00e9" * (2 << 16)


@pytest.mark.parametrize("source", ["mount", "page table"])
def test_a_mounted_file_or_a_page_entry_over_the_cap_is_refused(
        tmp_path, monkeypatch, capsys, source):
    monkeypatch.setattr(fetching, "MAX_BODY_BYTES", 64)
    url = "http://capped.example/index.html"

    def lw_query(page):
        if source == "mount":
            (tmp_path / "index.html").write_text(page, encoding="utf-8")
        else:
            monkeypatch.setattr(cli, "FetchConfig", functools.partial(
                FetchConfig, {url: PageEntry(page)}))
        code = cli.main(["query", url, "p(X)", "--no-security", "--offline",
                         "--mount", f"http://capped.example/={tmp_path}"])
        out, err = capsys.readouterr()
        return code, out, "Traceback" in err

    at_cap = "<LW_CODE>p(1).</LW_CODE>".ljust(64)
    assert lw_query(at_cap) == (0, "X = 1\n", False)
    assert lw_query(at_cap[:-1] + "é") == (1, "", False)    # 65 bytes
    with pytest.raises(FetchError, match=f"status: body of {url} exceeds 64 bytes"):
        fetching.fetch_response(url, cli.FetchConfig(
            mounts=[("http://capped.example/", tmp_path)]))


@pytest.mark.parametrize("charset", ["x-bogus", "base64", "idna", "undefined"])
def test_http_fetch_decodes_as_utf8_under_a_charset_python_cannot_use(
        monkeypatch, charset):
    requests = pytest.importorskip("requests")

    class Response:
        status_code = 200
        url = "http://live.example/odd"
        headers = {"Content-Type": f"text/html; charset={charset}"}
        encoding = charset

        def iter_content(self, chunk_size):
            yield "<LW_CODE>p(\"\u00e9\").</LW_CODE>\xff".encode("utf-8")

    class StubSession(requests.Session):
        def get(self, url, **kwargs):
            return Response()

    monkeypatch.setattr(requests, "Session", StubSession)
    resp = fetch_response(Response.url, FetchConfig())
    assert resp.body == "<LW_CODE>p(\"\u00e9\").</LW_CODE>\u00ff"


@pytest.mark.parametrize("content_type, charset", [
    ("text/html", "utf-8"), ("text/html; charset=ISO-8859-1", "latin-1"),
    ('text/html; charset="utf-8"', "utf-8")])
def test_http_fetch_decodes_with_the_named_charset_else_utf8(
        monkeypatch, content_type, charset):
    requests = pytest.importorskip("requests")
    private, public = generate_keypair()
    page = sign_page('<LW_CODE>p("caf\u00e9").</LW_CODE>\n', private, "alice")

    class Response:
        status_code = 200
        url = "http://live.example/page.lwpgp.html"
        headers = requests.structures.CaseInsensitiveDict(
            {"Content-Type": content_type})
        # what requests itself sets: ISO-8859-1 for text/* without a charset
        encoding = requests.utils.get_encoding_from_headers(headers)

        def iter_content(self, chunk_size):
            yield page.encode(charset)

    class StubSession(requests.Session):
        def get(self, url, **kwargs):
            return Response()

    monkeypatch.setattr(requests, "Session", StubSession)
    resp = fetch_response(Response.url, FetchConfig())
    assert resp.body == page
    assert authenticate(resp.body, KeyStore({"alice": public})) == "alice"
