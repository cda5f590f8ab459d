"""The command line front end, driven in-process through main()."""

import socket

import pytest
from conftest import policy_page
from logicweb import cli, security
from logicweb.cli import build_parser, main
from logicweb.engine import Session
from logicweb.guards import GuardConfig
from logicweb.signatures import KeyStore, authenticate

SITE = "http://site.test/"

INDEX = """<HTML>
<BODY>
<A HREF="other.html">Other page</A>
<LW_CODE><!--
p(1).
p(2).
loop :- loop.
greet(X) :- member(X, [hi, bye]).
-->
</LW_CODE>
</BODY>
</HTML>
"""

PERM = ("valid_program(_, _).\n"
        "valid_systemCall(_).\n"
        "call_system(G) :- built_ins:call_builtin(G).\n")

NO_RM = ("valid_program(_, _).\n"
         'valid_systemCall(system(Cmd)) :- append("rm ", _, Cmd), !, fail.\n'
         "valid_systemCall(_).\n"
         "call_system(G) :- built_ins:call_builtin(G).\n")


@pytest.fixture
def site(tmp_path):
    d = tmp_path / "site"
    d.mkdir()
    (d / "index.html").write_text(INDEX, encoding="utf-8")
    (d / "perm.html").write_text(policy_page("Permissive", PERM),
                                 encoding="utf-8")
    (d / "norm.html").write_text(policy_page("No Removals", NO_RM),
                                 encoding="utf-8")
    registry = tmp_path / "registry"
    registry.write_text(f"default {SITE}perm.html\n", encoding="utf-8")
    return d, registry


def base(site):
    d, registry = site
    return ["--mount", f"{SITE}={d}", "--registry", str(registry), "--offline"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------- query

def test_query_answers_and_exit_zero(site, capsys):
    code, out, err = run_cli(capsys, "query", SITE + "index.html", "p(X)",
                             *base(site))
    assert code == 0
    assert out.splitlines() == ["X = 1", "X = 2"]
    assert err == ""


def test_ground_query_prints_true(site, capsys):
    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "p(1)",
                           *base(site))
    assert code == 0
    assert out.splitlines() == ["true"]


def test_multi_variable_bindings_on_one_line(site, capsys):
    code, out, _ = run_cli(capsys, "query", SITE + "index.html",
                           "p(X), greet(Y)", "--limit", "1", *base(site))
    assert code == 0
    assert out.splitlines() == ["X = 1, Y = hi"]


def test_no_answers_prints_nothing_exit_one(site, capsys):
    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "p(9)",
                           *base(site))
    assert code == 1
    assert out == ""


def test_limit_truncates(site, capsys):
    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "p(X)",
                           "--limit", "1", *base(site))
    assert code == 0
    assert out.splitlines() == ["X = 1"]


def test_limit_zero_prints_nothing_exit_one(site, capsys):
    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "p(X)",
                           "--limit", "0", *base(site))
    assert (code, out) == (1, "")


def test_negative_limit_is_a_usage_error(site, capsys):
    for command in ("query", "trace"):
        with pytest.raises(SystemExit) as info:
            main([command, SITE + "index.html", "p(X)", "--limit", "-1",
                  *base(site)])
        assert info.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "--limit" in err and "must not be negative" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--max-depth", "--max-clauses", "--max-programs",
                                  "--max-context-size", "--timeout-ms"])
def test_a_negative_guard_cap_is_a_usage_error(site, capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["query", SITE + "index.html", "p(X)", flag, "-3", "--no-security",
              *base(site)])
    assert info.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert flag in err and "must not be negative" in err
    assert "Traceback" not in err


def test_guard_stop_exit_two(site, capsys):
    code, out, err = run_cli(capsys, "query", SITE + "index.html", "loop",
                             *base(site))
    assert code == 2
    assert err.strip() == "stopped: loop found"


def test_unknown_page_fails_finitely(site, capsys):
    code, out, _ = run_cli(capsys, "query", SITE + "absent.html", "true",
                           *base(site))
    assert code == 1
    assert out == ""


def test_no_security_skips_registry(site, capsys):
    d, _ = site
    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "p(X)",
                           "--mount", f"{SITE}={d}", "--offline",
                           "--no-security")
    assert code == 0
    assert out.splitlines() == ["X = 1", "X = 2"]


def test_trace_appends_audit_lines(site, capsys):
    code, out, _ = run_cli(capsys, "trace", SITE + "index.html", "p(1)",
                           *base(site))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "true"
    assert any(" fetch " in ln and "| policies:" in ln for ln in lines[1:])
    assert any(" switch " in ln for ln in lines[1:])


def test_trace_reports_the_events_the_trail_dropped(site, capsys, monkeypatch):
    monkeypatch.setattr(security, "MAX_EVENTS", 2)
    code, out, _ = run_cli(capsys, "trace", SITE + "index.html", "greet(hi)",
                           *base(site))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "true"
    dropped = int(lines[1].removeprefix("# ").removesuffix(" earlier events dropped"))
    assert dropped > 0
    assert len(lines[2:]) == 2
    assert all(" | context: " in ln for ln in lines[2:])


# ---------------------------------------------------------------- errors

def test_missing_registry_is_a_usage_error(site, capsys):
    d, _ = site
    code, _, err = run_cli(capsys, "query", SITE + "index.html", "p(X)",
                           "--mount", f"{SITE}={d}", "--offline")
    assert code == 3
    assert "registry" in err


def test_bad_goal_is_a_usage_error(site, capsys):
    code, _, err = run_cli(capsys, "query", SITE + "index.html", "p(",
                           *base(site))
    assert code == 3
    assert err.startswith("error: bad goal")


def test_bad_mount_spec(site, capsys):
    _, registry = site
    code, _, err = run_cli(capsys, "query", SITE + "index.html", "p(X)",
                           "--mount", "nodir", "--registry", str(registry))
    assert code == 3
    assert "--mount" in err


def test_argparse_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as info:
        main(["query", "--bogus-flag"])
    assert info.value.code == 3
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 3


@pytest.mark.parametrize("secs", ["0", "-1", "nan", "inf", "1e10", "soon"])
def test_bad_http_timeout_is_a_usage_error(capsys, monkeypatch, secs):
    def no_connection(*args):
        raise AssertionError("a usage error opened a connection")
    monkeypatch.setattr(socket.socket, "connect", no_connection)
    with pytest.raises(SystemExit) as info:
        main(["query", "http://127.0.0.1:9/x.html", "p", "--no-security",
              "--http-timeout", secs])
    assert info.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and "--http-timeout" in err
    assert "Traceback" not in err


# ------------------------------------------------------ the shared parser

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_a_call_inherits_no_flag_from_the_one_before(site, capsys,
                                                     monkeypatch):
    d, _ = site
    seen = []
    real = cli._build_session
    monkeypatch.setattr(cli, "_build_session",
                        lambda args: seen.append(vars(args)) or real(args))
    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "p(X)",
                           "--mount", f"{SITE}={d}", "--no-loop-check",
                           "--max-depth", "3", "--offline", "--no-security")
    assert (code, out.splitlines()) == (0, ["X = 1", "X = 2"])
    # without the mount the page cannot be fetched offline
    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "p(X)",
                           "--offline", "--no-security")
    assert (code, out) == (1, "")
    first, second = ((a["mount"], a["loop_check"], a["max_depth"])
                     for a in seen)
    assert first == ([f"{SITE}={d}"], False, 3)
    defaults = GuardConfig()
    assert second == (None, defaults.loop_check, defaults.max_depth)


def test_usage_errors_and_queries_interleave(site, capsys):
    query = ["query", SITE + "index.html", "p(X)", *base(site)]
    assert run_cli(capsys, *query)[:2] == (0, "X = 1\nX = 2\n")
    with pytest.raises(SystemExit) as info:
        main([*query, "--limit", "-1"])
    assert info.value.code == 3
    capsys.readouterr()
    assert run_cli(capsys, *query)[:2] == (0, "X = 1\nX = 2\n")


@pytest.mark.parametrize("goal, expected", [("q", 2), ("r", 0)])
def test_query_leaves_no_stream_open(site, capsys, tmp_path, monkeypatch, goal, expected):
    d, _ = site
    (d / "files.html").write_text(policy_page("Files", (
        f'q :- open("{tmp_path / "q.txt"}", write, _), deep(0).\n'
        f'r :- open("{tmp_path / "r.txt"}", write, _).\n'
        "deep(N) :- M is N + 1, deep(M).\n")), encoding="utf-8")
    handles = []
    new_stream = Session.new_stream
    monkeypatch.setattr(Session, "new_stream", lambda self, handle: (
        handles.append(handle) or new_stream(self, handle)))
    code, _, _ = run_cli(capsys, "query", SITE + "files.html", goal,
                         "--max-depth", "20", *base(site))
    assert code == expected
    assert len(handles) == 1 and handles[0].closed


# ---------------------------------------------------------------- fetch

def test_fetch_prints_the_translated_program(site, capsys):
    code, out, _ = run_cli(capsys, "fetch", SITE + "index.html", *base(site))
    assert code == 0
    assert 'my_id(get, "http://site.test/index.html").' in out
    assert 'link("Other page", "http://site.test/other.html").' in out
    assert "p(1)." in out


def test_fetch_head_prints_only_the_header_facts(site, capsys):
    d, _ = site
    size = len((d / "index.html").read_bytes())
    code, out, _ = run_cli(capsys, "fetch", SITE + "index.html",
                           "--method", "head", *base(site))
    assert code == 0
    assert out.splitlines() == [
        'about("content-type", "text/html").',
        f'about("content-length", "{size}").',
        f'actual_url("{SITE}index.html").']


def test_fetch_output_and_store_files_of_a_page_are_the_same_every_time(
        site, capsys, tmp_path):
    d, _ = site
    (d / "anon.html").write_text(policy_page("Anonymous", "reach(T, _) :- topic(T).\n"),
                                 encoding="utf-8")
    runs = []
    for store in (tmp_path / "first", tmp_path / "second"):
        code, out, _ = run_cli(capsys, "fetch", SITE + "anon.html", *base(site),
                               "--store-dir", str(store))
        runs.append((code, out, {p.name: p.read_text(encoding="utf-8")
                                 for p in sorted(store.iterdir())}))
    assert runs[0] == runs[1]
    assert "reach(T, _G0) :- topic(T).\n" in runs[0][1]


def test_fetch_prints_and_stores_a_clause_with_a_long_list(site, capsys, tmp_path):
    d, _ = site
    text = "big([" + ", ".join(map(str, range(2000))) + ", _])."
    (d / "big.html").write_text(policy_page("Big", text + "\n"), encoding="utf-8")
    store = tmp_path / "store"
    code, out, _ = run_cli(capsys, "fetch", SITE + "big.html", *base(site),
                           "--store-dir", str(store))
    expected = text.replace("_]", "_G0]") + "\n"
    assert code == 0
    assert expected in out
    assert any(expected in p.read_text(encoding="utf-8") for p in store.iterdir())


def test_fetch_failure(site, capsys):
    code, _, err = run_cli(capsys, "fetch", SITE + "absent.html", *base(site))
    assert code == 1
    assert err.startswith("fetch failed")


def test_file_urls_are_served_by_a_mount(site, capsys):
    d, _ = site
    (d / "my page.html").write_text(INDEX, encoding="utf-8")
    code, out, _ = run_cli(capsys, "query", "file:///my%20page.html", "p(X)",
                           "--mount", f"file:///={d}", "--no-security", "--offline")
    assert (code, out) == (0, "X = 1\nX = 2\n")


DOMAIN = ('valid_program(get, URL) :- contains(URL, "http://site.test/").\n'
          "valid_systemCall(_).\n"
          "call_system(G) :- built_ins:call_builtin(G).\n")


def test_a_mounted_page_reads_nothing_outside_its_directory(site, capsys, tmp_path):
    d, registry = site
    (tmp_path / "secret.html").write_text("<html>secret</html>", encoding="utf-8")
    (d / "peek.html").write_text(
        '<html><LW_CODE>peek(T) :- lw(get, "http://site.test/../secret.html") '
        "#> h_text(T).</LW_CODE></html>", encoding="utf-8")
    (d / "domain.html").write_text(policy_page("Domain Only", DOMAIN),
                                   encoding="utf-8")
    registry.write_text(f"default {SITE}domain.html\n", encoding="utf-8")
    for security in ([], ["--no-security"]):
        code, out, err = run_cli(capsys, "query", SITE + "peek.html", "peek(T)",
                                 *security, *base(site))
        assert (code, out, err) == (1, "", "")


def test_malformed_query_url_fails_cleanly(capsys):
    code, out, err = run_cli(capsys, "query", "http://[::1", "q",
                             "--no-security", "--offline")
    assert (code, out, err) == (1, "", "")


def test_malformed_url_in_a_page_switch_fails_cleanly(site, capsys):
    d, _ = site
    (d / "bad.html").write_text(
        '<html><LW_CODE>q :- lw(get, "http://[::1") #> r.</LW_CODE></html>',
        encoding="utf-8")
    code, out, err = run_cli(capsys, "query", SITE + "bad.html", "q",
                             "--no-security", *base(site))
    assert (code, out, err) == (1, "", "")


def test_undecodable_page_fails_cleanly(site, capsys):
    d, _ = site
    (d / "bad.html").write_bytes(b"<html>\xff</html>")
    code, out, err = run_cli(capsys, "query", SITE + "bad.html", "p(X)",
                             "--no-security", *base(site))
    assert (code, out) == (1, "")
    code, _, err = run_cli(capsys, "fetch", SITE + "bad.html", *base(site))
    assert code == 1
    assert err.startswith("fetch failed (status)")


def test_undecodable_registry_is_a_usage_error(site, capsys):
    _, registry = site
    registry.write_bytes(b"default http://site.test/perm.html\n\xff\n")
    code, out, err = run_cli(capsys, "query", SITE + "index.html", "p(X)",
                             *base(site))
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    assert str(registry) in err


def test_empty_url_switch_in_a_page_is_a_usage_error(site, capsys):
    d, _ = site
    (d / "empty.html").write_text(
        '<html><LW_CODE>p :- lw(get, "") #> q.\nr :- "" #> q.\n</LW_CODE></html>\n',
        encoding="utf-8")
    for goal in ("p", "r"):
        code, out, err = run_cli(capsys, "query", SITE + "empty.html", goal,
                                 "--no-security", *base(site))
        assert (code, out, err) == (3, "", "error: empty URL\n")
    code, out, err = run_cli(capsys, "query", "", "p", *base(site))
    assert (code, out, err) == (3, "", "error: empty URL\n")


def test_fetch_over_the_program_budget_stops(site, capsys):
    code, out, err = run_cli(capsys, "fetch", SITE + "index.html",
                             "--max-programs", "0", "--no-security", *base(site))
    assert (code, out) == (2, "")
    assert err == "stopped: maximum LogicWeb program count exceeded\n"


# ---------------------------------------------------------------- policy-check

def test_policy_check_composes_policies(site, capsys):
    d, _ = site
    common = ["--mount", f"{SITE}={d}", "--offline", "--no-security"]
    code, out, _ = run_cli(capsys, "policy-check", SITE + "perm.html",
                           SITE + "norm.html",
                           "--call", 'system("ls -l")', *common)
    assert (code, out.strip()) == (0, "allow")
    code, out, _ = run_cli(capsys, "policy-check", SITE + "perm.html",
                           SITE + "norm.html",
                           "--call", 'system("rm -rf /")', *common)
    assert (code, out.strip()) == (1, "deny")
    # the permissive policy alone allows the same call
    code, out, _ = run_cli(capsys, "policy-check", SITE + "perm.html",
                           "--call", 'system("rm -rf /")', *common)
    assert (code, out.strip()) == (0, "allow")


def test_policy_check_program_ids(site, capsys):
    d, _ = site
    common = ["--mount", f"{SITE}={d}", "--offline", "--no-security"]
    code, out, _ = run_cli(capsys, "policy-check", SITE + "perm.html",
                           "--program", 'lw(get, "http://anywhere.example/")',
                           *common)
    assert (code, out.strip()) == (0, "allow")


def test_policy_check_over_the_program_budget_stops(site, capsys):
    code, out, err = run_cli(capsys, "policy-check", SITE + "perm.html",
                             "--call", 'contains("a", "a")',
                             "--max-programs", "0", *base(site))
    assert (code, out) == (2, "")
    assert err == "stopped: maximum LogicWeb program count exceeded\n"


# ---------------------------------------------------------------- store

def test_store_persists_between_invocations(site, capsys, tmp_path):
    sd = tmp_path / "cache"
    args = base(site) + ["--store-dir", str(sd)]
    run_cli(capsys, "query", SITE + "index.html", "p(1)", *args)

    code, out, _ = run_cli(capsys, "store-list", "--store-dir", str(sd))
    assert code == 0
    assert f'lw(get, "{SITE}index.html")' in out
    assert "policy=" in out

    code, out, _ = run_cli(capsys, "store-clear", "--store-dir", str(sd))
    assert code == 0
    assert "removed 1 cached program(s)" in out
    code, out, _ = run_cli(capsys, "store-list", "--store-dir", str(sd))
    assert out == ""


def test_unsecured_run_leaves_the_store_usable_for_a_secured_one(
        site, capsys, tmp_path):
    d, _ = site
    sd = ["--store-dir", str(tmp_path / "cache")]
    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "greet(X)",
                           "--mount", f"{SITE}={d}", "--offline",
                           "--no-security", *sd)
    assert (code, out.splitlines()) == (0, ["X = hi", "X = bye"])

    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "greet(X)",
                           *base(site), *sd)
    assert (code, out.splitlines()) == (0, ["X = hi", "X = bye"])
    code, out, _ = run_cli(capsys, "store-list", *sd)
    assert f"policy={SITE}perm.html" in out


def test_placeholder_assignments_in_a_store_are_reassigned(
        site, capsys, tmp_path):
    # a store written by an unsecured run that recorded the placeholder it
    # names as the policy of each program it fetched
    d, _ = site
    sd = tmp_path / "cache"
    run_cli(capsys, "query", SITE + "index.html", "p(1)", "--no-security",
            "--mount", f"{SITE}={d}", "--offline", "--store-dir", str(sd))
    (sd / "_assignments").write_text(
        f'lw(get, "{SITE}index.html")\tlw(get, "lw:no-policy")\n', encoding="utf-8")

    code, out, _ = run_cli(capsys, "query", SITE + "index.html", "greet(X)",
                           *base(site), "--store-dir", str(sd))
    assert (code, out.splitlines()) == (0, ["X = hi", "X = bye"])
    code, out, _ = run_cli(capsys, "store-list", "--store-dir", str(sd))
    assert f"policy={SITE}perm.html" in out and "no-policy" not in out


def test_store_list_requires_a_directory(site, capsys, tmp_path, monkeypatch):
    sd = tmp_path / "cache"
    run_cli(capsys, "query", SITE + "index.html", "p(1)",
            *base(site), "--store-dir", str(sd))
    # the directory comes from the flag alone, never from the environment
    monkeypatch.setenv("LW_STORE_DIR", str(sd))
    code, _, err = run_cli(capsys, "store-list")
    assert code == 3
    assert "--store-dir" in err


def test_store_list_undecodable_cache_file_is_a_usage_error(capsys, tmp_path):
    (tmp_path / "0123456789abcdef.lwp").write_bytes(b"\xff\n")
    code, out, err = run_cli(capsys, "store-list", "--store-dir", str(tmp_path))
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    assert str(tmp_path / "0123456789abcdef.lwp") in err


# ---------------------------------------------------------------- signing

def test_keygen_sign_authenticate_pipeline(site, capsys, tmp_path):
    key = tmp_path / "alice.key"
    ks = tmp_path / "keystore"
    page = tmp_path / "page.html"
    page.write_text("<html><LW_CODE>f(a).</LW_CODE></html>\n", encoding="utf-8")
    out_page = tmp_path / "page.lwpgp.html"

    code, out, _ = run_cli(capsys, "keygen", "alice",
                           "--key-out", str(key), "--keystore", str(ks))
    assert code == 0
    assert "alice" in out
    assert key.is_file() and ks.is_file()

    code, _, err = run_cli(capsys, "sign", str(page), "--key", str(key),
                           "--signer", "alice", "--out", str(out_page))
    assert code == 0
    assert err == ""
    signed = out_page.read_text(encoding="utf-8")
    assert authenticate(signed, KeyStore.load(ks)) == "alice"


def test_sign_to_stdout_and_suffix_warning(site, capsys, tmp_path):
    key = tmp_path / "k.key"
    ks = tmp_path / "keystore"
    page = tmp_path / "page.html"
    page.write_text("<html></html>\n", encoding="utf-8")
    run_cli(capsys, "keygen", "bob", "--key-out", str(key),
            "--keystore", str(ks))

    code, out, _ = run_cli(capsys, "sign", str(page), "--key", str(key),
                           "--signer", "bob")
    assert code == 0
    assert authenticate(out, KeyStore.load(ks)) == "bob"

    badname = tmp_path / "still-plain.html"
    code, _, err = run_cli(capsys, "sign", str(page), "--key", str(key),
                           "--signer", "bob", "--out", str(badname))
    assert code == 0
    assert "not be treated as signed" in err


def test_keygen_appends_to_existing_keystore(capsys, tmp_path):
    ks = tmp_path / "keystore"
    run_cli(capsys, "keygen", "alice", "--key-out", str(tmp_path / "a.key"),
            "--keystore", str(ks))
    run_cli(capsys, "keygen", "bob", "--key-out", str(tmp_path / "b.key"),
            "--keystore", str(ks))
    store = KeyStore.load(ks)
    assert set(store.keys) == {"alice", "bob"}


def test_sign_undecodable_page_is_a_usage_error(capsys, tmp_path):
    key = tmp_path / "k.key"
    page = tmp_path / "page.html"
    page.write_bytes(b"<html>\xff</html>\n")
    run_cli(capsys, "keygen", "bob", "--key-out", str(key))
    code, out, err = run_cli(capsys, "sign", str(page), "--key", str(key),
                             "--signer", "bob")
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    assert str(page) in err
