"""Policy registry behaviour and the audit trail."""

import gc

import pytest
from conftest import of_kind

from logicweb.engine import Session
from logicweb.fetching import FetchConfig
from logicweb.model import LWProgram, ProgramId
from logicweb.security import (MAX_EVENTS, AuditLog, PolicyRegistry,
                               RegistryError, UNKNOWN_SIGNER)
from logicweb.signatures import KeyStore, generate_keypair, sign_page
from logicweb.syntax import parse_term_text, to_text
from logicweb.terms import Atom, Str, Struct, Var

DEFAULT = ProgramId.get("http://pol.example/default.html")
ALICE_POL = ProgramId.get("http://pol.example/alice.html")
CORP_POL = ProgramId.get("http://pol.example/corp.html")


def registry(**kw):
    return PolicyRegistry({UNKNOWN_SIGNER: DEFAULT,
                           "alice": ALICE_POL}, **kw)


def test_registry_requires_unknown_mapping():
    with pytest.raises(RegistryError):
        PolicyRegistry({"alice": ALICE_POL})


def test_policy_ids_union():
    reg = registry(trusted=[("http://corp.example/", CORP_POL)])
    extra = ProgramId.get("http://pol.example/extra.html")
    reg.register_policy(extra)
    assigned = ProgramId.get("http://pol.example/assigned.html")
    assert reg.assign(ProgramId.get("http://x/"), assigned) == assigned
    # the first assignment stays, and only it names a policy
    assert reg.assign(ProgramId.get("http://x/"), DEFAULT) == assigned
    assert reg.policy_ids == {DEFAULT, ALICE_POL, CORP_POL, extra, assigned}
    assert reg.is_policy(extra)
    assert not reg.is_policy(ProgramId.get("http://x/"))


def test_pol_errors():
    reg = registry()
    with pytest.raises(RegistryError, match="is a policy program"):
        reg.pol(DEFAULT)
    with pytest.raises(RegistryError, match="never been assigned"):
        reg.pol(ProgramId.get("http://nobody/"))


def test_unsigned_page_gets_default():
    reg = registry()
    assert reg.determine_policy_id("http://a.example/x.html", "<html>") == DEFAULT


def test_signed_page_routes_to_signer_policy():
    priv, pub = generate_keypair()
    reg = registry(keystore=KeyStore({"alice": pub}))
    url = "http://a.example/page.lwpgp.html"
    signed = sign_page("<html>body</html>\n", priv, "alice")
    assert reg.determine_policy_id(url, signed) == ALICE_POL
    # tampering drops the page back to the untrusted default
    assert reg.determine_policy_id(url, signed.replace("body", "evil")) == DEFAULT


def test_verified_but_unmapped_signer_falls_back_to_default():
    priv, pub = generate_keypair()
    reg = registry(keystore=KeyStore({"mallory": pub}))
    url = "http://a.example/page.lwpgp.html"
    signed = sign_page("<html></html>\n", priv, "mallory")
    assert reg.determine_policy_id(url, signed) == DEFAULT


def test_trusted_prefix_wins_when_enabled():
    reg = registry(trusted=[("http://corp.example/", CORP_POL)],
                   trusted_enabled=True)
    assert reg.determine_policy_id("http://corp.example/a/b.html", "") == CORP_POL
    assert reg.determine_policy_id("http://other.example/", "") == DEFAULT
    # disabled by default
    reg2 = registry(trusted=[("http://corp.example/", CORP_POL)])
    assert reg2.determine_policy_id("http://corp.example/a/b.html", "") == DEFAULT


def test_assign_policy_records_once():
    reg = registry()
    pid = ProgramId.get("http://a.example/x")
    assert reg.assign_policy(pid, "<html>") == DEFAULT
    # later re-assignment attempts keep the original
    reg.signer_to_policy[UNKNOWN_SIGNER] = ALICE_POL
    assert reg.assign_policy(pid, "<html>") == DEFAULT
    assert reg.pol(pid) == DEFAULT


def test_assign_policy_skips_policy_programs():
    reg = registry()
    assert reg.assign_policy(DEFAULT, "<html>") is None
    assert DEFAULT not in reg.program_to_policy


def test_install_local_assigns_like_a_download():
    reg = registry(trusted=[("http://corp.example/", CORP_POL)],
                   trusted_enabled=True)
    session = Session(reg, FetchConfig(allow_network=False))
    inside = ProgramId.get("http://corp.example/tool.html")
    outside = ProgramId.get("http://other.example/")
    for pid in (inside, outside, DEFAULT):
        session.install_local(LWProgram(pid, []))
    assert reg.pol(inside) == CORP_POL
    assert reg.pol(outside) == DEFAULT
    assert DEFAULT not in reg.program_to_policy


def test_load_registry_file(tmp_path):
    path = tmp_path / "registry"
    path.write_text(
        "# comment\n"
        "default http://pol.example/default.html\n"
        "signer alice http://pol.example/alice.html\n"
        "signer Bob Smith <b@x> http://pol.example/bob.html\n"
        "trusted http://corp.example/ http://pol.example/corp.html\n",
        encoding="utf-8")
    reg = PolicyRegistry.load(path)
    assert reg.default_policy == DEFAULT
    assert reg.signer_to_policy["alice"] == ALICE_POL
    assert reg.signer_to_policy["Bob Smith <b@x>"].url == "http://pol.example/bob.html"
    assert reg.trusted == [("http://corp.example/", CORP_POL)]


def test_load_registry_rejects_bad_lines(tmp_path):
    for body in ("garbage http://x/\n",
                 "signer onlyurl\n",
                 "signer alice http://a/\n"):  # no default line
        path = tmp_path / "registry"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(RegistryError):
            PolicyRegistry.load(path)


def test_audit_log_collects_and_formats():
    log = AuditLog()
    ev = log.emit("syscall", "open(f, read, S)",
                  chain=(ProgramId.get("http://a/"),),
                  sigma=(DEFAULT,))
    assert of_kind(log, "syscall") == [ev]
    assert of_kind(log, "fetch") == []
    line = ev.format_line()
    assert "syscall open(f, read, S)" in line
    assert 'lw(get, "http://a/")' in line
    assert DEFAULT.serialize() in line


def test_audit_line_placeholders_when_empty():
    line = AuditLog().emit("notice", "hello").format_line()
    assert "| context: - | policies: -" in line


def test_audit_log_keeps_the_newest_events_and_counts_the_dropped():
    log = AuditLog()
    k = 7
    for i in range(MAX_EVENTS + k):
        log.emit("notice", f"n{i}")
    assert len(log.events) == MAX_EVENTS
    assert [ev.detail for ev in (log.events[0], log.events[-1])] == [
        f"n{k}", f"n{MAX_EVENTS + k - 1}"]
    assert (log.emitted, log.dropped, log.notices) == (
        MAX_EVENTS + k, k, MAX_EVENTS + k)


def test_an_event_keeps_its_goal_in_a_record_the_collector_does_not_track():
    goal, _ = parse_term_text('open("f", read, S), [a, 1.5|T] = X')
    ev = AuditLog().emit("syscall", goal, prefix="allow: ")
    gc.collect()
    gc.collect()
    assert not gc.is_tracked(ev.record)
    assert ev.subject == goal
    assert ev.detail == "allow: " + to_text(goal)


def test_an_event_prints_a_10k_deep_goal_and_a_goal_sharing_a_subterm():
    deep = Atom("a")
    for _ in range(10_000):
        deep = Struct("f", (deep,))
    shared = Struct("g", (Var("_G", 3), Str("s"), Var("X", 4)))
    twice = Struct("h", (shared, shared))
    log = AuditLog()
    for goal in (deep, twice):
        assert log.emit("syscall", goal).detail == to_text(goal)
    assert log.events[-1].subject == twice
    assert log.events[-1].detail == 'h(g(_G3, "s", X), g(_G3, "s", X))'


def test_audit_events_are_immutable():
    ev = AuditLog().emit("notice", "hello")
    for attr in ("kind", "record", "subject", "detail", "chain"):
        with pytest.raises(AttributeError):
            setattr(ev, attr, "changed")
