"""A page's `link/2` facts are built on first use. Whatever reads the program
first (a `link/2` lookup, `clauses`, an `assert` or a `retract`), it must
see what a program whose facts were all built at download time shows: the
same clauses in the same order, the same `link/2` answers, the same `lw
fetch` output and the same store files."""

import functools
import random
import sys
from pathlib import Path
from urllib.parse import urljoin

import pytest

from conftest import HOME_URL, base_pages, make_session, policy_page
from logicweb import fetching, pages
from logicweb.cli import main
from logicweb.engine import solutions
from logicweb.fetching import PageEntry
from logicweb.model import (LINK, Clause, LWProgram, ProgramId, clause_text,
                            clause_to_term, parse_program)
from logicweb.pages import (HttpResponse, LWCodeError, extract_links,
                            extract_lw_code, translate_page)
from logicweb.syntax import to_text
from logicweb.terms import (EMPTY_SUBST, Str, Struct, fresh_var, make_list,
                            variant_key)
from test_hostile import HOSTILE_PAGES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def eager_translate(resp: HttpResponse, pid: ProgramId) -> LWProgram:
    """The translation with every link fact built at download time."""
    clauses = [Clause(Struct("about", (Str(name.lower()), Str(value))))
               for name, value in resp.headers]
    clauses.append(Clause(Struct("actual_url", (Str(resp.final_url),))))
    if pid.method == "head":
        return LWProgram(pid, clauses)
    clause_text, page_text = extract_lw_code(resp.body)
    clauses.append(Clause(Struct("my_id", (pid.method_term(), Str(pid.url)))))
    clauses.append(Clause(Struct("h_text", (Str(page_text),))))
    for label, href in extract_links(page_text):
        try:
            clauses.append(Clause(Struct("link", (Str(label),
                                                  Str(urljoin(resp.final_url, href))))))
        except ValueError:
            pass
    if clause_text.strip():
        try:
            clauses.extend(parse_program(clause_text))
        except Exception:
            pass
    return LWProgram(pid, clauses)


def _corpus(name: str) -> dict[str, str]:
    """url -> page body of one set of pages; a hostile page that is not
    UTF-8 comes decoded, as text it can be translated and mounted."""
    if name.startswith("site"):
        site = workloads.generate_site(random.Random(f"site_crawl:{name[4:]}"))
        return {url: page.html for url, page in site.items()}
    if name == "fixtures":
        return {url: entry.body for url, entry in base_pages().items()}
    return {f"http://hostile.example/{case}.html":
            body.decode("utf-8", "replace") if isinstance(body, bytes) else body
            for case, (body, _code, _seconds) in HOSTILE_PAGES.items()}


CORPORA = ["site1", "site2", "site3", "fixtures", "hostile"]


def _link_answers(program: LWProgram, first=None) -> list:
    """The heads `link(L, U)` (or `link(First, U)`) meets, in order: every
    candidate of a fact unifies."""
    goal = Struct("link", (fresh_var("L") if first is None else first, fresh_var("U")))
    return [c.head for c in program.candidates(goal, EMPTY_SUBST)]


def _key(clauses) -> tuple:
    """The clauses in order, their variables numbered from the first."""
    return variant_key(make_list([clause_to_term(c) for c in clauses]))


def _resp(url: str, body: str) -> HttpResponse:
    return HttpResponse(url, url, [("Content-Type", "text/html")], body)


@pytest.fixture
def built_once(monkeypatch):
    """Each page's link facts are built by `link_facts` once and handed out
    again to every later program of the page, which keeps the checks below,
    each on a program nothing has read yet, fast on the hostile pages."""
    monkeypatch.setattr(pages, "link_facts", functools.cache(pages.link_facts))


@pytest.mark.parametrize("corpus", CORPORA)
def test_deferred_links_read_as_eager_ones(corpus, built_once):
    for url, body in _corpus(corpus).items():
        resp, pid = _resp(url, body), ProgramId.get(url)
        try:
            eager = eager_translate(resp, pid)
        except LWCodeError:
            with pytest.raises(LWCodeError):
                translate_page(resp, pid)
            continue
        # each first read below is of a program nothing has read yet
        assert _key(translate_page(resp, pid).clauses) == _key(eager.clauses), url
        program = translate_page(resp, pid)
        assert _link_answers(program) == _link_answers(eager), url
        for c in eager.clauses_of(LINK)[:1]:
            label = c.head.args[0]
            assert _link_answers(program, label) == _link_answers(eager, label), url
        assert (translate_page(resp, pid).defines("link", 2)
                == eager.defines("link", 2)), url
        assert translate_page(resp, pid).clauses_of(LINK) == eager.clauses_of(LINK)


def _fetch_all(site: Path, stores: Path, capsys) -> list:
    """`lw fetch` of every page under `site` into a store under `stores`:
    its exit code, output and the store's files, per page. Saving the store
    reads the program first."""
    got = []
    for page in sorted(site.iterdir()):
        store = stores / page.name
        code = main(["fetch", f"http://pages.test/{page.name}", "--offline",
                     "--no-security", "--mount", f"http://pages.test/={site}",
                     "--store-dir", str(store)])
        out, err = capsys.readouterr()
        got.append((code, out, err,
                    {p.name: p.read_text(encoding="utf-8")
                     for p in sorted(store.iterdir())}))
    return got


@pytest.mark.parametrize("corpus", CORPORA)
def test_lw_fetch_and_store_files_match_eager_translation(corpus, tmp_path, capsys,
                                                          monkeypatch, built_once):
    site = tmp_path / "site"
    site.mkdir()
    for i, body in enumerate(_corpus(corpus).values()):
        (site / f"{i:02d}.html").write_text(body, encoding="utf-8")
    lazy = _fetch_all(site, tmp_path / "lazy", capsys)
    monkeypatch.setattr(fetching, "translate_page", eager_translate)
    assert lazy == _fetch_all(site, tmp_path / "eager", capsys)


@pytest.fixture
def scans(monkeypatch):
    """The texts `pages.extract_links` has scanned since the test began."""
    calls = []

    def counted(html):
        calls.append(html)
        return extract_links(html)

    monkeypatch.setattr(pages, "extract_links", counted)
    return calls


ANCHORS = '<a href="one.html">One</a> <a href="http://two.example/">Two</a>\n'
SITE = "http://lazy.example/"


# each way a program can be read first, made the same way on either program
FIRST_READS = {
    "candidates": _link_answers,
    "clauses_of": lambda program: program.clauses_of(LINK),
    "defines": lambda program: program.defines("link", 2),
    "clauses": lambda program: program.clauses,
    "add": lambda program: program.add(
        Clause(Struct("link", (Str("New"), Str(f"{SITE}new"))))),
    "remove": lambda program: program.remove(program.clauses_of(("h_text", 1))[0]),
}


@pytest.mark.parametrize("first_read", FIRST_READS)
def test_page_defining_link_answers_with_its_anchors_first(first_read, scans):
    body = f"<html>{ANCHORS}<LW_CODE>link(\"Own\", \"{SITE}own\").</LW_CODE></html>"
    resp, pid = _resp(SITE, body), ProgramId.get(SITE)
    program, eager = translate_page(resp, pid), eager_translate(resp, pid)
    assert scans == []              # the page's own link/2 builds nothing yet
    read = FIRST_READS[first_read]
    assert read(program) == read(eager)
    assert len(scans) == 1          # the first read builds them, once
    answers = _link_answers(program)
    assert [to_text(h) for h in answers[:3]] == [
        f'link("One", "{SITE}one.html")', 'link("Two", "http://two.example/")',
        f'link("Own", "{SITE}own")']
    assert answers == _link_answers(eager)
    assert _key(program.clauses) == _key(eager.clauses)
    assert len(scans) == 1


LEDGER_URL = "http://policies.example.org/ledger.html"
LEDGER = ("valid_program(_, _).\nvalid_systemCall(_).\n"
          "call_system(G) :- built_ins:call_builtin(G).\n")


@pytest.mark.parametrize("goal", ['assert(link("New", "http://new.example/"))',
                                  'retract(link("One", _))',
                                  "retract(valid_systemCall(_))",
                                  'retract(about("content-type", _))',
                                  "assert(p), retract(my_id(_, _))"])
def test_assert_and_retract_before_any_read_keep_the_anchors_in_place(
        goal, monkeypatch):
    body = policy_page("Ledger", LEDGER).replace("<BODY>", f"<BODY>{ANCHORS}")
    pages_ = dict(base_pages(), **{LEDGER_URL: PageEntry(body)})
    texts = []
    for translate in (translate_page, eager_translate):
        monkeypatch.setattr(fetching, "translate_page", translate)
        session = make_session(pages_, default_policy=LEDGER_URL)
        assert solutions(session, HOME_URL,
                         f'lw(get, "{LEDGER_URL}") #> ({goal})') == [{}]
        program = session.store.get(ProgramId.get(LEDGER_URL))
        texts.append([clause_text(c) for c in program.clauses])
    assert texts[0] == texts[1]
    after = [t for t in texts[0] if t.startswith(("h_text(", "link("))]
    assert after[0].startswith("h_text(") and after[1].startswith("link(")


@pytest.mark.parametrize("hidden_body, answers", [
    (f"<html>{ANCHORS}</html>", []),
    ("<html>no anchors here</html>", ['"One"', '"Two"']),
])
def test_restriction_hides_link_only_by_a_page_with_anchors(hidden_body, answers):
    session = make_session(dict(base_pages(), **{
        SITE + "p.html": PageEntry(f"<html>{ANCHORS}</html>"),
        SITE + "q.html": PageEntry(hidden_body)}), security=False)
    got = solutions(session, HOME_URL,
                    f'(lw(get, "{SITE}p.html") / lw(get, "{SITE}q.html")) #> link(L, _)')
    assert [to_text(b["L"]) for b in got] == answers


def test_reach_over_the_site_never_scans_anchors(tmp_path, capsys, scans):
    site = workloads.generate_site(random.Random("site_crawl:1"))
    for page in site.values():
        (tmp_path / page.url[len(workloads.SITE):]).write_text(page.html,
                                                               encoding="utf-8")
    start = next(url for url, page in site.items() if page.nexts)
    args = ["--offline", "--no-security", "--mount", f"{workloads.SITE}={tmp_path}"]
    assert main(["query", start, "reach(T, 3)", *args]) == 0
    assert capsys.readouterr().out and scans == []
    assert main(["query", start, "link(L, U)", *args]) == 0
    assert capsys.readouterr().out.count("L = ") == len(extract_links(
        extract_lw_code(site[start].html)[1]))
    assert len(scans) == 1
