"""Hostile pages, built to exhaust the client: shared by `test_hostile.py`
and the trail pins of `golden.py`, so nothing here needs `pytest`."""

# The context doubles at every level, so walking it as a tree takes time
# exponential in the depth.
DOUBLING = "g :- ((#) + (#)) #> g.\n"


def balanced_union(n: int, first: int = 0) -> str:
    if n == 1:
        return f'"http://hostile.example/p{first}.html"'
    half = n // 2
    return f"({balanced_union(half, first)} + {balanced_union(n - half, first + half)})"


# Each page holds p(1) in a well-formed code block unless the case breaks
# that block; (body, expected exit code, seconds allowed).
CODE = "<LW_CODE><!-- p(1). --></LW_CODE>"
HOSTILE_PAGES = {
    "unbalanced_lw_code": (f"<html>{CODE}<LW_CODE>p(2).</html>", 1, 2.0),
    "not_utf8": (b"<html>\xff\xfe" + CODE.encode() + b"</html>", 1, 2.0),
    "unclosed_comment": (f"<html>{CODE}<!-- <a href='x.html'>x</a>", 0, 2.0),
    "unclosed_script": (f"{CODE}<script> <a href='x.html'>x</a> " + "y" * 100_000, 0, 2.0),
    "anchors_50k": (CODE + "".join(f'<a href="p{i}.html">page {i}</a>\n'
                                   for i in range(50_000)), 0, 6.0),
    "malformed_href": (f"<a href='http://[::1'>bad</a><a href=ok.html>ok</a>{CODE}", 0, 2.0),
    # a scanner that tries every `<!--` as a comment scans the rest of the
    # page for each one
    "unclosed_comments_50k": (CODE + "<!-- <a href=x.html>x</a>\n" * 50_000, 0, 3.0),
    # a scanner that tries every `<` as a tag scans the rest of the page for
    # the `>` that would end it
    "unclosed_start_tags_50k": (CODE + "<a href='x.html' " * 50_000, 0, 3.0),
    "unclosed_end_tags_50k": (CODE + "</a " * 50_000, 0, 3.0),
    # every LW_CODE tag holds a `_`: a search that tries the `<` before
    # each `_` must try each `<` once, and backtrack over a run of
    # whitespace after one once, not once for each way of splitting it
    "underscores_1mb": (CODE + "_" * 1_000_000, 0, 3.0),
    "spaces_after_a_bracket_1mb": (CODE + "<" + " " * 1_000_000 + "_" * 100_000, 0, 3.0),
    "bracket_underscores_200k": (CODE + "<_" * 200_000, 0, 3.0),
    # a switch into a `+` tree of 20k distinct ids, only 15 levels deep: a
    # node that looked for each id of one part among the other's by a scan
    # would take time quadratic in the ids
    "wide_context_20k": (f"{CODE}<LW_CODE>p(2) :- {balanced_union(20_000)} #> q."
                         "</LW_CODE>", 0, 6.0),
}
# the pages slow enough that the trail pins leave them out
SLOW_PAGES = ("anchors_50k", "wide_context_20k")


# `p(X)` alone never scans the page for anchors, since the `link/2` facts
# are built on first use; the second goal reads them and keeps the answers
READ_LINKS = "p(X), (link(_, _) -> true ; true)"
