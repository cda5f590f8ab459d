"""The term printer written the plain recursive way, as a reference for
`logicweb.syntax.to_text`, which prints with an explicit stack. The
differential tests compare the two on generated terms; this one nests two
Python frames a level, so it stops at a few hundred levels."""

from logicweb.syntax import (INFIX_OPS, PREFIX_OPS, _atom_text, _name_text,
                             _str_text)
from logicweb.terms import Atom, Num, Str, Struct, Term, Var, list_items


def to_text(t: Term, max_prec: int = 1200,
            names: dict[int, int] | None = None) -> str:
    if isinstance(t, Var):
        if t.name == "_" or t.name.startswith("_G"):
            if names is None:
                return f"_G{t.id}"
            return f"_G{names.setdefault(t.id, len(names))}"
        return t.name
    if isinstance(t, Atom):
        return _atom_text(t.name)
    if isinstance(t, Num):
        return repr(t.value)
    if isinstance(t, Str):
        return _str_text(t.value)
    assert isinstance(t, Struct)
    if t.functor == "." and len(t.args) == 2:
        items, tail = list_items(t)
        inner = ", ".join(to_text(x, 999, names) for x in items)
        if isinstance(tail, Atom) and tail.name == "[]":
            return f"[{inner}]"
        return f"[{inner}|{to_text(tail, 999, names)}]"
    if t.functor == "@" and len(t.args) == 1:
        prec, _ = PREFIX_OPS["@"]
        body = f"@{to_text(t.args[0], prec, names)}"
        return body if prec <= max_prec else f"({body})"
    if len(t.args) == 2 and t.functor in INFIX_OPS:
        prec, fixity = INFIX_OPS[t.functor]
        lp = prec if fixity == "yfx" else prec - 1
        rp = prec if fixity == "xfy" else prec - 1
        sep = ", " if t.functor == "," else f" {t.functor} "
        body = f"{to_text(t.args[0], lp, names)}{sep}{to_text(t.args[1], rp, names)}"
        return body if prec <= max_prec else f"({body})"
    args = ", ".join(to_text(a, 999, names) for a in t.args)
    return f"{_name_text(t.functor)}({args})"
