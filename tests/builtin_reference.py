"""The built-in call protocol before built-ins answered in the caller's
substitution, as a reference for it: the goal is applied once, the
built-in answers from the empty substitution, and each answer is a delta
that `compose` merges into the caller's substitution."""

from logicweb import builtins as bi
from logicweb.terms import EMPTY_SUBST, Substitution, Term


def call_builtin(t: Term, s: Substitution, session, ctx):
    """Each answer of the built-in `t` run on `s.apply(t)` alone, merged
    into `s`."""
    for delta in bi.call_builtin(s.apply(t), EMPTY_SUBST, session, ctx):
        yield s.compose(delta)
