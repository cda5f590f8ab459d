"""Clause selection's head match written down the two-step way, as a
reference for the match in the clause's own frame (`unify` given a
mapping): copy the head with fresh variables, unify the goal with the copy,
then copy the body through the same mapping."""

from logicweb.terms import Substitution, Term, rename_apart, unify


def match(goal: Term, head: Term, body: Term,
          s: Substitution) -> tuple[Substitution, Term] | None:
    """The substitution and the renamed body a match of `goal` against the
    clause `head :- body` gives, or None when the head does not unify."""
    mapping: dict = {}
    s1 = unify(goal, rename_apart(head, mapping), s)
    if s1 is None:
        return None
    return s1, rename_apart(body, mapping)
