"""The ancestor loop check written the plain way, as a reference for the
guard's keyed one: scan every live ancestor, comparing contexts with `==`
and goals with a pairwise variant test that builds a variable bijection as
it walks both terms."""

from logicweb.terms import Struct, Term, Var


def pairwise_variant(t1: Term, t2: Term) -> bool:
    """True when the terms are equal up to a bijective renaming of variables."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Var) and isinstance(b, Var):
            if fwd.setdefault(a.id, b.id) != b.id:
                return False
            if bwd.setdefault(b.id, a.id) != a.id:
                return False
        elif isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        elif type(a) is not type(b) or a != b:
            return False
    return True


def check_loop(ancestors, ctx, goal: Term) -> bool:
    """True when some ancestor ran a variant of this goal in a structurally
    equal context. `ancestors` is a list of (context, goal) pairs."""
    return any(prev_ctx == ctx and pairwise_variant(prev_goal, goal)
               for prev_ctx, prev_goal in ancestors)
