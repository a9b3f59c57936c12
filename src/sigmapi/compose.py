"""Composition by cut elimination.

``eliminate`` rewrites a raw term (identities and cuts allowed) into a
cut-free, identity-free term denoting the same arrow.  The rewrite
strategy is fixed so output is deterministic: unit absorptions first,
then principal (beta) cuts, then right commutations, then left
commutations.  Cut-free output is unique only up to the permuting
conversions; the oracle module decides that equivalence.
"""

from __future__ import annotations

from functools import lru_cache

from .terms import (
    BANG,
    QUEST,
    Bang,
    Cotuple,
    Cut,
    GenArrow,
    Id,
    Inj,
    Proj,
    Quest,
    Term,
    Tuple,
)
from .types import Gen, ObjectType, One, Prod, Sum, Zero


@lru_cache(maxsize=None)
def identity(t: ObjectType) -> Term:
    """The cut-free eta-expanded identity at a type, with the unit
    simplifications ``s_j ?  ->  ?`` and ``p_i !  ->  !`` applied."""
    match t:
        case Zero():
            return QUEST
        case One():
            return BANG
        case Gen(name):
            return GenArrow(name, ())
        case Prod(left, right):
            return Tuple(_smart_proj(0, identity(left)),
                         _smart_proj(1, identity(right)))
        case Sum(left, right):
            return Cotuple(_smart_inj(0, identity(left)),
                           _smart_inj(1, identity(right)))
    raise TypeError(f"not a type: {t!r}")


def _smart_proj(i: int, body: Term) -> Term:
    return BANG if body is BANG else Proj(i, body)


def _smart_inj(j: int, body: Term) -> Term:
    return QUEST if body is QUEST else Inj(j, body)


def eliminate(t: Term) -> Term:
    """Cut-free, identity-free form of a raw term.  The input must be
    well-typed (run ``infer`` first when in doubt); elimination itself is
    purely structural."""
    match t:
        case Id(at):
            return identity(at)
        case Cut(left, right):
            return compose(eliminate(left), eliminate(right))
        case Proj(i, body):
            return Proj(i, eliminate(body))
        case Inj(j, body):
            return Inj(j, eliminate(body))
        case Tuple(left, right):
            return Tuple(eliminate(left), eliminate(right))
        case Cotuple(left, right):
            return Cotuple(eliminate(left), eliminate(right))
        case _:
            return t


def compose(f: Term, g: Term) -> Term:
    """Cut-free composite of cut-free terms ``f : X -> C`` and ``g : C -> A``.

    Rule priority: ``? ; g -> ?`` and ``f ; ! -> !`` absorb first; then the
    principal cuts (tuple against projection, injection against cotuple,
    generator path concatenation); then commutation under the right
    factor's injections/tuples; finally commutation under the left
    factor's projections/cotuples.
    """
    match (f, g):
        case (Quest(), _):
            return QUEST
        case (_, Bang()):
            return BANG
        case (Tuple(), Proj(i, inner)):
            return compose(f.left if i == 0 else f.right, inner)
        case (Inj(j, inner), Cotuple()):
            return compose(inner, g.left if j == 0 else g.right)
        case (GenArrow(src, p), GenArrow(_, q)):
            return GenArrow(src, p + q)
        case (_, Inj(j, inner)):
            return Inj(j, compose(f, inner))
        case (_, Tuple(left, right)):
            return Tuple(compose(f, left), compose(f, right))
        case (Proj(i, inner), _):
            return Proj(i, compose(inner, g))
        case (Cotuple(left, right), _):
            return Cotuple(compose(left, g), compose(right, g))
    raise ValueError(f"compose: no rule for {f!r} ; {g!r} (ill-typed or raw input)")
