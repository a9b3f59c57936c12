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
    PAIR,
    PAIR_TYPE,
    QUEST,
    UNARY,
    UNIT,
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
        case Prod(left, right) | Sum(left, right):
            # the tuple of projections or the cotuple of injections
            s = PAIR_TYPE.index(type(t))
            return PAIR[s](_unary(1 - s, 0, identity(left)), _unary(1 - s, 1, identity(right)))
    raise TypeError(f"not a type: {t!r}")


def _unary(s: int, k: int, body: Term) -> Term:
    """``UNARY[s](k, body)``, absorbed by a body that is the other side's unit."""
    return body if body is UNIT[1 - s] else UNARY[s](k, body)


def eliminate(t: Term) -> Term:
    """Cut-free, identity-free form of a raw term.  The input must be
    well-typed (run ``infer`` first when in doubt); elimination itself is
    purely structural.

    Terms are interned, so each distinct subterm is eliminated once and
    each distinct pair of factors composed once per call."""
    return _eliminate(t, {}, {})


def _eliminate(t: Term, memo: dict, composed: dict) -> Term:
    """``eliminate`` with its per-call memos: ``memo`` maps raw subterms to
    their results, ``composed`` maps factor pairs to their composites.  A
    node whose children come back unchanged is returned as it is, which
    spares re-interning cut-free subterms."""
    out = memo.get(t)
    if out is not None:
        return out
    match t:
        case Id(at):
            out = identity(at)
        case Cut(left, right):
            out = _compose(_eliminate(left, memo, composed),
                           _eliminate(right, memo, composed), composed)
        case Proj(i, body) | Inj(i, body):
            b = _eliminate(body, memo, composed)
            out = t if b is body else type(t)(i, b)
        case Tuple(left, right) | Cotuple(left, right):
            l, r = _eliminate(left, memo, composed), _eliminate(right, memo, composed)
            out = t if l is left and r is right else type(t)(l, r)
        case _:
            out = t
    memo[t] = out
    return out


def compose(f: Term, g: Term) -> Term:
    """Cut-free composite of cut-free terms ``f : X -> C`` and ``g : C -> A``.

    Rule priority: ``? ; g -> ?`` and ``f ; ! -> !`` absorb first; then the
    principal cuts (tuple against projection, injection against cotuple,
    generator path concatenation); then commutation under the right
    factor's injections/tuples; finally commutation under the left
    factor's projections/cotuples.
    """
    return _compose(f, g, {})


def _compose(f: Term, g: Term, memo: dict) -> Term:
    """``compose`` with a per-call memo of the pairs already composed."""
    key = (f, g)
    out = memo.get(key)
    if out is not None:
        return out
    match (f, g):
        case (Quest(), _):
            out = QUEST
        case (_, Bang()):
            out = BANG
        case (Tuple(), Proj(i, inner)):
            out = _compose(f.left if i == 0 else f.right, inner, memo)
        case (Inj(j, inner), Cotuple()):
            out = _compose(inner, g.left if j == 0 else g.right, memo)
        case (GenArrow(src, p), GenArrow(_, q)):
            out = GenArrow(src, p + q)
        case (_, Inj(j, inner)):
            out = Inj(j, _compose(f, inner, memo))
        case (_, Tuple(left, right)):
            out = Tuple(_compose(f, left, memo), _compose(f, right, memo))
        case (Proj(i, inner), _):
            out = Proj(i, _compose(inner, g, memo))
        case (Cotuple(left, right), _):
            out = Cotuple(_compose(left, g, memo), _compose(right, g, memo))
        case _:
            raise ValueError(f"compose: no rule for {f!r} ; {g!r} (ill-typed or raw input)")
    memo[key] = out
    return out
