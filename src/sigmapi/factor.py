"""Linear-time factorization of a term through a coproduct injection or a
product projection.

``factor(s, f, k)`` is the one entry point, written once for a side
``s``: ``factor(POINT, f, j)`` returns an annotated ``f'`` with
``s_j f' == f`` (up to the permuting conversions), or None when no such
factor exists; ``factor(COPOINT, f, i)`` dually returns ``f'`` with
``p_i f' == f``.  Inputs must be pre-annotated so that witness lookups
(``f.ann[s]``) are constant-time; the structural analysis, for the
injection side:

* a syntactic ``s_j`` factor is taken as-is (deterministic and smallest);
* otherwise a copointed term always factors, through its copoint;
* otherwise the other injection blocks, a cotuple factors when both
  branches do, and a projection factors when its body does.
"""

from __future__ import annotations

from typing import Optional

from .annotate import AnnotatedTerm, VisitCounter, ann_pair, ann_unary, annotate
from .terms import PAIR, UNARY, UNARY_TYPE, by_side


def factor(s: int, f: AnnotatedTerm, k: int,
           counter: Optional[VisitCounter] = None) -> Optional[AnnotatedTerm]:
    """Factor ``f`` through the unary constructor of side ``s`` at index ``k``."""
    o = 1 - s
    assert isinstance(f.end(o), UNARY_TYPE[s]), "factor needs a sum codomain or a product domain"
    if counter is not None:
        counter.tick()
    t = f.term
    if type(t) is UNARY[s] and t.index == k:
        return f.children[0]
    if f.ann[o] is not None:
        # a witness of the other side lifts through the unit object, and
        # being canonical it is its own composite with the unit arrow
        return annotate(f.ann[o], *by_side(s, f.end(s), f.end(o).component(k)))
    if type(t) is UNARY[s]:  # the other index, without a witness: blocked
        return None
    if type(t) is PAIR[o]:
        left = factor(s, f.children[0], k, counter)
        if left is None:
            return None
        right = factor(s, f.children[1], k, counter)
        if right is None:
            return None
        return ann_pair(o, left, right)
    if type(t) is UNARY[o]:
        body = factor(s, f.children[0], k, counter)
        if body is None:
            return None
        return ann_unary(o, t.index, body, f.end(s))
    raise ValueError(f"factor: unexpected shape {t!r}")

