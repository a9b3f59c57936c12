"""``annotate`` against a plain reference annotator, node for node.

The reference follows the rules of the ``annotate`` module docstring,
written out per constructor with no sides, no memo and no shared
builder: a term's point witness (``1 -> cod``) and copoint witness
(``dom -> 0``) are canonical, hence interned, so each must be the very
object that ``annotate`` chose.
"""

import random
from typing import NamedTuple, Optional

from sigmapi import (
    BANG,
    COPOINT,
    POINT,
    QUEST,
    Bang,
    Cotuple,
    GenArrow,
    Inj,
    Proj,
    Quest,
    Tuple,
    VisitCounter,
    annotate,
    enumerate_terms,
    iter_types,
    witness_of,
)


class Ref(NamedTuple):
    term: object
    dom: object
    cod: object
    point: Optional[object]
    copoint: Optional[object]
    children: tuple
    visits: int


def reference(t, dom, cod) -> Ref:
    """The annotation of ``t : dom -> cod``, recomputed at every tree node."""
    if isinstance(t, Bang):
        # ``!`` is the point of 1; a copointed domain makes it the disconnect
        return Ref(t, dom, cod, BANG, witness_of(COPOINT, dom), (), 1)
    if isinstance(t, Quest):
        return Ref(t, dom, cod, witness_of(POINT, cod), QUEST, (), 1)
    if isinstance(t, GenArrow):
        return Ref(t, dom, cod, None, None, (), 1)
    if isinstance(t, Inj):
        b = reference(t.body, dom, cod.component(t.index))
        if b.copoint is not None:
            # a copointed arrow into a pointed object is the disconnect,
            # which factors through every point
            point = witness_of(POINT, cod)
        elif b.point is not None:
            point = Inj(t.index, b.point)
        else:
            point = None
        return Ref(t, dom, cod, point, b.copoint, (b,), b.visits + 1)
    if isinstance(t, Proj):
        b = reference(t.body, dom.component(t.index), cod)
        if b.point is not None:
            copoint = witness_of(COPOINT, dom)
        elif b.copoint is not None:
            copoint = Proj(t.index, b.copoint)
        else:
            copoint = None
        return Ref(t, dom, cod, b.point, copoint, (b,), b.visits + 1)
    if isinstance(t, Tuple):
        l = reference(t.left, dom, cod.left)
        r = reference(t.right, dom, cod.right)
        point = Tuple(l.point, r.point) if None not in (l.point, r.point) else None
        copoint = _common(l.copoint, r.copoint, l.point is not None,
                          r.point is not None, witness_of(COPOINT, dom))
        return Ref(t, dom, cod, point, copoint, (l, r), l.visits + r.visits + 1)
    if isinstance(t, Cotuple):
        l = reference(t.left, dom.left, cod)
        r = reference(t.right, dom.right, cod)
        copoint = Cotuple(l.copoint, r.copoint) if None not in (l.copoint, r.copoint) else None
        point = _common(l.point, r.point, l.copoint is not None,
                        r.copoint is not None, witness_of(POINT, cod))
        return Ref(t, dom, cod, point, copoint, (l, r), l.visits + r.visits + 1)
    raise AssertionError(f"not a cut-free term: {t!r}")


def _common(lw, rw, l_disconnect, r_disconnect, any_witness):
    """The witness both components factor through, or None.  A component
    that is the disconnect factors through every witness of the shared
    end, so it defers to the other; canonical witnesses of one class are
    one object, so two others must be the same."""
    if lw is None or rw is None:
        return None
    if l_disconnect and r_disconnect:
        return any_witness
    if l_disconnect:
        return rw
    if r_disconnect:
        return lw
    return lw if lw is rw else None


def _assert_same(a, ref: Ref, where=()):
    assert a.term is ref.term, where
    assert a.dom is ref.dom and a.cod is ref.cod, where
    assert a.ann[POINT] is ref.point, (where, a.ann[POINT], ref.point)
    assert a.ann[COPOINT] is ref.copoint, (where, a.ann[COPOINT], ref.copoint)
    assert len(a.children) == len(ref.children), where
    c = VisitCounter()
    annotate(ref.term, ref.dom, ref.cod, c)
    assert c.visits == ref.visits, where
    for k, (child, rchild) in enumerate(zip(a.children, ref.children)):
        _assert_same(child, rchild, where + (k,))


def _check(t, dom, cod):
    c = VisitCounter()
    a = annotate(t, dom, cod, c)
    ref = reference(t, dom, cod)
    assert c.visits == ref.visits, (t, dom, cod)
    _assert_same(a, ref, (t, dom, cod))


def test_annotate_matches_reference_exhaustive_small():
    checked = 0
    for X in iter_types(3):
        for A in iter_types(3):
            for t in enumerate_terms(X, A):
                _check(t, X, A)
                checked += 1
    assert checked == 184


def test_annotate_matches_reference_seeded_size_7():
    rng = random.Random(2009)
    types = list(iter_types(7))
    checked = 0
    while checked < 300:
        X, A = rng.choice(types), rng.choice(types)
        terms = enumerate_terms(X, A)
        if not terms:
            continue
        _check(rng.choice(terms), X, A)
        checked += 1
