"""Pointedness/copointedness annotation of terms, with witnesses.

A term is *pointed* when it factors through a point ``1 -> cod`` and
*copointed* when it factors through a copoint ``dom -> 0``; a term that
is both is the unique *disconnect* of its homset.  One bottom-up pass
computes both bits and a witness for each at every node.

The calculus is self-dual, so each rule is written once for a *side*
``s``, ``POINT`` or ``COPOINT``, read from the duality table of
``terms`` (which also explains sides).  ``witness_of(s, t)`` is the
canonical witness of side ``s`` of a type, and a term's annotation
``ann`` is the plain pair ``(point witness, copoint witness)``, indexed
by side, with None where there is none: a type or term is pointed
exactly when its ``POINT`` witness is not None, copointed dually.

Witnesses are kept in canonical form (built from one side's
constructors only): these are the canonical points and copoints, each
the sole member of its equivalence class.  Terms are interned, so two
witnesses denote the same arrow exactly when they are the same object;
this is how a pairing node checks agreement here and how ``decide``
compares just-pointed maps.  A canonical witness is also its own
composite with the unit arrow (``! ; pt`` is ``pt``, ``c ; ?`` is
``c``), so ``factor`` and ``disconnect`` retype a witness rather than
cut-eliminate it.  Two facts shape the rules:

* a disconnect factors through *every* point of its codomain and every
  copoint of its domain, so agreement checks may skip a component that
  also has a witness of the other side;
* an injection ``s_j t`` whose body is copointed is pointed as soon as
  the codomain has a point at all, because a copointed arrow into a
  pointed object is the disconnect (dually for projections).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .terms import (
    COPOINT,
    PAIR,
    PAIR_TYPE,
    POINT,
    UNARY,
    UNARY_TYPE,
    UNIT,
    UNIT_OBJ,
    Bang,
    Cotuple,
    GenArrow,
    Inj,
    Proj,
    Quest,
    Term,
    Tuple,
    TypedTerm,
)
from .types import Gen, ObjectType, One, Prod, Sum, Zero


@lru_cache(maxsize=None)
def witness_of(s: int, t: ObjectType) -> Optional[Term]:
    """A canonical point ``1 -> t`` (``s = POINT``) or copoint ``t -> 0``
    (``s = COPOINT``), or None; the unary constructor prefers index 0.
    A generator object has neither: it is atomic."""
    if t is UNIT_OBJ[s]:
        return UNIT[s]
    if isinstance(t, PAIR_TYPE[s]):
        l, r = witness_of(s, t.left), witness_of(s, t.right)
        return PAIR[s](l, r) if l is not None and r is not None else None
    if isinstance(t, UNARY_TYPE[s]):
        l = witness_of(s, t.left)
        if l is not None:
            return UNARY[s](0, l)
        r = witness_of(s, t.right)
        return UNARY[s](1, r) if r is not None else None
    if isinstance(t, (Zero, One, Gen)):
        return None
    raise TypeError(f"not a type: {t!r}")


def disconnect(dom: ObjectType, cod: ObjectType) -> Optional[Term]:
    """The unique pointed-and-copointed arrow ``dom -> cod`` when it
    exists (dom copointed, cod pointed), as a cut-free term: the canonical
    copoint of ``dom``, its ``?`` leaves read as ``0 -> cod``.  (Its
    composite with ``? : 0 -> cod`` is itself.)"""
    return witness_of(COPOINT, dom) if witness_of(POINT, cod) is not None else None


class AnnotatedTerm:
    """A typed cut-free term with its annotation and the annotated nodes
    of its immediate subterms.  ``ann`` is the plain pair
    ``(point witness, copoint witness)``, indexed by side: ``ann[s]`` is
    None where the term has no witness of side ``s``."""

    __slots__ = ("term", "dom", "cod", "ann", "children")

    def __init__(self, term, dom, cod, ann, children):
        self.term = term
        self.dom = dom
        self.cod = cod
        self.ann = ann
        self.children = children

    def end(self, i: int) -> ObjectType:
        """The domain (``i = 0``) or the codomain (``i = 1``); side ``s``
        builds at ``end(1 - s)``."""
        return self.cod if i else self.dom

    def __str__(self) -> str:
        return str(TypedTerm(self.term, self.dom, self.cod))

    def __repr__(self) -> str:
        return f"AnnotatedTerm({self.term!r} : {self.dom!r} -> {self.cod!r}, {self.ann!r})"


class VisitCounter:
    """Counts node visits; used to assert the linearity claims."""

    __slots__ = ("visits",)

    def __init__(self):
        self.visits = 0

    def tick(self):
        self.visits += 1


def _make(s, term, free, built, mine, other, children) -> AnnotatedTerm:
    """Side ``s``'s node: ``free``, ``mine`` at index ``s``; ``built``, ``other`` at ``1 - s``."""
    if s == POINT:
        return AnnotatedTerm(term, free, built, (mine, other), children)
    return AnnotatedTerm(term, built, free, (other, mine), children)


def ann_unit(s: int, free: ObjectType) -> AnnotatedTerm:
    """The unit arrow of side ``s`` (``! : free -> 1`` or ``? : 0 -> free``)."""
    return _make(s, UNIT[s], free, UNIT_OBJ[s], UNIT[s], witness_of(1 - s, free), ())


def ann_unary(s: int, k: int, body: AnnotatedTerm, built: ObjectType) -> AnnotatedTerm:
    """``s_k body`` into the sum ``built`` (``s = POINT``), or ``p_k body``
    out of the product ``built`` (``s = COPOINT``)."""
    w = body.ann
    o = 1 - s
    if w[s] is not None and w[o] is None:
        mine = UNARY[s](k, w[s])
    elif w[o] is not None:
        mine = witness_of(s, built)  # disconnect: any (co)point serves
    else:
        mine = None
    return _make(s, UNARY[s](k, body.term), body.end(s), built, mine, w[o], (body,))


def ann_pair(s: int, left: AnnotatedTerm, right: AnnotatedTerm) -> AnnotatedTerm:
    """The tuple (``s = POINT``) or cotuple (``s = COPOINT``) of two
    annotated terms."""
    lw, rw = left.ann, right.ann
    o = 1 - s
    built = PAIR_TYPE[s](left.end(o), right.end(o))
    free = left.end(s)
    mine = PAIR[s](lw[s], rw[s]) if lw[s] is not None and rw[s] is not None else None
    # a common witness of the other side must exist; a component with a
    # witness of this side too (hence disconnect) accepts any
    if (lw[o] is None or rw[o] is None
            or (lw[s] is None and rw[s] is None and lw[o] is not rw[o])):
        other = None
    elif lw[s] is None:
        other = lw[o]
    elif rw[s] is None:
        other = rw[o]
    else:
        other = witness_of(o, free)
    return _make(s, PAIR[s](left.term, right.term), free, built, mine, other, (left, right))


def annotate(t: Term, dom: ObjectType, cod: ObjectType,
             counter: Optional[VisitCounter] = None) -> AnnotatedTerm:
    """Annotate every node of a typed cut-free term in one bottom-up pass.

    Terms and types are interned, so each distinct ``(subterm, dom, cod)``
    is annotated once per call and its node shared.  ``counter`` still
    counts tree nodes: a repeated subterm adds the visits its first
    annotation took."""
    return _annotate(t, dom, cod, counter, {})


def _annotate(t: Term, dom: ObjectType, cod: ObjectType,
              counter: Optional[VisitCounter], memo: dict) -> AnnotatedTerm:
    """``annotate`` with its per-call memo: ``(t, dom, cod)`` maps to the
    node and the visits its subtree took."""
    key = (t, dom, cod)
    done = memo.get(key)
    if done is not None:
        if counter is not None:
            counter.visits += done[1]
        return done[0]
    if counter is not None:
        start = counter.visits
        counter.tick()
    match t:
        case Bang():
            a = ann_unit(POINT, dom)
        case Quest():
            a = ann_unit(COPOINT, cod)
        case GenArrow():
            a = _make(POINT, t, dom, cod, None, None, ())
        case Proj(i, body):
            assert isinstance(dom, Prod)
            a = ann_unary(COPOINT, i, _annotate(body, dom.component(i), cod, counter, memo), dom)
        case Inj(j, body):
            assert isinstance(cod, Sum)
            a = ann_unary(POINT, j, _annotate(body, dom, cod.component(j), counter, memo), cod)
        case Tuple(left, right):
            assert isinstance(cod, Prod)
            a = ann_pair(POINT, _annotate(left, dom, cod.left, counter, memo),
                         _annotate(right, dom, cod.right, counter, memo))
        case Cotuple(left, right):
            assert isinstance(dom, Sum)
            a = ann_pair(COPOINT, _annotate(left, dom.left, cod, counter, memo),
                         _annotate(right, dom.right, cod, counter, memo))
        case _:
            raise ValueError(f"annotate: not a cut-free term: {t!r}")
    memo[key] = (a, counter.visits - start if counter is not None else 0)
    return a
