"""Pointedness/copointedness annotation of terms, with witnesses.

A term is *pointed* when it factors through a point ``1 -> cod`` and
*copointed* when it factors through a copoint ``dom -> 0``; a term that
is both is the unique *disconnect* of its homset.  One bottom-up pass
computes both bits and a witness for each at every node.

The calculus is self-dual, so each rule is written once for a *side*
``s``, ``POINT`` or ``COPOINT``, read from the duality table of
``types`` (which also explains sides).  ``witness_of(s, t)`` is the
canonical witness of side ``s`` of a type, a field that ``types`` sets
when it interns the type, and a term's annotation
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

from typing import Optional

from .terms import (
    COPOINT,
    PAIR,
    POINT,
    UNARY,
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
from .types import ONE, ZERO, ObjectType, Prod, Sum, witness_of


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


def _make(s, term, free, built, mine, other, children) -> AnnotatedTerm:
    """The one node builder: side ``s``'s node, with ``free`` and ``mine``
    at index ``s`` and ``built`` and ``other`` at ``1 - s``."""
    if s == POINT:
        return AnnotatedTerm(term, free, built, (mine, other), children)
    return AnnotatedTerm(term, built, free, (other, mine), children)


def ann_unit(s: int, free: ObjectType) -> AnnotatedTerm:
    """The unit arrow of side ``s`` (``! : free -> 1`` or ``? : 0 -> free``)."""
    return _make(s, UNIT[s], free, UNIT_OBJ[s], UNIT[s], witness_of(1 - s, free), ())


def ann_unary(s: int, k: int, body: AnnotatedTerm, built: ObjectType,
              term: Optional[Term] = None) -> AnnotatedTerm:
    """``s_k body`` into the sum ``built`` (``s = POINT``), or ``p_k body``
    out of the product ``built`` (``s = COPOINT``).  ``term`` is that
    term, when the caller holds it."""
    w = body.ann
    o = 1 - s
    if term is None:
        term = UNARY[s](k, body.term)
    if w[s] is not None and w[o] is None:
        # a body that is its own witness makes this term its own
        mine = term if w[s] is body.term else UNARY[s](k, w[s])
    elif w[o] is not None:
        mine = witness_of(s, built)  # disconnect: any (co)point serves
    else:
        mine = None
    return _make(s, term, body.end(s), built, mine, w[o], (body,))


def ann_pair(s: int, left: AnnotatedTerm, right: AnnotatedTerm, built: ObjectType,
             term: Optional[Term] = None) -> AnnotatedTerm:
    """The tuple (``s = POINT``) of two annotated terms into the product
    ``built``, or their cotuple (``s = COPOINT``) out of the sum ``built``.
    ``term`` is that term, when the caller holds it."""
    lw, rw = left.ann, right.ann
    o = 1 - s
    if term is None:
        term = PAIR[s](left.term, right.term)
    free = left.end(s)
    if lw[s] is None or rw[s] is None:
        mine = None
    elif lw[s] is left.term and rw[s] is right.term:
        mine = term
    else:
        mine = PAIR[s](lw[s], rw[s])
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
    return _make(s, term, free, built, mine, other, (left, right))


def annotate(t: Term, dom: ObjectType, cod: ObjectType,
             counter: Optional[VisitCounter] = None) -> AnnotatedTerm:
    """Annotate every node of a typed cut-free term in one bottom-up pass.

    Terms and types are interned, so each distinct ``(subterm, dom, cod)``
    is annotated once per call and its node shared.  Each node is built
    from the subterm and types it was reached with; only new witnesses
    are interned.  ``counter`` still counts tree nodes: a repeated
    subterm adds the visits its first annotation took.  Raises
    ValueError at a node whose shape does not fit its types."""
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
        counter.visits += 1
    kind = type(t)
    if kind is Inj:
        if not isinstance(cod, Sum):
            raise ValueError(f"annotate: s{t.index} needs a sum codomain, got {cod!r}")
        body = _annotate(t.body, dom, cod.component(t.index), counter, memo)
        a = ann_unary(POINT, t.index, body, cod, t)
    elif kind is Proj:
        if not isinstance(dom, Prod):
            raise ValueError(f"annotate: p{t.index} needs a product domain, got {dom!r}")
        body = _annotate(t.body, dom.component(t.index), cod, counter, memo)
        a = ann_unary(COPOINT, t.index, body, dom, t)
    elif kind is Tuple:
        if not isinstance(cod, Prod):
            raise ValueError(f"annotate: a tuple needs a product codomain, got {cod!r}")
        a = ann_pair(POINT, _annotate(t.left, dom, cod.left, counter, memo),
                     _annotate(t.right, dom, cod.right, counter, memo), cod, t)
    elif kind is Cotuple:
        if not isinstance(dom, Sum):
            raise ValueError(f"annotate: a cotuple needs a sum domain, got {dom!r}")
        a = ann_pair(COPOINT, _annotate(t.left, dom.left, cod, counter, memo),
                     _annotate(t.right, dom.right, cod, counter, memo), dom, t)
    elif kind is Bang:
        if cod is not ONE:
            raise ValueError(f"annotate: '!' needs codomain 1, got {cod!r}")
        a = ann_unit(POINT, dom)
    elif kind is Quest:
        if dom is not ZERO:
            raise ValueError(f"annotate: '?' needs domain 0, got {dom!r}")
        a = ann_unit(COPOINT, cod)
    elif kind is GenArrow:
        a = _make(POINT, t, dom, cod, None, None, ())
    else:
        raise ValueError(f"annotate: not a cut-free term: {t!r}")
    memo[key] = (a, counter.visits - start if counter is not None else 0)
    return a
