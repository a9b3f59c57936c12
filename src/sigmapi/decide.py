"""Polynomial-time equality of parallel cut-free terms (generator-free).

``equal(f, g, stats=None)`` is the one entry point.  It recurses on the
typing: singleton homsets are immediate, sum domains and product
codomains decompose componentwise, points and copoints compare
syntactically, indefinite maps compare through their witnesses, and
definite maps between a product and a sum are resolved through their
four possible factorizations, the mixed projection-versus-injection
case by a trivial-bouncer search.  An ``Equal`` verdict names the rule
that decided it as ``kind``.

Terms whose domain or codomain mention generator objects are answered
``RequiresOracle``; only the exponential oracle decides those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

from .annotate import (
    AnnotatedTerm,
    VisitCounter,
    ann_pair,
    ann_unary,
    ann_unit,
    type_pointed,
)
from .factor import factor
from .terms import COPOINT, PAIR, PAIR_TYPE, POINT, UNARY, UNIT, Term
from .types import Prod, Sum, ONE, ZERO, contains_gen


# -- verdicts ---------------------------------------------------------------

@dataclass(frozen=True)
class Disconnect:
    kind: ClassVar[str] = "disconnect"
    term: Term


@dataclass(frozen=True)
class SharedPoint:
    kind: ClassVar[str] = "shared point"
    term: Term


@dataclass(frozen=True)
class SharedCopoint:
    kind: ClassVar[str] = "shared copoint"
    term: Term


@dataclass(frozen=True)
class Bouncer:
    kind: ClassVar[str] = "bouncer"
    term: Term


@dataclass(frozen=True)
class SyntacticRecursion:
    kind: ClassVar[str] = "syntactic"


Witness = Union[Disconnect, SharedPoint, SharedCopoint, Bouncer, SyntacticRecursion]


@dataclass(frozen=True)
class Equal:
    witness: Optional[Witness] = None

    @property
    def kind(self) -> str:
        """The name of the rule that decided the verdict."""
        return self.witness.kind if self.witness is not None else "singleton homset"


@dataclass(frozen=True)
class NotEqual:
    reason: str


@dataclass(frozen=True)
class RequiresOracle:
    reason: str = "generator objects present"


Verdict = Union[Equal, NotEqual, RequiresOracle]

SHARED = (SharedPoint, SharedCopoint)
MISMATCH = ("point-mismatch", "copoint-mismatch")


@dataclass
class Stats:
    """Work of the decisions it was passed to.

    ``calls`` and ``counter`` count the recursion as a tree, as if no
    subproblem were shared; ``dag_calls`` counts the distinct subproblems
    actually decided.  ``memo`` maps each subproblem to its verdict and
    cost; it exists only while ``equal`` runs.
    """

    calls: int = 0
    counter: VisitCounter = field(default_factory=VisitCounter)
    dag_calls: int = 0
    memo: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    @property
    def steps(self) -> int:
        return self.calls + self.counter.visits


# -- componentwise decompositions (linear, annotation-maintaining) ----------

def restrict(s: int, f: AnnotatedTerm, k: int,
             counter: Optional[VisitCounter] = None) -> AnnotatedTerm:
    """Cut-eliminated composite of ``f`` with the k-th codomain projection
    (``s = POINT``), or of the k-th domain injection with ``f``
    (``s = COPOINT``): the k-th branch of a pairing of side ``s``."""
    o = 1 - s
    assert isinstance(f.end(o), PAIR_TYPE[s])
    if counter is not None:
        counter.tick()
    t = f.term
    if type(t) is PAIR[s]:
        return f.children[k]
    if type(t) is UNARY[o]:
        return ann_unary(o, t.index, restrict(s, f.children[0], k, counter), f.end(s))
    if type(t) is PAIR[o]:
        return ann_pair(o, restrict(s, f.children[0], k, counter),
                        restrict(s, f.children[1], k, counter))
    if t is UNIT[o]:
        return ann_unit(o, f.end(o).component(k))
    raise ValueError(f"restrict: unexpected shape {t!r}")


# -- the decision procedure --------------------------------------------------

def equal(f: AnnotatedTerm, g: AnnotatedTerm, stats: Optional[Stats] = None) -> Verdict:
    """Decide whether two parallel annotated cut-free terms denote the
    same arrow.  Generator-free only; see the oracle otherwise."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("equal: terms are not parallel")
    if contains_gen(f.dom) or contains_gen(f.cod):
        return RequiresOracle()
    stats = stats if stats is not None else Stats()
    stats.memo = {}
    try:
        return _equal(f, g, stats)
    finally:
        stats.dag_calls += len(stats.memo)
        stats.memo = None


def _equal(f: AnnotatedTerm, g: AnnotatedTerm, stats: Stats) -> Verdict:
    # The verdict and its cost depend only on the key, so a repeated key
    # replays both: ``calls`` and visits keep counting the tree.  One exit,
    # so the memo costs no stack frame per level.
    key = (f.term, g.term, f.dom, f.cod)
    done = stats.memo.get(key)
    if done is not None:
        v, calls, visits = done
        stats.calls += calls
        stats.counter.visits += visits
        return v
    calls, visits = stats.calls, stats.counter.visits
    stats.calls += 1
    fw, gw = f.ann, g.ann

    if f.dom is ZERO or f.cod is ONE:
        # singleton homsets
        v = Equal()
    elif isinstance(f.dom, Sum) or isinstance(f.cod, Prod):
        # componentwise decomposition: domain sums first, then codomain products
        s = COPOINT if isinstance(f.dom, Sum) else POINT
        v = Equal(SyntacticRecursion())
        for k in (0, 1):
            c = _equal(restrict(s, f, k, stats.counter),
                       restrict(s, g, k, stats.counter), stats)
            if not isinstance(c, Equal):
                v = NotEqual(f"component {k}: {c.reason}")
                break
    elif f.dom is ONE or f.cod is ZERO:
        # points: maps out of 1 are injections, and injections of points
        # are monic (a cross-injection identification would need a
        # copoint of 1); copoints dually
        s = POINT if f.dom is ONE else COPOINT
        ft, gt = f.term, g.term
        assert type(ft) is UNARY[s] and type(gt) is UNARY[s]
        if ft.index != gt.index:
            v = NotEqual("corner-mismatch")
        else:
            v = _equal(f.children[0], g.children[0], stats)
    # from here on the domain is a product and the codomain a sum
    elif fw.is_disconnect or gw.is_disconnect:
        # indefinite maps; beside a disconnect, every (co)pointed map is the disconnect
        if fw.is_disconnect and gw.is_disconnect:
            v = Equal(Disconnect(f.term))
        else:
            v = NotEqual("disconnect-mismatch")
    elif not (fw.definite and gw.definite):
        # just-pointed maps ``! ; pt`` are equal exactly when their points
        # are; a canonical witness is the only term of its class, and terms
        # are interned, so the points are equal exactly when they are the
        # same object.  Copoints dually.
        s = POINT if fw[POINT] is not None or gw[POINT] is not None else COPOINT
        if fw[s] is not None and fw[s] is gw[s]:
            v = Equal(SHARED[s](fw[s]))
        else:
            v = NotEqual(MISMATCH[s])
    else:
        # definite maps: resolve through the four factorizations
        f_inj, g_inj = _factor(POINT, f, stats), _factor(POINT, g, stats)
        f_proj, g_proj = _factor(COPOINT, f, stats), _factor(COPOINT, g, stats)
        if f_inj is not None and g_proj is not None:
            v = _equivalent((f_inj, g_proj), stats)
        elif g_inj is not None and f_proj is not None:
            v = _equivalent((g_inj, f_proj), stats)
        else:
            v = NotEqual("corner-mismatch")
            for fk, gk in ((f_inj, g_inj), (f_proj, g_proj)):
                if fk is not None and gk is not None and fk[0] == gk[0]:
                    c = _equal(fk[1], gk[1], stats)
                    v = Equal(SyntacticRecursion()) if isinstance(c, Equal) else c
                    break
    stats.memo[key] = (v, stats.calls - calls, stats.counter.visits - visits)
    return v


def _factor(s: int, f: AnnotatedTerm, stats: Stats) -> Optional[tuple[int, AnnotatedTerm]]:
    """The unique side-``s`` factor of a definite map, with its index, if any."""
    for k in (0, 1):
        low = factor(s, f, k, stats.counter)
        if low is not None:
            return k, low
    return None


def _equivalent(factors, stats: Stats) -> Verdict:
    """Decide ``s_j f_low == p_i g_high`` for definite corner terms, given
    ``factors = ((j, f_low), (i, g_high))``, indexed by side.

    There is a mediating ``h : X_i -> A_j`` with ``p_i h == f_low`` and
    ``s_j h == g_high`` exactly when the two sides are equal; in the
    generator-free calculus the bouncer is trivial: when ``A_j`` is
    pointed ``s_j`` is monic and ``h`` must be the injection factor of
    the ``g`` side, otherwise ``A_j`` is copointed, ``p_i`` is epic and
    ``h`` must be the projection factor of the ``f`` side.
    """
    stats.calls += 1
    f_low = factors[POINT][1]
    assert isinstance(f_low.dom, Prod) and isinstance(factors[COPOINT][1].cod, Sum)
    s = POINT if type_pointed(f_low.cod) else COPOINT
    o = 1 - s
    (k_s, low_s), (k_o, low_o) = factors[s], factors[o]
    h = factor(s, low_o, k_s, stats.counter)
    if h is None:
        return NotEqual("lift-failure")
    v = _equal(ann_unary(o, k_o, h, low_s.end(s)), low_s, stats)
    if isinstance(v, Equal):
        return Equal(Bouncer(h.term))
    return v
