"""Polynomial-time equality of parallel cut-free terms (generator-free).

``normal_form(f)`` chooses one term per equivalence class, recursing on
the typing, and ``equal(f, g, stats=None)`` answers ``Equal`` exactly when
the normal forms of ``f`` and ``g`` are the same interned term.  ``g`` is
normalised against the memo entries of ``f``, so that one case analysis
both decides and explains: where ``g`` first leaves the normal form of
``f``, the reason is raised on the spot and becomes the ``NotEqual``
verdict; otherwise the ``Equal`` verdict names the rule at the root as
``kind``.  Types that mention generator objects are answered
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
    disconnect,
    witness_of,
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

    ``calls`` and ``counter`` count the normalisation as a tree, as if no
    subterm were shared; ``dag_calls`` counts the distinct
    ``(term, dom, cod)`` actually normalised.  ``memo`` maps each of them
    to its entry ``(normal form, calls, visits, node, parts)``: the cost
    of normalising it, the annotated term, and the entries of its two
    components, the entry of the body under a point, or the kept side,
    index and factor entry of a definite map (None otherwise).  It exists
    only while a call runs.
    """

    calls: int = 0
    counter: VisitCounter = field(default_factory=VisitCounter)
    dag_calls: int = 0
    memo: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    @property
    def steps(self) -> int:
        return self.calls + self.counter.visits


# -- componentwise decompositions (linear, annotation-maintaining) ----------

def restrict(s: int, f: AnnotatedTerm, k: int, counter: VisitCounter) -> AnnotatedTerm:
    """Cut-eliminated composite of ``f`` with the k-th codomain projection
    (``s = POINT``), or of the k-th domain injection with ``f``
    (``s = COPOINT``): the k-th branch of a pairing of side ``s``."""
    o = 1 - s
    assert isinstance(f.end(o), PAIR_TYPE[s])
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


# -- normal forms -------------------------------------------------------------

def normal_form(f: AnnotatedTerm) -> Term:
    """The chosen member of the class of ``f`` (generator-free)."""
    if contains_gen(f.dom) or contains_gen(f.cod):
        raise ValueError("normal_form: generator objects present; see the oracle")
    stats = Stats()
    stats.memo = {}
    return _normal_form(f, stats)[0]


class _Differs(Exception):
    """A normal form is not the one it was computed against; ``reason``
    names the first position where the two differ and why."""

    def __init__(self, reason: str):
        self.reason = reason


def _normal_form(f: AnnotatedTerm, stats: Stats, like: Optional[tuple] = None) -> tuple:
    """The memo entry of ``f``.  Given ``like``, the entry of a parallel
    term, raise ``_Differs`` where the two normal forms first differ."""
    # A repeated key replays its entry and cost, so ``calls`` and visits
    # keep counting the tree; an entry unlike ``like`` is worked out again,
    # as it would be without the memo, to find where the two differ.  The
    # memo is read inline, so it costs no stack frame per level.
    key = (f.term, f.dom, f.cod)
    done = stats.memo.get(key)
    if done is not None and (like is None or done[0] is like[0]):
        stats.calls += done[1]
        stats.counter.visits += done[2]
        return done
    calls, visits = stats.calls, stats.counter.visits
    stats.calls += 1
    dom, cod, w = f.dom, f.cod, f.ann
    parts = None
    if dom is ZERO or cod is ONE:
        # singleton homsets
        n = UNIT[POINT if cod is ONE else COPOINT]
    elif isinstance(dom, Sum) or isinstance(cod, Prod):
        # componentwise: domain sums first, then codomain products
        s, parts = (COPOINT if isinstance(dom, Sum) else POINT), []
        for k in (0, 1):
            try:
                parts.append(_normal_form(restrict(s, f, k, stats.counter), stats,
                                          like and like[4][k]))
            except _Differs as d:
                d.reason = f"component {k}: {d.reason}"
                raise
        n = PAIR[s](parts[0][0], parts[1][0])
    elif dom is ONE or cod is ZERO:
        # points: maps out of 1 are injections, and injections of points
        # are monic (a cross-injection identification would need a
        # copoint of 1); copoints dually
        s, k = (POINT if dom is ONE else COPOINT), f.term.index
        if like is not None and like[0].index != k:
            raise _Differs("corner-mismatch")
        parts = _normal_form(f.children[0], stats, like and like[4])
        n = UNARY[s](k, parts[0])
    # from here on the domain is a product and the codomain a sum
    elif w == (None, None) and (like is None or like[3].ann == (None, None)):
        # a definite map keeps one of its factors, and so does the memo
        s, k, low = _kept(f, stats)
        if like is not None and like[4][:2] != (s, k):
            raise _Differs(_verdict(like[3], f, False, stats).reason)
        parts = s, k, _normal_form(low, stats, like and like[4][2])
        n = UNARY[s](k, parts[2][0])
    else:
        # a disconnect is the disconnect of its homset, and a just-pointed
        # map ``! ; pt`` is its canonical point, the one term of its class;
        # copoints dually.  A definite map beside an indefinite one gets
        # None, which differs.
        n = disconnect(dom, cod) if None not in w else w[POINT] or w[COPOINT]
        if like is not None and n is not like[0]:
            raise _Differs(_verdict(like[3], f, False, stats).reason)
    entry = stats.memo[key] = (n, stats.calls - calls, stats.counter.visits - visits, f, parts)
    return entry


def _factor(s: int, f: AnnotatedTerm, stats: Stats) -> Optional[tuple[int, AnnotatedTerm]]:
    """The unique side-``s`` factor of a definite map, with its index, if any."""
    for k in (0, 1):
        low = factor(s, f, k, stats.counter)
        if low is not None:
            return k, low
    return None


def _kept(f: AnnotatedTerm, stats: Stats) -> tuple[int, int, AnnotatedTerm]:
    """The side, index and factor that the normal form of a definite map
    keeps: ``s_j`` when it is class-injective (``A_j`` pointed or
    ``A_{1-j}`` not, criterion 6) or the only factor, else ``p_i``, which
    is then epic (``A_j`` is copointed, as every generator-free type is
    pointed or copointed)."""
    inj = _factor(POINT, f, stats)
    if inj is not None and (witness_of(POINT, f.cod.component(inj[0])) is not None
                            or witness_of(POINT, f.cod.component(1 - inj[0])) is None):
        return (POINT, *inj)
    proj = _factor(COPOINT, f, stats)
    return (POINT, *inj) if proj is None else (COPOINT, *proj)


# -- the decision procedure --------------------------------------------------

def equal(f: AnnotatedTerm, g: AnnotatedTerm, stats: Optional[Stats] = None) -> Verdict:
    """Decide whether two parallel annotated cut-free terms denote the
    same arrow: whether their normal forms are the same term.
    Generator-free only; see the oracle otherwise."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("equal: terms are not parallel")
    if contains_gen(f.dom) or contains_gen(f.cod):
        return RequiresOracle()
    stats = stats if stats is not None else Stats()
    stats.memo = {}
    try:
        fe = _normal_form(f, stats)
        try:
            ge = _normal_form(g, stats, fe)
        except _Differs as d:
            return NotEqual(d.reason)
        # the rule at the root, below any points
        while True:
            f, g = fe[3], ge[3]
            if f.dom is ZERO or f.cod is ONE:
                return Equal()
            if isinstance(f.dom, Sum) or isinstance(f.cod, Prod):
                return Equal(SyntacticRecursion())
            if f.dom is not ONE and f.cod is not ZERO:
                return _verdict(f, g, True, stats)
            fe, ge = fe[4], ge[4]
    finally:
        stats.dag_calls += len(stats.memo)
        stats.memo = None


def _verdict(f: AnnotatedTerm, g: AnnotatedTerm, same: bool, stats: Stats) -> Verdict:
    """The verdict at a position where both domains are products and both
    codomains sums, given whether the normal forms there are the same."""
    fw, gw = f.ann, g.ann
    if None not in fw or None not in gw:
        # beside a disconnect, every (co)pointed map is the disconnect
        return Equal(Disconnect(f.term)) if same else NotEqual("disconnect-mismatch")
    if fw != (None, None) or gw != (None, None):
        s = POINT if fw[POINT] is not None or gw[POINT] is not None else COPOINT
        return Equal(SHARED[s](fw[s])) if same else NotEqual(MISMATCH[s])
    return Equal(_bouncer(f, g, stats)) if same else NotEqual("corner-mismatch")


def _bouncer(f: AnnotatedTerm, g: AnnotatedTerm, stats: Stats) -> Witness:
    """The rule that equates two definite maps: ``s_j f_low == p_i g_high``
    through the bouncer ``h : X_i -> A_j``, the injection factor of
    ``g_high`` when ``A_j`` is pointed (``s_j`` is monic), else the
    projection factor of ``f_low`` (``p_i`` is epic)."""
    for a, b in ((f, g), (g, f)):
        inj, proj = _factor(POINT, a, stats), _factor(COPOINT, b, stats)
        if inj is not None and proj is not None:
            s = POINT if witness_of(POINT, inj[1].cod) is not None else COPOINT
            (k, _), (_, low) = (inj, proj) if s == POINT else (proj, inj)
            return Bouncer(factor(s, low, k, stats.counter).term)
    return SyntacticRecursion()  # both factor on the same side only
