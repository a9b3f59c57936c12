"""Polynomial-time equality of parallel cut-free terms (generator-free).

``normal_form(f)`` chooses one term per equivalence class, recursing on
the typing, and ``equal(f, g, stats=None)`` answers ``Equal`` exactly when
the normal forms of ``f`` and ``g`` are the same interned term.  An
``Equal`` verdict names the rule at the root as ``kind``; a ``NotEqual``
names the first position where the normal forms differ.  Types that
mention generator objects are answered ``RequiresOracle``; only the
exponential oracle decides those.
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

    ``calls`` and ``counter`` count the normalisation as a tree, as if no
    subterm were shared; ``dag_calls`` counts the distinct
    ``(term, dom, cod)`` actually normalised.  ``memo`` maps each of them
    to its normal form and cost; it exists only while a call runs.
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


# -- normal forms -------------------------------------------------------------

def normal_form(f: AnnotatedTerm) -> Term:
    """The chosen member of the class of ``f`` (generator-free)."""
    if contains_gen(f.dom) or contains_gen(f.cod):
        raise ValueError("normal_form: generator objects present; see the oracle")
    stats = Stats()
    stats.memo = {}
    return _normal_form(f, stats)


class _Differs(Exception):
    """A normal form is not the one it was computed against."""


def _normal_form(f: AnnotatedTerm, stats: Stats, like: Optional[Term] = None) -> Term:
    """The normal form of ``f``.  Given ``like``, the normal form of a
    parallel term, raise ``_Differs`` where the two first differ."""
    # A repeated key replays its normal form and cost, so ``calls`` and
    # visits keep counting the tree; an entry unlike ``like`` is worked
    # out again, as it would be without the memo.  The memo is read
    # inline, so it costs no stack frame per level.
    key = (f.term, f.dom, f.cod)
    done = stats.memo.get(key)
    if done is not None and (like is None or done[0] is like):
        stats.calls += done[1]
        stats.counter.visits += done[2]
        n = done[0]
    else:
        calls, visits = stats.calls, stats.counter.visits
        stats.calls += 1
        dom, cod, w = f.dom, f.cod, f.ann
        kept = None
        if dom is ZERO or cod is ONE:
            # singleton homsets
            n = UNIT[POINT if cod is ONE else COPOINT]
        elif isinstance(dom, Sum) or isinstance(cod, Prod):
            # componentwise: domain sums first, then codomain products
            s = COPOINT if isinstance(dom, Sum) else POINT
            n = PAIR[s](
                _normal_form(restrict(s, f, 0, stats.counter), stats, like and like.left),
                _normal_form(restrict(s, f, 1, stats.counter), stats, like and like.right))
        elif dom is ONE or cod is ZERO:
            # points: maps out of 1 are injections, and injections of points
            # are monic (a cross-injection identification would need a
            # copoint of 1); copoints dually
            s, k = (POINT if dom is ONE else COPOINT), f.term.index
            if like is not None and like.index != k:
                raise _Differs
            n = UNARY[s](k, _normal_form(f.children[0], stats, like and like.body))
        # from here on the domain is a product and the codomain a sum
        elif w[POINT] is not None and w[COPOINT] is not None:
            n = disconnect(dom, cod)
        elif w[POINT] is not None or w[COPOINT] is not None:
            # a just-pointed map ``! ; pt`` is its canonical point, the one
            # term of its class; copoints dually
            n = w[POINT] or w[COPOINT]
        else:
            # a definite map keeps one of its factors, and so does the memo
            kept = s, k, low = _kept(f, stats)
            if like is not None and (type(like) is not UNARY[s] or like.index != k):
                raise _Differs
            n = UNARY[s](k, _normal_form(low, stats, like and like.body))
        stats.memo[key] = (n, stats.calls - calls, stats.counter.visits - visits, kept)
    if like is not None and n is not like:
        raise _Differs
    return n


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
    if inj is not None and (type_pointed(f.cod.component(inj[0]))
                            or not type_pointed(f.cod.component(1 - inj[0]))):
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
        try:
            _normal_form(g, stats, _normal_form(f, stats))
            same = True
        except _Differs:
            same = False
        return _explain(f, g, same, stats)
    finally:
        stats.dag_calls += len(stats.memo)
        stats.memo = None


def _explain(f: AnnotatedTerm, g: AnnotatedTerm, same: bool, stats: Stats) -> Verdict:
    """The rule at the root, below any points, when the normal forms are
    the same; else the reason at the first position where they differ.
    ``g`` was normalised against ``f``, so it has no memo entry at that
    position's ancestors, and the same normal form as ``f`` in each
    component before it."""
    memo, where = stats.memo, ""
    while True:
        n, _, _, fkept = memo[f.term, f.dom, f.cod]
        dom, cod, fw, gw = f.dom, f.cod, f.ann, g.ann
        if dom is ZERO or cod is ONE:
            return Equal()
        if isinstance(dom, Sum) or isinstance(cod, Prod):
            if same:
                return Equal(SyntacticRecursion())
            s = COPOINT if isinstance(dom, Sum) else POINT
            g0 = restrict(s, g, 0, stats.counter)
            done = memo.get((g0.term, g0.dom, g0.cod))
            k = 0 if done is None or done[0] is not n.left else 1
            where += f"component {k}: "
            f, g = restrict(s, f, k, stats.counter), g0 if k == 0 else restrict(s, g, 1, stats.counter)
        elif dom is ONE or cod is ZERO:
            if n.index != g.term.index:
                return NotEqual(where + "corner-mismatch")
            f, g = f.children[0], g.children[0]
        elif fw.is_disconnect or gw.is_disconnect:
            # beside a disconnect, every (co)pointed map is the disconnect
            return Equal(Disconnect(f.term)) if same else NotEqual(where + "disconnect-mismatch")
        elif not (fw.definite and gw.definite):
            s = POINT if fw[POINT] is not None or gw[POINT] is not None else COPOINT
            return Equal(SHARED[s](fw[s])) if same else NotEqual(where + MISMATCH[s])
        elif same:
            return Equal(_bouncer(f, g, stats))
        else:
            gdone = memo.get((g.term, g.dom, g.cod))
            s, k, low = gdone[3] if gdone else _kept(g, stats)
            if type(n) is not UNARY[s] or n.index != k:
                return NotEqual(where + "corner-mismatch")
            f, g = fkept[2], low


def _bouncer(f: AnnotatedTerm, g: AnnotatedTerm, stats: Stats) -> Witness:
    """The rule that equates two definite maps: ``s_j f_low == p_i g_high``
    through the bouncer ``h : X_i -> A_j``, the injection factor of
    ``g_high`` when ``A_j`` is pointed (``s_j`` is monic), else the
    projection factor of ``f_low`` (``p_i`` is epic)."""
    for a, b in ((f, g), (g, f)):
        inj, proj = _factor(POINT, a, stats), _factor(COPOINT, b, stats)
        if inj is not None and proj is not None:
            s = POINT if type_pointed(inj[1].cod) else COPOINT
            (k, _), (_, low) = (inj, proj) if s == POINT else (proj, inj)
            return Bouncer(factor(s, low, k, stats.counter).term)
    return SyntacticRecursion()  # both factor on the same side only
