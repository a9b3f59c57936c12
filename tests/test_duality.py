"""Self-duality of the decision beyond the exhaustive sweep.

The free category with finite sums, products and both units is
self-dual: ``op`` swaps 0/1, +/*, p/s, tuple/cotuple and !/?, and turns
``f : X -> A`` into ``op f : op A -> op X``.  So ``equal(f, g)`` and
``equal(op f, op g)`` must reach the same verdict, with shared-point and
shared-copoint witnesses trading places and every other witness kind
kept.  The pairs here are seeded and random at type sizes 9-31, past
the sizes the oracle sweep can reach: half are conversion walks (equal
by construction), half independent.
"""

import random
from collections import Counter
from functools import lru_cache

from sigmapi import (
    BANG,
    QUEST,
    ONE,
    ZERO,
    Cotuple,
    Equal,
    Inj,
    NotEqual,
    Prod,
    Proj,
    SharedCopoint,
    SharedPoint,
    Sum,
    Tuple,
    annotate,
    enumerate_terms,
    equal,
    iter_types,
    neighbours,
)
from sigmapi.oracle import homset_classes

PAIRS = 2000
WALK_STEPS = 12
DUAL_KIND = {SharedPoint: SharedCopoint, SharedCopoint: SharedPoint}


@lru_cache(maxsize=None)
def op_type(t):
    if t is ZERO:
        return ONE
    if t is ONE:
        return ZERO
    dual = Prod if isinstance(t, Sum) else Sum
    return dual(op_type(t.left), op_type(t.right))


def op(t):
    """The dual of a generator-free cut-free term."""
    if t is BANG:
        return QUEST
    if t is QUEST:
        return BANG
    if isinstance(t, (Proj, Inj)):
        return (Inj if isinstance(t, Proj) else Proj)(t.index, op(t.body))
    return (Cotuple if isinstance(t, Tuple) else Tuple)(op(t.left), op(t.right))


@lru_cache(maxsize=None)
def inhabited(X, A):
    return (A is ONE or X is ZERO
            or (isinstance(A, Prod) and inhabited(X, A.left) and inhabited(X, A.right))
            or (isinstance(X, Sum) and inhabited(X.left, A) and inhabited(X.right, A))
            or (isinstance(A, Sum) and (inhabited(X, A.left) or inhabited(X, A.right)))
            or (isinstance(X, Prod) and (inhabited(X.left, A) or inhabited(X.right, A))))


def random_type(rng, size):
    if size == 1:
        return rng.choice((ZERO, ONE))
    left = 2 * rng.randrange((size - 1) // 2) + 1
    make = rng.choice((Sum, Prod))
    return make(random_type(rng, left), random_type(rng, size - 1 - left))


def random_term(rng, X, A):
    """A uniformly chosen rule at each node, among those that can finish."""
    rules = []
    if A is ONE:
        rules.append(lambda: BANG)
    if X is ZERO:
        rules.append(lambda: QUEST)
    if isinstance(A, Prod) and inhabited(X, A.left) and inhabited(X, A.right):
        rules.append(lambda: Tuple(random_term(rng, X, A.left), random_term(rng, X, A.right)))
    if isinstance(X, Sum) and inhabited(X.left, A) and inhabited(X.right, A):
        rules.append(lambda: Cotuple(random_term(rng, X.left, A), random_term(rng, X.right, A)))
    if isinstance(A, Sum):
        for j in (0, 1):
            if inhabited(X, A.component(j)):
                rules.append(lambda j=j: Inj(j, random_term(rng, X, A.component(j))))
    if isinstance(X, Prod):
        for i in (0, 1):
            if inhabited(X.component(i), A):
                rules.append(lambda i=i: Proj(i, random_term(rng, X.component(i), A)))
    return rng.choice(rules)()


def random_pair(rng, walk):
    while True:
        X = random_type(rng, rng.randrange(9, 32, 2))
        A = random_type(rng, rng.randrange(9, 32, 2))
        if inhabited(X, A):
            break
    f = random_term(rng, X, A)
    if not walk:
        return f, random_term(rng, X, A), X, A
    g = f
    for _ in range(WALK_STEPS):
        g = rng.choice(neighbours(g, X, A) or [g])
    return f, g, X, A


def _decide(f, g, X, A):
    return equal(annotate(f, X, A), annotate(g, X, A))


def test_op_is_an_involution_on_the_sample():
    rng = random.Random(11)
    for _ in range(200):
        f, _, X, A = random_pair(rng, walk=False)
        assert op(op(f)) is f and op_type(op_type(X)) is X and op_type(A) is not A


def test_equal_commutes_with_op():
    rng = random.Random(20261018)
    independent = {Equal: 0, NotEqual: 0}
    for n in range(PAIRS):
        walk = n % 2 == 0
        f, g, X, A = random_pair(rng, walk)
        v = _decide(f, g, X, A)
        w = _decide(op(f), op(g), op_type(A), op_type(X))
        assert type(v) is type(w), (f, g, X, A, v, w)
        if walk:
            assert isinstance(v, Equal), (f, g, X, A, v)
        else:
            independent[type(v)] += 1
        if isinstance(v, Equal):
            kind = type(v.witness)
            assert type(w.witness) is DUAL_KIND.get(kind, kind), (f, g, X, A, v, w)
    # both verdicts must be well represented among the independent pairs
    assert min(independent.values()) > PAIRS // 20, independent


DUAL_REASON = {"point-mismatch": "copoint-mismatch", "copoint-mismatch": "point-mismatch",
               "disconnect-mismatch": "disconnect-mismatch"}


def test_mismatch_reasons_are_dual():
    """Every product-to-sum homset with both types of size <= 5: a bare
    mismatch reason for ``(f, g)`` is the dual reason for ``(op f, op g)``."""
    checked = Counter()
    for X in iter_types(5):
        for A in iter_types(5):
            if not (isinstance(X, Prod) and isinstance(A, Sum)):
                continue
            terms = enumerate_terms(X, A)
            for f in terms:
                for g in terms:
                    v = _decide(f, g, X, A)
                    if isinstance(v, NotEqual) and v.reason in DUAL_REASON:
                        w = _decide(op(f), op(g), op_type(A), op_type(X))
                        assert w == NotEqual(DUAL_REASON[v.reason]), (f, g, X, A, v, w)
                        checked[v.reason] += 1
    assert min(checked[r] for r in DUAL_REASON) > 0, checked


def test_conversion_step_is_symmetric_and_self_dual():
    """Every law is a bidirectional rewrite, and the one-step relation
    commutes with ``op``, order included: on every class member over
    ``iter_types(3)`` squared and on both terms of 200 seeded pairs."""
    cases = [(t, X, A) for X in iter_types(3) for A in iter_types(3)
             for c in homset_classes(X, A)[0] for t in c.members]
    rng = random.Random(7)
    for k in range(200):
        f, g, X, A = random_pair(rng, walk=k % 2 == 0)
        cases += [(f, X, A), (g, X, A)]
    for t, X, A in cases:
        images = neighbours(t, X, A)
        for u in images:
            assert t in neighbours(u, X, A), (t, u, X, A)
        assert [op(u) for u in images] == neighbours(op(t), op_type(A), op_type(X)), (t, X, A)
