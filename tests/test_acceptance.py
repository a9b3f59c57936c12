"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy sweeps
share the module-level oracle caches; the whole suite is sized to finish
in a few minutes on a laptop.  Sizes of sum/product types over the unit
atoms are always odd, so "size <= 6" ranges over sizes {1, 3, 5} and
"sizes 7-8" over size 7; the random sampler below draws from everything
the stated bound admits.
"""

import itertools
import math
import random
import time

from sigmapi import (
    BANG,
    COPOINT,
    POINT,
    QUEST,
    Cotuple,
    GenArrow,
    Inj,
    ONE,
    Proj,
    Tuple,
    VisitCounter,
    ZERO,
    annotate,
    compose,
    disconnect,
    eliminate,
    enumerate_terms,
    equal,
    factor,
    iter_types,
    make_graph,
    parse_term,
    parse_type,
    same_class,
    term_metrics,
    witness_of,
)
from sigmapi.bench import run_bench
from sigmapi.decide import Equal, NotEqual
from sigmapi.oracle import CardinalSquare, find_bouncers, homset_classes
from sigmapi.types import Prod, Sum


def _report(name, detail):
    print(f"PASS {name}: {detail}")


# -- criterion 1: oracle agreement (master) ----------------------------------

def test_criterion_1_oracle_agreement():
    t0 = time.time()
    pairs = 0
    for X in iter_types(6):
        for A in iter_types(6):
            terms = enumerate_terms(X, A)
            if not terms:
                continue
            classes, index = homset_classes(X, A)
            anns = [annotate(t, X, A) for t in terms]
            ids = [index[t] for t in terms]
            for i, f in enumerate(anns):
                for j, g in enumerate(anns):
                    pairs += 1
                    verdict = equal(f, g)
                    agreed = isinstance(verdict, Equal) == (ids[i] == ids[j])
                    assert agreed, (terms[i], terms[j], X, A, verdict)

    rng = random.Random(20260810)
    large = [t for t in iter_types(8) if t.size >= 7]
    sampled = 0
    while sampled < 1000:
        X, A = rng.choice(large), rng.choice(large)
        terms = enumerate_terms(X, A)
        if not terms:
            continue
        _, index = homset_classes(X, A)
        for _ in range(min(25, 1000 - sampled)):
            f, g = rng.choice(terms), rng.choice(terms)
            verdict = equal(annotate(f, X, A), annotate(g, X, A))
            assert isinstance(verdict, Equal) == (index[f] == index[g]), (f, g, X, A)
            sampled += 1
    elapsed = time.time() - t0
    assert elapsed <= 600, f"exceeded the 10 minute budget: {elapsed:.0f}s"
    _report("criterion 1 (oracle agreement)",
            f"{pairs} exhaustive pairs at sizes <= 6 plus {sampled} sampled size-7 "
            f"pairs, 100% agreement, {elapsed:.0f}s")


# -- criterion 2: determinacy -------------------------------------------------

def test_criterion_2_determinacy():
    count = 0
    for t in iter_types(12):
        assert (witness_of(POINT, t) is None) != (witness_of(COPOINT, t) is None), t
        count += 1
    checked = 0
    for t in iter_types(9):
        assert (witness_of(POINT, t) is not None) == bool(enumerate_terms(ONE, t)), t
        assert (witness_of(COPOINT, t) is not None) == bool(enumerate_terms(t, ZERO)), t
        checked += 1
    _report("criterion 2 (determinacy)",
            f"{count} types <= 12 each pointed xor copointed; predicates match "
            f"homset emptiness on {checked} types <= 9; zero violations")


# -- criterion 3: size/height bound -------------------------------------------

def _metric_profiles(limit):
    """Exact multiset of (size, height) over every enumerated term, per
    type pair, computed without materializing terms."""
    memo = {}

    def profile(X, A):
        key = (X, A)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = {}
        if A == ONE or X == ZERO:
            out[(1, 1)] = 2 if (A == ONE and X == ZERO) else 1
            memo[key] = out
            return out
        if isinstance(X, Prod):
            for i in (0, 1):
                for (s, h), n in profile(X.component(i), A).items():
                    k = (s + 1, h + 1)
                    out[k] = out.get(k, 0) + n
        if isinstance(A, Sum):
            for j in (0, 1):
                for (s, h), n in profile(X, A.component(j)).items():
                    k = (s + 1, h + 1)
                    out[k] = out.get(k, 0) + n
        if isinstance(A, Prod):
            d1, d2 = profile(X, A.left), profile(X, A.right)
            for (s1, h1), n1 in d1.items():
                for (s2, h2), n2 in d2.items():
                    k = (1 + s1 + s2, 1 + max(h1, h2))
                    out[k] = out.get(k, 0) + n1 * n2
        if isinstance(X, Sum):
            d1, d2 = profile(X.left, A), profile(X.right, A)
            for (s1, h1), n1 in d1.items():
                for (s2, h2), n2 in d2.items():
                    k = (1 + s1 + s2, 1 + max(h1, h2))
                    out[k] = out.get(k, 0) + n1 * n2
        memo[key] = out
        return out

    return profile


def test_criterion_3_size_height_bound():
    profile = _metric_profiles(7)
    # the profile recursion mirrors enumerate_terms exactly: cross-check
    for X in iter_types(4):
        for A in iter_types(4):
            literal = {}
            for t in enumerate_terms(X, A):
                m = term_metrics(t)
                literal[m] = literal.get(m, 0) + 1
            assert literal == profile(X, A), (X, A)

    total = 0
    for X in iter_types(7):
        for A in iter_types(7):
            for (s, h), n in profile(X, A).items():
                total += n
                assert s <= X.size * A.size, (X, A, s)
                assert h <= X.height + A.height, (X, A, h)
    _report("criterion 3 (size/height bound)",
            f"all {total} enumerated terms at type sizes <= 7 satisfy "
            f"size <= |X||A| and height <= hgt X + hgt A")


# -- criterion 4: named instances ----------------------------------------------

def test_criterion_4_named_instances():
    X, A = parse_type("0*0"), parse_type("0+1")
    v = equal(annotate(parse_term("p0 ?"), X, ZERO), annotate(parse_term("p1 ?"), X, ZERO))
    assert isinstance(v, NotEqual)
    v = equal(annotate(parse_term("s0 p0 ?"), X, A), annotate(parse_term("s0 p1 ?"), X, A))
    assert isinstance(v, Equal)

    # the non-trivial bouncer triple over (0*0)+x -> (1+1)*a
    graph = make_graph(["x", "a"], [("k", "x", "a")])
    X0, A0 = parse_type("0*0 + x"), parse_type("(1+1) * a")
    z = disconnect(parse_type("0*0"), parse_type("1+1"))
    k = GenArrow("x", ("k",))
    f = Cotuple(Tuple(z, Proj(0, QUEST)), Tuple(Inj(0, BANG), k))
    h = Cotuple(Tuple(z, Proj(1, QUEST)), Tuple(Inj(0, BANG), k))
    g = Cotuple(Tuple(z, Proj(1, QUEST)), Tuple(Inj(1, BANG), k))
    square = CardinalSquare(X0, ZERO, A0, ONE)  # companions: copointed, pointed

    assert same_class(Inj(0, f), Inj(0, h), X0, square.cod)   # coequalized by s0
    assert same_class(Proj(0, h), Proj(0, g), square.dom, A0)  # equalized by p0
    bouncers = find_bouncers(square, 0, 0, g, f, graph)
    assert h in bouncers
    for t1, t2 in ((f, h), (h, g), (f, g)):
        assert not same_class(t1, t2, X0, A0)
    _report("criterion 4 (named instances)",
            "intro coequalizer decided; bouncer triple verified: h bounces, "
            "f/h/g in three distinct classes")


# -- criterion 5: weak disjointness --------------------------------------------

def _small_sums(limit):
    return [t for t in iter_types(limit) if isinstance(t, Sum)]


def test_criterion_5_weak_disjointness():
    identifications = 0
    for X in iter_types(6):
        for S in _small_sums(6):
            classes, index = homset_classes(X, S)
            reps0 = homset_classes(X, S.left)[0]
            reps1 = homset_classes(X, S.right)[0]
            for c0 in reps0:
                for c1 in reps1:
                    f, g = c0.canonical, c1.canonical
                    if index[Inj(0, f)] != index[Inj(1, g)]:
                        continue
                    identifications += 1
                    fa = annotate(f, X, S.left)
                    ga = annotate(g, X, S.right)
                    assert None not in (fa.ann[COPOINT], ga.ann[COPOINT]), (f, g, X, S)
                    # a single copoint factors both sides
                    witnesses = [w for w in (fa.ann[COPOINT], ga.ann[COPOINT])]
                    assert any(
                        same_class(compose(c, QUEST), f, X, S.left)
                        and same_class(compose(c, QUEST), g, X, S.right)
                        for c in witnesses
                    ), (f, g, X, S)
    assert identifications > 0
    _report("criterion 5 (weak disjointness)",
            f"{identifications} cross-injection identifications over squares with "
            f"types <= 6, all through a common copoint; zero violations")


# -- criterion 6: monicity criterion -------------------------------------------

def test_criterion_6_monicity():
    """The injection is monic exactly when B is unpointed or A is pointed:
    when the criterion holds, postcomposition is class-injective on every
    test homset; when it fails, some test object exhibits a collision."""
    sums = 0
    for S in _small_sums(6):
        A, B = S.left, S.right
        expected = witness_of(POINT, B) is None or witness_of(POINT, A) is not None
        collision_free = True
        collision_seen = False
        for X in iter_types(6):
            classes, _ = homset_classes(X, A)
            if len(classes) < 2:
                continue
            _, index_s = homset_classes(X, S)
            reps = [c.canonical for c in classes]
            for u, v in itertools.combinations(reps, 2):
                if index_s[Inj(0, u)] == index_s[Inj(0, v)]:
                    collision_free = False
                    collision_seen = True
                    break
            if collision_seen and not expected:
                break
        if expected:
            assert collision_free, (A, B)
        else:
            assert collision_seen, (A, B)
        sums += 1
    _report("criterion 6 (monicity)",
            f"{sums} (A, B) pairs with A+B of size <= 6, tested against every "
            f"X of size <= 6: s0 is class-injective exactly when B is unpointed "
            f"or A is pointed")


# -- criterion 7: complexity ---------------------------------------------------

def test_criterion_7_complexity():
    rows = run_bench(10)
    # single constant across the family, frozen after first measurement
    C = 1.0
    for r in rows:
        bound = C * (2 * r.height) * r.size_dom * r.size_cod
        assert r.steps <= bound, (r, bound)
    largest = [r for r in rows if r.height == 10]
    assert largest and all(r.micros <= 1_000_000 for r in largest)
    xs = [math.log(r.size_dom * r.size_cod) for r in rows]
    ys = [math.log(max(r.steps, 1)) for r in rows]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    assert slope <= 1.25, slope
    _report("criterion 7 (complexity)",
            f"steps <= {C}*(hgt X+hgt A)*|X|*|A| across heights 2-10; largest "
            f"instance {max(r.micros for r in largest)/1e6:.3f}s; log-log slope {slope:.2f}")


# -- criterion 8: linearity of preprocessing -----------------------------------

def test_criterion_8_preprocessing_linearity():
    annotated = 0
    factored = 0
    for X in iter_types(5):
        for A in iter_types(5):
            for t in enumerate_terms(X, A):
                size = term_metrics(t).size
                c = VisitCounter()
                a = annotate(t, X, A, c)
                assert c.visits == size, (t, X, A)
                annotated += 1
                if isinstance(A, Sum):
                    for j in (0, 1):
                        c = VisitCounter()
                        factor(POINT, a, j, c)
                        assert c.visits <= 2 * size
                        factored += 1
                if isinstance(X, Prod):
                    for i in (0, 1):
                        c = VisitCounter()
                        factor(COPOINT, a, i, c)
                        assert c.visits <= 2 * size
                        factored += 1
    _report("criterion 8 (linearity)",
            f"annotate visited exactly size(t) nodes on {annotated} terms; "
            f"{factored} factorizations visited <= 2*size(t) nodes")


# -- criterion 9: category laws -------------------------------------------------

def test_criterion_9_category_laws():
    from sigmapi.terms import Cut, Id

    small = list(iter_types(4))
    triples = 0
    for X, Y in itertools.product(small, repeat=2):
        fs = enumerate_terms(X, Y)
        if not fs:
            continue
        for f in fs:
            assert same_class(eliminate(Cut(Id(X), f)), f, X, Y)
            assert same_class(eliminate(Cut(f, Id(Y))), f, X, Y)
        for Z in small:
            gs = enumerate_terms(Y, Z)
            if not gs:
                continue
            for W in small:
                hs = enumerate_terms(Z, W)
                if not hs:
                    continue
                for f in fs:
                    for g in gs:
                        for h in hs:
                            lhs = compose(f, compose(g, h))
                            rhs = compose(compose(f, g), h)
                            assert same_class(lhs, rhs, X, W), (f, g, h)
                            triples += 1
    _report("criterion 9 (category laws)",
            f"associativity on {triples} composable triples over types <= 4 "
            f"and identity laws, all up to oracle class; zero violations")
