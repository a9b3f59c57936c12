import itertools
from functools import reduce

import pytest

from sigmapi import (
    BANG,
    QUEST,
    GuardExceeded,
    InputError,
    Inj,
    ONE,
    Prod,
    Proj,
    Sum,
    ZERO,
    TypingError,
    class_of,
    enumerate_terms,
    iter_types,
    parse_term,
    parse_type,
    same_class,
    term_sort_key,
)
from sigmapi.graph import EMPTY_GRAPH
from sigmapi.oracle import (
    DEFAULT_GUARD,
    CardinalSquare,
    _closure,
    cardinal_path,
    find_bouncers,
    homset_classes,
    neighbours,
)
from sigmapi.types import _INTERN


def test_class_of_quest_into_sum():
    members = class_of(QUEST, ZERO, parse_type("1+1")).members
    assert members == {
        QUEST,
        parse_term("s0 ?"),
        parse_term("s1 ?"),
        parse_term("s0 !"),
        parse_term("s1 !"),
    }


def test_class_of_singleton():
    assert len(class_of(parse_term("p0 ?"), parse_type("0*0"), ZERO)) == 1


def test_commutation_in_class():
    c = class_of(parse_term("p0 s0 !"), parse_type("1*1"), parse_type("1+1"))
    assert parse_term("s0 p0 !") in c


def test_same_class_examples():
    assert same_class(BANG, QUEST, ZERO, ONE)
    assert not same_class(parse_term("p0 ?"), parse_term("p1 ?"), parse_type("0*0"), ZERO)
    t = parse_term("{s0 !, s1 !}")
    assert same_class(t, t, parse_type("1+1"), parse_type("1+1"))


def test_enumerate_examples():
    assert enumerate_terms(ONE, ZERO) == ()
    assert enumerate_terms(ZERO, ONE) == (BANG, QUEST)
    terms = enumerate_terms(parse_type("1*1"), parse_type("1+1"))
    assert len(terms) == 6
    classes, _ = homset_classes(parse_type("1*1"), parse_type("1+1"))
    assert len(classes) == 2


def test_enumerate_deterministic_order():
    terms = enumerate_terms(parse_type("1*1"), parse_type("1+1"))
    assert list(terms) == sorted(terms, key=term_sort_key)


def test_guard_trips():
    with pytest.raises(GuardExceeded):
        enumerate_terms(parse_type("1*1"), parse_type("1+1"), guard=3)


@pytest.mark.parametrize("pairing", ["tuple", "cotuple"])
def test_guard_trips_before_building_a_product(pairing):
    # 1 -> S*S with S seven factors 1+1 has 128 * 128 tuples, dually
    # T+T -> 0 with T seven summands 0*0 as many cotuples; the guard must
    # trip before they are built and interned
    if pairing == "tuple":
        s = reduce(Prod, [Sum(ONE, ONE)] * 7)
        dom, cod = ONE, Prod(s, s)
    else:
        t = reduce(Sum, [Prod(ZERO, ZERO)] * 7)
        dom, cod = Sum(t, t), ZERO
    before = len(_INTERN)
    with pytest.raises(GuardExceeded, match="exceeds guard 10000"):
        enumerate_terms(dom, cod, guard=10_000)
    assert len(_INTERN) - before < 10_000


def test_guard_holds_after_a_cached_call():
    # a partition cached under the default guard must not answer a call
    # with a smaller one
    x = parse_type("(1+1)*(1+1)")
    classes, _ = homset_classes(x, x)
    assert len(classes) == 36
    with pytest.raises(GuardExceeded):
        homset_classes(x, x, guard=3)
    with pytest.raises(GuardExceeded):
        enumerate_terms(x, x, guard=3)


def test_canonical_is_least():
    c = class_of(QUEST, ZERO, parse_type("1+1"))
    assert c.canonical == min(c.members, key=term_sort_key)


def test_cardinal_path_commute():
    # p0 t and s0 t are joined by one elementary pair, witnessed by t
    t = parse_term("{s0 !, s1 !}")
    sq = CardinalSquare(parse_type("1+1"), ONE, parse_type("1+1"), ZERO)
    full = (sq.dom, sq.cod)
    path = cardinal_path(sq, parse_term("s0 p0 " + "{s0 !, s1 !}"),
                         parse_term("p0 s0 " + "{s0 !, s1 !}"), full, full)
    assert path is not None and path.length == 1
    assert path.witnesses == (t,)


def test_cardinal_path_reflexive():
    sq = CardinalSquare(ONE, ONE, ONE, ZERO)
    p = parse_term("p0 !")
    path = cardinal_path(sq, p, p, (sq.dom, parse_type("1")), (sq.dom, parse_type("1")))
    assert path is not None and path.length == 0


def test_cardinal_path_absent_between_opposite_definite_corners():
    # definite terms in opposite corners are never joined
    sq = CardinalSquare(parse_type("1+1"), ONE, parse_type("1+1"), parse_type("1+1"))
    f = parse_term("{s0 !, s1 !}")   # definite in Hom(X0*X1 -> A0) after p0
    g = parse_term("{s1 !, s0 !}")
    path = cardinal_path(sq, Proj(0, f), Inj(1, Proj(0, g)),
                         (sq.dom, sq.a(0)), (sq.dom, sq.cod))
    assert path is None


def test_cardinal_path_checks_its_inputs():
    # s0 ! : 1 -> 1 is ill-typed, so the term has no class to start from
    sq = CardinalSquare(parse_type("1+1"), ONE, parse_type("1+1"), ZERO)
    t = parse_term("s0 p0 {s0 !, s1 !}")
    corner = (sq.dom, sq.a(0))
    with pytest.raises(TypingError):
        cardinal_path(sq, t, t, corner, corner)
    with pytest.raises(TypingError):
        cardinal_path(sq, parse_term("p0 {s0 !, s1 !}"), t, corner, corner)
    # a raw term is in no class either
    cut = parse_term("p0 ({s0 !, s1 !} ; id:1+1)")
    with pytest.raises(InputError, match="not cut-free"):
        cardinal_path(sq, cut, cut, corner, corner)


def test_closures_reject_raw_terms():
    # a raw term is in no class, so the oracle refuses it instead of
    # answering for a class that never meets it
    t = parse_term("{s0 !, s1 !}")
    raw = parse_term("{s0 !, s1 !} ; id:1+1")
    x = parse_type("1+1")
    with pytest.raises(InputError, match="not cut-free"):
        same_class(raw, t, x, x)
    with pytest.raises(InputError, match="not cut-free"):
        same_class(t, raw, x, x)
    with pytest.raises(InputError, match="not cut-free"):
        class_of(raw, x, x)
    sq = CardinalSquare(x, ONE, x, ZERO)
    assert find_bouncers(sq, 0, 0, t, t) == (t,)
    with pytest.raises(InputError, match="not cut-free"):
        find_bouncers(sq, 0, 0, raw, raw)
    with pytest.raises(InputError, match="not cut-free"):
        find_bouncers(sq, 0, 0, t, raw)


CLASS_OF_QUEST = ["?", "<?, ?>", "<s0 ?, ?>", "<s1 ?, ?>", "<?, !>", "<s0 !, ?>",
                  "<s0 ?, !>", "<s1 !, ?>", "<s1 ?, !>", "<s0 !, !>", "<s1 !, !>"]


def test_closure_guard_boundary():
    # the class of ? at 0 -> (1+1)*1, in breadth-first order; the guard
    # counts members, and the member past it is yielded before the check
    x = parse_type("(1+1)*1")
    order = [parse_term(m) for m in CLASS_OF_QUEST]
    assert list(_closure(QUEST, ZERO, x, DEFAULT_GUARD)) == order
    assert class_of(QUEST, ZERO, x, guard=11).members == set(order)
    with pytest.raises(GuardExceeded):
        class_of(QUEST, ZERO, x, guard=10)
    assert same_class(QUEST, order[-1], ZERO, x, guard=10)
    with pytest.raises(GuardExceeded):
        same_class(QUEST, order[-1], ZERO, x, guard=9)


def test_closure_guard_reports_progress():
    # the members found and the frontier left unexpanded when the guard trips
    x = parse_type("(1+1)*1")
    with pytest.raises(GuardExceeded,
                       match=r"exceeded 10 members: 11 found, 3 on the frontier$"):
        class_of(QUEST, ZERO, x, guard=10)
    with pytest.raises(GuardExceeded,
                       match=r"exceeded 9 members: 10 found, 4 on the frontier$"):
        same_class(QUEST, BANG, ZERO, x, guard=9)


def _reference_closure(t, dom, cod):
    """Breadth-first closure through the public, memo-free ``neighbours``."""
    order, seen, k = [t], {t}, 0
    while k < len(order):
        for image in neighbours(order[k], dom, cod):
            if image not in seen:
                seen.add(image)
                order.append(image)
        k += 1
    return order


def test_memoized_closure_matches_memo_free_reference(graph_xa):
    small = list(iter_types(4))
    homsets = [(X, A, EMPTY_GRAPH) for X in small for A in small]
    homsets += [(parse_type(X), parse_type(A), graph_xa)
                for X, A in (("x*(0+1)", "a+1"), ("x+x", "a*a"), ("(x+1)*x", "a+1*a"))]
    for X, A, graph in homsets:
        for t in enumerate_terms(X, A, graph):
            assert list(_closure(t, X, A, DEFAULT_GUARD)) == _reference_closure(t, X, A)
    # after a closure, the public call still hands out a fresh list
    x, t = parse_type("(1+1)*1"), parse_term("<?, ?>")
    assert t in class_of(QUEST, ZERO, x)
    images = neighbours(t, ZERO, x)
    assert images == neighbours(t, ZERO, x) and images is not neighbours(t, ZERO, x)


def test_find_bouncers_trivial():
    # when f == g, f itself bounces
    sq = CardinalSquare(parse_type("1+1"), ONE, parse_type("1+1"), ZERO)
    f = parse_term("{s0 !, s1 !}")
    bs = find_bouncers(sq, 0, 0, f, f)
    assert f in bs


def test_bouncer_uniqueness_small_exhaustive():
    """At most one class of bouncers per pair (generator-free)."""
    small = list(iter_types(3))
    squares = [CardinalSquare(*combo) for combo in itertools.product(small, repeat=4)]
    for sq in squares[::7]:  # deterministic thinning: every 7th square
        side = enumerate_terms(sq.x(0), sq.a(0))
        if not (0 < len(side) <= 6):
            continue
        for a0, a2 in itertools.product(side, repeat=2):
            bs = find_bouncers(sq, 0, 0, a0, a2)
            for h1, h2 in itertools.combinations(bs, 2):
                assert same_class(h1, h2, sq.x(0), sq.a(0))


def test_pushout_coherence_and_bounce_length():
    """A path in the diagram of cardinals exists exactly when the corner
    elements' images agree in the glued homset, and definite endpoints
    that are joined at all are joined within two elementary pairs."""
    from sigmapi import annotate

    squares = [
        CardinalSquare(parse_type("1+1"), ONE, parse_type("1+1"), ZERO),
        CardinalSquare(parse_type("0*0"), ZERO, ZERO, ONE),
        CardinalSquare(ONE, parse_type("0+1"), parse_type("1+1"), parse_type("1*1")),
    ]
    for sq in squares:
        corners = []
        for j in (0, 1):
            for t in enumerate_terms(sq.dom, sq.a(j)):
                corners.append((("prod", j), t, Inj(j, t)))
        for i in (0, 1):
            for t in enumerate_terms(sq.x(i), sq.cod):
                corners.append((("fac", i), t, Proj(i, t)))
        for (c1, t1, img1) in corners:
            a1 = annotate(t1, *sq.corner_homset(c1))
            for (c2, t2, img2) in corners:
                typing1 = sq.corner_homset(c1)
                typing2 = sq.corner_homset(c2)
                path = cardinal_path(sq, t1, t2, typing1, typing2)
                glued = same_class(img1, img2, sq.dom, sq.cod)
                assert (path is not None) == glued, (sq, t1, t2)
                if path is not None and a1.ann.definite:
                    a2 = annotate(t2, *typing2)
                    if a2.ann.definite:
                        assert path.length <= 2, (sq, t1, t2, path.length)
