import random

from sigmapi import (
    BANG,
    QUEST,
    Inj,
    ONE,
    Proj,
    ZERO,
    VisitCounter,
    class_of,
    annotate,
    compose,
    copoint_of,
    disconnect,
    enumerate_terms,
    iter_types,
    metrics,
    parse_term,
    parse_type,
    point_of,
    same_class,
    term_metrics,
)


def test_point_of_examples():
    assert point_of(parse_type("1+1")) == Inj(0, BANG)
    assert point_of(ZERO) is None
    assert point_of(parse_type("x")) is None
    assert copoint_of(parse_type("0*1")) == Proj(0, QUEST)
    assert copoint_of(ONE) is None


def test_annotate_disconnect_example():
    a = annotate(parse_term("s1 !"), parse_type("0*0"), parse_type("0+1"))
    assert a.ann.pointed and a.ann.copointed
    assert a.ann.point_witness == parse_term("s1 !")
    assert a.ann.copoint_witness == parse_term("p0 ?")


def test_annotate_copoint_example():
    a = annotate(parse_term("p0 ?"), parse_type("0*0"), ZERO)
    assert not a.ann.pointed and a.ann.copointed
    assert a.ann.copoint_witness == parse_term("p0 ?")


def test_annotate_point_example():
    a = annotate(parse_term("s0 !"), parse_type("1*1"), parse_type("1+1"))
    assert a.ann.pointed and not a.ann.copointed
    assert a.ann.point_witness == parse_term("s0 !")


def test_identity_of_sum_is_not_pointed():
    # both components are pointed but with distinct points
    a = annotate(parse_term("{s0 !, s1 !}"), parse_type("1+1"), parse_type("1+1"))
    assert not a.ann.pointed and not a.ann.copointed


def test_injected_copoint_is_disconnect():
    # the body is copointed, not pointed; the injection is the disconnect
    a = annotate(parse_term("s0 p0 ?"), parse_type("0*0"), parse_type("0+1"))
    assert a.ann.pointed and a.ann.copointed


def test_disconnect_examples():
    d = disconnect(parse_type("0*0"), parse_type("1+1"))
    assert d == parse_term("p0 ?")
    assert same_class(d, parse_term("p0 s0 ?"), parse_type("0*0"), parse_type("1+1"))
    assert disconnect(ONE, parse_type("1+1")) is None
    assert disconnect(ZERO, ONE) == QUEST
    assert same_class(disconnect(ZERO, ONE), BANG, ZERO, ONE)


def test_linearity_visit_counter():
    for src, dom, cod in (
        ("s1 p0 <?, ?>", "0*(1+0)", "0+(1*1)"),
        ("{<s0 !, !>, <s1 !, !>}", "1+1", "(1+1)*1"),
    ):
        t = parse_term(src)
        c = VisitCounter()
        annotate(t, parse_type(dom), parse_type(cod), c)
        assert c.visits == term_metrics(t).size


def _oracle_pointed(t, dom, cod):
    p = point_of(cod)
    if p is None:
        return False
    # pointed iff equal to ! ; p for some point; the disconnect analysis
    # shows any point works when one does
    candidates = enumerate_terms(ONE, cod)
    return any(same_class(t, compose(BANG, q), dom, cod) for q in candidates)


def _oracle_copointed(t, dom, cod):
    if copoint_of(dom) is None:
        return False
    candidates = enumerate_terms(dom, ZERO)
    return any(same_class(t, compose(c, QUEST), dom, cod) for c in candidates)


def test_bits_agree_with_oracle_exhaustive_small():
    for X in iter_types(3):
        for A in iter_types(3):
            for t in enumerate_terms(X, A):
                a = annotate(t, X, A)
                assert a.ann.pointed == _oracle_pointed(t, X, A), (t, X, A)
                assert a.ann.copointed == _oracle_copointed(t, X, A), (t, X, A)


def test_witnesses_correct_randomized():
    rng = random.Random(42)
    types = [t for t in iter_types(5)]
    checked = 0
    while checked < 300:
        X, A = rng.choice(types), rng.choice(types)
        terms = enumerate_terms(X, A)
        if not terms:
            continue
        t = rng.choice(terms)
        a = annotate(t, X, A)
        if a.ann.pointed:
            assert same_class(t, compose(BANG, a.ann.point_witness), X, A)
        if a.ann.copointed:
            assert same_class(t, compose(a.ann.copoint_witness, QUEST), X, A)
        checked += 1


def test_disconnect_unique_per_homset():
    from sigmapi.oracle import homset_classes

    for X in iter_types(4):
        for A in iter_types(4):
            classes, _ = homset_classes(X, A)
            both = [
                c for c in classes
                if annotate(c.canonical, X, A).ann.is_disconnect
            ]
            assert len(both) <= 1
            if both:
                d = disconnect(X, A)
                assert d is not None and same_class(d, both[0].canonical, X, A)


def test_witnesses_correct_at_size_7():
    rng = random.Random(7)
    big = [t for t in iter_types(7) if metrics(t).size == 7]
    checked = 0
    while checked < 60:
        X, A = rng.choice(big), rng.choice(big)
        terms = enumerate_terms(X, A)
        if not terms:
            continue
        t = rng.choice(terms)
        a = annotate(t, X, A)
        if a.ann.pointed:
            assert same_class(t, compose(BANG, a.ann.point_witness), X, A)
        if a.ann.copointed:
            assert same_class(t, compose(a.ann.copoint_witness, QUEST), X, A)
        checked += 1


def _assert_canonical(pt, cp, dom, cod):
    """``pt : 1 -> cod`` and ``cp : dom -> 0`` (either may be None) are
    their own composites with the unit arrow, interned, and the only
    members of their classes."""
    if pt is not None:
        assert compose(BANG, pt) is pt, pt
        assert len(class_of(pt, ONE, cod)) == 1, pt
    if cp is not None:
        assert compose(cp, QUEST) is cp, cp
        assert len(class_of(cp, dom, ZERO)) == 1, cp


def test_canonical_witnesses_stand_for_themselves():
    # decide compares witnesses by identity, and factor and disconnect
    # retype them without cut elimination; both rest on this
    points = copoints = 0
    for t in iter_types(9):
        pt, cp = point_of(t), copoint_of(t)
        if pt is not None:
            assert compose(BANG, pt) is pt, t
            points += 1
        if cp is not None:
            assert compose(cp, QUEST) is cp, t
            copoints += 1
    assert (points, copoints) == (3941, 3941)
    singletons = 0
    for t in iter_types(7):
        _assert_canonical(point_of(t), copoint_of(t), t, t)
        singletons += (point_of(t) is not None) + (copoint_of(t) is not None)
    assert singletons == 714


def test_annotation_witnesses_stand_for_themselves():
    points = copoints = 0
    for X in iter_types(4):
        for A in iter_types(4):
            for t in enumerate_terms(X, A):
                a = annotate(t, X, A)
                _assert_canonical(a.ann.point_witness, a.ann.copoint_witness, X, A)
                points += a.ann.pointed
                copoints += a.ann.copointed
    assert (points, copoints) == (125, 125)
