import random

from sigmapi import (
    BANG,
    COPOINT,
    POINT,
    QUEST,
    Inj,
    ONE,
    Proj,
    ZERO,
    VisitCounter,
    class_of,
    annotate,
    compose,
    disconnect,
    enumerate_terms,
    iter_types,
    metrics,
    parse_term,
    parse_type,
    same_class,
    term_metrics,
    witness_of,
)


def test_witness_of_examples():
    assert witness_of(POINT, parse_type("1+1")) == Inj(0, BANG)
    assert witness_of(POINT, ZERO) is None
    assert witness_of(POINT, parse_type("x")) is None
    assert witness_of(COPOINT, parse_type("0*1")) == Proj(0, QUEST)
    assert witness_of(COPOINT, ONE) is None


def test_annotate_disconnect_example():
    a = annotate(parse_term("s1 !"), parse_type("0*0"), parse_type("0+1"))
    assert None not in a.ann
    assert a.ann[POINT] == parse_term("s1 !")
    assert a.ann[COPOINT] == parse_term("p0 ?")


def test_annotate_copoint_example():
    a = annotate(parse_term("p0 ?"), parse_type("0*0"), ZERO)
    assert a.ann[POINT] is None and a.ann[COPOINT] is not None
    assert a.ann[COPOINT] == parse_term("p0 ?")


def test_annotate_point_example():
    a = annotate(parse_term("s0 !"), parse_type("1*1"), parse_type("1+1"))
    assert a.ann[POINT] is not None and a.ann[COPOINT] is None
    assert a.ann[POINT] == parse_term("s0 !")


def test_identity_of_sum_is_not_pointed():
    # both components are pointed but with distinct points
    a = annotate(parse_term("{s0 !, s1 !}"), parse_type("1+1"), parse_type("1+1"))
    assert a.ann == (None, None)


def test_injected_copoint_is_disconnect():
    # the body is copointed, not pointed; the injection is the disconnect
    a = annotate(parse_term("s0 p0 ?"), parse_type("0*0"), parse_type("0+1"))
    assert None not in a.ann


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
    p = witness_of(POINT, cod)
    if p is None:
        return False
    # pointed iff equal to ! ; p for some point; the disconnect analysis
    # shows any point works when one does
    candidates = enumerate_terms(ONE, cod)
    return any(same_class(t, compose(BANG, q), dom, cod) for q in candidates)


def _oracle_copointed(t, dom, cod):
    if witness_of(COPOINT, dom) is None:
        return False
    candidates = enumerate_terms(dom, ZERO)
    return any(same_class(t, compose(c, QUEST), dom, cod) for c in candidates)


def test_bits_agree_with_oracle_exhaustive_small():
    for X in iter_types(3):
        for A in iter_types(3):
            for t in enumerate_terms(X, A):
                a = annotate(t, X, A)
                assert (a.ann[POINT] is not None) == _oracle_pointed(t, X, A), (t, X, A)
                assert (a.ann[COPOINT] is not None) == _oracle_copointed(t, X, A), (t, X, A)


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
        if a.ann[POINT] is not None:
            assert same_class(t, compose(BANG, a.ann[POINT]), X, A)
        if a.ann[COPOINT] is not None:
            assert same_class(t, compose(a.ann[COPOINT], QUEST), X, A)
        checked += 1


def test_disconnect_unique_per_homset():
    from sigmapi.oracle import homset_classes

    for X in iter_types(4):
        for A in iter_types(4):
            classes, _ = homset_classes(X, A)
            both = [
                c for c in classes
                if None not in annotate(c.canonical, X, A).ann
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
        if a.ann[POINT] is not None:
            assert same_class(t, compose(BANG, a.ann[POINT]), X, A)
        if a.ann[COPOINT] is not None:
            assert same_class(t, compose(a.ann[COPOINT], QUEST), X, A)
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
        pt, cp = witness_of(POINT, t), witness_of(COPOINT, t)
        if pt is not None:
            assert compose(BANG, pt) is pt, t
            points += 1
        if cp is not None:
            assert compose(cp, QUEST) is cp, t
            copoints += 1
    assert (points, copoints) == (3941, 3941)
    singletons = 0
    for t in iter_types(7):
        _assert_canonical(witness_of(POINT, t), witness_of(COPOINT, t), t, t)
        singletons += (witness_of(POINT, t) is not None) + (witness_of(COPOINT, t) is not None)
    assert singletons == 714


def test_annotation_witnesses_stand_for_themselves():
    points = copoints = 0
    for X in iter_types(4):
        for A in iter_types(4):
            for t in enumerate_terms(X, A):
                a = annotate(t, X, A)
                _assert_canonical(*a.ann, X, A)
                points += a.ann[POINT] is not None
                copoints += a.ann[COPOINT] is not None
    assert (points, copoints) == (125, 125)
