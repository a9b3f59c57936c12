import hashlib
import itertools
from collections import Counter

import pytest

from sigmapi import (
    Bouncer,
    Cotuple,
    Disconnect,
    Equal,
    Inj,
    NotEqual,
    Proj,
    RequiresOracle,
    SharedCopoint,
    SharedPoint,
    Stats,
    Tuple,
    annotate,
    enumerate_terms,
    equal,
    format_term,
    iter_types,
    normal_form,
    parse_term,
    parse_type,
    same_class,
)
from sigmapi.bench import balanced_type
from sigmapi.compose import identity
from sigmapi.types import ZERO
from sigmapi.oracle import homset_classes


def _pair(fsrc, gsrc, dom, cod):
    X, A = parse_type(dom), parse_type(cod)
    return (annotate(parse_term(fsrc), X, A), annotate(parse_term(gsrc), X, A))


def test_intro_examples():
    f, g = _pair("p0 ?", "p1 ?", "0*0", "0")
    assert isinstance(equal(f, g), NotEqual)
    f, g = _pair("s0 p0 ?", "s0 p1 ?", "0*0", "0+1")
    v = equal(f, g)
    assert isinstance(v, Equal) and isinstance(v.witness, Disconnect)


def test_reflexivity():
    for src, dom, cod in (("{s0 !, s1 !}", "1+1", "1+1"), ("p0 s1 !", "1*0", "1+1")):
        f, g = _pair(src, src, dom, cod)
        assert isinstance(equal(f, g), Equal)


def test_points_disagree():
    f, g = _pair("s0 !", "s1 !", "1*1", "1+1")
    v = equal(f, g)
    assert v == NotEqual("point-mismatch")


def test_shared_point():
    # p0 s0 ! and s0 p0 ! are the same just-pointed map
    f, g = _pair("p0 s0 !", "s0 p0 !", "1*1", "1+1")
    v = equal(f, g)
    assert isinstance(v, Equal) and isinstance(v.witness, SharedPoint)
    assert v.witness.term == parse_term("s0 !")


def test_commutation_gives_bouncer():
    t = "{s0 !, s1 !}"  # a definite body 1+1 -> 1+1
    f, g = _pair(f"p0 s0 {t}", f"s0 p0 {t}", "(1+1)*1", "(1+1)+0")
    v = equal(f, g)
    assert isinstance(v, Equal) and isinstance(v.witness, Bouncer)
    # the bouncer h : X_0 -> A_0 mediates: its projection recovers the
    # injection factor of f, its injection the projection factor of g
    h = v.witness.term
    X, A = parse_type("(1+1)*1"), parse_type("(1+1)+0")
    assert same_class(Proj(0, h), parse_term(f"p0 {t}"), X, parse_type("1+1"))
    assert same_class(Inj(0, h), parse_term(f"s0 {t}"), parse_type("1+1"), A)
    assert same_class(Inj(0, Proj(0, h)), f.term, X, A)
    assert same_class(Proj(0, Inj(0, h)), g.term, X, A)


def test_lift_failure_regression():
    # frozen from an exhaustive search over small squares: both terms are
    # definite, f factors only through s1, g also factors through p1, and
    # no lift of the g side through s1 exists.  Both normal forms keep s1,
    # and below it they first differ in the corner of component 0.
    f, g = _pair("s1 <p0 ?, p1 p0 ?>", "p1 s1 <p0 ?, p1 ?>", "0*0*0", "0+0*0")
    v = equal(f, g)
    assert v == NotEqual("component 0: corner-mismatch")
    assert not same_class(f.term, g.term, parse_type("0*0*0"), parse_type("0+0*0"))


def test_requires_oracle_on_generator_types():
    from sigmapi import GenArrow

    X, A = parse_type("x"), parse_type("x")
    f = annotate(GenArrow("x"), X, A)
    assert isinstance(equal(f, f), RequiresOracle)
    # generator objects anywhere in the typing defer to the oracle, even
    # when the terms themselves are generator-free
    g = annotate(parse_term("!"), parse_type("x"), parse_type("1"))
    h = annotate(parse_term("p0 !"), parse_type("x*1"), parse_type("1"))
    assert isinstance(equal(g, g), RequiresOracle)
    assert isinstance(equal(h, h), RequiresOracle)


def test_mixed_corner_pair_at_units():
    # s0 p0 ! and p0 s0 ! over 1*0 -> 1+0 are both the disconnect of the
    # homset, so they compare equal through the indefinite analysis, not
    # through a bouncer
    f, g = _pair("s0 p0 !", "p0 s0 !", "1*0", "1+0")
    v = equal(f, g)
    assert isinstance(v, Equal) and isinstance(v.witness, Disconnect)


def test_equivalent_example():
    # a definite instance: the bouncer is the shared body, lifted from the
    # g side since the inner codomain 1+1 is pointed (s0 is monic)
    body = "{s0 !, s1 !}"
    f, g = _pair(f"s0 p0 {body}", f"p0 s0 {body}", "(1+1)*1", "(1+1)+0")
    v = equal(f, g)
    assert isinstance(v, Equal) and isinstance(v.witness, Bouncer)
    assert v.witness.term == parse_term(body)


def test_equivalence_relation_on_homset():
    X, A = parse_type("(1+1)*1"), parse_type("1+1")
    terms = enumerate_terms(X, A)
    anns = [annotate(t, X, A) for t in terms]
    eq = [[isinstance(equal(f, g), Equal) for g in anns] for f in anns]
    n = len(anns)
    for i in range(n):
        assert eq[i][i]
        for j in range(n):
            assert eq[i][j] == eq[j][i]
            for k in range(n):
                if eq[i][j] and eq[j][k]:
                    assert eq[i][k]


def _decide(f, g, X, A):
    return equal(annotate(f, X, A), annotate(g, X, A))


def test_congruence():
    X, A = parse_type("1+1"), parse_type("1+1")
    classes, index = homset_classes(X, A)
    terms = enumerate_terms(X, A)
    S = parse_type("(1+1)+(1+1)")
    for f, g in itertools.product(terms, repeat=2):
        if index[f] != index[g]:
            continue
        for j in (0, 1):
            assert isinstance(_decide(Inj(j, f), Inj(j, g), X, S), Equal)
        for i in (0, 1):
            P = parse_type("(1+1)*0") if i == 0 else parse_type("0*(1+1)")
            assert isinstance(_decide(Proj(i, f), Proj(i, g), P, A), Equal)
        assert isinstance(_decide(Cotuple(f, parse_term("{s0 !, s1 !}")),
                                  Cotuple(g, parse_term("{s0 !, s1 !}")),
                                  parse_type("(1+1)+(1+1)"), A), Equal)
        assert isinstance(_decide(Tuple(f, parse_term("!")),
                                  Tuple(g, parse_term("!")),
                                  X, parse_type("(1+1)*1")), Equal)


def test_stats_thresholds():
    # regression thresholds fixed after first measurement
    f, g = _pair("s0 p0 ?", "s0 p1 ?", "0*0", "0+1")
    stats = Stats()
    v = equal(f, g, stats)
    assert isinstance(v, Equal)
    assert stats.steps <= 200

    worst = 0
    for X in iter_types(3):
        for A in iter_types(3):
            terms = enumerate_terms(X, A)
            anns = [annotate(t, X, A) for t in terms]
            for fa in anns:
                for ga in anns:
                    st = Stats()
                    equal(fa, ga, st)
                    worst = max(worst, st.steps)
    assert worst <= 200


def test_reflexive_cost_close_to_equal_cost():
    # deciding t == t costs no more than deciding t == u plus slack, for
    # u in the same class (measured bound, frozen at 16)
    X, A = parse_type("(1+1)*1"), parse_type("1+1")
    terms = enumerate_terms(X, A)
    _, index = homset_classes(X, A)
    anns = {t: annotate(t, X, A) for t in terms}
    for t in terms:
        self_stats = Stats()
        equal(anns[t], anns[t], self_stats)
        for u in terms:
            if u is t or index[t] != index[u]:
                continue
            other_stats = Stats()
            equal(anns[t], anns[u], other_stats)
            assert self_stats.steps <= other_stats.steps + 16


def test_copoints_disagree():
    # both just copointed, through genuinely different copoints
    f, g = _pair("s0 p0 ?", "s0 p1 ?", "0*0", "0+0")
    v = equal(f, g)
    assert v == NotEqual("copoint-mismatch")


def test_shared_copoint():
    f, g = _pair("s0 p0 ?", "p0 s0 ?", "0*0", "0+0")
    v = equal(f, g)
    assert isinstance(v, Equal) and isinstance(v.witness, SharedCopoint)
    assert v.witness.term == parse_term("p0 ?")


def test_disconnect_witness_rechecks():
    f, g = _pair("s0 p0 ?", "s0 p1 ?", "0*0", "0+1")
    v = equal(f, g)
    assert isinstance(v.witness, Disconnect)
    w = annotate(v.witness.term, parse_type("0*0"), parse_type("0+1"))
    assert None not in w.ann


def test_normal_form_picks_one_member_per_class():
    """Over ``iter_types(5)`` squared, each enumerated term's normal form
    lies in its own class, every enumerated member of a class gets the
    same one, and a normal form is its own normal form."""
    classes = 0
    for X in iter_types(5):
        for A in iter_types(5):
            terms = enumerate_terms(X, A)
            if not terms:
                continue
            _, index = homset_classes(X, A)
            chosen = {}
            for t in terms:
                nf = normal_form(annotate(t, X, A))
                assert index.get(nf) == index[t], (t, nf, X, A)
                assert chosen.setdefault(index[t], nf) is nf, (t, nf, X, A)
            for nf in chosen.values():
                assert normal_form(annotate(nf, X, A)) is nf, (nf, X, A)
            classes += len(chosen)
    assert classes == 6573


def test_balanced_identity_is_its_own_normal_form():
    for h in range(2, 13):
        x = balanced_type(h)
        assert normal_form(annotate(identity(x), x, x)) is identity(x)


def test_normal_form_rejects_generators():
    with pytest.raises(ValueError):
        normal_form(annotate(parse_term("!"), parse_type("x"), parse_type("1")))


def test_every_verdict_over_small_homsets_is_pinned():
    """Every ordered pair of enumerated terms over ``iter_types(5)``
    squared: the sha1 of its ``Equal|kind|witness`` or ``NotEqual|reason``
    lines, and the count of each kind and of each reason's last part."""
    lines, counts = hashlib.sha1(), Counter()
    for X in iter_types(5):
        for A in iter_types(5):
            anns = [annotate(t, X, A) for t in enumerate_terms(X, A)]
            for f in anns:
                for g in anns:
                    v = equal(f, g)
                    if isinstance(v, Equal):
                        w = getattr(v.witness, "term", None)
                        line = f"Equal|{v.kind}|{'' if w is None else format_term(w)}"
                        counts[v.kind] += 1
                    else:
                        line = f"NotEqual|{v.reason}"
                        counts[v.reason.rsplit(": ", 1)[-1]] += 1
                    lines.update(line.encode() + b"\n")
    assert counts == {
        "bouncer": 576, "disconnect": 131972, "shared point": 16120,
        "shared copoint": 16120, "singleton homset": 222, "syntactic": 243178,
        "corner-mismatch": 198684, "point-mismatch": 31976,
        "copoint-mismatch": 31976, "disconnect-mismatch": 6992}
    assert lines.hexdigest() == "069c180b61cc19c3e0acac67e33d7b17ca9db05f"
