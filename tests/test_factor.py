import pytest

from sigmapi import (
    COPOINT,
    POINT,
    Inj,
    Proj,
    VisitCounter,
    annotate,
    enumerate_terms,
    factor,
    iter_types,
    parse_term,
    parse_type,
    same_class,
    term_metrics,
)
from sigmapi.oracle import homset_classes
from sigmapi.types import Prod, Sum


def _ann(src, dom, cod):
    return annotate(parse_term(src), parse_type(dom), parse_type(cod))


def test_factor_inj_syntactic():
    f = _ann("s0 {!, !}", "1+1", "1+0")
    got = factor(POINT, f, 0)
    assert got is not None and got.term == parse_term("{!, !}")


def test_factor_inj_copointed_route():
    f = _ann("p0 s0 ?", "0*1", "0+0")
    got = factor(POINT, f, 1)
    assert got is not None and got.term == parse_term("p0 ?")
    assert same_class(Inj(1, got.term), f.term, parse_type("0*1"), parse_type("0+0"))


def test_factor_inj_blocked():
    f = _ann("s1 !", "1", "0+1")
    assert factor(POINT, f, 0) is None


def test_factor_proj_syntactic():
    f = _ann("p1 !", "0*1", "1")
    got = factor(COPOINT, f, 1)
    assert got is not None and got.term == parse_term("!")


def test_factor_proj_pushes_under_injection():
    f = _ann("s0 p0 {s0 !, s1 !}", "(1+1)*1", "(1+1)+0")
    got = factor(COPOINT, f, 0)
    assert got is not None and got.term == parse_term("s0 {s0 !, s1 !}")


def test_factor_proj_blocked():
    f = _ann("p0 ?", "0*0", "0")
    assert factor(COPOINT, f, 1) is None


def test_contract_requires_matching_shape():
    f = _ann("!", "0*0", "1")
    with pytest.raises(AssertionError):
        factor(POINT, f, 0)  # codomain is not a sum


def _sum_splits(max_size):
    out = []
    for s in iter_types(max_size):
        if isinstance(s, Sum):
            out.append(s)
    return out


def test_soundness_and_completeness_against_oracle():
    """``factor(POINT, ·)`` succeeds exactly on terms whose class contains
    an injection-rooted member, and its output re-injects into the input's
    class; dually for ``factor(COPOINT, ·)``.  Exhaustive over small
    homsets."""
    for X in iter_types(5):
        for S in _sum_splits(5):
            classes, index = homset_classes(X, S)
            for t in enumerate_terms(X, S):
                a = annotate(t, X, S)
                cls = classes[index[t]]
                for j in (0, 1):
                    got = factor(POINT, a, j)
                    expected = any(isinstance(m, Inj) and m.index == j for m in cls.members)
                    assert (got is not None) == expected, (t, X, S, j)
                    if got is not None:
                        assert index[Inj(j, got.term)] == index[t]
    for P in (p for p in iter_types(5) if isinstance(p, Prod)):
        for A in iter_types(5):
            classes, index = homset_classes(P, A)
            for t in enumerate_terms(P, A):
                a = annotate(t, P, A)
                cls = classes[index[t]]
                for i in (0, 1):
                    got = factor(COPOINT, a, i)
                    expected = any(isinstance(m, Proj) and m.index == i for m in cls.members)
                    assert (got is not None) == expected, (t, P, A, i)
                    if got is not None:
                        assert index[Proj(i, got.term)] == index[t]


def test_linearity_bound():
    for src, dom, cod in (
        ("{s0 <!, !>, s0 <!, !>}", "1+1", "(1*1)+0"),
        ("p0 s1 {s0 !, s1 !}", "(1+1)*1", "0+(1+1)"),
    ):
        a = _ann(src, dom, cod)
        for j in (0, 1):
            c = VisitCounter()
            factor(POINT, a, j, c)
            assert c.visits <= 2 * term_metrics(a.term).size


def test_annotations_maintained():
    """Factored outputs carry annotations identical to a fresh pass."""
    def check(node):
        fresh = annotate(node.term, node.dom, node.cod)
        assert node.ann == fresh.ann
        for ch in node.children:
            check(ch)

    for X in iter_types(4):
        for S in _sum_splits(4):
            for t in enumerate_terms(X, S):
                a = annotate(t, X, S)
                for j in (0, 1):
                    got = factor(POINT, a, j)
                    if got is not None:
                        check(got)


def test_generator_typed_factoring_against_oracle():
    """Factoring handles terms over generator objects; validated by class
    membership exactly as in the generator-free sweep."""
    from sigmapi import BANG, QUEST, annotate as ann_fn, compose, infer, make_graph, same_class

    g = make_graph(["x", "a"], [("k", "x", "a")])
    pairs = [
        (parse_type("x*(0+1)"), parse_type("a+1")),
        (parse_type("(0*0)+x"), parse_type("(1+1)+a")),
        (parse_type("x*0"), parse_type("a+(1*1)")),
        (parse_type("x"), parse_type("a+a")),
    ]
    for X, S in pairs:
        classes, index = homset_classes(X, S, g)
        for t in enumerate_terms(X, S, g):
            a = ann_fn(t, X, S)
            if a.ann[POINT] is not None:
                assert same_class(t, compose(BANG, a.ann[POINT]), X, S)
            if a.ann[COPOINT] is not None:
                assert same_class(t, compose(a.ann[COPOINT], QUEST), X, S)
            cls = classes[index[t]]
            for j in (0, 1):
                got = factor(POINT, a, j)
                expected = any(isinstance(m, Inj) and m.index == j for m in cls.members)
                assert (got is not None) == expected, (t, X, S, j)
                if got is not None:
                    infer(got.term, X, S.component(j), g)
                    assert index[Inj(j, got.term)] == index[t]
