from hypothesis import given, strategies as st

from sigmapi import (
    COPOINT,
    POINT,
    Gen,
    ONE,
    ZERO,
    enumerate_terms,
    format_type,
    iter_types,
    metrics,
    parse_type,
    witness_of,
)

types = st.recursive(
    st.sampled_from([ZERO, ONE]),
    lambda t: st.tuples(t, t).map(lambda p: p[0] + p[1]) | st.tuples(t, t).map(lambda p: p[0] * p[1]),
    max_leaves=16,
)


def test_metrics_units():
    assert metrics(ZERO) == (1, 1)
    assert metrics(ONE) == (1, 1)


def test_metrics_examples():
    assert metrics(parse_type("0*0")) == (3, 2)
    assert metrics(parse_type("(1+1)*1")) == (5, 3)
    assert metrics(Gen("x")) == (1, 1)


@given(types, types)
def test_metrics_recursion(a, b):
    ma, mb = metrics(a), metrics(b)
    for t in (a + b, a * b):
        assert metrics(t) == (1 + ma.size + mb.size, 1 + max(ma.height, mb.height))


def _has(s, t):
    return witness_of(s, t) is not None


def test_pointed_examples():
    assert _has(POINT, ONE)
    assert _has(POINT, parse_type("0+1"))
    assert not _has(POINT, Gen("x"))
    assert _has(COPOINT, ZERO)
    assert _has(COPOINT, parse_type("0*1"))
    assert not _has(COPOINT, ONE)
    assert not _has(COPOINT, Gen("x"))


@given(types)
def test_determinacy(t):
    # generator-free types have a point or a copoint, never both
    assert _has(POINT, t) != _has(COPOINT, t)


def test_agreement_with_enumeration_small():
    for t in iter_types(7):
        assert _has(POINT, t) == bool(enumerate_terms(ONE, t))
        assert _has(COPOINT, t) == bool(enumerate_terms(t, ZERO))


@given(types, types)
def test_recursion_laws(a, b):
    assert _has(POINT, a * b) == (_has(POINT, a) and _has(POINT, b))
    assert _has(POINT, a + b) == (_has(POINT, a) or _has(POINT, b))
    assert _has(COPOINT, a * b) == (_has(COPOINT, a) or _has(COPOINT, b))
    assert _has(COPOINT, a + b) == (_has(COPOINT, a) and _has(COPOINT, b))


@given(types)
def test_format_parse_roundtrip(t):
    assert parse_type(format_type(t)) == t


def test_iter_types_counts():
    per_size = {}
    for t in iter_types(7):
        per_size[metrics(t).size] = per_size.get(metrics(t).size, 0) + 1
    assert per_size == {1: 2, 3: 8, 5: 64, 7: 640}
