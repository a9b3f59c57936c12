import hashlib
from itertools import chain

from hypothesis import given, strategies as st

from sigmapi import (
    COPOINT,
    POINT,
    Gen,
    ONE,
    Prod,
    Sum,
    ZERO,
    enumerate_terms,
    format_term,
    format_type,
    iter_types,
    parse_type,
    witness_of,
)

types = st.recursive(
    st.sampled_from([ZERO, ONE]),
    lambda t: st.tuples(t, t).map(lambda p: p[0] + p[1]) | st.tuples(t, t).map(lambda p: p[0] * p[1]),
    max_leaves=16,
)


def test_metrics_units():
    assert (ZERO.size, ZERO.height) == (1, 1)
    assert (ONE.size, ONE.height) == (1, 1)


def test_metrics_examples():
    t, u, x = parse_type("0*0"), parse_type("(1+1)*1"), Gen("x")
    assert (t.size, t.height) == (3, 2)
    assert (u.size, u.height) == (5, 3)
    assert (x.size, x.height) == (1, 1)


@given(types, types)
def test_metrics_recursion(a, b):
    for t in (a + b, a * b):
        assert (t.size, t.height) == (1 + a.size + b.size, 1 + max(a.height, b.height))


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
        per_size[t.size] = per_size.get(t.size, 0) + 1
    assert per_size == {1: 2, 3: 8, 5: 64, 7: 640}


def test_type_facts_are_pinned():
    # size, height, has_gen and both witnesses of 11,359 types; the sha1
    # was taken when each fact was computed by its own walk of the type
    def show(w):
        return "-" if w is None else format_term(w)

    h = hashlib.sha1()
    n = 0
    for t in chain(iter_types(9), iter_types(7, (ZERO, ONE, Gen("x")))):
        h.update(f"{format_type(t)}|{t.size}|{t.height}|{t.has_gen}|"
                 f"{show(witness_of(POINT, t))}|{show(witness_of(COPOINT, t))}\n".encode())
        n += 1
    assert n == 11_359
    assert h.hexdigest() == "b754e59eda262cb82cdfefb63a010673f030fa06"


def test_type_facts_at_any_depth():
    # facts are fields set from the children's, so depth is not limited
    # by the interpreter's stack (the printers still recurse: print nothing)
    p = ONE
    for _ in range(100_000):
        p = Prod(p, ONE)
    s = Gen("x")
    for _ in range(100_000):
        s = Sum(ZERO, s)
    assert witness_of(POINT, p) is not None
    assert witness_of(COPOINT, p) is None
    assert p.size == 200_001
    assert p.height == 100_001
    assert s.has_gen
    assert witness_of(POINT, s) is None
    assert witness_of(COPOINT, s) is None
