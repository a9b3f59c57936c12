import pytest

from sigmapi import (
    BANG,
    QUEST,
    Gen,
    GenArrow,
    Inj,
    ONE,
    Proj,
    Tuple,
    TypingError,
    ZERO,
    format_term,
    infer,
    is_cut_free,
    make_graph,
    parse_term,
    parse_type,
    term_metrics,
)
from sigmapi.terms import Cut, Id


def test_infer_examples():
    t = infer(Proj(0, QUEST), parse_type("0*0"), ZERO)
    assert t.term == parse_term("p0 ?")
    t = infer(Inj(0, BANG), ONE, parse_type("1+1"))
    assert str(t) == "s0 ! : 1 -> 1 + 1"
    with pytest.raises(TypingError):
        infer(BANG, ONE, ZERO)


def test_infer_locations():
    with pytest.raises(TypingError) as err:
        infer(Tuple(BANG, QUEST), ONE, parse_type("1*1"))
    assert err.value.location == (1,)  # the ? branch fails first


def test_infer_cut_middle_synthesis():
    raw = parse_term("p0 ? ; s0 id:0")
    tt = infer(raw, parse_type("0*0"), parse_type("0+1"))
    assert tt.dom == parse_type("0*0")
    # middle type not recoverable from either side
    with pytest.raises(TypingError):
        infer(Cut(QUEST, BANG), ZERO, ONE)
    # anchored, it goes through
    infer(Cut(QUEST, Cut(Id(ONE), BANG)), ZERO, ONE)


def test_infer_generators(graph_xa):
    g = graph_xa
    arrow = GenArrow("x", ("k",))
    tt = infer(arrow, parse_type("x"), parse_type("a"), g)
    assert tt.cod == parse_type("a")
    with pytest.raises(TypingError):
        infer(arrow, parse_type("x"), parse_type("x"), g)
    infer(GenArrow("x", ()), parse_type("x"), parse_type("x"), g)
    # a cut's middle type from walking the path
    infer(Cut(GenArrow("x", ("k",)), Id(Gen("a"))), Gen("x"), Gen("a"), g)


@pytest.mark.parametrize("term, dom, cod, message, location, expected, found", [
    (parse_term("p0 !"), ONE, ONE, "p0 needs a product domain (at root)", (), None, ONE),
    (parse_term("s1 !"), ONE, ONE, "s1 needs a sum codomain (at root)", (), None, ONE),
    (parse_term("s0 p0 !"), ONE, parse_type("1+1"), "p0 needs a product domain (at 0)",
     (0,), None, ONE),
    (parse_term("<!, !>"), ONE, parse_type("1+1"), "tuple needs a product codomain (at root)",
     (), None, parse_type("1+1")),
    (parse_term("{?, ?}"), parse_type("0*0"), ZERO, "cotuple needs a sum domain (at root)",
     (), None, parse_type("0*0")),
    (Id(ONE), ONE, parse_type("1+1"), "id at 1 (at root)", (), ONE, parse_type("1+1")),
    (GenArrow("a", ("k",)), Gen("x"), Gen("a"), "generator arrow starts at a (at root)",
     (), Gen("a"), Gen("x")),
], ids=["proj", "inj", "nested", "tuple", "cotuple", "id", "generator-start"])
def test_typing_error_fields(term, dom, cod, message, location, expected, found, graph_xa):
    with pytest.raises(TypingError) as err:
        infer(term, dom, cod, graph_xa)
    assert (str(err.value), err.value.location) == (message, location)
    assert err.value.expected is expected and err.value.found is found


def test_unknown_edge_message_is_not_quoted():
    g = make_graph(["x", "y"], [("k", "x", "y")])
    with pytest.raises(TypingError) as err:
        infer(GenArrow("x", ("m",)), Gen("x"), Gen("y"), g)
    assert str(err.value) == "no edge named 'm' (at root)"


def test_term_metrics_examples():
    assert term_metrics(BANG) == (1, 1)
    assert term_metrics(parse_term("s0 !")) == (2, 2)
    assert term_metrics(parse_term("<?, ?>")) == (3, 2)
    assert term_metrics(GenArrow("x", ("k", "l"))) == (3, 1)


def test_format_parse_roundtrip_examples():
    for src in ("p0 ?", "<!, s1 !>", "{!, !}", "s1 p0 <?, {!, ?}>"):
        t = parse_term(src)
        assert parse_term(format_term(t)) == t


def test_is_cut_free():
    assert is_cut_free(parse_term("{p0 !, s0 ?}"))
    assert not is_cut_free(parse_term("! ; id:1"))


def test_roundtrip_exhaustive_small():
    # print -> parse -> infer reproduces the identical tree on every
    # enumerated term of small homsets, generator paths included
    from sigmapi import enumerate_terms, format_term, infer, iter_types, make_graph, parse_term

    for X in iter_types(4):
        for A in iter_types(4):
            for t in enumerate_terms(X, A):
                again = parse_term(format_term(t))
                assert again == t
                assert infer(again, X, A).term == t
    g = make_graph(["x", "a"], [("k", "x", "a")])
    for t in enumerate_terms(parse_type("x*(0+1)"), parse_type("a+1"), g):
        assert parse_term(format_term(t), g) == t


def test_wrong_arity_constructors_intern_nothing():
    from sigmapi import Sum
    from sigmapi.types import _INTERN

    before = dict(_INTERN)
    for make in (lambda: Proj(0), lambda: Sum(ONE), lambda: Cut(BANG)):
        with pytest.raises(TypeError):
            make()
    assert _INTERN == before


def test_cut_synthesis_is_sound():
    # each end synthesised from the other is the true one or unknown; the
    # counts of known ends are pinned
    from sigmapi import enumerate_terms, iter_types, make_graph
    from sigmapi.terms import COPOINT, POINT, _synth

    g = make_graph(["x", "a"], [("k", "x", "a")])
    homsets = [(x, a) for x in iter_types(4) for a in iter_types(4)]
    homsets.append((parse_type("x*(0+1)"), parse_type("a+1")))
    known = [0, 0]
    for x, a in homsets:
        for t in enumerate_terms(x, a, g):
            cod, dom = _synth(POINT, t, x, g), _synth(COPOINT, t, a, g)
            assert cod in (None, a) and dom in (None, x)
            known[POINT] += cod is not None
            known[COPOINT] += dom is not None
    assert known == [26, 26]
