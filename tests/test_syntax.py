import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from sigmapi import (
    BANG,
    Cotuple,
    Gen,
    GenArrow,
    Inj,
    ParseError,
    Prod,
    Proj,
    Sum,
    Tuple,
    format_module,
    format_term,
    format_type,
    make_graph,
    parse_module,
    parse_term,
    parse_type,
)
from sigmapi.bench import balanced_type, mirror
from sigmapi.compose import identity
from sigmapi.syntax import _LONG, _TOKEN_RE, _Parser
from sigmapi.terms import QUEST, Cut, Id, Quest
from sigmapi.types import ONE, ZERO


def test_parse_type_precedence():
    # * binds tighter than +, both right-associative
    assert parse_type("1+1*0") == ONE + (ONE * ZERO)
    assert parse_type("1+1+0") == ONE + (ONE + ZERO)
    assert parse_type("1*1*0") == ONE * (ONE * ZERO)
    assert parse_type("(1+1)*0") == (ONE + ONE) * ZERO
    assert parse_type("(x)") is Gen("x")


def test_parse_term_examples():
    assert parse_term("p0 ?") == Proj(0, Quest())
    assert parse_term("<! , s1 !>") == Tuple(BANG, Inj(1, BANG))
    assert format_term(Cotuple(BANG, BANG)) == "{!, !}"


def test_cut_chains_and_id():
    t = parse_term("p0 ? ; s0 id:0")
    assert t == Cut(Proj(0, Quest()), Inj(0, Id(ZERO)))
    t = parse_term("! ; id:1 ; !")
    assert isinstance(t, Cut)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_term("<!, >")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_type("1 + + 1")
    with pytest.raises(ParseError):
        parse_term("p0")


def test_generator_paths():
    g = make_graph(["x", "y", "z"], [("k", "x", "y"), ("l", "y", "z")])
    assert parse_term("@k", g) == GenArrow("x", ("k",))
    assert parse_term("@k.l", g) == GenArrow("x", ("k", "l"))
    assert parse_term("@y", g) == GenArrow("y", ())
    with pytest.raises(ParseError):
        parse_term("@l.k", g)  # not composable
    with pytest.raises(ParseError):
        parse_term("@k", make_graph([], []))


def test_module_parsing_and_roundtrip():
    src = """
    # a comment
    graph { node x; node a; edge k : x -> a; }
    term f : x -> a = @k ;
    term two : 1 -> 1+1 = s0 ! ;
    term cutty : 0*0 -> 0+1 = p0 ? ; s0 id:0 ;
    """
    m = parse_module(src)
    assert set(m.decls) == {"f", "two", "cutty"}
    assert m.typed("f").cod == parse_type("a")
    m2 = parse_module(format_module(m))
    assert {n: d.term for n, d in m2.decls.items()} == {n: d.term for n, d in m.decls.items()}
    assert m2.graph == m.graph


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_module("term a : 1 -> 1 = ! ; term a : 1 -> 1 = ! ;")


def test_format_type_roundtrip_nested():
    for src in ("((0+1)*1)+0", "1*(0+1*1)", "x*(y+1)"):
        assert format_type(parse_type(src)) == format_type(parse_type(format_type(parse_type(src))))


_GRAPH = "graph { node x; node y; edge k : x -> y; }\n"
# groups of 17 tokens, long enough for the parser to keep
_PAIR = "<<p0 !, p1 !>, <s0 ?, s1 ?>>"
_TYPE = "(x * x * x * x * x * x * x * x)"


@pytest.mark.parametrize("parse, text, message, line, col", [
    (parse_type, "1 +\n(0 *\n 1 $ 0)", "unexpected character '$'", 3, 4),
    (parse_module, "term a : 1 -> 1 = ! ; # note\n\t%", "unexpected character '%'", 2, 2),
    (parse_type, "1 + (0 *", "expected a type, found 'end of input'", 1, 9),
    (parse_term, "<!, {?,\n  s0", "expected a term, found 'end of input'", 2, 5),
    (parse_module, "graph { node x;\n  edge k : x", "expected '->', found 'end of input'", 2, 13),
    (parse_module, "graph { node x;\n  node y;\n", "expected 'node' or 'edge'", 3, 1),
    (parse_module, "term a : 1 -> 1 = ! ;\nterm p1 : 1 -> 1 = ! ;", "'p1' is reserved", 2, 6),
    (parse_module, "term a : 1 -> 1 = ! ;\n  term a : 0 -> 1 = ? ;\n",
     "duplicate term name 'a'", 2, 8),
    (parse_module, "graph { node x; edge k : x -> x;\n edge k : x -> x; }\nterm a : x -> x = @k ;",
     "duplicate edge name 'k'", 2, 7),
    (parse_module, _GRAPH + "term a : x -> y = @x.k ;", "'x' is a node; @node takes no path", 2, 19),
    (parse_module, _GRAPH + "term a : x -> y =\n  @m ;", "no edge named 'm'", 3, 3),
    (parse_module, "term a : 1 * 1\n  1 = ! ;", "expected '->' in term declaration", 2, 3),
    (parse_type, "1 * 0 )", "trailing input after type", 1, 7),
    (parse_term, "! !", "trailing input after term", 1, 3),
    (parse_module, "graph { node x; edge k : x -> y; }\nterm a : x -> x = @x ;",
     "edge 'k' mentions undeclared node", 1, 31),
    (parse_module, "graph { node x;\n  edge x : x -> x; }", "name 'x' used for both a node and an edge",
     2, 8),
    (parse_module, "graph { node x;\n  node id; edge k : id -> id; }", "'id' is reserved", 2, 8),
    (parse_module, "graph { node term; }", "'term' is reserved", 1, 14),
    (parse_type, "1 + # nothing\n", "expected a type, found 'end of input'", 2, 1),
    (parse_type, "1 +   ", "expected a type, found 'end of input'", 1, 7),
    (parse_term, "p0 (! ; id:1", "expected ')', found 'end of input'", 1, 13),
    (parse_term, "s0 <p1 (!, !>", "expected ')', found ','", 1, 10),
    (parse_term, "<<!, !>, <!, !!>>", "expected '>', found '!'", 1, 15),
    (parse_term, "<<!, !>, <!, !>> !", "trailing input after term", 1, 18),
    (parse_term, "(x)", "expected a term, found 'x'", 1, 2),
    (parse_term, f"<{_PAIR}, <<p0 !, p1 !>, <s0 ?, s1 ? ?>>>", "expected '>', found '?'", 1, 59),
    (parse_term, f"<{_PAIR}, {_PAIR[:-1]})>", "expected '>', found ')'", 1, 59),
    (parse_term, f"<{_PAIR}, {_PAIR}> !", "trailing input after term", 1, 62),
    (parse_term, f"<{_PAIR}, {_PAIR}, !>", "expected '>', found ','", 1, 60),
    (parse_term, f"{{{_PAIR}, p0 ({_PAIR}", "expected ')', found 'end of input'", 1, 64),
    (parse_module, f"graph {{ node x; }}\nterm a : {_TYPE} -> {_TYPE} = {_TYPE} ;",
     "expected a term, found 'x'", 2, 80),
    (parse_type, ") + $", "unexpected character '$'", 1, 5),
    (parse_module, "term a : 1 -> 1 = ! ! ;\n  $", "unexpected character '$'", 2, 3),
    (parse_term, f"<{_PAIR}, {_PAIR[:-1]} $>>", "unexpected character '$'", 1, 60),
    (parse_term, f"<{_PAIR}, {_PAIR}> é", "unexpected character 'é'", 1, 62),
    (parse_term, f"<{_PAIR}, <<p0 !, p1 !>, <s0 ?, s1 !!>>>", "expected '>', found '!'", 1, 58),
], ids=["stray-character", "stray-after-comment", "eof-in-type", "eof-in-term", "eof-in-edge",
        "eof-in-graph", "reserved-name", "duplicate-term", "duplicate-edge", "node-with-path",
        "unknown-edge", "missing-arrow", "trailing-type", "trailing-term", "undeclared-node",
        "node-edge-clash", "keyword-node", "keyword-node-term", "eof-after-comment",
        "eof-after-space", "eof-in-parens", "comma-in-parens", "near-repeat", "repeat-then-trailing",
        "type-group-as-term", "near-long-repeat", "same-size-near-long-repeat",
        "long-repeat-then-trailing", "long-repeat-then-comma", "long-repeat-then-end",
        "long-type-group-as-term", "stray-after-syntax-error", "stray-on-later-line",
        "stray-in-near-copy", "non-ascii-after-copy", "copy-differs-in-last-token"])
def test_parse_error_message_and_position(parse, text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"{message} (line {line}, column {col})", line, col)


@pytest.mark.parametrize("text, term", [
    ("p0 (! ; id:1)", Proj(0, Cut(BANG, Id(ONE)))),
    ("s0 <! ; id:1, p1 (! ; id:1)>", Inj(0, Tuple(Cut(BANG, Id(ONE)),
                                                  Proj(1, Cut(BANG, Id(ONE)))))),
], ids=["under-prefix", "in-bracket-under-prefix"])
def test_parenthesised_cuts(text, term):
    # a cut under a prefix needs parentheses; inside a bracket it needs none
    assert parse_term(text) is term
    assert format_term(term) == text


@pytest.mark.parametrize("parse, text, kinds, child, leaf", [
    (parse_type, " * ".join(["0"] * 5001), (Prod,), "right", ZERO),
    (parse_type, " + ".join(["1"] * 5001), (Sum,), "right", ONE),
    (parse_term, "p0 s1 p1 s0 " * 1250 + "!", (Proj, Inj), "body", BANG),
], ids=["product", "sum", "prefix"])
def test_long_chains_parse(parse, text, kinds, child, leaf):
    t, depth = parse(text), 0
    while isinstance(t, kinds):  # walked in a loop: the chain is deeper than the stack
        t, depth = getattr(t, child), depth + 1
    assert (depth, t) == (5000, leaf)


def test_long_repeated_group_is_recalled():
    p = _Parser(f"<{_PAIR}, {_PAIR}>")
    t = p.whole(p.term, "term")
    assert t.left is t.right is parse_term(_PAIR)
    # kept once, from its first reading, and the copy recalled before it was lexed
    assert p.term_groups[_PAIR[:_LONG]] == [(1, 17, t.left)]
    assert p.toks[18:] == [",", "<", ">", ""]


def test_copy_with_other_spacing_is_the_same_node():
    # raw text differs, so the copy is read again, to the same interned node
    t = parse_term(f"<{_PAIR}, <<p0 !,  p1 !>, <s0 ?, s1 ?>>>")
    assert t.left is t.right


def test_only_what_the_parser_reads_is_lexed():
    text = format_term(mirror(balanced_type(12)))
    p = _Parser(text)
    assert p.whole(p.term, "term") is mirror(balanced_type(12))
    assert len(p.toks) < len(_TOKEN_RE.findall(text)) / 100  # of 12,284 tokens


def _traced(text, rule, what):
    """``rule`` (``_Parser.type_`` or ``_Parser.term``) over the whole of
    ``text``, the parser, and the peak of memory traced meanwhile."""
    tracemalloc.start()
    try:
        p = _Parser(text)
        return p.whole(lambda: rule(p), what), p, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_near_repeat_deep_groups_parse():
    # two chains that differ only in their innermost atom: every group size
    # of the first repeats in the second, but no group does.  No group's
    # text is stored, so memory stays small (storing each would take
    # hundreds of megabytes here), and each candidate is charged to the
    # budget of failed lookups before it is compared, so the budget is
    # overdrawn by one candidate at most (charging after the comparisons
    # overdraws it quadratically)
    d = 10_000
    text = "(" * d + "0" + ")" * d + " * " + "(" * d + "1" + ")" * d
    t, p, peak = _traced(text, _Parser.type_, "type")
    assert t is Prod(ZERO, ONE)
    assert peak < 20e6
    assert p.waste >= -len(text) - _LONG
    left, right = ("<" * d + atom + ", ?>" * d for atom in "!?")
    text = f"<{left}, {right}>"
    t, p, peak = _traced(text, _Parser.term, "term")
    assert peak < 20e6
    assert p.waste >= -len(text) - _LONG
    for side, leaf in ((t.left, BANG), (t.right, QUEST)):
        depth = 0
        while isinstance(side, Tuple):  # walked in a loop: deeper than the stack
            side, depth = side.left, depth + 1
        assert (depth, side) == (d, leaf)


DEEP = 100_000


@pytest.mark.parametrize("parse, text, child, depth, leaf", [
    (parse_type, f"{_TYPE} * " + "(" * DEEP + "x" + ")" * DEEP, None, 0, Gen("x")),
    (parse_term, f"<{_PAIR}, " + "(" * DEEP + "!" + ")" * DEEP + ">", None, 0, BANG),
    (parse_term, f"<{_PAIR}, " + "<" * DEEP + "!" + ", ?>" * DEEP + ">", "left", DEEP, BANG),
    (parse_term, f"<{_PAIR}, " + "{" * DEEP + "?" + ", !}" * DEEP + ">", "left", DEEP, QUEST),
    (parse_term, f"<id:{_TYPE}, id:" + "(" * DEEP + "1" + ")" * DEEP + ">", None, 0, Id(ONE)),
], ids=["type-parens", "term-parens", "tuple", "cotuple", "id-parens"])
def test_deep_brackets_parse(parse, text, child, depth, leaf):
    # brackets are read by loops.  After a group long enough to keep, each
    # open bracket is looked up by its first characters, and a candidate
    # is compared only up to its own length; finding each group's true end
    # first would make these texts quadratic to read
    t, seen = parse(text).right, 0
    while child and isinstance(t, (Tuple, Cotuple)):
        t, seen = getattr(t, child), seen + 1
    assert (seen, t) == (depth, leaf)


@pytest.mark.parametrize("height", range(2, 15))
def test_balanced_family_round_trips(height):
    # nearly every bracket group of these texts repeats an earlier one
    x = balanced_type(height)
    assert parse_type(format_type(x)) is x
    for t in (identity(x), mirror(x)):
        assert parse_term(format_term(t)) is t


def _pinned_corpus() -> list[str]:
    """Seeded texts: the bench family as types, terms and modules, some of
    the cases above, and mutations of them (character edits and
    bracket-group copies: over another group, after itself, after itself
    with one edit)."""
    rng = random.Random(16)
    texts = [_PAIR, _TYPE, f"<{_PAIR}, {_PAIR}>", _GRAPH + "term a : x -> y = @k ;",
             "term a : 1 -> 1 = ! ; # note\n\t%", "1 +\n(0 *\n 1 $ 0)", "<<!, !>, <!, !!>>"]
    for height in range(2, 8):
        x = balanced_type(height)
        texts += [format_type(x)] + [format_term(f(x)) for f in (identity, mirror)]
        texts.append(f"term f : {format_type(x)} -> {format_type(x)} = {format_term(mirror(x))} ;")
    alphabet = list("01!?<>{}(),;:+*@=. \nxk-é$") + ["p0", "s1", "id:", "->", "@k", "# c\n"]
    base = list(texts)
    for _ in range(3000):
        t = rng.choice(base)
        groups, stack = [], []
        for i, ch in enumerate(t):
            if ch in "(<{":
                stack.append(i)
            elif ch in ")>}" and stack:
                groups.append((stack.pop(), i + 1))
        if rng.random() < 0.3 or not groups:
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(len(t) + 1)
                t = t[:i] + rng.choice(alphabet) + t[i + rng.randint(0, 1):]
        else:
            a, b = rng.choice(groups)
            same = [g for g in groups if t[g[0]] == t[a]]  # groups in the same brackets
            c, e = rng.choice(same if rng.random() < 0.7 else groups)
            i = rng.randrange(a, b)
            edited = t[a:i] + rng.choice(alphabet) + t[i + 1:b]
            t = rng.choice([t[:c] + t[a:b] + t[e:], t[:b] + ", " + t[a:b] + t[b:],
                            t[:b] + " " + edited + t[b:], t[:a] + t[a:b] + " * " + edited + t[b:]])
        texts.append(t)
    return texts


def test_parse_outcomes_are_pinned():
    # printed results and error positions of a seeded corpus, pinned when
    # the parser still lexed every text whole (commit e99ee89)
    outcomes = []
    for text in _pinned_corpus():
        for parse, show in ((parse_module, format_module), (parse_type, format_type),
                            (parse_term, format_term)):
            try:
                outcomes.append(show(parse(text)))
            except ParseError as err:
                outcomes.append((str(err), err.line, err.col))
    assert len(outcomes) == 9_093
    digest = hashlib.sha1(repr(outcomes).encode()).hexdigest()
    assert digest == "89b634356297b95c277608f1e155d65c9a55b983"


_G = make_graph(["x", "y"], [("k", "x", "y")])

types = st.recursive(
    st.sampled_from([ZERO, ONE, Gen("x"), Gen("y")]),
    lambda t: st.builds(Sum, t, t) | st.builds(Prod, t, t),
    max_leaves=16,
)
terms = st.recursive(
    st.sampled_from([BANG, QUEST, GenArrow("x", ("k",)), GenArrow("y", ())]),
    lambda t: (st.builds(Proj, st.sampled_from([0, 1]), t)
               | st.builds(Inj, st.sampled_from([0, 1]), t)
               | st.builds(Tuple, t, t) | st.builds(Cotuple, t, t)),
    max_leaves=16,
)
_FRAGMENTS = ["graph", "node", "edge", "term", "id", "x", "k", "p0", "s1", "->", "-", "{", "}",
              "<", ">", "(", ")", ",", ";", ":", "=", "@", ".", "!", "?", "+", "*", "0", "1",
              " ", "\n", "# c\n", "$", "graph { node x; edge k : x -> x; }"]


@given(types)
def test_type_roundtrip(t):
    assert parse_type(format_type(t)) is t


@given(terms)
def test_term_roundtrip(t):
    assert parse_term(format_term(t), _G) is t


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map(" ".join))
def test_only_parse_errors_escape(text):
    for parse in (parse_module, parse_type, parse_term, lambda s: parse_term(s, _G)):
        try:
            parse(text)
        except ParseError:
            pass
