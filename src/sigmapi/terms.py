"""Proof-term syntax trees and the typing judgment.

Cut-free terms are built from the eight constructors below (``Id`` and
``Cut`` are the extra "raw" constructors that the compose module
eliminates).  A term does not carry its typing; ``infer`` checks a term
against a domain and codomain, and the typing of every subterm is then
uniquely determined by the constructor indices, so callers thread
``(dom, cod)`` pairs instead of storing them in the nodes.

Like types, term nodes are hash-consed: structurally equal terms are the
same object, equality is identity, and hashing is constant-time.  The
oracle's closure sets rely on this.  Every node class is built by the
one interning constructor of ``types``.  Treat instances as immutable.

The calculus is self-dual, so the rules downstream are written once for
a *side* ``s``: ``POINT`` (0) or ``COPOINT`` (1), the other side being
``1 - s``.  Each row of the duality table below is a pair, entry ``[s]``
being side ``s``'s version: points are built from ``!``, injections and
tuples, copoints from ``?``, projections and cotuples.  A side builds at
one end of the typing ``(dom, cod)``, the point side at the codomain and
the copoint side at the domain: side ``s`` builds at index ``1 - s`` and
leaves index ``s`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import EMPTY_GRAPH, GeneratorGraph
from .types import (
    Gen,
    ObjectType,
    Prod,
    Sum,
    TypeMetrics,
    ONE,
    ZERO,
    _intern,
    format_type,
)


class Term:
    __slots__ = ()
    __new__ = _intern

    def __repr__(self) -> str:
        return format_term(self)


class Bang(Term):
    """The unique map into the terminal object, written ``!``."""

    __slots__ = ()
    __match_args__ = ()


class Quest(Term):
    """The unique map out of the initial object, written ``?``."""

    __slots__ = ()
    __match_args__ = ()


class Proj(Term):
    __slots__ = ("index", "body")
    __match_args__ = ("index", "body")


class Inj(Term):
    __slots__ = ("index", "body")
    __match_args__ = ("index", "body")


class Tuple(Term):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")


class Cotuple(Term):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")


class GenArrow(Term):
    """An arrow of the generator category: an edge path from ``src``.

    The empty path at ``src`` is the identity generator arrow.
    """

    __slots__ = ("src", "edges")
    __match_args__ = ("src", "edges")

    def __new__(cls, src: str, edges: tuple[str, ...] = ()):
        return _intern(cls, src, tuple(edges))


class Id(Term):
    """Raw identity at a type; removed by cut elimination."""

    __slots__ = ("at",)
    __match_args__ = ("at",)


class Cut(Term):
    """Raw composition ``left ; right``; removed by cut elimination."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")


BANG = Bang()
QUEST = Quest()

POINT, COPOINT = 0, 1

UNIT = (BANG, QUEST)        # the unit arrow
UNIT_OBJ = (ONE, ZERO)      # the object it meets
UNARY = (Inj, Proj)         # the unary constructor
UNARY_TYPE = (Sum, Prod)    # the type it reaches into
PAIR = (Tuple, Cotuple)     # the pairing
PAIR_TYPE = (Prod, Sum)     # the type it builds


def by_side(s: int, mine, other) -> tuple:
    """The pair with ``mine`` at index ``s`` and ``other`` at ``1 - s``."""
    return (mine, other) if s == POINT else (other, mine)


def is_cut_free(t: Term) -> bool:
    match t:
        case Id() | Cut():
            return False
        case Proj(_, body) | Inj(_, body):
            return is_cut_free(body)
        case Tuple(left, right) | Cotuple(left, right):
            return is_cut_free(left) and is_cut_free(right)
        case _:
            return True


def term_metrics(t: Term) -> TypeMetrics:
    """Size and height of a cut-free term.

    Leaves count 1; projections and injections add 1; pairings add 1 plus
    both branches.  A generator arrow counts 1 plus its path length, with
    height 1.
    """
    match t:
        case Bang() | Quest():
            return TypeMetrics(1, 1)
        case GenArrow(_, edges):
            return TypeMetrics(1 + len(edges), 1)
        case Proj(_, body) | Inj(_, body):
            m = term_metrics(body)
            return TypeMetrics(m.size + 1, m.height + 1)
        case Tuple(left, right) | Cotuple(left, right):
            l, r = term_metrics(left), term_metrics(right)
            return TypeMetrics(1 + l.size + r.size, 1 + max(l.height, r.height))
    raise ValueError(f"term_metrics: not a cut-free term: {t!r}")


_RANK = {Bang: 0, Quest: 1, Proj: 2, Inj: 4, Tuple: 6, Cotuple: 7, GenArrow: 8}


def term_sort_key(t: Term):
    """Total order on cut-free terms: Bang < Quest < Proj0 < Proj1 < Inj0
    < Inj1 < Tuple < Cotuple < GenArrow, recursing left to right."""
    match t:
        case Bang() | Quest():
            return (_RANK[type(t)],)
        case Proj(i, body) | Inj(i, body):
            return (_RANK[type(t)] + i, term_sort_key(body))
        case Tuple(left, right) | Cotuple(left, right):
            return (_RANK[type(t)], term_sort_key(left), term_sort_key(right))
        case GenArrow(src, edges):
            return (_RANK[GenArrow], src, edges)
    raise ValueError(f"term_sort_key: not a cut-free term: {t!r}")


@dataclass(frozen=True)
class TypedTerm:
    term: Term
    dom: ObjectType
    cod: ObjectType

    def __str__(self) -> str:
        return f"{format_term(self.term)} : {format_type(self.dom)} -> {format_type(self.cod)}"


class TypingError(Exception):
    """No typing rule applies at ``location`` (a path of child indices)."""

    def __init__(self, message: str, location: tuple[int, ...] = (),
                 expected: Optional[ObjectType] = None, found: Optional[ObjectType] = None):
        self.location = location
        self.expected = expected
        self.found = found
        where = "at root" if not location else "at " + ".".join(map(str, location))
        super().__init__(f"{message} ({where})")


def infer(t: Term, dom: ObjectType, cod: ObjectType,
          graph: GeneratorGraph = EMPTY_GRAPH) -> TypedTerm:
    """Check ``t`` against ``dom -> cod``; raises TypingError at the first
    failing position (leftmost outermost).

    Each distinct ``(subterm, dom, cod)`` is checked once per call: terms
    and types are interned, so a repeated triple is a constant-time hit.
    """
    _check(t, dom, cod, graph, (), set())
    return TypedTerm(t, dom, cod)


def _check(t: Term, dom: ObjectType, cod: ObjectType, graph: GeneratorGraph,
           path: tuple[int, ...], ok: set) -> None:
    """Check one node; ``ok`` holds the triples that already checked."""
    key = (t, dom, cod)
    if key in ok:
        return
    match t:
        case Bang():
            if cod is not ONE:
                raise TypingError("'!' needs codomain 1", path, ONE, cod)
        case Quest():
            if dom is not ZERO:
                raise TypingError("'?' needs domain 0", path, ZERO, dom)
        case Proj(i, body):
            if i not in (0, 1):
                raise TypingError(f"p{i}: a projection index is 0 or 1", path, found=dom)
            if not isinstance(dom, Prod):
                raise TypingError(f"p{i} needs a product domain", path, found=dom)
            _check(body, dom.component(i), cod, graph, path + (0,), ok)
        case Inj(j, body):
            if j not in (0, 1):
                raise TypingError(f"s{j}: an injection index is 0 or 1", path, found=cod)
            if not isinstance(cod, Sum):
                raise TypingError(f"s{j} needs a sum codomain", path, found=cod)
            _check(body, dom, cod.component(j), graph, path + (0,), ok)
        case Tuple(left, right):
            if not isinstance(cod, Prod):
                raise TypingError("tuple needs a product codomain", path, found=cod)
            _check(left, dom, cod.left, graph, path + (0,), ok)
            _check(right, dom, cod.right, graph, path + (1,), ok)
        case Cotuple(left, right):
            if not isinstance(dom, Sum):
                raise TypingError("cotuple needs a sum domain", path, found=dom)
            _check(left, dom.left, cod, graph, path + (0,), ok)
            _check(right, dom.right, cod, graph, path + (1,), ok)
        case GenArrow(src, edges):
            if not isinstance(dom, Gen) or dom.name != src:
                raise TypingError(f"generator arrow starts at {src}", path,
                                  Gen(src), dom)
            try:
                dst = graph.walk(src, edges)
            except ValueError as exc:
                raise TypingError(str(exc), path) from None
            if not isinstance(cod, Gen) or cod.name != dst:
                raise TypingError(f"generator path ends at {dst}", path,
                                  Gen(dst), cod)
        case Id(at):
            if dom is not at or cod is not at:
                raise TypingError(f"id at {format_type(at)}", path, at,
                                  dom if dom is not at else cod)
        case Cut(left, right):
            mid = _synth(POINT, left, dom, graph)
            if mid is None:
                mid = _synth(COPOINT, right, cod, graph)
            if mid is None:
                raise TypingError(
                    "cannot infer the middle type of a cut; anchor one side "
                    "with id:T", path)
            _check(left, dom, mid, graph, path + (0,), ok)
            _check(right, mid, cod, graph, path + (1,), ok)
        case _:
            raise TypingError(f"unknown term node {t!r}", path)
    ok.add(key)


def _synth(s: int, t: Term, end: Optional[ObjectType],
           graph: GeneratorGraph) -> Optional[ObjectType]:
    """The end of ``t`` that side ``s`` builds, from the other end (None
    when unknown), when the syntax determines it: the codomain from the
    domain (``s = POINT``) or the domain from the codomain (``s = COPOINT``)."""
    o = 1 - s
    kind = type(t)
    if t is UNIT[s]:
        return UNIT_OBJ[s]
    if kind is Id:
        return t.at
    if kind is GenArrow:
        if s == COPOINT:  # a path starts at its source; its end needs the graph
            return Gen(t.src)
        try:
            return Gen(graph.walk(t.src, t.edges))
        except ValueError:
            return None
    if kind is UNARY[o]:
        if isinstance(end, UNARY_TYPE[o]):
            return _synth(s, t.body, end.component(t.index), graph)
        return None
    if kind is PAIR[s]:
        l = _synth(s, t.left, end, graph)
        r = _synth(s, t.right, end, graph)
        return PAIR_TYPE[s](l, r) if l is not None and r is not None else None
    if kind is PAIR[o]:
        if isinstance(end, PAIR_TYPE[o]):
            return _synth(s, t.left, end.left, graph) or _synth(s, t.right, end.right, graph)
        return None
    if kind is Cut:  # the factor at the given end first
        factors = (t.left, t.right)
        return _synth(s, factors[o], _synth(s, factors[s], end, graph), graph)
    return None


def format_term(t: Term) -> str:
    """Single-line rendering in the surface syntax; inverse of the parser
    on cut-free terms."""
    return _fmt(t, cuts_ok=True)


def _fmt(t: Term, cuts_ok: bool) -> str:
    match t:
        case Bang():
            return "!"
        case Quest():
            return "?"
        case Proj(i, body):
            return f"p{i} {_fmt(body, cuts_ok=False)}"
        case Inj(j, body):
            return f"s{j} {_fmt(body, cuts_ok=False)}"
        case Tuple(left, right):
            return f"<{_fmt(left, True)}, {_fmt(right, True)}>"
        case Cotuple(left, right):
            return f"{{{_fmt(left, True)}, {_fmt(right, True)}}}"
        case GenArrow(src, edges):
            body = ".".join(edges) if edges else src
            return f"@{body}"
        case Id(at):
            return f"id:{format_type(at)}"
        case Cut(left, right):
            s = f"{_fmt(left, True)} ; {_fmt(right, True)}"
            return s if cuts_ok else f"({s})"
    raise ValueError(f"cannot format {t!r}")
