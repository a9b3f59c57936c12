"""Proof-term syntax trees and the typing judgment.

Cut-free terms are built from the eight constructors below (``Id`` and
``Cut`` are the extra "raw" constructors that the compose module
eliminates).  A term does not carry its typing; ``infer`` checks a term
against a domain and codomain, and the typing of every subterm is then
uniquely determined by the constructor indices, so callers thread
``(dom, cod)`` pairs instead of storing them in the nodes.

Like types, term nodes are hash-consed: structurally equal terms are the
same object, equality is identity, and hashing is constant-time.  The
oracle's closure sets rely on this.  Treat instances as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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

    def __repr__(self) -> str:
        return format_term(self)


class Bang(Term):
    """The unique map into the terminal object, written ``!``."""

    __slots__ = ()
    __match_args__ = ()

    def __new__(cls):
        return _intern(cls)


class Quest(Term):
    """The unique map out of the initial object, written ``?``."""

    __slots__ = ()
    __match_args__ = ()

    def __new__(cls):
        return _intern(cls)


class Proj(Term):
    __slots__ = ("index", "body")
    __match_args__ = ("index", "body")

    def __new__(cls, index: int, body: Term):
        return _intern(cls, index, body)


class Inj(Term):
    __slots__ = ("index", "body")
    __match_args__ = ("index", "body")

    def __new__(cls, index: int, body: Term):
        return _intern(cls, index, body)


class Tuple(Term):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _intern(cls, left, right)


class Cotuple(Term):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _intern(cls, left, right)


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

    def __new__(cls, at: ObjectType):
        return _intern(cls, at)


class Cut(Term):
    """Raw composition ``left ; right``; removed by cut elimination."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _intern(cls, left, right)


BANG = Bang()
QUEST = Quest()


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
            if not isinstance(dom, Prod):
                raise TypingError(f"p{i} needs a product domain", path, found=dom)
            _check(body, dom.component(i), cod, graph, path + (0,), ok)
        case Inj(j, body):
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
            except (ValueError, KeyError) as exc:
                raise TypingError(str(exc), path) from None
            if not isinstance(cod, Gen) or cod.name != dst:
                raise TypingError(f"generator path ends at {dst}", path,
                                  Gen(dst), cod)
        case Id(at):
            if dom is not at or cod is not at:
                raise TypingError(f"id at {format_type(at)}", path, at,
                                  dom if dom is not at else cod)
        case Cut(left, right):
            mid = _synth_cod(left, dom, graph)
            if mid is None:
                mid = _synth_dom(right, cod, graph)
            if mid is None:
                raise TypingError(
                    "cannot infer the middle type of a cut; anchor one side "
                    "with id:T", path)
            _check(left, dom, mid, graph, path + (0,), ok)
            _check(right, mid, cod, graph, path + (1,), ok)
        case _:
            raise TypingError(f"unknown term node {t!r}", path)
    ok.add(key)


def _synth_cod(t: Term, dom: Optional[ObjectType], graph: GeneratorGraph) -> Optional[ObjectType]:
    """Codomain of ``t`` given its domain (None when unknown), when the
    syntax determines it."""
    match t:
        case Bang():
            return ONE
        case Id(at):
            return at
        case GenArrow(src, edges):
            try:
                return Gen(graph.walk(src, edges))
            except (ValueError, KeyError):
                return None
        case Proj(i, body):
            if isinstance(dom, Prod):
                return _synth_cod(body, dom.component(i), graph)
            return None
        case Tuple(left, right):
            l = _synth_cod(left, dom, graph)
            r = _synth_cod(right, dom, graph)
            return Prod(l, r) if l is not None and r is not None else None
        case Cotuple(left, right):
            if isinstance(dom, Sum):
                return _synth_cod(left, dom.left, graph) or _synth_cod(right, dom.right, graph)
            return None
        case Cut(left, right):
            return _synth_cod(right, _synth_cod(left, dom, graph), graph)
        case _:
            return None


def _synth_dom(t: Term, cod: Optional[ObjectType], graph: GeneratorGraph) -> Optional[ObjectType]:
    """Domain of ``t`` given its codomain (None when unknown), when the
    syntax determines it."""
    match t:
        case Quest():
            return ZERO
        case Id(at):
            return at
        case GenArrow(src, _):
            return Gen(src)
        case Inj(j, body):
            if isinstance(cod, Sum):
                return _synth_dom(body, cod.component(j), graph)
            return None
        case Cotuple(left, right):
            l = _synth_dom(left, cod, graph)
            r = _synth_dom(right, cod, graph)
            return Sum(l, r) if l is not None and r is not None else None
        case Tuple(left, right):
            if isinstance(cod, Prod):
                return _synth_dom(left, cod.left, graph) or _synth_dom(right, cod.right, graph)
            return None
        case Cut(left, right):
            return _synth_dom(left, _synth_dom(right, cod, graph), graph)
        case _:
            return None


def child_typings(t: Term, dom: ObjectType, cod: ObjectType) -> tuple[tuple[Term, ObjectType, ObjectType], ...]:
    """Children of a well-typed cut-free node, with their typings."""
    match t:
        case Proj(i, body):
            return ((body, dom.component(i), cod),)
        case Inj(j, body):
            return ((body, dom, cod.component(j)),)
        case Tuple(left, right):
            return ((left, dom, cod.left), (right, dom, cod.right))
        case Cotuple(left, right):
            return ((left, dom.left, cod), (right, dom.right, cod))
        case _:
            return ()


def subterm_typings(t: Term, dom: ObjectType, cod: ObjectType) -> Iterator[tuple[Term, ObjectType, ObjectType]]:
    """All subterms of a well-typed cut-free term, root first."""
    yield t, dom, cod
    for child, d, c in child_typings(t, dom, cod):
        yield from subterm_typings(child, d, c)


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
