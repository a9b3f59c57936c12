"""Ground-truth engine: equivalence-class closure, homset enumeration,
and path search in the diagram of cardinals.

Two parallel cut-free terms denote the same arrow exactly when they are
related by the permuting conversions: the tuple/cotuple distribution
laws, projection/injection commutation, the exchange of a cotuple of
tuples with a tuple of cotuples, and the unit laws (``p_i ! = !``,
``s_j ? = ?``, ``{!,!} = !``, ``<?,?> = ?``, and ``! = ?`` at ``0 -> 1``).
The closure applies every law as a bidirectional rewrite at every
position until a fixpoint; it is exponential but exact, and is the only
equality route for terms over generator objects.  ``neighbours`` writes
each law once, for a side, from the duality table of ``types``: the
dual of a law is the same lines read for the other side.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .graph import EMPTY_GRAPH, GeneratorGraph, InputError
from .terms import (
    BANG,
    PAIR,
    PAIR_TYPE,
    QUEST,
    UNARY,
    UNARY_TYPE,
    UNIT,
    Cotuple,
    GenArrow,
    Inj,
    Proj,
    Term,
    Tuple,
    infer,
    is_cut_free,
    term_sort_key,
)
from .types import (
    Gen,
    GuardExceeded,
    ObjectType,
    Prod,
    Sum,
    ONE,
    ZERO,
    format_type,
)

DEFAULT_GUARD = 10**6


@dataclass(frozen=True)
class EqClass:
    dom: ObjectType
    cod: ObjectType
    members: frozenset[Term]
    canonical: Term

    def __contains__(self, t: Term) -> bool:
        return t in self.members

    def __len__(self) -> int:
        return len(self.members)


def neighbours(t: Term, dom: ObjectType, cod: ObjectType,
               memo: Optional[dict] = None) -> list[Term]:
    """One-step images of ``t`` under the permuting conversions, in both
    directions: those at the root first, then those inside each child,
    left to right.  Each law is written once, for the side of the root
    constructor, ``o`` being the other side; its comment shows one of its
    two dual instances.

    ``memo`` maps ``(t, dom, cod)`` to its list of images, shared by the
    recursion into children: a subterm met again, in this member or in
    another, is looked up rather than rewritten again.  Lists taken from
    the memo are the memo's own and must not be mutated.  A call without
    a memo makes its own, so it returns a fresh list."""
    if memo is None:
        memo = {}
    key = (t, dom, cod)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: list[Term] = []
    kind = type(t)
    if kind in UNARY:
        o, k, body = 1 - UNARY.index(kind), t.index, t.body
        if type(body) is PAIR[o]:  # p_i <u, v> = <p_i u, p_i v>
            out.append(PAIR[o](kind(k, body.left), kind(k, body.right)))
        elif type(body) is UNARY[o]:  # p_i s_j u = s_j p_i u
            out.append(UNARY[o](body.index, kind(k, body.body)))
        elif body is UNIT[o]:  # p_i ! = !
            out.append(body)
    elif kind in PAIR:
        o, l, r = 1 - PAIR.index(kind), t.left, t.right
        if type(l) is type(r) is UNARY[o] and l.index == r.index:  # <p_i u, p_i v> = p_i <u, v>
            out.append(UNARY[o](l.index, kind(l.body, r.body)))
        elif type(l) is type(r) is PAIR[o]:  # <{a, b}, {c, d}> = {<a, c>, <b, d>}
            out.append(PAIR[o](kind(l.left, r.left), kind(l.right, r.right)))
        elif l is r is UNIT[o]:  # <?, ?> = ?
            out.append(l)
    elif t in UNIT:
        s = UNIT.index(t)
        o, end = 1 - s, (dom, cod)[s]  # the end that side s leaves alone
        if isinstance(end, UNARY_TYPE[o]):  # ! = p_0 ! = p_1 ! out of a product
            out += (UNARY[o](0, t), UNARY[o](1, t))
        elif isinstance(end, PAIR_TYPE[o]):  # ! = {!, !} out of a sum
            out.append(PAIR[o](t, t))
        elif dom is ZERO and cod is ONE:  # ! = ? at 0 -> 1
            out.append(UNIT[o])
    match t:
        case Proj(i, body):
            out.extend(Proj(i, b) for b in neighbours(body, dom.component(i), cod, memo))
        case Inj(j, body):
            out.extend(Inj(j, b) for b in neighbours(body, dom, cod.component(j), memo))
        case Tuple(left, right):
            out.extend(Tuple(l, right) for l in neighbours(left, dom, cod.left, memo))
            out.extend(Tuple(left, r) for r in neighbours(right, dom, cod.right, memo))
        case Cotuple(left, right):
            out.extend(Cotuple(l, right) for l in neighbours(left, dom.left, cod, memo))
            out.extend(Cotuple(left, r) for r in neighbours(right, dom.right, cod, memo))
    memo[key] = out
    return out


def _check_cut_free(where: str, *terms: Term) -> None:
    """Raise InputError on a raw term: no class closure ever meets one."""
    for t in terms:
        if not is_cut_free(t):
            raise InputError(f"{where}: {t!r} is not cut-free")


def _closure(t: Term, dom: ObjectType, cod: ObjectType, guard: int) -> Iterator[Term]:
    """The members of the class of ``t`` in breadth-first order, ``t``
    first; raises GuardExceeded past ``guard`` members, after yielding
    the member that exceeds it, with the members found and the frontier
    (found but not yet expanded) in its message.

    Members share most of their subterms, so one neighbour memo serves
    the whole closure; it is made here and dropped when the closure
    returns, so memory does not outlive the call."""
    seen: set[Term] = {t}
    todo: deque[Term] = deque((t,))
    memo: dict = {}
    yield t
    while todo:
        cur = todo.popleft()
        for image in neighbours(cur, dom, cod, memo):
            if image not in seen:
                yield image
                seen.add(image)
                todo.append(image)
                if len(seen) > guard:
                    raise GuardExceeded(
                        f"class closure at {format_type(dom)} -> {format_type(cod)} "
                        f"exceeded {guard} members: {len(seen)} found, "
                        f"{len(todo)} on the frontier")


def class_of(t: Term, dom: ObjectType, cod: ObjectType, *,
             guard: int = DEFAULT_GUARD) -> EqClass:
    """Closure of ``t`` under the permuting conversions: a worklist
    fixpoint; raises GuardExceeded past ``guard`` members."""
    _check_cut_free("class_of", t)
    members = frozenset(_closure(t, dom, cod, guard))
    return EqClass(dom, cod, members, min(members, key=term_sort_key))


def same_class(f: Term, g: Term, dom: ObjectType, cod: ObjectType, *,
               guard: int = DEFAULT_GUARD) -> bool:
    """Whether two parallel cut-free terms are related by the permuting
    conversions.  Breadth-first from ``f`` with early exit at ``g``."""
    _check_cut_free("same_class", f, g)
    return any(member is g for member in _closure(f, dom, cod, guard))


_ENUM_CACHE: dict[tuple[ObjectType, ObjectType, GeneratorGraph, int], tuple[Term, ...]] = {}


def enumerate_terms(dom: ObjectType, cod: ObjectType,
                    graph: GeneratorGraph = EMPTY_GRAPH, *,
                    guard: int = DEFAULT_GUARD) -> tuple[Term, ...]:
    """Cut-free terms ``dom -> cod`` in a fixed deterministic order:
    constructors ordered ``! < ? < p0 < p1 < s0 < s1 < tuple < cotuple <
    generator path``, recursing left to right.

    Positions with domain ``0`` or codomain ``1`` are singleton homsets;
    enumeration emits only ``?`` respectively ``!`` there instead of every
    redundant expansion, so the result is a complete system of
    representatives: every equivalence class of the homset contains at
    least one enumerated term (replace subterms out of ``0`` by ``?`` and
    into ``1`` by ``!``), and the class closure supplies the remaining
    syntactic members."""
    key = (dom, cod, graph, guard)
    out = _ENUM_CACHE.get(key)
    if out is None:
        out = _enumerate(dom, cod, graph, guard)
        _check_guard(len(out), dom, cod, guard)
        _ENUM_CACHE[key] = out
    return out


def _check_guard(members: int, dom: ObjectType, cod: ObjectType, guard: int) -> None:
    if members > guard:
        raise GuardExceeded(
            f"homset {format_type(dom)} -> {format_type(cod)} exceeds guard {guard}")


def _enumerate(dom: ObjectType, cod: ObjectType, graph: GeneratorGraph,
               guard: int) -> tuple[Term, ...]:
    acc: list[Term] = []
    if cod == ONE:
        acc.append(BANG)
    if dom == ZERO:
        acc.append(QUEST)
    if acc:  # singleton homset: the unit representatives suffice
        return tuple(acc)
    if isinstance(dom, Prod):
        for i in (0, 1):
            part = dom.component(i)
            acc.extend(Proj(i, b) for b in enumerate_terms(part, cod, graph, guard=guard))
    if isinstance(cod, Sum):
        for j in (0, 1):
            part = cod.component(j)
            acc.extend(Inj(j, b) for b in enumerate_terms(dom, part, graph, guard=guard))
    if isinstance(cod, Prod):
        lefts = enumerate_terms(dom, cod.left, graph, guard=guard)
        rights = enumerate_terms(dom, cod.right, graph, guard=guard)
        # checked before the product is built, which may be far larger
        _check_guard(len(acc) + len(lefts) * len(rights), dom, cod, guard)
        acc.extend(Tuple(l, r) for l in lefts for r in rights)
    if isinstance(dom, Sum):
        lefts = enumerate_terms(dom.left, cod, graph, guard=guard)
        rights = enumerate_terms(dom.right, cod, graph, guard=guard)
        _check_guard(len(acc) + len(lefts) * len(rights), dom, cod, guard)
        acc.extend(Cotuple(l, r) for l in lefts for r in rights)
    if isinstance(dom, Gen) and isinstance(cod, Gen):
        acc.extend(GenArrow(dom.name, path)
                   for path in graph.paths(dom.name, cod.name, guard=guard))
    return tuple(acc)


_PARTITION_CACHE: dict = {}


def homset_classes(dom: ObjectType, cod: ObjectType,
                   graph: GeneratorGraph = EMPTY_GRAPH, *,
                   guard: int = DEFAULT_GUARD) -> tuple[tuple[EqClass, ...], dict[Term, int]]:
    """Partition of the homset into equivalence classes, plus the member
    to class-index map.  Cached per argument tuple, ``guard`` included; the
    workhorse of the oracle test sweeps."""
    key = (dom, cod, graph, guard)
    hit = _PARTITION_CACHE.get(key)
    if hit is not None:
        return hit
    classes: list[EqClass] = []
    index: dict[Term, int] = {}
    for t in enumerate_terms(dom, cod, graph, guard=guard):
        if t in index:
            continue
        cls = class_of(t, dom, cod, guard=guard)
        idx = len(classes)
        classes.append(cls)
        for member in cls.members:
            index[member] = idx
    result = (tuple(classes), index)
    _PARTITION_CACHE[key] = result
    return result


# -- the diagram of cardinals -------------------------------------------------

@dataclass(frozen=True)
class CardinalSquare:
    """The four objects fixing one diagram of cardinals: the corner
    homsets are ``X0*X1 -> A_j`` and ``X_i -> A0+A1``, connected through
    the side homsets ``X_i -> A_j``."""

    x0: ObjectType
    x1: ObjectType
    a0: ObjectType
    a1: ObjectType

    def x(self, i: int) -> ObjectType:
        return self.x0 if i == 0 else self.x1

    def a(self, j: int) -> ObjectType:
        return self.a0 if j == 0 else self.a1

    @property
    def dom(self) -> ObjectType:
        return Prod(self.x0, self.x1)

    @property
    def cod(self) -> ObjectType:
        return Sum(self.a0, self.a1)

    def corner_homset(self, corner: tuple[str, int]) -> tuple[ObjectType, ObjectType]:
        kind, k = corner
        if kind == "prod":
            return self.dom, self.a(k)
        if kind == "fac":
            return self.x(k), self.cod
        raise ValueError(f"bad corner {corner!r}")


@dataclass(frozen=True)
class CardinalPath:
    """A witnessing path: corner terms ``terms[k]`` sitting in diagram
    corners ``corners[k]``, adjacent ones forming an elementary pair
    through the side term ``witnesses[k]``."""

    corners: tuple[tuple[str, int], ...]
    terms: tuple[Term, ...]
    witnesses: tuple[Term, ...]

    @property
    def length(self) -> int:
        return len(self.witnesses)


def _corner_placements(square: CardinalSquare, t: Term,
                       dom: ObjectType, cod: ObjectType) -> list[tuple[tuple[str, int], Term]]:
    """Resolve a term to diagram corners.  Corner elements resolve by
    typing; an element of the full homset ``X0*X1 -> A0+A1`` resolves
    through its outermost constructor."""
    out = []
    for j in (0, 1):
        if (dom, cod) == (square.dom, square.a(j)):
            out.append((("prod", j), t))
    for i in (0, 1):
        if (dom, cod) == (square.x(i), square.cod):
            out.append((("fac", i), t))
    if (dom, cod) == (square.dom, square.cod):
        match t:
            case Inj(j, body):
                out.append((("prod", j), body))
            case Proj(i, body):
                out.append((("fac", i), body))
            case _:
                raise InputError(
                    "a full-homset term must start with an injection or a projection")
    if not out:
        raise InputError(f"term {t!r} : {format_type(dom)} -> {format_type(cod)} "
                         "does not fit the square")
    return out


def cardinal_path(square: CardinalSquare, f: Term, g: Term,
                  f_typing: tuple[ObjectType, ObjectType],
                  g_typing: tuple[ObjectType, ObjectType],
                  graph: GeneratorGraph = EMPTY_GRAPH, *,
                  guard: int = DEFAULT_GUARD) -> Optional[CardinalPath]:
    """Shortest path between two cut-free corner elements in the diagram
    of cardinals, or None; adjacency is the elementary-pair relation
    ``p_i h ~ s_j h`` ranging over the side homsets.  The path's end
    terms are ``f`` and ``g`` as placed, its inner ones canonical."""
    def classes(corner):
        return homset_classes(*square.corner_homset(corner), graph, guard=guard)

    def node(corner, term):
        return corner, classes(corner)[1][term]

    def placed(t, typing):
        """Each node of ``t``'s placements, with the first term placed there."""
        infer(t, *typing, graph)
        _check_cut_free("cardinal_path", t)
        out: dict[tuple, Term] = {}
        for corner, term in _corner_placements(square, t, *typing):
            out.setdefault(node(corner, term), term)
        return out

    starts, goals = placed(f, f_typing), placed(g, g_typing)

    # adjacency: for every side term h, p_i h in corner (prod, j) meets
    # s_j h in corner (fac, i)
    adj: dict[tuple, list[tuple[tuple, Term]]] = {}
    for i in (0, 1):
        for j in (0, 1):
            for h in enumerate_terms(square.x(i), square.a(j), graph, guard=guard):
                u, v = node(("prod", j), Proj(i, h)), node(("fac", i), Inj(j, h))
                adj.setdefault(u, []).append((v, h))
                adj.setdefault(v, []).append((u, h))

    # breadth-first; parent maps a node to (previous node, side term)
    parent: dict[tuple, Optional[tuple]] = dict.fromkeys(starts)
    queue = deque(starts)
    while queue:
        cur = queue.popleft()
        if cur in goals:
            break
        for nxt, h in adj.get(cur, ()):
            if nxt not in parent:
                parent[nxt] = (cur, h)
                queue.append(nxt)
    else:
        return None

    nodes, witnesses = [cur], []
    while parent[nodes[-1]] is not None:
        prev, h = parent[nodes[-1]]
        nodes.append(prev)
        witnesses.append(h)
    nodes.reverse()
    witnesses.reverse()
    inner = [classes(corner)[0][k].canonical for corner, k in nodes[1:-1]]
    ends = [goals[cur]] if len(nodes) > 1 else []
    return CardinalPath(tuple(n[0] for n in nodes),
                        (starts[nodes[0]], *inner, *ends), tuple(witnesses))


def find_bouncers(square: CardinalSquare, i: int, j: int, a0: Term, a2: Term,
                  graph: GeneratorGraph = EMPTY_GRAPH, *,
                  guard: int = DEFAULT_GUARD) -> tuple[Term, ...]:
    """All side terms ``h : X_i -> A_j`` bouncing ``a0`` to ``a2``, i.e.
    with ``p_i h == p_i a0`` and ``s_j h == s_j a2`` up to conversion."""
    side_dom, side_cod = square.x(i), square.a(j)
    infer(a0, side_dom, side_cod, graph)
    infer(a2, side_dom, side_cod, graph)
    _check_cut_free("find_bouncers", a0, a2)
    out = []
    for h in enumerate_terms(side_dom, side_cod, graph, guard=guard):
        if not same_class(Proj(i, h), Proj(i, a0), square.dom, side_cod, guard=guard):
            continue
        if same_class(Inj(j, h), Inj(j, a2), side_dom, square.cod, guard=guard):
            out.append(h)
    return tuple(out)
