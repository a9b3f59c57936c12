"""Finite directed multigraphs presenting the generator category.

The generator category is the free category on a graph: its objects are
the nodes and its arrows are edge paths, composed by concatenation, with
the empty path at a node as identity.  Arrow equality is path equality,
so the generator word problem is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import GuardExceeded


class InputError(ValueError):
    """Malformed input from outside the program, such as a graph whose
    edges mention undeclared nodes.  ``at`` names the offending piece when
    the check knows it, so a front end can point at its source."""

    def __init__(self, message: str, at=None):
        super().__init__(message)
        self.at = at


@dataclass(frozen=True, slots=True)
class Edge:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class GeneratorGraph:
    nodes: frozenset[str] = frozenset()
    edges: tuple[Edge, ...] = ()
    _by_name: dict[str, Edge] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        by_name = {}
        for e in self.edges:
            if e.name in by_name:
                raise InputError(f"duplicate edge name {e.name!r}", (e.name, "name"))
            if e.name in self.nodes:
                raise InputError(f"name {e.name!r} used for both a node and an edge",
                                 (e.name, "name"))
            for end in ("src", "dst"):
                if getattr(e, end) not in self.nodes:
                    raise InputError(f"edge {e.name!r} mentions undeclared node", (e.name, end))
            by_name[e.name] = e
        object.__setattr__(self, "_by_name", by_name)

    def has_node(self, name: str) -> bool:
        return name in self.nodes

    def edge(self, name: str) -> Edge:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"no edge named {name!r}") from None

    def walk(self, src: str, path: tuple[str, ...]) -> str:
        """Target node of an edge path starting at ``src``; raises if the
        path is not composable."""
        if src not in self.nodes:
            raise InputError(f"unknown node {src!r}")
        at = src
        for name in path:
            e = self.edge(name)
            if e.src != at:
                raise InputError(f"edge {name!r} starts at {e.src!r}, not {at!r}")
            at = e.dst
        return at

    def paths(self, src: str, dst: str, *, guard: int = 10_000) -> tuple[tuple[str, ...], ...]:
        """All edge paths from ``src`` to ``dst``, shortest first.

        The free category on a graph with cycles has infinitely many
        arrows; the guard bounds the search and raises when exceeded.
        """
        for end in (src, dst):
            if end not in self.nodes:
                raise InputError(f"unknown node {end!r}")
        out: list[tuple[str, ...]] = []
        frontier: list[tuple[str, tuple[str, ...]]] = [(src, ())]
        explored = 0
        while frontier:
            nxt: list[tuple[str, tuple[str, ...]]] = []
            for at, path in frontier:
                explored += 1
                if explored > guard:
                    raise GuardExceeded(
                        f"path enumeration {src!r} -> {dst!r} exceeded guard {guard}"
                    )
                if at == dst:
                    out.append(path)
                for e in self.edges:
                    if e.src == at:
                        nxt.append((e.dst, path + (e.name,)))
            frontier = nxt
            if len(out) > guard:
                raise GuardExceeded(
                    f"path enumeration {src!r} -> {dst!r} exceeded guard {guard}"
                )
        return tuple(out)


EMPTY_GRAPH = GeneratorGraph()


def make_graph(nodes: list[str] | tuple[str, ...], edges: list[tuple[str, str, str]]) -> GeneratorGraph:
    """Convenience constructor: edges given as (name, src, dst) triples."""
    return GeneratorGraph(frozenset(nodes), tuple(Edge(n, s, d) for n, s, d in edges))
