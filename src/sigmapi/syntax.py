"""Surface syntax: lexer, type/term parsers, and the declaration file format.

Term files are UTF-8 with ``#`` line comments: an optional graph header

    graph { node x; node y; edge k : x -> y; }

followed by declarations

    term name : TYPE -> TYPE = TERM ;

Type syntax: ``0``, ``1``, identifiers for generators, ``+``, ``*`` (tighter,
both right-associative), parentheses.  Term syntax: ``!``, ``?``, prefix
``p0/p1`` and ``s0/s1``, ``< , >``, ``{ , }``, ``@edge`` or ``@edge.edge`` for
generator paths (``@node`` is the empty path), ``id:T``, and ``;`` for cut.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graph import Edge, GeneratorGraph, EMPTY_GRAPH, InputError
from .terms import (
    BANG,
    QUEST,
    Cotuple,
    Cut,
    GenArrow,
    Id,
    Inj,
    Proj,
    Term,
    Tuple,
    format_term,
    infer,
    TypedTerm,
)
from .types import Gen, ObjectType, Prod, Sum, ONE, ZERO, format_type


class ParseError(Exception):
    """A syntax error at ``line`` and ``col`` (both 1-based), which are
    computed from the offending token's offset only when it is raised."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


_TOKEN_RE = re.compile(
    r"""\s+ | \#[^\n]*
      | (-> | [A-Za-z_][A-Za-z0-9_]* | [01!?<>{}(),;:+*@=.])
      | (.)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"term", "graph", "node", "edge", "id"}
_TERM_WORDS = {"p0", "p1", "s0", "s1", "id"}
_TERM_START = _TERM_WORDS | {"!", "?", "<", "{", "(", "@"}


def _position(text: str, off: int) -> tuple[int, int]:
    """The 1-based line and column of offset ``off`` in ``text``."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _lex(text: str) -> list[tuple[str, int]]:
    """The ``(token, offset)`` pairs of ``text``, ending with ``("", len(text))``;
    whitespace and ``#`` comments are skipped."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex  # None: skipped, 1: a token, 2: a stray character
        if group == 1:
            tokens.append((m[1], m.start()))
        elif group:
            raise ParseError(f"unexpected character {m[2]!r}", *_position(text, m.start()))
    tokens.append(("", len(text)))
    return tokens


@dataclass
class Declaration:
    name: str
    dom: ObjectType
    cod: ObjectType
    term: Term  # raw; run through infer/eliminate as needed


@dataclass
class Module:
    graph: GeneratorGraph = EMPTY_GRAPH
    decls: dict[str, Declaration] = field(default_factory=dict)

    def typed(self, name: str) -> TypedTerm:
        d = self.decls[name]
        return infer(d.term, d.dom, d.cod, self.graph)


class _Parser:
    def __init__(self, text: str, graph: GeneratorGraph = EMPTY_GRAPH):
        self.text = text
        self.toks = _lex(text)
        self.i = 0
        self.graph = graph

    # -- token plumbing -------------------------------------------------
    def peek(self, ahead: int = 0) -> str:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)][0]

    def next(self) -> tuple[str, int]:
        tok = self.toks[self.i]
        if tok[0]:
            self.i += 1
        return tok

    def expect(self, text: str) -> None:
        found, off = self.next()
        if found != text:
            raise self.error(f"expected {text!r}, found {found or 'end of input'!r}", off)

    def error(self, message: str, off: int) -> ParseError:
        return ParseError(message, *_position(self.text, off))

    def offset(self) -> int:
        """The offset of the next token."""
        return self.toks[self.i][1]

    def fail(self, message: str):
        raise self.error(message, self.offset())

    # -- types -----------------------------------------------------------
    def type_(self) -> ObjectType:
        left = self.prod()
        if self.peek() == "+":
            self.next()
            return Sum(left, self.type_())
        return left

    def prod(self) -> ObjectType:
        left = self.type_atom()
        if self.peek() == "*":
            self.next()
            return Prod(left, self.prod())
        return left

    def type_atom(self) -> ObjectType:
        tok, off = self.next()
        if tok == "0":
            return ZERO
        if tok == "1":
            return ONE
        if tok == "(":
            t = self.type_()
            self.expect(")")
            return t
        if tok.isidentifier() and tok not in _KEYWORDS:
            return Gen(tok)
        raise self.error(f"expected a type, found {tok or 'end of input'!r}", off)

    # -- terms -----------------------------------------------------------
    def term(self) -> Term:
        t = self.prefix_term()
        while self.peek() == ";" and self.peek(1) in _TERM_START:
            self.next()
            t = Cut(t, self.prefix_term())
        return t

    def prefix_term(self) -> Term:
        tok = self.peek()
        if tok in ("p0", "p1", "s0", "s1"):
            self.next()
            index = int(tok[1])
            body = self.prefix_term()
            return Proj(index, body) if tok[0] == "p" else Inj(index, body)
        return self.atom_term()

    def atom_term(self) -> Term:
        tok, off = self.next()
        match tok:
            case "!":
                return BANG
            case "?":
                return QUEST
            case "<":
                left = self.term()
                self.expect(",")
                right = self.term()
                self.expect(">")
                return Tuple(left, right)
            case "{":
                left = self.term()
                self.expect(",")
                right = self.term()
                self.expect("}")
                return Cotuple(left, right)
            case "(":
                t = self.term()
                self.expect(")")
                return t
            case "id":
                self.expect(":")
                return Id(self.type_())
            case "@":
                return self.gen_path(off)
        raise self.error(f"expected a term, found {tok or 'end of input'!r}", off)

    def gen_path(self, at: int) -> Term:
        names = [self.ident("generator path")]
        while self.peek() == ".":
            self.next()
            names.append(self.ident("generator path"))
        first = names[0]
        if self.graph.has_node(first):
            if len(names) > 1:
                raise self.error(f"{first!r} is a node; @node takes no path", at)
            return GenArrow(first, ())
        try:
            src = self.graph.edge(first).src
            self.graph.walk(src, tuple(names))
        except (KeyError, ValueError) as exc:
            raise self.error(exc.args[0], at) from None
        return GenArrow(src, tuple(names))

    def ident(self, what: str) -> str:
        tok, off = self.next()
        if not tok.isidentifier():
            raise self.error(f"expected an identifier in {what}", off)
        return tok

    # -- files -----------------------------------------------------------
    def module(self) -> Module:
        graph = EMPTY_GRAPH
        if self.peek() == "graph":
            graph = self.graph_block()
        self.graph = graph
        decls: dict[str, Declaration] = {}
        while self.peek():
            d = self.declaration(decls)
            decls[d.name] = d
        return Module(graph, decls)

    def graph_block(self) -> GeneratorGraph:
        self.expect("graph")
        self.expect("{")
        nodes: list[str] = []
        edges: dict[str, Edge] = {}
        spots: dict[str, dict[str, int]] = {}  # edge -> its parts' offsets
        while self.peek() != "}":
            tok, off = self.next()
            if tok == "node":
                nodes.append(self.ident("node declaration"))
                self.expect(";")
            elif tok == "edge":
                at = {"name": self.offset()}
                name = self.ident("edge declaration")
                if name in edges:
                    raise self.error(f"duplicate edge name {name!r}", at["name"])
                self.expect(":")
                at["src"] = self.offset()
                src = self.ident("edge declaration")
                self.expect("->")
                at["dst"] = self.offset()
                dst = self.ident("edge declaration")
                self.expect(";")
                edges[name] = Edge(name, src, dst)
                spots[name] = at
            else:
                raise self.error("expected 'node' or 'edge'", off)
        self.expect("}")
        try:  # checked after the block: nodes may follow the edges using them
            return GeneratorGraph(frozenset(nodes), tuple(edges.values()))
        except InputError as exc:
            name, part = exc.at
            raise self.error(str(exc), spots[name][part]) from None

    def declaration(self, taken) -> Declaration:
        """One ``term`` declaration; its name must not be in ``taken``."""
        self.expect("term")
        at = self.offset()
        name = self.ident("term declaration")
        if name in taken:
            raise self.error(f"duplicate term name {name!r}", at)
        if name in _KEYWORDS or name in _TERM_WORDS:
            raise self.error(f"{name!r} is reserved", at)
        self.expect(":")
        dom = self.type_()
        tok, off = self.next()
        if tok != "->":
            raise self.error("expected '->' in term declaration", off)
        cod = self.type_()
        self.expect("=")
        body = self.term()
        self.expect(";")
        return Declaration(name, dom, cod, body)


def parse_type(text: str) -> ObjectType:
    p = _Parser(text)
    t = p.type_()
    if p.peek():
        p.fail("trailing input after type")
    return t


def parse_term(text: str, graph: GeneratorGraph = EMPTY_GRAPH) -> Term:
    """Parse a single (possibly raw) term; generator paths are resolved
    against ``graph``."""
    p = _Parser(text, graph)
    t = p.term()
    if p.peek():
        p.fail("trailing input after term")
    return t


def parse_module(text: str) -> Module:
    return _Parser(text).module()


def format_module(module: Module) -> str:
    lines = []
    g = module.graph
    if g.nodes:
        inner = [f"node {n};" for n in sorted(g.nodes)]
        inner += [f"edge {e.name} : {e.src} -> {e.dst};" for e in g.edges]
        lines.append("graph { " + " ".join(inner) + " }")
    for d in module.decls.values():
        lines.append(
            f"term {d.name} : {format_type(d.dom)} -> {format_type(d.cod)} "
            f"= {format_term(d.term)} ;"
        )
    return "\n".join(lines) + "\n"
