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
from itertools import islice

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
    """A syntax error at ``line`` and ``col`` (both 1-based).  The parser
    knows only the index of the offending token; the line and column are
    found by re-lexing up to that token when the error is raised."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


# Each match skips whitespace and comments, then takes one token: ``->``,
# an ASCII identifier, any single character (``_Parser`` rejects one that
# is not a symbol), or the empty end of input.
_TOKEN_RE = re.compile(r"(?:\s+|\#[^\n]*)*(->|[A-Za-z_][A-Za-z0-9_]*|.|\Z)")

_SYMBOLS = set("01!?<>{}(),;:+*@=.") | {"->", ""}
_KEYWORDS = {"term", "graph", "node", "edge", "id"}
_TERM_WORDS = {"p0", "p1", "s0", "s1", "id"}
_TERM_START = _TERM_WORDS | {"!", "?", "<", "{", "(", "@"}
_PREFIXES = {"p0": (Proj, 0), "p1": (Proj, 1), "s0": (Inj, 0), "s1": (Inj, 1)}
_BRACKETS = {"<": (">", Tuple), "{": ("}", Cotuple)}


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
    """Recursive descent over ``toks``, the token strings of ``text``,
    which end with ``""`` for end of input.  ``i`` is the index of the next
    token; a position is a token index until an error needs its line and
    column.  Only brackets and parentheses recurse: operator and prefix
    chains are loops."""

    def __init__(self, text: str, graph: GeneratorGraph = EMPTY_GRAPH):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.i = 0
        self.graph = graph
        stray = {t for t in set(self.toks) - _SYMBOLS if not (t.isascii() and t.isidentifier())}
        if stray:
            k = min(map(self.toks.index, stray))
            raise self.error(f"unexpected character {self.toks[k]!r}", k)

    # -- token plumbing -------------------------------------------------
    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        """The next token, consumed.  Reading past ``""`` is never needed:
        every rule that reads the end of input raises."""
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        found = self.next()
        if found != text:
            raise self.error(f"expected {text!r}, found {found or 'end of input'!r}")

    def error(self, message: str, k: int | None = None) -> ParseError:
        """A ParseError at token ``k``, by default the last one read."""
        if k is None:
            k = self.i - 1
        off = next(islice(_TOKEN_RE.finditer(self.text), k, None)).start(1)
        line = self.text.count("\n", 0, off) + 1
        return ParseError(message, line, off - self.text.rfind("\n", 0, off))

    def whole(self, rule, what: str):
        """``rule()``, which must read the whole text."""
        result = rule()
        if self.peek():
            raise self.error(f"trailing input after {what}", self.i)
        return result

    # -- types -----------------------------------------------------------
    def chain(self, op: str, cls, operand):
        """``operand (op operand)*``, folded to the right."""
        items = [operand()]
        while self.toks[self.i] == op:
            self.i += 1
            items.append(operand())
        t = items.pop()
        while items:
            t = cls(items.pop(), t)
        return t

    def type_(self) -> ObjectType:
        return self.chain("+", Sum, self.prod)

    def prod(self) -> ObjectType:
        return self.chain("*", Prod, self.type_atom)

    def type_atom(self) -> ObjectType:
        tok = self.next()
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
        raise self.error(f"expected a type, found {tok or 'end of input'!r}")

    # -- terms -----------------------------------------------------------
    def term(self) -> Term:
        t = self.prefix_term()
        while self.peek() == ";" and self.toks[self.i + 1] in _TERM_START:
            self.next()
            t = Cut(t, self.prefix_term())
        return t

    def prefix_term(self) -> Term:
        prefixes = []
        while self.peek() in _PREFIXES:
            prefixes.append(_PREFIXES[self.next()])
        t = self.atom_term()
        for cls, index in reversed(prefixes):
            t = cls(index, t)
        return t

    def atom_term(self) -> Term:
        tok = self.next()
        match tok:
            case "!":
                return BANG
            case "?":
                return QUEST
            case "<" | "{":
                close, cls = _BRACKETS[tok]
                left = self.term()
                self.expect(",")
                right = self.term()
                self.expect(close)
                return cls(left, right)
            case "(":
                t = self.term()
                self.expect(")")
                return t
            case "id":
                self.expect(":")
                return Id(self.type_())
            case "@":
                return self.gen_path(self.i - 1)
        raise self.error(f"expected a term, found {tok or 'end of input'!r}")

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
        except ValueError as exc:
            raise self.error(str(exc), at) from None
        return GenArrow(src, tuple(names))

    def ident(self, what: str) -> str:
        tok = self.next()
        if not tok.isidentifier():
            raise self.error(f"expected an identifier in {what}")
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
        spots: dict[str, dict[str, int]] = {}  # edge -> its parts' token indices
        while self.peek() != "}":
            tok = self.next()
            if tok == "node":
                name = self.ident("node declaration")
                if name in _KEYWORDS:
                    raise self.error(f"{name!r} is reserved")
                nodes.append(name)
                self.expect(";")
            elif tok == "edge":
                at = {"name": self.i}
                name = self.ident("edge declaration")
                if name in edges:
                    raise self.error(f"duplicate edge name {name!r}")
                self.expect(":")
                at["src"] = self.i
                src = self.ident("edge declaration")
                self.expect("->")
                at["dst"] = self.i
                dst = self.ident("edge declaration")
                self.expect(";")
                edges[name] = Edge(name, src, dst)
                spots[name] = at
            else:
                raise self.error("expected 'node' or 'edge'")
        self.expect("}")
        try:  # checked after the block: nodes may follow the edges using them
            return GeneratorGraph(frozenset(nodes), tuple(edges.values()))
        except InputError as exc:
            name, part = exc.at
            raise self.error(str(exc), spots[name][part]) from None

    def declaration(self, taken) -> Declaration:
        """One ``term`` declaration; its name must not be in ``taken``."""
        self.expect("term")
        name = self.ident("term declaration")
        if name in taken:
            raise self.error(f"duplicate term name {name!r}")
        if name in _KEYWORDS or name in _TERM_WORDS:
            raise self.error(f"{name!r} is reserved")
        self.expect(":")
        dom = self.type_()
        if self.next() != "->":
            raise self.error("expected '->' in term declaration")
        cod = self.type_()
        self.expect("=")
        body = self.term()
        self.expect(";")
        return Declaration(name, dom, cod, body)


def parse_type(text: str) -> ObjectType:
    p = _Parser(text)
    return p.whole(p.type_, "type")


def parse_term(text: str, graph: GeneratorGraph = EMPTY_GRAPH) -> Term:
    """Parse a single (possibly raw) term; generator paths are resolved
    against ``graph``."""
    p = _Parser(text, graph)
    return p.whole(p.term, "term")


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
