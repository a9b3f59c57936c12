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
from itertools import accumulate, islice, repeat

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
_GROUPS = {"(": (")", None), "<": (">", Tuple), "{": ("}", Cotuple)}  # open: close, node
_NEST = {"(": 1, "<": 1, "{": 1, ")": -1, ">": -1, "}": -1}
# Groups of fewer tokens are read again: keying one and looking it up
# costs about as much as reading it.
_LONG = 16


def _depths(toks: list[str], k: int) -> bytes:
    """The bracket depth before each token from ``toks[k]`` on and after
    the last, counted from 128, modulo 256."""
    def depths():
        return accumulate(map(_NEST.get, islice(toks, k, None), repeat(0)), initial=128)
    try:
        return bytes(depths())
    except ValueError:  # 128 levels deeper or 129 shallower than at k
        return bytes(map((255).__and__, depths()))


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
    """Descent over ``toks``, the token strings of ``text``, which end with
    ``""`` for end of input.  ``i`` is the index of the next token; a
    position is a token index until an error needs its line and column.

    Types and terms are each read by one loop over an explicit stack, so
    no rule recurses on brackets.  Each loop keeps a memo of the bracket
    groups of at least ``_LONG`` tokens it has read, keyed by their text:
    the parse of a group depends only on its tokens (and on ``graph``,
    fixed while terms are read), so a group equal to one read before is
    the same interned node and is skipped.  Only groups that parsed are
    stored, so every error comes from a first reading.  The memos die
    with the parser."""

    def __init__(self, text: str, graph: GeneratorGraph = EMPTY_GRAPH):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.i = 0
        self.graph = graph
        stray = {t for t in set(self.toks) - _SYMBOLS if not (t.isascii() and t.isidentifier())}
        if stray:
            k = min(map(self.toks.index, stray))
            raise self.error(f"unexpected character {self.toks[k]!r}", k)
        # ``_depths`` of the tokens from ``base`` on
        self.depth: bytes | None = None
        self.base = 0
        # per kind, the long groups read: text -> node, and size -> the
        # (start, node) of the one group of that size not keyed by text
        # yet, or () once it is
        self.type_groups: tuple[dict, dict] = ({}, {})
        self.term_groups: tuple[dict, dict] = ({}, {})

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
        if self.next() != text:
            raise self.mismatch(text, self.i - 1)

    def mismatch(self, text: str, k: int) -> ParseError:
        """``text`` was expected at token ``k``."""
        return self.error(f"expected {text!r}, found {self.toks[k] or 'end of input'!r}", k)

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

    # -- bracket groups -----------------------------------------------------
    def recall(self, memo: tuple[dict, dict], k: int):
        """The node of the group opened at token ``k`` if a group with its
        text was read before; then ``i`` moves past it.  Else None.

        The group is taken to end at the first later token after which
        the depth is back to that before ``k``.  Depths are kept modulo
        256, so a group 256 or more levels deep seems to end too early;
        that text is unbalanced and matches no group read before.  A text
        is joined only when a group of its size was read: the first one is
        keyed only then."""
        toks, depth, b = self.toks, self.depth, self.base
        if depth is None:  # made on first use, from token ``base`` on
            self.base = b = k
            self.depth = depth = _depths(toks, k)
        size = depth.find(depth[k - b], k - b + 1) + b - k  # < 1 if no end
        texts, sizes = memo
        first = sizes.get(size)
        if first is None:
            return None
        if first:
            s, node = first
            texts[" ".join(toks[s:s + size])] = node
            sizes[size] = ()
        node = texts.get(" ".join(toks[k:k + size]))
        if node is not None:
            self.i = k + size
        return node

    def remember(self, memo: tuple[dict, dict], k: int, end: int, node) -> None:
        """Store ``node``, read from tokens ``k`` to ``end - 1``."""
        texts, sizes = memo
        if end - k in sizes:
            texts[" ".join(self.toks[k:end])] = node
        else:
            sizes[end - k] = (k, node)

    # -- types -----------------------------------------------------------
    def type_(self) -> ObjectType:
        """``prod ('+' prod)*`` with ``prod = atom ('*' atom)*``, both
        folded to the right; an atom is ``0``, ``1``, a generator or a
        parenthesised type.  Each open parenthesis pushes the sums and
        products read around it."""
        toks = self.toks
        memo = self.type_groups
        sizes = memo[1]
        stack = []  # per open group: its start, and the sums and products around it
        sums, prods = [], []
        i = self.i
        while True:
            tok = toks[i]
            i += 1
            if tok == "(":
                self.i = i
                if not sizes or (t := self.recall(memo, i - 1)) is None:
                    stack.append((i - 1, sums, prods))
                    sums, prods = [], []
                    continue
                i = self.i
            elif tok == "0":
                t = ZERO
            elif tok == "1":
                t = ONE
            elif tok.isidentifier() and tok not in _KEYWORDS:
                t = Gen(tok)
            else:
                raise self.error(f"expected a type, found {tok or 'end of input'!r}", i - 1)
            while True:  # t ends an operand: close what it ends
                tok = toks[i]
                if tok == "*":
                    prods.append(t)
                    i += 1
                    break
                while prods:
                    t = Prod(prods.pop(), t)
                if tok == "+":
                    sums.append(t)
                    i += 1
                    break
                while sums:
                    t = Sum(sums.pop(), t)
                if not stack:
                    self.i = i
                    return t
                if tok != ")":
                    raise self.mismatch(")", i)
                k, sums, prods = stack.pop()
                if i + 1 - k >= _LONG:
                    self.remember(memo, k, i + 1, t)
                i += 1

    # -- terms -----------------------------------------------------------
    def term(self) -> Term:
        """``prefixed (';' prefixed)*``, cuts folded to the left, with
        ``prefixed = (p0|p1|s0|s1)* atom``; an atom is ``!``, ``?``,
        ``id:type``, ``@path``, or a term in parentheses, or two in
        ``< , >`` or ``{ , }``.  Each open group pushes the cut and the
        prefixes around it; groups are looked up as in ``type_``."""
        toks = self.toks
        memo = self.term_groups
        sizes = memo[1]
        stack = []  # per open group: its start, the cut and prefixes around it, its left term
        cut, prefixes = None, []
        i = self.i
        while True:
            while toks[i] in _PREFIXES:
                prefixes.append(_PREFIXES[toks[i]])
                i += 1
            tok = toks[i]
            i += 1
            if tok in _GROUPS:
                self.i = i
                if not sizes or (t := self.recall(memo, i - 1)) is None:
                    stack.append((i - 1, cut, prefixes, None))
                    cut, prefixes = None, []
                    continue
                i = self.i
            elif tok == "!":
                t = BANG
            elif tok == "?":
                t = QUEST
            elif tok == "id":
                if toks[i] != ":":
                    raise self.mismatch(":", i)
                self.i = i + 1
                t = Id(self.type_())
                i = self.i
            elif tok == "@":
                self.i = i
                t = self.gen_path(i - 1)
                i = self.i
            else:
                raise self.error(f"expected a term, found {tok or 'end of input'!r}", i - 1)
            while True:  # t ends a prefixed term: close what it ends
                while prefixes:
                    cls, index = prefixes.pop()
                    t = cls(index, t)
                cut = t if cut is None else Cut(cut, t)
                tok = toks[i]
                if tok == ";" and toks[i + 1] in _TERM_START:
                    i += 1
                    break
                if not stack:
                    self.i = i
                    return cut
                k, outer, around, left = stack[-1]
                close, cls = _GROUPS[toks[k]]
                if cls is not None and left is None:  # the left term of a pair
                    if tok != ",":
                        raise self.mismatch(",", i)
                    stack[-1] = (k, outer, around, cut)
                    cut = None
                    i += 1
                    break
                if tok != close:
                    raise self.mismatch(close, i)
                stack.pop()
                t = cut if cls is None else cls(left, cut)
                if i + 1 - k >= _LONG:
                    self.remember(memo, k, i + 1, t)
                cut, prefixes = outer, around
                i += 1

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
