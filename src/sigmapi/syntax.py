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
from bisect import bisect_right
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
    """A syntax error at ``line`` and ``col`` (both 1-based), found from
    the character offset of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


# Each match skips whitespace and comments, then takes one token: ``->``,
# an ASCII identifier, any single character, or the empty end of input.
_TOKEN_RE = re.compile(r"(?:\s+|\#[^\n]*)*(->|[A-Za-z_][A-Za-z0-9_]*|.|\Z)")
# The same for a text with no ``#``, which it lexes faster
_PLAIN_RE = re.compile(r"\s*(->|[A-Za-z_][A-Za-z0-9_]*|.|\Z)")


def _scan(symbols: str) -> re.Pattern:
    """Matches whitespace, comments, identifiers, ``->`` and ``symbols``,
    up to the first character that is none of these."""
    skip = rf"[\s{symbols}]*"
    return re.compile(rf"{skip}(?:(?:[A-Za-z_][A-Za-z0-9_]*|->|\#[^\n]*){skip})*")


# ``_RUN_RE`` stops at the next open bracket and ``_CLEAN_RE`` reads on;
# both stop at a stray character (one that is no symbol and in no
# identifier) and at the end
_RUN_RE = _scan("01!?,;:+*@=.)>}")
_CLEAN_RE = _scan("01!?,;:+*@=.)>}(<{")

_KEYWORDS = {"term", "graph", "node", "edge", "id"}
_TERM_WORDS = {"p0", "p1", "s0", "s1", "id"}
_TERM_START = _TERM_WORDS | {"!", "?", "<", "{", "(", "@"}
_PREFIXES = {"p0": (Proj, 0), "p1": (Proj, 1), "s0": (Inj, 0), "s1": (Inj, 1)}
_GROUPS = {"(": (")", None), "<": (">", Tuple), "{": ("}", Cotuple)}  # open: close, node
# Groups of fewer tokens are read again: keeping one and looking it up
# costs about as much as reading it.  A kept group is looked up by its
# first ``_LONG`` characters.
_LONG = 16
# Failed lookups draw on a budget of this many times the length of the
# text, each before it compares; once it is spent the text recalls no
# more groups.
_WASTE = 8


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
    """Descent over ``toks``, the tokens of ``text`` lexed so far, the
    last ``""`` for end of input.  ``i`` is the index of the next token.

    The text is lexed lazily, in runs: ``lex`` takes the tokens from
    character ``end`` through the next open bracket, and whoever consumes
    an open bracket lexes the next run.  ``firsts`` and ``starts`` hold
    each run's first token index and character offset; a token's offset
    is found from them when an error or a kept group needs it.

    Types and terms are each read by one loop over an explicit stack, so
    no rule recurses on brackets.  Each loop keeps a memo of the bracket
    groups of at least ``_LONG`` tokens it has read (or holding a group
    it recalled), by their raw text: the parse of a group depends only on
    its tokens (and on ``graph``, fixed while terms are read), and a group
    starts at a token and ends with a one-character close bracket, so the
    same characters at an open bracket lex to the same tokens and are the
    same interned node.  That group is skipped before it is lexed.  Only
    groups that parsed are kept, so every error comes from a first
    reading.  The memos die with the parser."""

    def __init__(self, text: str, graph: GeneratorGraph = EMPTY_GRAPH):
        self.text = text
        self.toks: list[str] = []
        self.i = 0
        self.graph = graph
        self.end = 0
        self.firsts: list[int] = []
        self.starts: list[int] = []
        self.offsets: dict[int, list[int]] = {}  # per run, its tokens' offsets, once needed
        # per kind, the kept groups: their first ``_LONG`` characters ->
        # [(offset, index of the close bracket, node)]
        self.type_groups: dict[str, list] = {}
        self.term_groups: dict[str, list] = {}
        self.hit = -1  # the token index of the last recalled group's open bracket
        self.waste = _WASTE * len(text)  # characters failed lookups may still compare
        self.tokens = (_TOKEN_RE if "#" in text else _PLAIN_RE).findall
        self.lex()

    # -- token plumbing -------------------------------------------------
    def lex(self) -> None:
        """Lex the text from ``end`` through the next open bracket, or to
        the end of input.  A stray character raises here: the text before
        it was lexed, or skipped as equal to text that was."""
        text, start = self.text, self.end
        end = _RUN_RE.match(text, start).end()
        if end < len(text) and text[end] not in _GROUPS:
            self.end = end
            raise self.at("", end)  # which names the stray character at end
        self.firsts.append(len(self.toks))
        self.starts.append(start)
        self.toks += self.tokens(text, start, end + 1)  # ends with ""
        if end < len(text):  # at an open bracket, not at the end of input
            self.toks.pop()
            end += 1
        self.end = end

    def offset(self, k: int) -> int:
        """The character offset of token ``k``."""
        r = bisect_right(self.firsts, k) - 1
        offs = self.offsets.get(r)
        if offs is None:
            last = self.firsts[r + 1] if r + 1 < len(self.firsts) else len(self.toks)
            found = islice(_TOKEN_RE.finditer(self.text, self.starts[r]), last - self.firsts[r])
            offs = self.offsets[r] = [m.start(1) for m in found]
        return offs[k - self.firsts[r]]

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
        return self.at(message, self.offset(self.i - 1 if k is None else k))

    def at(self, message: str, off: int) -> ParseError:
        """A ParseError at character ``off``, unless the text holds a stray
        character: the first one wins over any syntax error.  What was
        lexed or skipped holds none, so only the rest is scanned."""
        text = self.text
        stray = _CLEAN_RE.match(text, self.end).end()
        if stray < len(text):
            message, off = f"unexpected character {text[stray]!r}", stray
        return ParseError(message, text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off))

    def whole(self, rule, what: str):
        """``rule()``, which must read the whole text."""
        result = rule()
        if self.peek():
            raise self.error(f"trailing input after {what}", self.i)
        return result

    # -- bracket groups -----------------------------------------------------
    def recall(self, memo: dict, c: int):
        """The node of the group opened at character ``c``, the end of the
        text lexed, if a group with its text was kept; then ``end`` moves
        past it.  Else None.

        At most one kept group can match: equal characters lex to equal
        tokens, and those fix where the group at ``c`` ends.  A candidate
        is compared whole only if its last ``_LONG`` characters match.
        Each candidate is charged to ``waste`` before it is compared, so
        the last one overdraws the budget by at most the text's length."""
        text = self.text
        for start, close, node in memo.get(text[c:c + _LONG], ()):
            end = self.offset(close) + 1
            size = end - start
            whole = text.startswith(text[end - _LONG:end], c + size - _LONG)
            self.waste -= _LONG + size if whole else _LONG
            if self.waste < 0:
                break
            if whole and text.startswith(text[start:end], c):
                self.waste += size  # not wasted: the group is skipped
                self.end = c + size
                self.hit = len(self.toks) - 1
                return node
        if self.waste < 0:  # lookups cost more than they save: stop
            self.type_groups.clear()
            self.term_groups.clear()
        return None

    def remember(self, memo: dict, c: int, i: int, node) -> None:
        """Keep ``node``, read from character ``c`` to the close bracket at
        token ``i``."""
        if self.waste >= 0:
            memo.setdefault(self.text[c:c + _LONG], []).append((c, i, node))

    # -- types -----------------------------------------------------------
    def type_(self) -> ObjectType:
        """``prod ('+' prod)*`` with ``prod = atom ('*' atom)*``, both
        folded to the right; an atom is ``0``, ``1``, a generator or a
        parenthesised type.  Each open parenthesis pushes the sums and
        products read around it."""
        toks = self.toks
        memo = self.type_groups
        stack = []  # per open group: its token index and offset, the sums and products around it
        sums, prods = [], []
        i = self.i
        while True:
            tok = toks[i]
            i += 1
            if tok == "(":
                c = self.end - 1
                t = self.recall(memo, c) if memo else None
                self.lex()
                if t is None:
                    stack.append((i - 1, c, sums, prods))
                    sums, prods = [], []
                    continue
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
                k, c, sums, prods = stack.pop()
                if i + 1 - k >= _LONG or self.hit > k:  # long, or holds a recalled group
                    self.remember(memo, c, i, t)
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
        # per open group: its token index and offset, the cut and prefixes
        # around it, and its left term
        stack = []
        cut, prefixes = None, []
        i = self.i
        while True:
            while toks[i] in _PREFIXES:
                prefixes.append(_PREFIXES[toks[i]])
                i += 1
            tok = toks[i]
            i += 1
            if tok in _GROUPS:
                c = self.end - 1
                t = self.recall(memo, c) if memo else None
                self.lex()
                if t is None:
                    stack.append((i - 1, c, cut, prefixes, None))
                    cut, prefixes = None, []
                    continue
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
                k, c, outer, around, left = stack[-1]
                close, cls = _GROUPS[toks[k]]
                if cls is not None and left is None:  # the left term of a pair
                    if tok != ",":
                        raise self.mismatch(",", i)
                    stack[-1] = (k, c, outer, around, cut)
                    cut = None
                    i += 1
                    break
                if tok != close:
                    raise self.mismatch(close, i)
                stack.pop()
                t = cut if cls is None else cls(left, cut)
                if i + 1 - k >= _LONG or self.hit > k:
                    self.remember(memo, c, i, t)
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
        self.lex()
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
