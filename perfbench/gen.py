"""Seeded inputs for the benchmark, built without the program under test.

Everything here is the benchmark's own code: a small type and term
representation, a printer for the surface syntax, a conversion rewriter
that walks a term inside its equivalence class, and a Set-model evaluator
that separates terms denoting different functions.  The program is only
ever given the resulting text (or terms built from it with the public
constructors), so a change to the program's printer, oracle or bench
module cannot change what the benchmark feeds it.

Representation (plain tuples, compared structurally):

* types: ``("0",)``, ``("1",)``, ``("G", name)``, ``("+", l, r)``, ``("*", l, r)``
* terms: ``("!",)``, ``("?",)``, ``("p", i, b)``, ``("s", j, b)``,
  ``("t", l, r)`` (tuple), ``("c", l, r)`` (cotuple), ``("g", src, edges)``
  (generator path), and the raw ``("id", T)`` and ``("cut", l, r)``.

Set model: ``0`` is empty, ``1`` is ``{()}``, ``+`` tags with 0/1, ``*``
pairs, a generator object ``x`` is ``range(card[x])`` and an edge is a
seeded function between those ranges.  It is a sum-product category, so
two terms that differ on some element are not equal in the free one.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

ZERO = ("0",)
ONE = ("1",)
BANG = ("!",)
QUEST = ("?",)


def pick(rng: random.Random, seq):
    """``rng.choice`` at a fraction of its cost."""
    return seq[int(rng.random() * len(seq))]


# -- types ------------------------------------------------------------------

def type_size(t) -> int:
    return 1 if len(t) < 3 else 1 + type_size(t[1]) + type_size(t[2])


def type_height(t) -> int:
    return 1 if len(t) < 3 else 1 + max(type_height(t[1]), type_height(t[2]))


def has_gen(t) -> bool:
    if t[0] == "G":
        return True
    return len(t) == 3 and (has_gen(t[1]) or has_gen(t[2]))


def balanced_type(height: int, product_on_top: bool):
    if height <= 1:
        return ONE
    child = balanced_type(height - 1, not product_on_top)
    return ("*" if product_on_top else "+", child, child)


def random_type(rng: random.Random, size: int, atoms: tuple, root: str = ""):
    """A random binary tree with ``size`` nodes (odd) over ``atoms`` (an
    atom repeated k times is drawn k times as often); ``root`` fixes the
    top operator."""
    if size <= 1:
        return pick(rng, atoms)
    left = 2 * rng.randrange((size - 1) // 2) + 1
    l = random_type(rng, left, atoms)
    r = random_type(rng, size - 1 - left, atoms)
    return (root or pick(rng, "+*"), l, r)


# -- printing (surface syntax of the program's term files) ------------------

def fmt_type(t) -> str:
    """``*`` binds tighter than ``+``; both associate to the right."""
    if t[0] == "+":
        left = fmt_type(t[1])
        if t[1][0] == "+":
            left = f"({left})"
        return f"{left} + {fmt_type(t[2])}"
    if t[0] == "*":
        left, right = fmt_type(t[1]), fmt_type(t[2])
        if t[1][0] in "+*":
            left = f"({left})"
        if t[2][0] == "+":
            right = f"({right})"
        return f"{left} * {right}"
    return {"0": "0", "1": "1"}.get(t[0]) or t[1]


def fmt_term(t, top: bool = True) -> str:
    k = t[0]
    if k == "!":
        return "!"
    if k == "?":
        return "?"
    if k in "ps":
        return f"{k}{t[1]} {fmt_term(t[2], False)}"
    if k == "t":
        return f"<{fmt_term(t[1])}, {fmt_term(t[2])}>"
    if k == "c":
        return f"{{{fmt_term(t[1])}, {fmt_term(t[2])}}}"
    if k == "g":
        return "@" + (".".join(t[2]) if t[2] else t[1])
    if k == "id":
        return f"id:({fmt_type(t[1])})"
    if k == "cut":
        s = f"{fmt_term(t[1])} ; {fmt_term(t[2])}"
        return s if top else f"({s})"
    raise ValueError(f"not a term: {t!r}")


@dataclass(frozen=True)
class Graph:
    """A finite acyclic graph: ``edges`` maps a name to (src, dst)."""

    nodes: tuple
    edges: tuple  # ((name, src, dst), ...)

    def out(self, src):
        return [e for e in self.edges if e[1] == src]

    def paths(self, src, dst, limit=8):
        found, todo = [], [(src, ())]
        while todo and len(found) < limit:
            at, path = todo.pop()
            if at == dst:
                found.append(path)
            todo.extend((e[2], path + (e[0],)) for e in self.out(at))
        return sorted(found)

    def header(self) -> str:
        inner = [f"node {n};" for n in self.nodes]
        inner += [f"edge {n} : {s} -> {d};" for n, s, d in self.edges]
        return "graph { " + " ".join(inner) + " }\n"


NO_GRAPH = Graph((), ())


def fmt_module(dom, cod, left, right, graph: Graph = NO_GRAPH) -> str:
    head = graph.header() if graph.nodes else ""
    sig = f"{fmt_type(dom)} -> {fmt_type(cod)}"
    return (f"{head}term f : {sig} = {fmt_term(left)} ;\n"
            f"term g : {sig} = {fmt_term(right)} ;\n")


# -- homsets ----------------------------------------------------------------

class Homsets:
    """Inhabitation of homsets in the free category (cut-free terms exist
    exactly when these rules say so) and random inhabitants."""

    def __init__(self, graph: Graph = NO_GRAPH):
        self.graph = graph
        # keyed by object ids (hashing a deep tuple costs its size); the
        # value keeps both types alive so that no id is reused
        self._inh: dict = {}
        self._truth: dict = {}
        self._opts: dict = {}

    def inhabited(self, x, a) -> bool:
        if not self.graph.nodes:
            # without generators, x -> a is inhabited unless x holds and a
            # does not, reading 0/1/+/* as false/true/or/and
            return not self._holds(x) or self._holds(a)
        key = (id(x), id(a))
        got = self._inh.get(key)
        if got is None:
            got = (a == ONE or x == ZERO
                   or (x[0] == "*" and (self.inhabited(x[1], a) or self.inhabited(x[2], a)))
                   or (a[0] == "+" and (self.inhabited(x, a[1]) or self.inhabited(x, a[2])))
                   or (a[0] == "*" and self.inhabited(x, a[1]) and self.inhabited(x, a[2]))
                   or (x[0] == "+" and self.inhabited(x[1], a) and self.inhabited(x[2], a))
                   or (x[0] == "G" and a[0] == "G" and bool(self.graph.paths(x[1], a[1], 1))))
            self._inh[key] = (got, x, a)
            return got
        return got[0]

    def _holds(self, t) -> bool:
        got = self._truth.get(id(t))
        if got is None:
            k = t[0]
            if k == "*":
                holds = self._holds(t[1]) and self._holds(t[2])
            elif k == "+":
                holds = self._holds(t[1]) or self._holds(t[2])
            else:
                holds = k == "1"
            got = self._truth[id(t)] = (holds, t)
        return got[0]

    def options(self, x, a) -> list:
        """Constructors that can head a term ``x -> a``: ``("p", i)``,
        ``("s", j)``, ``("t",)``, ``("c",)``, ``("g", path)``, ``("!",)``
        or ``("?",)``."""
        key = (id(x), id(a))
        got = self._opts.get(key)
        if got is None:
            got = self._opts[key] = (self._options(x, a), x, a)
        return got[0]

    def _options(self, x, a) -> list:
        opts = []
        if a == ONE:
            opts.append(("!",))
        if x == ZERO:
            opts.append(("?",))
        if x[0] == "*":
            for i in (0, 1):
                if self.inhabited(x[1 + i], a):
                    opts.append(("p", i))
        if a[0] == "+":
            for j in (0, 1):
                if self.inhabited(x, a[1 + j]):
                    opts.append(("s", j))
        if a[0] == "*" and self.inhabited(x, a[1]) and self.inhabited(x, a[2]):
            opts.append(("t",))
        if x[0] == "+" and self.inhabited(x[1], a) and self.inhabited(x[2], a):
            opts.append(("c",))
        if x[0] == "G" and a[0] == "G":
            opts.extend(("g", p) for p in self.graph.paths(x[1], a[1]))
        return opts

    def random_term(self, rng: random.Random, x, a, head=None):
        """A random cut-free term ``x -> a``; ``head`` forbids one head."""
        opts = self.options(x, a)
        if head is not None:
            opts = [o for o in opts if o != head]
        if not opts:
            return None
        o = pick(rng, opts)
        return self._build(rng, o, x, a)

    def _build(self, rng, o, x, a):
        k = o[0]
        if k == "!":
            return BANG
        if k == "?":
            return QUEST
        if k == "p":
            return ("p", o[1], self.random_term(rng, x[1 + o[1]], a))
        if k == "s":
            return ("s", o[1], self.random_term(rng, x, a[1 + o[1]]))
        if k == "t":
            return ("t", self.random_term(rng, x, a[1]), self.random_term(rng, x, a[2]))
        if k == "c":
            return ("c", self.random_term(rng, x[1], a), self.random_term(rng, x[2], a))
        return ("g", x[1], o[1])


def _head(t):
    return (t[0], t[1]) if t[0] in "ps" else (("g", t[2]) if t[0] == "g" else (t[0],))


# -- permuting conversions --------------------------------------------------

def root_rewrites(t, x, a) -> list:
    """One-step images of ``t : x -> a`` under the permuting conversions
    applied at the root, in both directions."""
    out = []
    k = t[0]
    if k == "p":
        i, b = t[1], t[2]
        if b[0] == "t":
            out.append(("t", ("p", i, b[1]), ("p", i, b[2])))
        elif b[0] == "s":
            out.append(("s", b[1], ("p", i, b[2])))
        elif b == BANG:
            out.append(BANG)
    elif k == "s":
        j, b = t[1], t[2]
        if b[0] == "c":
            out.append(("c", ("s", j, b[1]), ("s", j, b[2])))
        elif b[0] == "p":
            out.append(("p", b[1], ("s", j, b[2])))
        elif b == QUEST:
            out.append(QUEST)
    elif k == "t":
        l, r = t[1], t[2]
        if l[0] == r[0] == "p" and l[1] == r[1]:
            out.append(("p", l[1], ("t", l[2], r[2])))
        if l[0] == r[0] == "c":
            out.append(("c", ("t", l[1], r[1]), ("t", l[2], r[2])))
        if l == r == QUEST:
            out.append(QUEST)
    elif k == "c":
        l, r = t[1], t[2]
        if l[0] == r[0] == "s" and l[1] == r[1]:
            out.append(("s", l[1], ("c", l[2], r[2])))
        if l[0] == r[0] == "t":
            out.append(("t", ("c", l[1], r[1]), ("c", l[2], r[2])))
        if l == r == BANG:
            out.append(BANG)
    elif k == "!":
        if x[0] == "*":
            out += [("p", 0, BANG), ("p", 1, BANG)]
        if x[0] == "+":
            out.append(("c", BANG, BANG))
        if x == ZERO:
            out.append(QUEST)
    elif k == "?":
        if a[0] == "+":
            out += [("s", 0, QUEST), ("s", 1, QUEST)]
        if a[0] == "*":
            out.append(("t", QUEST, QUEST))
        if a == ONE:
            out.append(BANG)
    return out


def children(t, x, a) -> list:
    """Children of a cut-free node with their typings, as
    (index, child, dom, cod)."""
    k = t[0]
    if k == "p":
        return [(2, t[2], x[1 + t[1]], a)]
    if k == "s":
        return [(2, t[2], x, a[1 + t[1]])]
    if k == "t":
        return [(1, t[1], x, a[1]), (2, t[2], x, a[2])]
    if k == "c":
        return [(1, t[1], x[1], a), (2, t[2], x[2], a)]
    return []


def _replace(t, index, child):
    return t[:index] + (child,) + t[index + 1:]


def random_path(rng: random.Random, t, x, a) -> list:
    """A random root-to-leaf descent, as [(node, dom, cod, index)] where
    ``index`` is the slot of the next node in this one."""
    out = []
    while True:
        kids = children(t, x, a)
        if not kids:
            out.append((t, x, a, None))
            return out
        index, child, cx, ca = pick(rng, kids)
        out.append((t, x, a, index))
        t, x, a = child, cx, ca


def _rebuild_at(descent, depth, node):
    """Replace the node at ``depth`` of a descent by ``node``."""
    for parent, _, _, index in reversed(descent[:depth]):
        node = _replace(parent, index, node)
    return node


def convert(rng: random.Random, t, x, a, steps: int, tries: int = 64):
    """Apply ``steps`` random permuting conversions to ``t``.  Each step
    descends along a random path and rewrites at a random node of it where
    a conversion applies; a step with no applicable rewrite in ``tries``
    descents is skipped."""
    for _ in range(steps):
        for _ in range(tries):
            descent = random_path(rng, t, x, a)
            cands = [(depth, img) for depth, (node, nx, na, _) in enumerate(descent)
                     for img in root_rewrites(node, nx, na)]
            if cands:
                depth, img = pick(rng, cands)
                t = _rebuild_at(descent, depth, img)
                break
    return t


def mutate(rng: random.Random, h: Homsets, t, x, a):
    """Replace the subterm at a random node by a random term of the same
    homset with a different head constructor (a one-constructor mutant)."""
    descent = random_path(rng, t, x, a)
    order = list(range(len(descent)))
    rng.shuffle(order)
    for depth in order:
        node, nx, na, _ = descent[depth]
        new = h.random_term(rng, nx, na, head=_head(node))
        if new is not None:
            return _rebuild_at(descent, depth, new)
    return None


# -- the Set model ----------------------------------------------------------

class SetModel:
    """Generator objects as ``range(card)``, edges as seeded functions."""

    def __init__(self, rng: random.Random, graph: Graph = NO_GRAPH, card=(2, 4)):
        self.card = {n: rng.randint(*card) for n in graph.nodes}
        self.fun = {}
        for name, src, dst in graph.edges:
            self.fun[name] = tuple(rng.randrange(self.card[dst]) for _ in range(self.card[src]))
        self._nonempty: dict = {}

    def nonempty(self, t) -> bool:
        got = self._nonempty.get(id(t))  # keyed as in Homsets
        if got is None:
            k = t[0]
            if k == "*":
                got = self.nonempty(t[1]) and self.nonempty(t[2])
            elif k == "+":
                got = self.nonempty(t[1]) or self.nonempty(t[2])
            else:
                got = k != "0"
            self._nonempty[id(t)] = (got, t)
            return got
        return got[0]

    def sample(self, rng: random.Random, t):
        k = t[0]
        if k == "1":
            return ()
        if k == "G":
            return rng.randrange(self.card[t[1]])
        if k == "*":
            return (self.sample(rng, t[1]), self.sample(rng, t[2]))
        sides = [s for s in (0, 1) if self.nonempty(t[1 + s])]
        s = rng.choice(sides)
        return (s, self.sample(rng, t[1 + s]))

    def apply(self, t, v):
        k = t[0]
        if k == "!":
            return ()
        if k == "p":
            return self.apply(t[2], v[t[1]])
        if k == "s":
            return (t[1], self.apply(t[2], v))
        if k == "t":
            return (self.apply(t[1], v), self.apply(t[2], v))
        if k == "c":
            return self.apply(t[1 + v[0]], v[1])
        if k == "g":
            for e in t[2]:
                v = self.fun[e][v]
            return v
        if k == "id":
            return v
        if k == "cut":
            return self.apply(t[2], self.apply(t[1], v))
        raise ValueError(f"cannot evaluate {t!r} on {v!r}")

    def separates(self, rng: random.Random, f, g, x, samples: int = 16) -> bool:
        """Whether ``f`` and ``g`` differ on one of ``samples`` sampled
        elements of ``x`` (never, when ``x`` is empty)."""
        if not self.nonempty(x):
            return False
        for _ in range(samples):
            v = self.sample(rng, x)
            if self.apply(f, v) != self.apply(g, v):
                return True
        return False


# -- pairs ------------------------------------------------------------------

EQUAL, NOT_EQUAL, UNCHECKED = "Equal", "NotEqual", "unchecked"


@dataclass
class Pair:
    """One query: two parallel terms and the answer known for them.

    ``text`` is the source module (declarations ``f`` and ``g``) for the
    text workloads; ``dom``/``cod``/``left``/``right`` are the benchmark's
    own representation, which the walks workload converts to program terms.
    """

    expect: str
    dom: tuple
    cod: tuple
    left: tuple
    right: tuple
    text: str = ""

    def key(self) -> bytes:
        body = self.text or repr((self.dom, self.cod, self.left, self.right))
        return body.encode()


class Digest:
    """Running digest of the pairs given to ``add``."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, pair: Pair):
        self._h.update(pair.expect.encode())
        self._h.update(pair.key())
        self.count += 1

    def hex(self) -> str:
        return self._h.hexdigest()[:16]


def digest(pairs) -> str:
    d = Digest()
    for p in pairs:
        d.add(p)
    return d.hex()


def neighbours(t, x, a) -> list:
    """One-step conversion images of ``t : x -> a`` at every position."""
    out = root_rewrites(t, x, a)
    for index, child, cx, ca in children(t, x, a):
        out.extend(_replace(t, index, img) for img in neighbours(child, cx, ca))
    return out


def class_size(t, x, a, cap: int) -> int:
    """Size of the conversion class of ``t``, counted up to ``cap + 1``."""
    seen, todo = {t}, [t]
    while todo:
        for img in neighbours(todo.pop(), x, a):
            if img not in seen:
                seen.add(img)
                if len(seen) > cap:
                    return len(seen)
                todo.append(img)
    return len(seen)


def known_pair(rng: random.Random, draw, want_equal: bool, steps: int, tries: int = 64):
    """``(expect, x, a, f, g)`` from terms ``draw()`` returns as
    ``(x, a, f, homsets, model)``.  Equal: ``g`` is a walk of ``steps``
    conversions of ``f`` that differs from it.  NotEqual: ``g`` is a walk
    of a one-constructor mutant of ``f`` that the Set model separates from
    it.  After ``tries`` draws without one, the last unseparated mutant is
    returned as unchecked."""
    last = None
    for _ in range(tries):
        x, a, f, homs, model = draw()
        if want_equal:
            g = convert(rng, f, x, a, steps)
            if g != f:
                return EQUAL, x, a, f, g
            continue
        for _ in range(8):
            m = mutate(rng, homs, f, x, a)
            if m is None:
                break
            if model.separates(rng, f, m, x):
                return NOT_EQUAL, x, a, f, convert(rng, m, x, a, steps)
            last = (UNCHECKED, x, a, f, convert(rng, m, x, a, steps))
    if last is None:
        raise RuntimeError("no pair with a known or unknown answer could be drawn")
    return last


# balanced: per-level automorphisms of the balanced alternating types

def level_automorphism(t, swaps, level=0):
    """The automorphism of a balanced type that swaps the two branches at
    every depth ``d`` with ``swaps[d]`` set."""
    if t == ONE:
        return BANG
    c = level_automorphism(t[1], swaps, level + 1)
    order = (1, 0) if swaps[level] else (0, 1)
    if t[0] == "*":
        parts = [BANG if c == BANG else ("p", i, c) for i in order]
        return ("t", parts[0], parts[1])
    parts = [("s", j, c) for j in order]
    return ("c", parts[0], parts[1])


BALANCED_HEIGHTS = (9, 10, 11, 12, 13)


def balanced_pair(rng: random.Random, index: int) -> Pair:
    """Pair ``index`` of a balanced stream.  The height is
    ``BALANCED_HEIGHTS[index % 5]``, the answer Equal when ``index // 5``
    is even, and the left side ``id:X`` when ``index // 10`` is even.

    The type has ``1 * 1`` at the bottom (product on top at even heights,
    sum on top at odd ones), so the identity has conversions to walk.  The
    left side is ``id:X`` or ``s ; id:X ; s`` for a random level
    automorphism ``s`` (an involution; ``id`` anchors the middle type of
    the cut).  An Equal right side is a walk of 4..12 conversions of the
    identity; a NotEqual one is a walk of an automorphism that the Set
    model separates from the identity.
    """
    h = BALANCED_HEIGHTS[index % len(BALANCED_HEIGHTS)]
    x = balanced_type(h, product_on_top=h % 2 == 0)
    ident = level_automorphism(x, [False] * h)
    if (index // 10) % 2 == 0:
        left = ("id", x)
    else:
        s = level_automorphism(x, [rng.random() < 0.5 for _ in range(h)])
        left = ("cut", ("cut", s, ("id", x)), s)
    steps = rng.randint(4, 12)
    if (index // 5) % 2 == 0:
        expect, right = EQUAL, ident
        while right == ident:
            right = convert(rng, ident, x, x, steps)
    else:
        model = SetModel(rng)
        while True:
            tau = level_automorphism(x, [rng.random() < 0.5 for _ in range(h)])
            if model.separates(rng, ident, tau, x):
                break
        expect, right = NOT_EQUAL, convert(rng, tau, x, x, steps)
    return Pair(expect, x, x, left, right, fmt_module(x, x, left, right))


# walks: random generator-free terms and conversions of them

WALK_SIZES = (31, 63, 127, 255)
_UNIT_ATOMS = (ONE, ONE, ONE, ZERO)


def walks_pair(rng: random.Random, index: int) -> Pair:
    """Pair ``index`` of a walks stream.  Both types have the size
    ``WALK_SIZES[index // 4 % 4]``; even-numbered pairs have a product
    domain and a sum codomain at the root; the answer is Equal when
    ``index // 2`` is even.  Terms are drawn as in ``known_pair`` with
    4..16 conversion steps."""
    size = WALK_SIZES[(index // 4) % len(WALK_SIZES)]
    corner = index % 2 == 0
    model, homs = SetModel(rng), Homsets()

    def draw():
        while True:
            x = random_type(rng, size, _UNIT_ATOMS, "*" if corner else "")
            a = random_type(rng, size, _UNIT_ATOMS, "+" if corner else "")
            f = homs.random_term(rng, x, a)
            if f is not None and f not in (BANG, QUEST):
                return x, a, f, homs, model

    expect, x, a, f, g = known_pair(rng, draw, (index // 2) % 2 == 0, rng.randint(4, 16))
    return Pair(expect, x, a, f, g)


# oracle: small types over a seeded acyclic graph

def random_graph(rng: random.Random) -> Graph:
    n = rng.randint(2, 4)
    nodes = tuple(f"n{k}" for k in range(n))
    edges = []
    for k in range(n):
        for m in range(k + 1, n):
            for _ in range(rng.choice((0, 1, 1, 2))):
                edges.append((f"e{len(edges)}", nodes[k], nodes[m]))
    return Graph(nodes, tuple(edges))


# buckets of (least, most) members of the left term's conversion class,
# with the type sizes drawn for each, and the bucket of each pair of a cycle
ORACLE_BUCKETS = ((1, 8, (3, 5, 7)), (9, 64, (5, 7)), (65, 512, (7,)))
ORACLE_SCHEDULE = (0, 1, 1, 2)


def oracle_pair(rng: random.Random, index: int) -> Pair:
    """Pair ``index`` of an oracle stream: its own graph, two types of
    size at most 7 over 0, 1 and the graph's nodes, with a generator in
    the typing.  The conversion class of the left term has a size in
    ``ORACLE_BUCKETS[ORACLE_SCHEDULE[index // 2 % 4]]``, which bounds the
    oracle's work per pair and fixes its mix across seeds.  The answer is
    Equal for even ``index``; terms are drawn as in ``known_pair`` with
    1..6 conversion steps."""
    lo, hi, sizes = ORACLE_BUCKETS[ORACLE_SCHEDULE[(index // 2) % len(ORACLE_SCHEDULE)]]
    graphs = []

    def draw():
        while True:
            graph = random_graph(rng)
            atoms = (ONE, ONE, ZERO) + tuple(("G", n) for n in graph.nodes for _ in "ab")
            x = random_type(rng, rng.choice(sizes), atoms)
            a = random_type(rng, rng.choice(sizes), atoms)
            if not (has_gen(x) or has_gen(a)):
                continue
            homs = Homsets(graph)
            f = homs.random_term(rng, x, a)
            if f is not None and lo <= class_size(f, x, a, hi) <= hi:
                graphs.append(graph)
                return x, a, f, homs, SetModel(rng, graph)

    expect, x, a, f, g = known_pair(rng, draw, index % 2 == 0, rng.randint(1, 6))
    return Pair(expect, x, a, f, g, fmt_module(x, a, f, g, graphs[-1]))


# workload -> (pair maker, pairs per cycle of its schedule)
MAKERS = {"balanced": (balanced_pair, 20), "walks": (walks_pair, 16),
          "oracle": (oracle_pair, 8)}


def stream(workload: str, seed: int, tag: str, seen: set):
    """Endless deterministic stream of pairs for ``(seed, tag)``, skipping
    any whose key hash is in ``seen`` (which it extends), so that no pair
    repeats within a run.  A skipped pair keeps its index, so the schedule
    of every workload is kept."""
    rng = random.Random(f"{workload}/{tag}/{seed}")
    make = MAKERS[workload][0]
    index = 0
    while True:
        p = make(rng, index)
        k = hashlib.sha1(p.key()).digest()
        if k not in seen:
            seen.add(k)
            index += 1
            yield p
