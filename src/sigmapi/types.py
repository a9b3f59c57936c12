"""The syntax nodes of the free sum/product calculus: terms and types.

Types are finite trees built from the initial object ``0``, the terminal
object ``1``, named generator objects, binary sums and binary products.
Terms are the arrows' proof trees; ``terms`` types and checks them.
Both are hash-consed by one constructor: constructing a node twice
yields the same object, so equality is identity and hashing is
constant-time.  Treat instances as immutable.

A type also carries facts that its interning computes once, from its
children's: ``size`` and ``height`` (a generator counts as a leaf),
``has_gen`` (whether a generator object occurs in it) and its canonical
witnesses, read with ``witness_of``.  No fact is computed by a walk, so
each is a field read at any depth.

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

from typing import NamedTuple, Optional


class GuardExceeded(RuntimeError):
    """An exhaustive computation would exceed its resource guard."""


_INTERN: dict = {}


def _intern(cls, *fields):
    """The constructor of every interned node class: the one node of
    ``cls`` with these fields, made on first use.  A type's facts are
    set by its class's ``_derive`` before the node is published."""
    key = (cls, *fields)
    node = _INTERN.get(key)
    if node is None:
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} field(s), "
                            f"got {len(fields)}")
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        if cls._derive is not None:
            cls._derive(node)
        # setdefault is atomic under the GIL: concurrent constructors of
        # the same node converge on a single canonical object
        node = _INTERN.setdefault(key, node)
    return node


# -- terms ----------------------------------------------------------------------

class Term:
    __slots__ = ()
    __new__ = _intern
    _derive = None

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
UNARY = (Inj, Proj)         # the unary constructor
PAIR = (Tuple, Cotuple)     # the pairing


def by_side(s: int, mine, other) -> tuple:
    """The pair with ``mine`` at index ``s`` and ``other`` at ``1 - s``."""
    return (mine, other) if s == POINT else (other, mine)


# -- types ----------------------------------------------------------------------

def witness_of(s: int, t: ObjectType) -> Optional[Term]:
    """The canonical point ``1 -> t`` (``s = POINT``) or copoint ``t -> 0``
    (``s = COPOINT``) of a type, or None: a field of ``t``.  A generator
    object has neither: it is atomic."""
    return t._copoint if s else t._point


def _leaf(point: Optional[Term], copoint: Optional[Term], has_gen: bool = False):
    """The ``_derive`` of a leaf class, whose facts are constants."""
    def derive(node: ObjectType) -> None:
        node.size = node.height = 1
        node.has_gen = has_gen
        node._point, node._copoint = point, copoint
    return derive


def _binary(u: int):
    """The ``_derive`` of the binary type that side ``u``'s unary
    constructor reaches into (the sum for ``POINT``, the product for
    ``COPOINT``), and that the other side's pairing builds.  Side ``u``'s
    witness is the unary constructor at the first child that has one;
    the other side's pairs both children's, when both have one."""
    o = 1 - u

    def derive(node: ObjectType) -> None:
        l, r = node.left, node.right
        node.size = 1 + l.size + r.size
        node.height = 1 + max(l.height, r.height)
        node.has_gen = l.has_gen or r.has_gen
        lw, rw = witness_of(u, l), witness_of(u, r)
        mine = (UNARY[u](0, lw) if lw is not None
                else UNARY[u](1, rw) if rw is not None else None)
        lw, rw = witness_of(o, l), witness_of(o, r)
        other = PAIR[o](lw, rw) if lw is not None and rw is not None else None
        node._point, node._copoint = by_side(u, mine, other)
    return derive


class ObjectType:
    __slots__ = ("size", "height", "has_gen", "_point", "_copoint")
    __new__ = _intern

    def __add__(self, other: "ObjectType") -> "Sum":
        return Sum(self, other)

    def __mul__(self, other: "ObjectType") -> "Prod":
        return Prod(self, other)

    def __repr__(self) -> str:
        return format_type(self)


class Zero(ObjectType):
    __slots__ = ()
    __match_args__ = ()
    _derive = _leaf(None, QUEST)


class One(ObjectType):
    __slots__ = ()
    __match_args__ = ()
    _derive = _leaf(BANG, None)


class Gen(ObjectType):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    _derive = _leaf(None, None, has_gen=True)


class Sum(ObjectType):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    _derive = _binary(POINT)

    def component(self, index: int) -> ObjectType:
        return self.left if index == 0 else self.right


class Prod(ObjectType):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    _derive = _binary(COPOINT)

    def component(self, index: int) -> ObjectType:
        return self.left if index == 0 else self.right


ZERO = Zero()
ONE = One()

UNIT_OBJ = (ONE, ZERO)      # the object the unit arrow meets
UNARY_TYPE = (Sum, Prod)    # the type the unary constructor reaches into
PAIR_TYPE = (Prod, Sum)     # the type the pairing builds


class TypeMetrics(NamedTuple):
    size: int
    height: int


# -- printing -------------------------------------------------------------------

def format_type(t: ObjectType) -> str:
    """Render a type in the surface syntax: ``*`` binds tighter than ``+``,
    both right-associative, parentheses where needed."""
    return _fmt_sum(t)


def _fmt_sum(t: ObjectType) -> str:
    if isinstance(t, Sum):
        left = _fmt_prod(t.left)
        return f"{left} + {_fmt_sum(t.right)}"
    return _fmt_prod(t)


def _fmt_prod(t: ObjectType) -> str:
    if isinstance(t, Prod):
        return f"{_fmt_atom(t.left)} * {_fmt_prod(t.right)}"
    return _fmt_atom(t)


def _fmt_atom(t: ObjectType) -> str:
    match t:
        case Zero():
            return "0"
        case One():
            return "1"
        case Gen(name):
            return name
        case _:
            return f"({_fmt_sum(t)})"


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


def iter_types(max_size: int, atoms: tuple[ObjectType, ...] = (ZERO, ONE)):
    """Yield every type over the given atoms with size <= max_size.

    Deterministic order: by size, then structurally.  Used by the test
    sweeps; sizes of sum/product trees over unit atoms are always odd.
    """
    by_size: dict[int, list[ObjectType]] = {1: list(atoms)}
    yield from by_size[1]
    for size in range(2, max_size + 1):
        acc: list[ObjectType] = []
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            for left in by_size.get(left_size, ()):
                for right in by_size.get(right_size, ()):
                    acc.append(Sum(left, right))
                    acc.append(Prod(left, right))
        by_size[size] = acc
        yield from acc
