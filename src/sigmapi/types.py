"""Objects of the free sum/product term calculus.

Types are finite trees built from the initial object ``0``, the terminal
object ``1``, named generator objects, binary sums and binary products.
Nodes are hash-consed: constructing a type twice yields the same object,
so equality is identity and hashing is constant-time.  Treat instances
as immutable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


class GuardExceeded(RuntimeError):
    """An exhaustive computation would exceed its resource guard."""


_INTERN: dict = {}


def _intern(cls, *fields):
    """The constructor of every interned node class: the one node of
    ``cls`` with these fields, made on first use."""
    key = (cls, *fields)
    node = _INTERN.get(key)
    if node is None:
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} field(s), "
                            f"got {len(fields)}")
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        # setdefault is atomic under the GIL: concurrent constructors of
        # the same node converge on a single canonical object
        node = _INTERN.setdefault(key, node)
    return node


class ObjectType:
    __slots__ = ()
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


class One(ObjectType):
    __slots__ = ()
    __match_args__ = ()


class Gen(ObjectType):
    __slots__ = ("name",)
    __match_args__ = ("name",)


class Sum(ObjectType):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def component(self, index: int) -> ObjectType:
        return self.left if index == 0 else self.right


class Prod(ObjectType):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def component(self, index: int) -> ObjectType:
        return self.left if index == 0 else self.right


ZERO = Zero()
ONE = One()


class TypeMetrics(NamedTuple):
    size: int
    height: int


@lru_cache(maxsize=None)
def metrics(t: ObjectType) -> TypeMetrics:
    """Node count and height of a type tree.

    Generators count as leaves (size 1, height 1) so the metrics stay
    defined in the presence of generator objects; the size/height bounds
    on terms are only asserted for the generator-free fragment.
    """
    match t:
        case Zero() | One() | Gen():
            return TypeMetrics(1, 1)
        case Sum(left, right) | Prod(left, right):
            l, r = metrics(left), metrics(right)
            return TypeMetrics(1 + l.size + r.size, 1 + max(l.height, r.height))
    raise TypeError(f"not a type: {t!r}")


@lru_cache(maxsize=None)
def contains_gen(t: ObjectType) -> bool:
    """Whether a generator object occurs in ``t``.  Iterative, so the
    nesting depth is not limited by the interpreter's stack, and each
    distinct node is looked at once."""
    seen = set()
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Gen):
            return True
        if isinstance(t, (Sum, Prod)) and t not in seen:
            seen.add(t)
            todo += (t.left, t.right)
    return False


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
