"""Benchmark family for the decision procedure.

Balanced types: full binary trees of height ``h`` alternating products
and sums, with ``1`` at the leaves.  The canonical term pairs compared
are the expanded identity against itself and against the "mirror"
automorphism that swaps both branches at every level; with sums present
both are definite maps.  ``equal`` normalises both identities whole, but
the mirror only up to where its normal form first differs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from .annotate import annotate
from .compose import identity
from .decide import Equal, Stats, equal
from .terms import BANG, Cotuple, Inj, Proj, Term, Tuple
from .types import ObjectType, One, Prod, Sum, ONE, metrics


def balanced_type(height: int, product_on_top: bool = True) -> ObjectType:
    if height <= 1:
        return ONE
    child = balanced_type(height - 1, not product_on_top)
    return Prod(child, child) if product_on_top else Sum(child, child)


@lru_cache(maxsize=None)
def mirror(t: ObjectType) -> Term:
    """The branch-swapping automorphism of a symmetric balanced type,
    memoized per interned type as ``identity`` is, so linear in height."""
    match t:
        case One():
            return BANG
        case Prod(left, right):
            return Tuple(Proj(1, mirror(right)), Proj(0, mirror(left)))
        case Sum(left, right):
            return Cotuple(Inj(1, mirror(left)), Inj(0, mirror(right)))
    raise ValueError(f"mirror: not a balanced type: {t!r}")


@dataclass
class BenchRow:
    height: int
    pair: str
    size_dom: int
    size_cod: int
    steps: int
    micros: int
    verdict: str


def run_bench(max_height: int = 10) -> list[BenchRow]:
    rows = []
    for h in range(2, max_height + 1):
        x = balanced_type(h)
        left = annotate(identity(x), x, x)
        for name, rhs in (("id-id", identity(x)), ("id-mirror", mirror(x))):
            right = annotate(rhs, x, x)
            t0 = time.perf_counter()
            stats = Stats()
            verdict = equal(left, right, stats)
            dt = time.perf_counter() - t0
            m = metrics(x)
            rows.append(BenchRow(h, name, m.size, m.size, stats.steps,
                                 int(dt * 1e6),
                                 "Equal" if isinstance(verdict, Equal) else "NotEqual"))
    return rows


def bench_csv(rows: list[BenchRow]) -> str:
    lines = ["height,pair,size_X,size_A,steps,verdict,micros"]
    for r in rows:
        lines.append(f"{r.height},{r.pair},{r.size_dom},{r.size_cod},{r.steps},{r.verdict},"
                     f"{r.micros}")
    return "\n".join(lines) + "\n"
