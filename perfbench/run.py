#!/usr/bin/env python3
"""Layered benchmark of the sigmapi decision pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload balanced --seed 1 --seconds 10 --trace 0

One process, one thread, closed loop: the next pair is sent when the
previous verdict returns.  Inputs come from ``gen.py`` (seeded, built
without the program); every verdict is checked against the answer known
for its pair.  A pair's time is the sum of its calls into the program,
each scaled to a nominal machine speed by ``Gauge``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` traces
every other schedule cycle (a span around each call into a layer) and
reports per-layer self times, exact counts over a fixed window of traced
cycles, and the tracing overhead against the untraced cycles of the same
run.  Human-readable lines go to stdout; the last line is one JSON
object; a fuller record (with the spans of a traced run) is written to
``perfbench/results/``.  Exit code 2 when the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

# Per workload: warm-up pairs, and the number of schedule cycles in the
# count window (the first cycles of an untraced run, the first traced
# cycles of a traced one).
WARMUP = {"balanced": 5, "walks": 128, "oracle": 128}
WINDOW = {"balanced": 1, "walks": 25, "oracle": 50}
SETUPS = 5
GAUGE_EVERY_S = 0.05
WALL_LIMIT_S = 140.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)

END_TO_END = ("pairs_per_s", "verdict_p50_ms", "verdict_tail_ms", "setup_s", "peak_rss_mb")
UNITS = {
    "pairs_per_s": "1/s", "verdict_p50_ms": "ms", "verdict_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}
EQUAL_KINDS = ("singleton", "syntactic", "disconnect", "shared_point",
               "shared_copoint", "bouncer", "other")
NOTEQUAL_KINDS = ("corner-mismatch", "point-mismatch", "copoint-mismatch",
                  "lift-failure", "other")


def per_layer_units() -> dict:
    units = {
        "syntax.parse_s": "s", "syntax.kb_per_s": "kB/s", "terms.infer_s": "s",
        "compose.eliminate_s": "s", "compose.out_nodes": "count",
        "annotate.s": "s", "annotate.visits": "count", "annotate.dag_nodes": "count",
        "decide.s": "s", "decide.steps": "count", "decide.calls": "count",
        "decide.visits": "count", "decide.bound_ratio_max": "1",
        "oracle.same_class_equal_s": "s", "oracle.same_class_notequal_s": "s",
        "oracle.guard_exceeded": "count",
        "trace.overhead_pct": "%", "trace.attributed_pct": "%",
    }
    for k in EQUAL_KINDS:
        units[f"decide.verdict.equal.{k}"] = "count"
    for k in NOTEQUAL_KINDS:
        units[f"decide.verdict.notequal.{k}"] = "count"
    units["decide.verdict.requires_oracle"] = "count"
    return units


# -- the program ---------------------------------------------------------------

def load_program():
    """Import ``sigmapi`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "sigmapi" or m.startswith("sigmapi.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("sigmapi")


def to_type(S, t):
    k = t[0]
    if k == "0":
        return S.ZERO
    if k == "1":
        return S.ONE
    if k == "G":
        return S.Gen(t[1])
    return (S.Sum if k == "+" else S.Prod)(to_type(S, t[1]), to_type(S, t[2]))


def to_term(S, t):
    k = t[0]
    if k == "!":
        return S.BANG
    if k == "?":
        return S.QUEST
    if k == "p":
        return S.Proj(t[1], to_term(S, t[2]))
    if k == "s":
        return S.Inj(t[1], to_term(S, t[2]))
    if k == "t":
        return S.Tuple(to_term(S, t[1]), to_term(S, t[2]))
    if k == "c":
        return S.Cotuple(to_term(S, t[1]), to_term(S, t[2]))
    return S.GenArrow(t[1], t[2])


class _Ref:
    __slots__ = ("kind", "left", "right")


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


_REF_LEX = re.compile(r"(?P<ws>\s+)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[01!?<>{}(),;:+*@=.])")
_REF_TEXT = "term f : (1 * 1 + 1) * 1 -> 1 + 1 = <p0 {s0 !, s1 !}, p1 !> ;\n" * 12


def reference_work(n: int = 200, depth: int = 5) -> int:
    """A fixed piece of interpreter work shaped like the program's (regex
    lexing into small objects, hash-consed slotted nodes, dict lookups on
    tuple keys, recursion) that uses nothing of the program; about 1.2 ms
    on the host it was tuned on."""
    tokens = [_Token(m.lastgroup, m.group(), m.start())
              for m in _REF_LEX.finditer(_REF_TEXT) if m.lastgroup != "ws"]
    table: dict = {}

    def node(kind, left, right):
        key = (kind, left, right)
        got = table.get(key)
        if got is None:
            got = _Ref()
            got.kind, got.left, got.right = kind, left, right
            table[key] = got
        return got

    def height(t, d):
        if t.left is None or d == 0:
            return 1
        return 1 + max(height(t.left, d - 1), height(t.right, d - 1))

    nodes = [node(k, None, None) for k in range(8)]
    for k in range(n):
        nodes.append(node(k % 2, nodes[(k * 7) % len(nodes)], nodes[(k * 13 + 5) % len(nodes)]))
    return len(tokens) + sum(height(t, depth) for t in nodes)


class Gauge:
    """Reads the machine's current speed by timing ``reference_work``.

    The hosts this benchmark runs on are shared, and the speed of a pure-
    Python loop drifts by tens of percent within seconds and over minutes.
    A duration taken between two readings is scaled by ``NOMINAL_S`` over
    the mean of those readings, which expresses it at a fixed nominal
    speed.  The reference work does not touch the program, so a change to
    the program moves scaled times as much as raw ones."""

    NOMINAL_S = 0.0012

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.marks: list[tuple[float, float]] = []  # (when, seconds taken)

    def read(self) -> int:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.marks.append((t1, t1 - t0))
        return len(self.marks) - 1

    def mark(self) -> int:
        """A fresh reading when the last is older than ``every_s``, else
        the last one."""
        if time.perf_counter() - self.marks[-1][0] >= self.every_s:
            return self.read()
        return len(self.marks) - 1

    def scale(self, mark: int) -> float:
        """Factor for a duration taken after reading ``mark`` and before
        the next reading."""
        ref = (self.marks[mark][1] + self.marks[mark + 1][1]) / 2
        return self.NOMINAL_S / ref

    def scaled(self, parts) -> float:
        return sum(dt * self.scale(m) for dt, m in parts)


class Clock:
    """Times each call into the program as a part ``(seconds, mark)``;
    the gauge is read between calls, outside the parts."""

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.parts: list = []

    def start(self, pair_id: int):
        self.parts = []

    def finish(self):
        pass

    def call(self, name, fn, *args):
        mark = self.gauge.mark()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.parts.append((time.perf_counter() - t0, mark))


class Tracer(Clock):
    """A clock that also records spans ``(name, start, end, parent, pair,
    mark)``, kept in memory.  The parent is an index into ``spans``; a
    pair's root span has none.  Recording a span falls inside the part."""

    def __init__(self, gauge: Gauge):
        super().__init__(gauge)
        self.spans: list = []

    def start(self, pair_id: int):
        self.parts = []
        self.pair, self.root = pair_id, len(self.spans)
        self.spans.append(None)
        self._t0 = time.perf_counter()

    def finish(self):
        self.spans[self.root] = ("pair", self._t0, time.perf_counter(), None, self.pair, None)

    def call(self, name, fn, *args):
        mark = self.gauge.mark()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, t0, time.perf_counter(), self.root, self.pair, mark))
            self.parts.append((time.perf_counter() - t0, mark))


class Outcome:
    """What one pair produced; the counters are only set when counted."""

    __slots__ = ("answer", "kind", "terms", "stats", "visits", "text_bytes")

    def __init__(self):
        self.answer = self.kind = self.terms = self.stats = self.visits = None
        self.text_bytes = 0


def prepare(S, workload: str, pair):
    """The input the program receives: source text, or program terms built
    with the public constructors (outside the timed region)."""
    if workload == "walks":
        return (to_type(S, pair.dom), to_type(S, pair.cod),
                to_term(S, pair.left), to_term(S, pair.right))
    return pair.text


def decide(S, workload: str, query, tr: Clock, counted: bool) -> Outcome:
    """One pair from the workload's entry point to the verdict."""
    out = Outcome()
    if workload == "walks":
        dom, cod, ft, gt = query
    else:
        module = tr.call("syntax.parse_module", S.parse_module, query)
        f = tr.call("terms.typed", module.typed, "f")
        g = tr.call("terms.typed", module.typed, "g")
        ft = tr.call("compose.eliminate", S.eliminate, f.term)
        gt = tr.call("compose.eliminate", S.eliminate, g.term)
        dom, cod = f.dom, f.cod
        out.text_bytes = len(query)
    counter = S.VisitCounter() if counted else None
    fa = tr.call("annotate.annotate", S.annotate, ft, dom, cod, counter)
    ga = tr.call("annotate.annotate", S.annotate, gt, dom, cod, counter)
    stats = S.Stats()
    verdict = tr.call("decide.equal", S.equal, fa, ga, stats)
    if isinstance(verdict, S.RequiresOracle):
        out.kind = "requires_oracle"
        same = tr.call("oracle.same_class", S.same_class, ft, gt, dom, cod)
        out.answer = gen.EQUAL if same else gen.NOT_EQUAL
    elif isinstance(verdict, S.Equal):
        out.answer, out.kind = gen.EQUAL, "equal." + witness_kind(verdict.witness)
    else:
        out.answer, out.kind = gen.NOT_EQUAL, "notequal." + reason_kind(verdict.reason)
    out.terms, out.stats = (ft, gt), stats
    out.visits = counter.visits if counter is not None else None
    return out


WITNESS_KINDS = {"NoneType": "singleton", "SyntacticRecursion": "syntactic",
                 "Disconnect": "disconnect", "SharedPoint": "shared_point",
                 "SharedCopoint": "shared_copoint", "Bouncer": "bouncer"}


def witness_kind(w) -> str:
    return WITNESS_KINDS.get(type(w).__name__, "other")


def reason_kind(reason) -> str:
    tail = str(reason).rsplit(": ", 1)[-1]
    return tail if tail in NOTEQUAL_KINDS else "other"


def dag_count(term) -> tuple[int, int]:
    """(tree nodes, distinct interned nodes) of a term."""
    size: dict = {}
    stack = [term]
    while stack:
        t = stack[-1]
        if id(t) in size:
            stack.pop()
            continue
        kids = [getattr(t, a) for a in ("body", "left", "right") if hasattr(t, a)]
        todo = [k for k in kids if id(k) not in size]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        size[id(t)] = 1 + sum(size[id(k)] for k in kids)
    return size[id(term)], len(size)


# -- runs ------------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.cycle = gen.MAKERS[workload][1]
        self.seen: set = set()
        self.attempted = self.failed = self.unchecked = self.warmup_failed = 0
        self.failures: list[str] = []
        self.guard_exceeded = 0  # in the count window of a traced run

    def check(self, pair, out: Outcome | None, error: Exception | None, where: str) -> bool:
        """Whether the verdict matches the known answer; a mismatch or an
        exception counts as a failure of the timed pair or the warm-up."""
        if error is None and (pair.expect == gen.UNCHECKED or out.answer == pair.expect):
            return True
        if where == "warm-up":
            self.warmup_failed += 1
        else:
            self.failed += 1
        if len(self.failures) < 10:
            got = f"{type(error).__name__}: {str(error)[:200]}" if error else out.answer
            self.failures.append(f"{where}: expected {pair.expect}, got {got}")
        return False

    def one(self, S, pair, clock: Clock, pid: int, counted: bool):
        """Decide one pair; returns its outcome (None when it raised), the
        exception, and the parts the clock timed."""
        query = prepare(S, self.workload, pair)
        out, error = None, None
        clock.start(pid)
        try:
            out = decide(S, self.workload, query, clock, counted)
        except Exception as exc:  # a failed pair is counted, not fatal
            error = exc
        clock.finish()
        return out, error, clock.parts

    def setup(self, gauge: Gauge) -> tuple[float, list, str]:
        """Import the program and decide the warm-up pairs, SETUPS times
        afresh; returns the median scaled set-up time, the raw samples and
        the digest of the warm-up inputs."""
        warm = list(itertools.islice(gen.stream(self.workload, self.seed, "warmup", self.seen),
                                     WARMUP[self.workload]))
        samples, scaled = [], []
        for _ in range(SETUPS):
            self.S = None
            gc.collect()
            mark = gauge.read()
            t0 = time.perf_counter()
            S = load_program()
            parts = [(time.perf_counter() - t0, mark)]
            gauge.read()
            clock = Clock(gauge)
            for k, p in enumerate(warm):
                out, error, more = self.one(S, p, clock, -1 - k, False)
                parts += more
                self.check(p, out, error, "warm-up")
            gauge.read()
            samples.append(sum(dt for dt, _ in parts))
            scaled.append(gauge.scaled(parts))
            self.S = S
        return statistics.median(scaled), samples, gen.digest(warm)

    def measure(self) -> dict:
        t_start = time.perf_counter()
        gauge = Gauge(GAUGE_EVERY_S)
        setup_s, setup_samples, warm_digest = self.setup(gauge)
        S = self.S
        gauge.read()
        pairs = gen.stream(self.workload, self.seed, "timed", self.seen)
        window, first = WINDOW[self.workload], gen.Digest()
        clock = Clock(gauge)
        tracer = Tracer(gauge) if self.trace else None
        plain, traced, outcomes = [], [], []  # parts per pair; traced outcomes
        rss_mb = None
        cycles = traced_cycles = 0
        busy = 0.0
        while True:
            trace_this = self.trace and cycles % 2 == 0
            counted = trace_this and traced_cycles < window
            for _ in range(self.cycle):
                p = next(pairs)
                if cycles < window:
                    first.add(p)
                pid = self.attempted
                self.attempted += 1
                # Take what exists out of the collector's generations, so
                # that a collection inside the pair scans only what recent
                # pairs allocated.  Otherwise a full collection of the whole
                # heap, triggered partly by the benchmark's own allocations,
                # lands in a random pair.
                gc.freeze()
                out, error, parts = self.one(S, p, tracer if trace_this else clock, pid, counted)
                (traced if trace_this else plain).append((pid, parts))
                busy += sum(dt for dt, _ in parts)
                if trace_this and out is not None:
                    outcomes.append((pid, p, out, counted))
                self.guard_exceeded += counted and isinstance(error, S.GuardExceeded)
                if self.check(p, out, error, f"pair {pid}") and p.expect == gen.UNCHECKED:
                    self.unchecked += 1
            cycles += 1
            traced_cycles += trace_this
            if cycles == window:
                rss_mb = _peak_rss_mb()
            done = busy >= self.seconds and cycles >= (2 * max(window, 2) if self.trace else window)
            if done or time.perf_counter() - t_start > WALL_LIMIT_S:
                break
        gauge.read()
        raw = [sum(dt for dt, _ in parts) for _, parts in plain]
        plain_s = [gauge.scaled(parts) for _, parts in plain]
        res = {
            "workload": self.workload, "seed": self.seed, "trace": int(self.trace),
            "attempted": self.attempted, "failed": self.failed, "unchecked": self.unchecked,
            "warmup_failed": self.warmup_failed,
            "failed_share": self.failed / self.attempted, "failures": self.failures,
            "inputs_digest": first.hex(), "window_pairs": first.count,
            "warmup_digest": warm_digest, "cycles": cycles,
            "setup_samples_s": setup_samples, "wall_s": time.perf_counter() - t_start,
            "pairs_timed": len(plain),
            "durations_ms": [round(t * 1e3, 4) for t in raw],
            "scaled_ms": [round(t * 1e3, 4) for t in plain_s],
            "gauge_s": [round(g, 6) for _, g in gauge.marks],
        }
        res["end_to_end"] = end_to_end(plain_s, setup_s, rss_mb)
        res["tail_percentile"] = res["end_to_end"].pop("tail_percentile")
        res["end_to_end_raw"] = end_to_end(raw, statistics.median(setup_samples), rss_mb)
        res["end_to_end_raw"].pop("tail_percentile")
        if self.trace:
            def times(entries):
                return {pid: gauge.scaled(parts) for pid, parts in entries}

            res["per_layer"] = per_layer(tracer.spans, gauge, outcomes, times(plain),
                                         times(traced), self.cycle)
            res["per_layer"]["oracle.guard_exceeded"] = self.guard_exceeded
            res["spans"] = tracer.spans
        return res


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples above it."""
    ok = [q for q in TAIL_LADDER if n * (1 - q / 100.0) >= 10]
    return ok[-1] if ok else TAIL_LADDER[0]


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified
    Lentz method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            return h
    raise ArithmeticError("incomplete beta: no convergence")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile: a weighted mean
    of all order statistics, so that it does not jump between the size
    classes of a schedule when a few pairs trade places around the rank."""
    v = sorted(values)
    n, p = len(v), q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    # the weights outside ten standard deviations of the rank are below 1e-20
    sd = math.sqrt(p * (1.0 - p) / (n + 2))
    lo, hi = max(0, int((p - 10 * sd) * n) - 1), min(n, int((p + 10 * sd) * n) + 2)
    total, prev = 0.0, betainc(a, b, lo / n)
    for i in range(lo, hi):
        cur = betainc(a, b, (i + 1) / n)
        total += (cur - prev) * v[i]
        prev = cur
    return total


def end_to_end(durations, setup_s, rss_mb) -> dict:
    q = tail_percentile(len(durations))
    return {
        "pairs_per_s": len(durations) / sum(durations),
        "verdict_p50_ms": percentile(durations, 50.0) * 1e3,
        "verdict_tail_ms": percentile(durations, q) * 1e3,
        "tail_percentile": q,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb if rss_mb is not None else _peak_rss_mb(),
    }


def per_layer(spans, gauge: Gauge, traced, plain_s: dict, traced_s: dict,
              cycle: int) -> dict:
    """Per-layer self times (mean per traced pair, scaled), exact counts
    over the traced pairs of the count window, and the tracing overhead;
    ``plain_s`` and ``traced_s`` map pair ids to scaled pair times."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    self_time: dict = {}
    pair_layers: dict = {}  # pair id -> its layers' summed self time
    for k, (name, t0, t1, parent, pid, mark) in enumerate(spans):
        if mark is not None:  # a layer's span; the pair's root has none
            own = ((t1 - t0) - child_time[k]) * gauge.scale(mark)
            self_time[name] = self_time.get(name, 0.0) + own
            pair_layers[pid] = pair_layers.get(pid, 0.0) + own
    n = len(traced_s)
    mean = {name: total / n for name, total in self_time.items()}
    # same_class split by answer, from the spans of each pair
    answer_of = {pid: out.answer for pid, _, out, _ in traced}
    same = {gen.EQUAL: [0.0, 0], gen.NOT_EQUAL: [0.0, 0]}
    text_bytes = sum(out.text_bytes for _, _, out, _ in traced)
    for name, t0, t1, _, pid, mark in spans:
        if name == "oracle.same_class" and pid in answer_of:
            acc = same[answer_of[pid]]
            acc[0] += (t1 - t0) * gauge.scale(mark)
            acc[1] += 1
    m = {u: 0 for u in per_layer_units()}
    m.update({
        "syntax.parse_s": mean.get("syntax.parse_module", 0.0),
        "syntax.kb_per_s": (text_bytes / 1e3 / self_time["syntax.parse_module"]
                            if self_time.get("syntax.parse_module") else 0.0),
        "terms.infer_s": mean.get("terms.typed", 0.0),
        "compose.eliminate_s": mean.get("compose.eliminate", 0.0),
        "annotate.s": mean.get("annotate.annotate", 0.0),
        "decide.s": mean.get("decide.equal", 0.0),
        "oracle.same_class_equal_s": same[gen.EQUAL][0] / max(same[gen.EQUAL][1], 1),
        "oracle.same_class_notequal_s": same[gen.NOT_EQUAL][0] / max(same[gen.NOT_EQUAL][1], 1),
        "decide.bound_ratio_max": 0.0,
    })
    for _, p, out, counted in traced:
        if not counted:
            continue
        m["decide.verdict." + out.kind] += 1
        m["annotate.visits"] += out.visits
        st = out.stats
        m["decide.steps"] += st.steps
        m["decide.calls"] += st.calls
        m["decide.visits"] += st.counter.visits
        hx, ha = gen.type_height(p.dom), gen.type_height(p.cod)
        bound = (hx + ha) * gen.type_size(p.dom) * gen.type_size(p.cod)
        m["decide.bound_ratio_max"] = max(m["decide.bound_ratio_max"], st.steps / bound)
        for t in out.terms:
            tree, dag = dag_count(t)
            m["annotate.dag_nodes"] += dag
            if p.text:
                m["compose.out_nodes"] += tree
    m["trace.overhead_pct"] = (matched_ratio(traced_s, plain_s, cycle) - 1) * 100
    m["trace.attributed_pct"] = matched_ratio(pair_layers, plain_s, cycle) * 100
    return m


def matched_ratio(a: dict, b: dict, cycle: int) -> float:
    """How many times larger the times in ``a`` are than those in ``b``
    (both map pair ids to seconds).  Traced and untraced cycles hold
    different pairs, and a few heavy pairs move a plain mean by more than
    tracing costs; so the pairs are matched by their place in the schedule
    cycle, which fixes their size and answer, and the geometric mean of
    the per-place median ratios is returned."""
    def by_place(times):
        out: dict = {}
        for pid, t in times.items():
            out.setdefault(pid % cycle, []).append(t)
        return out

    pa, pb = by_place(a), by_place(b)
    logs = [math.log(statistics.median(pa[k]) / statistics.median(pb[k]))
            for k in pa.keys() & pb.keys()]
    return math.exp(sum(logs) / len(logs))


def report(res: dict, trace: bool) -> dict:
    units = per_layer_units() if trace else UNITS
    values = res["per_layer"] if trace else res["end_to_end"]
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}")
    print(f"inputs digest {res['inputs_digest']} (first {res['window_pairs']} pairs)  "
          f"warm-up digest {res['warmup_digest']}")
    print(f"attempted {res['attempted']}  failed {res['failed']}  "
          f"failed_share {res['failed_share']:.6g} 1  unchecked {res['unchecked']}  "
          f"warm-up failed {res['warmup_failed']}")
    for line in res["failures"]:
        print("  failure:", line)
    print(f"verdict_tail_ms is p{res['tail_percentile']:g} of {res['pairs_timed']} "
          f"{'untraced ' if trace else ''}pairs")
    for name in END_TO_END:
        print(f"  {name} = {res['end_to_end'][name]:.6g} {UNITS[name]}")
    if trace:
        for name in sorted(units):
            print(f"  {name} = {values[name]:.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in (END_TO_END if not trace else units)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sigmapi" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'sigmapi'}", file=sys.stderr)
        return 2
    res = Run(args.workload, args.seed, args.seconds, bool(args.trace)).measure()
    metrics = report(res, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(res))
    print(f"record written to {out.relative_to(ROOT)}")
    correct = res["failed"] == 0 and res["warmup_failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
