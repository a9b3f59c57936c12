"""Checks of the benchmark's own input generators against the program's
exhaustive oracle, on types small enough for it.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import sigmapi as S  # noqa: E402
from sigmapi.oracle import class_of, same_class  # noqa: E402

SMALL_ATOMS = (gen.ONE, gen.ONE, gen.ZERO)


def small_terms(seed: int, count: int, graph: gen.Graph = gen.NO_GRAPH, sizes=(3, 5)):
    """Random (x, a, f) with types of the given sizes and an inhabited homset."""
    rng = random.Random(seed)
    atoms = SMALL_ATOMS + tuple(("G", n) for n in graph.nodes)
    homs = gen.Homsets(graph)
    out = []
    while len(out) < count:
        x = gen.random_type(rng, rng.choice(sizes), atoms)
        a = gen.random_type(rng, rng.choice(sizes), atoms)
        f = homs.random_term(rng, x, a)
        if f is not None:
            out.append((x, a, f))
    return rng, homs, out


def program(t):
    return run.to_term(S, t)


def typing(x, a):
    return run.to_type(S, x), run.to_type(S, a)


def test_printer_round_trips_through_the_parser():
    graph = gen.Graph(("n0", "n1"), (("e0", "n0", "n1"), ("e1", "n0", "n1")))
    _, _, terms = small_terms(1, 200, graph)
    for x, a, f in terms:
        module = S.parse_module(gen.fmt_module(x, a, f, f, graph))
        tt = module.typed("f")
        assert (tt.dom, tt.cod) == typing(x, a)
        assert tt.term is program(f)


def test_random_terms_are_well_typed():
    _, _, terms = small_terms(2, 300, sizes=(3, 5, 7))
    for x, a, f in terms:
        S.infer(program(f), *typing(x, a))


def test_walks_stay_in_the_oracle_class():
    rng, _, terms = small_terms(3, 300)
    moved = 0
    for x, a, f in terms:
        g = gen.convert(rng, f, x, a, rng.randint(1, 6))
        moved += g != f
        S.infer(program(g), *typing(x, a))
        assert same_class(program(f), program(g), *typing(x, a))
    assert moved > 100


def test_set_separated_mutants_are_never_in_the_class():
    graph = gen.Graph(("n0", "n1"), (("e0", "n0", "n1"), ("e1", "n0", "n1")))
    for g in (gen.NO_GRAPH, graph):
        rng, homs, terms = small_terms(4, 500, g, sizes=(3, 5, 7))
        model = gen.SetModel(rng, g)
        separated = 0
        for x, a, f in terms:
            m = gen.mutate(rng, homs, f, x, a)
            if m is None:
                continue
            S.infer(program(m), *typing(x, a), S.make_graph(g.nodes, g.edges))
            if model.separates(rng, f, m, x):
                separated += 1
                assert not same_class(program(f), program(m), *typing(x, a))
        assert separated > 50


def test_class_size_matches_the_oracle():
    _, _, terms = small_terms(5, 150)
    for x, a, f in terms:
        assert gen.class_size(f, x, a, 10**6) == len(class_of(program(f), *typing(x, a)))


def test_set_model_applies_the_identity_as_identity():
    rng = random.Random(6)
    model = gen.SetModel(rng)
    x = gen.balanced_type(6, product_on_top=True)
    ident = gen.level_automorphism(x, [False] * 6)
    assert S.eliminate(S.Id(run.to_type(S, x))) is program(ident)
    for _ in range(20):
        v = model.sample(rng, x)
        assert model.apply(ident, v) == v


def test_workload_pairs_have_their_known_answers():
    gauge = run.Gauge(1.0)
    gauge.read()
    for workload, count in (("oracle", 48), ("walks", 32), ("balanced", 10)):
        for p in gen.stream(workload, 7, "test", set()):
            if count == 0:
                break
            count -= 1
            assert p.expect in (gen.EQUAL, gen.NOT_EQUAL)
            assert p.left != p.right
            if workload == "oracle":
                module = S.parse_module(p.text)
                f, g = module.typed("f"), module.typed("g")
                assert same_class(f.term, g.term, f.dom, f.cod) == (p.expect == gen.EQUAL)
            else:
                out = run.decide(S, workload, run.prepare(S, workload, p), run.Clock(gauge), True)
                assert out.answer == p.expect


def test_streams_are_seeded_and_disjoint():
    def first(workload, seed, tag, seen, n=24):
        it = gen.stream(workload, seed, tag, seen)
        return [next(it) for _ in range(n)]

    for workload in gen.MAKERS:
        a = gen.digest(first(workload, 1, "timed", set()))
        assert a == gen.digest(first(workload, 1, "timed", set()))
        assert a != gen.digest(first(workload, 2, "timed", set()))
        seen: set = set()
        warm = {p.key() for p in first(workload, 1, "warmup", seen)}
        assert not warm & {p.key() for p in first(workload, 1, "timed", seen)}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(60) == 75.0
    assert run.tail_percentile(2500) == 99.0
    assert run.tail_percentile(5) == 50.0
    assert abs(run.percentile([1.0, 2.0, 3.0, 4.0], 50.0) - 2.5) < 1e-9
    assert abs(run.percentile([5.0] * 7, 75.0) - 5.0) < 1e-9


def test_inhabitation_without_generators_matches_the_rules():
    rng = random.Random(8)
    fast = gen.Homsets()
    rules = gen.Homsets(gen.Graph(("unused",), ()))
    for _ in range(500):
        x = gen.random_type(rng, rng.choice((1, 3, 5, 7)), SMALL_ATOMS)
        a = gen.random_type(rng, rng.choice((1, 3, 5, 7)), SMALL_ATOMS)
        assert fast.inhabited(x, a) == rules.inhabited(x, a)
