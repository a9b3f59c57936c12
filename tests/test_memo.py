"""The per-call memos of ``infer``, ``eliminate``, ``annotate``,
``normal_form`` (shared by both terms of ``equal``) and the oracle's class
closure: no extra stack frame per term level, and counts that still
measure the term tree."""

from sigmapi import (
    BANG,
    ONE,
    POINT,
    Equal,
    Inj,
    NotEqual,
    Stats,
    VisitCounter,
    annotate,
    class_of,
    eliminate,
    equal,
    infer,
    normal_form,
    same_class,
    term_metrics,
)
from sigmapi.bench import balanced_type, run_bench
from sigmapi.compose import identity
from sigmapi.terms import Cut, Id
from sigmapi.types import Sum

DEPTH = 950


def _nested(bottom):
    """``s1 s1 ... s1 bottom : 1 -> 1+(1+(...+(1)))``, ``DEPTH`` injections."""
    t, cod = bottom, ONE
    for _ in range(DEPTH):
        t, cod = Inj(1, t), Sum(ONE, cod)
    return t, cod


def test_memos_add_no_stack_frames():
    raw, cod = _nested(Cut(Id(ONE), BANG))
    t, _ = _nested(BANG)
    assert infer(raw, ONE, cod).term is raw
    assert eliminate(raw) is t
    a = annotate(t, ONE, cod)
    assert a.ann[POINT] is not None
    assert normal_form(a) is t
    assert isinstance(equal(a, annotate(t, ONE, cod)), Equal)
    g = _nested(Inj(0, BANG))[0].body  # t with its innermost s1 ! as s0 !
    # the reason is raised at the innermost level and unwinds every frame
    assert equal(a, annotate(g, ONE, cod)) == NotEqual("corner-mismatch")
    # the closure's neighbour memo looks up inline, in ``neighbours``'s own
    # frame; the NotEqual pair closes the whole class of ``t``
    assert same_class(t, t, ONE, cod)
    assert not same_class(t, g, ONE, cod)
    assert class_of(t, ONE, cod).members == {t}


# Stats.steps of run_bench(12), the same as with the normal form's memo
# reads removed: the counts keep their tree-size meaning.
ID_ID_STEPS = {2: 10, 3: 72, 4: 64, 5: 364, 6: 332, 7: 1532, 8: 1404, 9: 6204,
               10: 5692, 11: 24892, 12: 22844}
ID_MIRROR_STEPS = {2: 10, 3: 48, 4: 44, 5: 194, 6: 178, 7: 778, 8: 714, 9: 3114,
                   10: 2858, 11: 12458, 12: 11434}


def test_counts_keep_tree_size_semantics():
    x = balanced_type(12)
    t = identity(x)
    c = VisitCounter()
    annotate(t, x, x, c)
    assert c.visits == term_metrics(t).size == 6141

    rows = run_bench(12)
    assert {r.height: r.steps for r in rows if r.pair == "id-id"} == ID_ID_STEPS
    assert {r.height: r.steps for r in rows if r.pair == "id-mirror"} == ID_MIRROR_STEPS


def test_bench_is_linear_in_height():
    # ``mirror`` is memoized per interned type, as ``identity`` is; without
    # that, each level of height multiplied its cost by about 1.8
    rows = run_bench(40)
    assert rows[-1].height == 40
    low = [r for r in rows if r.height <= 12]
    assert {r.height: r.steps for r in low if r.pair == "id-id"} == ID_ID_STEPS
    assert {r.height: r.steps for r in low if r.pair == "id-mirror"} == ID_MIRROR_STEPS


def test_stats_report_dag_work_and_drop_the_memo():
    x = balanced_type(12)
    f = annotate(identity(x), x, x)
    stats = Stats()
    assert isinstance(equal(f, f, stats), Equal)
    assert stats.steps == ID_ID_STEPS[12]
    dag_calls = stats.dag_calls
    assert 0 < dag_calls < stats.calls
    assert stats.memo is None
    # a second decision adds to the counts, from a fresh memo
    equal(f, f, stats)
    assert (stats.steps, stats.dag_calls) == (2 * ID_ID_STEPS[12], 2 * dag_calls)
