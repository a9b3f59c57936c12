"""The per-call memos of ``infer``, ``eliminate``, ``annotate``,
``equal`` and the oracle's class closure: no extra stack frame per term
level, and counts that still measure the term tree."""

from sigmapi import (
    BANG,
    ONE,
    Equal,
    Inj,
    Stats,
    VisitCounter,
    annotate,
    class_of,
    eliminate,
    equal,
    infer,
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
    assert a.ann.pointed
    assert isinstance(equal(a, annotate(t, ONE, cod)), Equal)
    # the closure's neighbour memo looks up inline, in ``neighbours``'s own
    # frame; the NotEqual pair closes the whole class of ``t``
    assert same_class(t, t, ONE, cod)
    g = _nested(Inj(0, BANG))[0].body  # t with its innermost s1 ! as s0 !
    assert not same_class(t, g, ONE, cod)
    assert class_of(t, ONE, cod).members == {t}


# Stats.steps of run_bench(12), the same as with equal's memo lookup
# removed: the counts keep their tree-size meaning.
ID_ID_STEPS = {2: 7, 3: 59, 4: 55, 5: 359, 6: 343, 7: 1559, 8: 1495, 9: 6359,
               10: 6103, 11: 25559, 12: 24535}


def test_counts_keep_tree_size_semantics():
    x = balanced_type(12)
    t = identity(x)
    c = VisitCounter()
    annotate(t, x, x, c)
    assert c.visits == term_metrics(t).size == 6141

    rows = run_bench(12)
    assert {r.height: r.steps for r in rows if r.pair == "id-id"} == ID_ID_STEPS
    assert {r.height: r.steps for r in rows if r.pair == "id-mirror"} == (
        {2: 7} | {h: 21 for h in range(3, 13)})


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
