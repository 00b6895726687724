"""Ranking, tie handling, filtering, and metric arithmetic."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkb.kb import Fact, KnowledgeBase, Vocabulary
from boxkb.model import init_params
from boxkb.evaluation import (evaluate, metrics_from_ranks, rank_fact,
                              rank_from_scores)


def kb_with(vocab, train=(), valid=(), test=()):
    known = frozenset(train) | frozenset(valid) | frozenset(test)
    return KnowledgeBase(vocab, tuple(train), tuple(valid), tuple(test),
                         known, vocab.n_relations)


def small_vocab(n_entities=4, n_relations=1):
    v = Vocabulary()
    for i in range(n_entities):
        v.entity_id(f"e{i}", create=True)
    for i in range(n_relations):
        v.relation_id(f"r{i}", arity=2, create=True)
    return v


# -- rank arithmetic ------------------------------------------------------------

def test_rank_unique_scores():
    scores = np.array([3.0, 1.0, 2.0, 0.5])
    assert rank_from_scores(scores, 3) == 1
    assert rank_from_scores(scores, 1) == 2
    assert rank_from_scores(scores, 0) == 4


def test_rank_mean_tie_policy_rounds_half_up():
    # two-way tie at the top: positions 1 and 2 average to 1.5, rounds to 2
    scores = np.array([1.0, 1.0, 5.0])
    assert rank_from_scores(scores, 0) == 2
    assert rank_from_scores(scores, 1) == 2
    # three-way tie: mean of 1, 2, 3 is exactly 2
    scores = np.array([1.0, 1.0, 1.0, 5.0])
    assert rank_from_scores(scores, 0) == 2
    # five-way tie: mean rank 3
    scores = np.ones(5)
    assert rank_from_scores(scores, 2) == 3


def test_rank_excluded_candidates_are_invisible():
    scores = np.array([0.0, 1.0, 2.0, 3.0])
    include = np.array([False, True, True, True])
    assert rank_from_scores(scores, 1, include) == 1
    # the target is always included, even if its mask bit is off
    include = np.array([False, False, True, True])
    assert rank_from_scores(scores, 1, include) == 1


def test_metrics_anchors():
    m = metrics_from_ranks([1, 2, 4], ks=(1, 3, 10))
    assert m["mr"] == pytest.approx(7.0 / 3.0, abs=1e-12)
    assert m["mrr"] == pytest.approx(0.58333, abs=5e-6)
    assert m["mrr"] == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-12)
    assert m["hits"] == {"1": pytest.approx(1 / 3), "3": pytest.approx(2 / 3),
                         "10": pytest.approx(1.0)}


def test_metrics_empty_ranks():
    assert metrics_from_ranks([], (1, 10)) == {
        "mr": 0.0, "mrr": 0.0, "hits": {"1": 0.0, "10": 0.0}}


@settings(max_examples=150)
@given(st.lists(st.floats(0, 100), min_size=2, max_size=20), st.data())
def test_rank_bounds_property(scores, data):
    s = np.asarray(scores)
    target = data.draw(st.integers(0, len(scores) - 1))
    r = rank_from_scores(s, target)
    assert 1 <= r <= len(scores)


@settings(max_examples=150)
@given(st.lists(st.floats(0, 100), min_size=2, max_size=20), st.data())
def test_rank_monotone_transform_invariance(scores, data):
    s = np.asarray(scores)
    target = data.draw(st.integers(0, len(scores) - 1))
    # scaling by a power of two is exact in floating point, so the strict
    # order (and every tie) is preserved without rounding artifacts -- except
    # that dividing a subnormal can round (5e-324 / 8 == 0), so the second
    # identity is checked whenever the division was exact
    assert rank_from_scores(s, target) == rank_from_scores(4.0 * s, target)
    if np.array_equal(s / 8.0 * 8.0, s):
        assert rank_from_scores(s, target) == rank_from_scores(s / 8.0, target)


# -- fact ranking ---------------------------------------------------------------

def build_rigged_params(vocab, target_scores):
    """Parameters whose tail-position candidate scores we can dictate.

    Entities are placed at distinct points on dimension 0 and the relation
    boxes are degenerate, so score differences reduce to point distances.
    """
    p = init_params(vocab, 1, np.random.default_rng(0), bounded=False)
    p.entity_bump[:] = 0.0
    p.box_a[:] = 0.0
    p.box_b[:] = 0.0
    for e, s in enumerate(target_scores):
        p.entity_base[e, 0] = s
    return p


def test_rank_fact_raw_vs_filtered():
    v = small_vocab(4)
    # tail candidates score by entity index: e0 best, e3 worst
    p = build_rigged_params(v, [0.0, 1.0, 2.0, 3.0])
    target = Fact(0, (0, 2))
    competitor = Fact(0, (0, 1))  # known true, scores better than target
    kb = kb_with(v, train=[target, competitor])
    raw = rank_fact(p, kb, target, position=1, filtered=False)
    filt = rank_fact(p, kb, target, position=1, filtered=True)
    assert raw == 3   # behind e0 and the known-true e1
    assert filt == 2  # e1 filtered out, only e0 remains ahead
    assert filt <= raw


def test_filtered_rank_never_exceeds_raw_randomized():
    v = small_vocab(6)
    rng = np.random.default_rng(1)
    p = init_params(v, 4, rng)
    facts = [Fact(0, (int(a), int(b)))
             for a, b in rng.integers(0, 6, size=(8, 2))]
    facts = list(dict.fromkeys(facts))
    kb = kb_with(v, train=facts)
    for f in facts:
        for pos in (0, 1):
            raw = rank_fact(p, kb, f, pos, filtered=False)
            filt = rank_fact(p, kb, f, pos, filtered=True)
            assert filt <= raw


def test_evaluate_shape_and_consistency():
    v = small_vocab(5, n_relations=2)
    p = init_params(v, 3, np.random.default_rng(2))
    train = [Fact(0, (0, 1)), Fact(1, (2, 3))]
    test = [Fact(0, (1, 2)), Fact(1, (4, 0))]
    kb = kb_with(v, train=train, test=test)
    out = evaluate(p, kb, "test", ks=(1, 3))
    assert out["split"] == "test" and out["n_facts"] == 2
    assert set(out) == {"split", "n_facts", "mr", "mrr", "hits", "raw"}
    assert set(out["raw"]) == {"mr", "mrr", "hits"}
    assert out["mrr"] <= 1.0 and out["raw"]["mrr"] <= 1.0
    # filtered mean rank is never worse than raw
    assert out["mr"] <= out["raw"]["mr"]


def test_evaluate_skips_auxiliary_relations():
    v = small_vocab(4, n_relations=2)
    p = init_params(v, 3, np.random.default_rng(3))
    test = [Fact(0, (0, 1)), Fact(1, (1, 2))]
    kb = KnowledgeBase(v, (), (), tuple(test), frozenset(test), 1)
    out = evaluate(p, kb, "test")
    assert out["n_facts"] == 1  # relation 1 is auxiliary


def test_evaluate_workers_do_not_change_results():
    v = small_vocab(6, n_relations=2)
    p = init_params(v, 4, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    test = list({Fact(int(r), (int(a), int(b)))
                 for r, a, b in zip(rng.integers(0, 2, 10),
                                    rng.integers(0, 6, 10),
                                    rng.integers(0, 6, 10))})
    kb = kb_with(v, test=test)
    assert evaluate(p, kb, "test") == evaluate(p, kb, "test", workers=4)


def test_evaluate_perfect_model_scores_one():
    # e0 sits exactly on the degenerate boxes, every other entity is far
    # away, so r0(e0, e0) ranks first at both corruption positions
    v = small_vocab(3)
    p = build_rigged_params(v, [0.0, 5.0, 10.0])
    kb = kb_with(v, test=[Fact(0, (0, 0))])
    out = evaluate(p, kb, "test")
    assert out["hits"]["1"] == 1.0
    assert out["mrr"] == 1.0 and out["mr"] == 1.0
