"""Ranking, tie handling, filtering, and metric arithmetic."""
import collections
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkb import evaluation, model
from boxkb.kb import (Fact, KnowledgeBase, Vocabulary, augment_inverses, fact_index,
                      known_rows)
from boxkb.model import _box_tensors, init_params, score_batch, score_point_group
from boxkb.evaluation import (_candidate_scores, _group_ranks, _Screen, evaluate,
                              metrics_from_ranks, rank_fact, rank_from_scores,
                              ranked_facts)
from boxkb.rules import inject
from boxkb.synth import hierarchy_ontology_kb
from boxkb.training import OptimizerState, TrainConfig, train_epoch


def kb_with(vocab, train=(), valid=(), test=()):
    return KnowledgeBase(vocab, tuple(train), tuple(valid), tuple(test),
                         vocab.n_relations)


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


def rank_with_a_mask(scores, target, include=None):
    """``rank_from_scores`` as it was when it built a fresh |E| mask."""
    s = np.asarray(scores, dtype=np.float64)
    mask = np.ones(s.shape[0], dtype=bool) if include is None else include.copy()
    mask[target] = True
    t = s[target]
    better = int(((s < t) & mask).sum())
    ties = int(((s == t) & mask).sum()) - 1  # other candidates tied with target
    return 1 + better + (ties + 1) // 2


def test_rank_counts_without_a_mask_as_with_one():
    # tie-heavy vectors: a few distinct values, NaN among them, and masks
    # that drop the target itself or keep it
    rng = np.random.default_rng(0)
    seen_nan_target = seen_dropped_target = 0
    for _ in range(2000):
        n = int(rng.integers(1, 12))
        scores = rng.choice([0.0, 0.5, 1.0, np.nan, -np.inf, np.inf], n,
                            p=[0.3, 0.2, 0.2, 0.15, 0.05, 0.1])
        target = int(rng.integers(0, n))
        include = rng.random(n) < 0.6
        seen_nan_target += bool(np.isnan(scores[target]))
        seen_dropped_target += not include[target]
        rank = rank_from_scores(scores, target)
        assert type(rank) is int and rank == rank_with_a_mask(scores, target)
        assert (rank_from_scores(scores, target, include)
                == rank_with_a_mask(scores, target, include)), (scores, target, include)
    assert seen_nan_target > 100 and seen_dropped_target > 500


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


def reference_position_ranks(params, kb, fact, position):
    """(raw, filtered) rank with the filter built as a per-candidate ``Fact``
    membership loop over ``kb.known``, independent of ``kb.fact_index``."""
    n_e = params.vocab.n_entities
    ents = np.tile(np.array(fact.entities, dtype=np.int64), (n_e, 1))
    ents[:, position] = np.arange(n_e)
    scores = score_batch(params, fact.relation, ents)
    target = fact.entities[position]
    include = np.ones(n_e, dtype=bool)
    cand = list(fact.entities)
    for e in range(n_e):
        if e == target:
            continue
        cand[position] = e
        if Fact(fact.relation, tuple(cand)) in kb.known:
            include[e] = False
    return (rank_from_scores(scores, target, None),
            rank_from_scores(scores, target, include))


def random_facts(rng, vocab, per_relation):
    return [Fact(rel, tuple(int(x) for x in rng.integers(0, vocab.n_entities,
                                                       size=vocab.arity(rel))))
            for rel in range(vocab.n_relations) for _ in range(per_relation)]


def dense_kb(rng, n_entities, arities, empty_relation):
    """Facts of every relation but ``empty_relation``, dense enough that most
    candidate sets hold several known facts; every fourth is a test fact."""
    v = Vocabulary()
    for i in range(n_entities):
        v.entity_id(f"e{i}", create=True)
    for i, a in enumerate(arities):
        v.relation_id(f"r{i}", arity=a, create=True)
    facts = set()
    for fact in random_facts(rng, v, 8):
        if fact.relation == empty_relation:
            continue
        # the fact and one substitution per position, so every position of
        # it has a known competitor
        facts.add(fact)
        for p in range(fact.arity):
            sub = list(fact.entities)
            sub[p] = int(rng.integers(0, n_entities))
            facts.add(Fact(fact.relation, tuple(sub)))
    facts = sorted(facts)
    test = facts[::4]
    return kb_with(v, train=[f for f in facts if f not in test], test=test)


def tied_params(vocab, seed):
    """Random parameters rounded coarsely, so that candidates tie."""
    p = init_params(vocab, 2, np.random.default_rng(seed))
    for arr in (p.entity_base, p.entity_bump):
        arr[:] = np.round(arr * 2.0) / 2.0
    return p


@pytest.mark.parametrize("case", ["arity-1-2-4", "inverse-augmented"])
def test_filtered_ranking_matches_reference_fact_loop(case):
    rng = np.random.default_rng(11)
    if case == "arity-1-2-4":
        kb = dense_kb(rng, 6, (1, 2, 4, 2), empty_relation=3)
        empty = {3}
    else:
        kb = augment_inverses(dense_kb(rng, 6, (2, 2), empty_relation=1))
        empty = {1, 3}  # relation 1 and its inverse
    params = tied_params(kb.vocab, 3)
    index = fact_index(kb.known)
    screen = _Screen(params, range(kb.vocab.n_relations))
    assert empty.isdisjoint(index)
    # targets: every known fact, inverse helpers included, and facts of
    # every relation that are not known
    unknown = [f for f in random_facts(rng, kb.vocab, 4) if f not in kb.known]
    assert empty <= {f.relation for f in unknown}
    filtered_below_raw = 0
    for fact in sorted(kb.known) + unknown:
        ranks = [_group_ranks(params, index, fact.entities, p,
                              {fact.relation: [fact.entities[p]]}, screen)[0][0]
                 for p in range(fact.arity)]
        for p in range(fact.arity):
            expect = reference_position_ranks(params, kb, fact, p)
            assert ranks[p] == expect, (fact, p)
            for filtered in (False, True):
                assert rank_fact(params, kb, fact, p, filtered) == ranks[p][filtered]
            filtered_below_raw += expect[1] < expect[0]
    assert filtered_below_raw > 0
    scored = [f for f in kb.test if f.relation < kb.n_scored_relations]
    expect = [reference_position_ranks(params, kb, f, p)
              for f in scored for p in range(f.arity)]
    out = evaluate(params, kb, "test")
    assert {k: out[k] for k in ("mr", "mrr", "hits")} == \
        metrics_from_ranks([f for _, f in expect], (1, 3, 10))
    assert out["raw"] == metrics_from_ranks([r for r, _ in expect], (1, 3, 10))


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
    kb = KnowledgeBase(v, (), (), tuple(test), 1)
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


def test_candidate_scores_working_set_does_not_grow_with_arity():
    # FB15k-237 size: one ranking holds a few (E, d) arrays at any arity,
    # where an (E, n, d) gather of the candidate rows would grow with n
    n_e, d = 15000, 200
    table = n_e * d * 8
    v = Vocabulary()
    for i in range(n_e):
        v.entity_id(f"e{i}", create=True)
    v.relation_id("pair", arity=2, create=True)
    v.relation_id("quad", arity=4, create=True)
    params = init_params(v, d, np.random.default_rng(0))
    screen = _Screen(params, (0, 1))
    peaks = {}
    for rel, arity in enumerate((2, 4)):
        fact = Fact(rel, tuple(range(1, arity + 1)))
        peak = 0
        for position in range(arity):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                _candidate_scores(params, fact.entities, position, screen,
                                  [fact.relation])
                peak = max(peak, tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        peaks[arity] = peak
    assert peaks[4] <= 1.25 * peaks[2], peaks
    assert max(peaks.values()) <= 4 * table, peaks


def test_one_query_holds_a_fraction_of_one_entity_table():
    # FB15k-237 size: scoring and filtering go one cache-sized block of
    # candidates at a time, so a whole query, its ranks included, stays
    # far below one (E, d) table at any arity
    n_e, d = 15000, 200
    table = n_e * d * 8
    v = vocab_of(n_e, (2, 4))
    params = init_params(v, d, np.random.default_rng(0))
    screen = _Screen(params, (0, 1))
    rng = np.random.default_rng(1)
    facts = [Fact(rel, tuple(int(e) for e in rng.integers(0, n_e, arity)))
             for rel, arity in ((0, 2), (1, 4)) for _ in range(500)]
    index = fact_index(facts)
    peaks = {}
    for fact in facts[::500]:
        for position in range(fact.arity):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                _group_ranks(params, index, fact.entities, position,
                             {fact.relation: [fact.entities[position]]}, screen)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            peaks[fact.relation, position] = peak
    assert max(peaks.values()) <= table / 4, peaks


# -- one score vector per distinct query --------------------------------------

def reference_evaluate(params, kb, split, ks=(1, 3, 10)):
    """``evaluate`` as it was before rankings were grouped by query: each
    (fact, position) ranking scores and filters all |E| candidates itself."""
    index = fact_index(kb.known)
    tables = params.entity_bump.T, (params.entity_base - params.entity_bump).T

    def position_ranks(fact, position):
        n_e = params.vocab.n_entities
        rows = np.tile(np.array(fact.entities, dtype=np.int64), (n_e, 1))
        rows[:, position] = np.arange(n_e)
        scores = score_point_group(params, [_box_tensors(params, fact.relation)],
                                   fact.entities, position, tables)[0]
        target = fact.entities[position]
        include = ~known_rows(index, fact.relation, rows)
        return (rank_from_scores(scores, target, None),
                rank_from_scores(scores, target, include))

    facts = ranked_facts(kb, split)
    per_fact = [[position_ranks(f, p) for p in range(f.arity)] for f in facts]
    raw = [r for ranks in per_fact for r, _ in ranks]
    filt = [f for ranks in per_fact for _, f in ranks]
    out = {"split": split, "n_facts": len(facts)}
    out.update(metrics_from_ranks(filt, ks))
    out["raw"] = metrics_from_ranks(raw, ks)
    return out


def query_keys(facts):
    """(relation, position, other entities) of every ranking of ``facts``."""
    return [(f.relation, p, f.entities[:p] + f.entities[p + 1:])
            for f in facts for p in range(f.arity)]


def vocab_of(n_entities, arities):
    v = Vocabulary()
    for i in range(n_entities):
        v.entity_id(f"e{i}", create=True)
    for i, a in enumerate(arities):
        v.relation_id(f"r{i}", arity=a, create=True)
    return v


def every_other_test(vocab, facts):
    """Every other distinct fact is a test fact, the rest are training facts."""
    facts = sorted(set(facts))
    return kb_with(vocab, train=facts[1::2], test=facts[::2])


def trained_hierarchy(seed=2):
    kb, rules = hierarchy_ontology_kb(n_entities=30, leaf_facts=20, ancestor_facts=6,
                                      seed=seed)
    params = init_params(kb.vocab, 6, np.random.default_rng(seed))
    plan = inject(rules, params)
    cfg = TrainConfig(learning_rate=0.05, negatives=4, batch_size=32, seed=seed,
                      filter_train_negatives=True)
    optimizer = OptimizerState()
    for epoch in range(3):
        train_epoch(params, optimizer, kb, cfg, projection_plan=plan, epoch=epoch)
    return params, kb


def shared_query_case(case):
    """(params, kb) whose test rankings share queries; params round coarsely,
    so that candidates tie, except for the trained hierarchy."""
    rng = np.random.default_rng(21)
    if case == "unary":
        # all facts of the unary relation pose the one query (r0, 0, ())
        v = vocab_of(7, (1, 2))
        kb = every_other_test(v, [Fact(0, (e,)) for e in range(7)]
                              + [Fact(1, (int(a), int(b))) for a, b in rng.integers(0, 7, (10, 2))])
    elif case == "repeated-entities":
        v = vocab_of(5, (2,))
        kb = every_other_test(v, [Fact(0, (a, a)) for a in range(5)]
                              + [Fact(0, (int(a), int(b))) for a, b in rng.integers(0, 5, (12, 2))])
    elif case == "arity-3-4":
        # substitutions of a few anchors, so facts share co-participants
        v = vocab_of(6, (3, 4))
        facts = []
        for rel, arity in ((0, 3), (1, 4)):
            for _ in range(3):
                anchor = tuple(int(e) for e in rng.integers(0, 6, arity))
                facts += [Fact(rel, anchor[:p] + (int(e),) + anchor[p + 1:])
                          for p in range(arity) for e in rng.integers(0, 6, 2)]
        kb = every_other_test(v, facts)
    elif case == "inverse-augmented":
        v = vocab_of(5, (2, 2))
        kb = augment_inverses(every_other_test(
            v, [Fact(int(r), (int(a), int(b)))
                for r, a, b in zip(rng.integers(0, 2, 24), rng.integers(0, 5, 24),
                                   rng.integers(0, 5, 24))]))
    else:
        return trained_hierarchy()
    return tied_params(kb.vocab, 7), kb


SHARED_QUERY_CASES = ("unary", "repeated-entities", "arity-3-4", "inverse-augmented",
                      "hierarchy-trained")


@pytest.mark.parametrize("case", SHARED_QUERY_CASES)
def test_evaluate_matches_the_per_fact_reference(case):
    params, kb = shared_query_case(case)
    keys = query_keys(ranked_facts(kb, "test"))
    assert len(set(keys)) < len(keys)  # some rankings share a query
    expect = reference_evaluate(params, kb, "test")
    assert expect["mr"] < expect["raw"]["mr"]  # the filter moved some rank
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the pool's threads finely
    try:
        for workers in (1, 2, 3):
            assert evaluate(params, kb, "test", workers=workers) == expect, workers
    finally:
        sys.setswitchinterval(interval)


def test_evaluate_by_small_blocks_equals_the_reference(monkeypatch):
    # blocks of a few candidates: each query's scores and filter mask are
    # formed over several blocks, and every rank stays the same
    kb, _ = hierarchy_ontology_kb(n_entities=30, leaf_facts=20, ancestor_facts=6, seed=2)
    params = init_params(kb.vocab, 4, np.random.default_rng(2))
    expect = reference_evaluate(params, kb, "test")
    assert expect["mrr"] != expect["raw"]["mrr"]  # the filter drops candidates
    monkeypatch.setattr(model, "_BLOCK_BYTES", 80)
    assert len(model.row_blocks(kb.vocab.n_entities, 16)) == 6  # filter blocks
    assert evaluate(params, kb, "test") == expect


def test_candidate_scores_run_once_per_distinct_query(monkeypatch):
    # the unit of work is the point group: the queries that differ only in
    # relation share one _candidate_scores call, which forms each block's
    # float32 points once and scores every relation of the group on them
    kb, _ = hierarchy_ontology_kb(n_entities=30, leaf_facts=20, ancestor_facts=6, seed=2)
    params = init_params(kb.vocab, 4, np.random.default_rng(2))
    keys = query_keys(ranked_facts(kb, "test"))
    groups = {key[1:] for key in keys}
    assert len(groups) < len(set(keys)) < len(keys)
    monkeypatch.setattr(model, "_BLOCK_BYTES", 80)
    n_blocks = len(model.row_blocks(kb.vocab.n_entities, 4 * params.d))
    assert n_blocks > 1
    score, points = evaluation._candidate_scores, model._final_points
    for workers in (1, 2):
        scored, formed = [], []

        def counting(params, entities, position, screen, relations):
            others = entities[:position] + entities[position + 1:]
            scored.extend((r, position, others) for r in relations)
            return score(params, entities, position, screen, relations)

        def counting_points(params, operands, tables=None):
            if tables is not None:  # the screen's, not a re-score
                # a block of candidates, and a one-column slice per other entity
                position = next(p for p, op in enumerate(operands) if op.stop - op.start > 1)
                others = operands[:position] + operands[position + 1:]
                formed.append((position, tuple(op.start for op in others)))
            return points(params, operands, tables)

        monkeypatch.setattr(evaluation, "_candidate_scores", counting)
        monkeypatch.setattr(model, "_final_points", counting_points)
        evaluation.evaluate(params, kb, "test", workers=workers)
        assert sorted(scored) == sorted(set(keys)), workers
        assert collections.Counter(formed) == {g: n_blocks for g in groups}, workers


def several_relation_groups(norm_order, bounded, per_dim_branch):
    """(params, kb): the hierarchy KB, whose test queries fall into point
    groups of up to four relations, under coarsely rounded parameters, so
    that candidates tie, and boxes wide enough to hold many points."""
    kb, _ = hierarchy_ontology_kb(n_entities=30, leaf_facts=20, ancestor_facts=6, seed=2)
    params = init_params(kb.vocab, 3, np.random.default_rng(4), norm_order=norm_order,
                         bounded=bounded)
    params.per_dim_branch = per_dim_branch
    for table in (params.entity_base, params.entity_bump):
        table[:] = np.round(table * 2.0) / 2.0
    params.box_a *= 2.0
    params.box_b *= 2.0
    return params, kb


@pytest.mark.parametrize("norm_order,bounded,per_dim_branch",
                         [(2, True, False), (1, True, False), (2, False, True),
                          (1, False, False)])
def test_point_groups_by_small_blocks_equal_the_reference(monkeypatch, norm_order,
                                                          bounded, per_dim_branch):
    # each group's relations share every block's points, over several
    # blocks, and ties send about a quarter of the queries to a re-score
    params, kb = several_relation_groups(norm_order, bounded, per_dim_branch)
    keys = query_keys(ranked_facts(kb, "test"))
    assert len({key[1:] for key in keys}) < len(set(keys))
    expect = reference_evaluate(params, kb, "test")
    assert expect["mr"] < expect["raw"]["mr"]
    monkeypatch.setattr(model, "_BLOCK_BYTES", 80)
    assert len(model.row_blocks(kb.vocab.n_entities, 4 * params.d)) > 1
    for workers in (1, 2):
        assert evaluate(params, kb, "test", workers=workers) == expect, workers


def test_a_point_group_holds_one_block_more_than_one_query():
    # FB15k-237 size: a group of three relations forms each block's points
    # once and takes each relation's distances on a copy of them, so it
    # holds one more block and two more relations' float32 scores and face
    # gaps (and undecided flags, and their not-finite test) than one query
    # does, not three queries' working sets
    n_e, d = 15000, 200
    v = vocab_of(n_e, (2, 2, 2))
    params = init_params(v, d, np.random.default_rng(0))
    screen = _Screen(params, (0, 1, 2))
    fact = Fact(0, (1, 2))
    peaks = {k: max(traced_peak(_candidate_scores, params, fact.entities, position,
                                screen, list(range(k)))
                    for position in (0, 1))
             for k in (1, 3)}
    assert peaks[3] <= peaks[1] + model._BLOCK_BYTES + 2 * n_e * (4 + 4 + 2), peaks
    assert peaks[3] < 2 * peaks[1], peaks


def test_one_fact_copies_rank_as_the_whole_split(monkeypatch):
    # a copy of the knowledge base whose test split holds one fact (as the
    # benchmark's reference check ranks its sample) keeps every known fact,
    # so its filter drops the candidates the whole KB's does, test facts
    # included, and gives the fact's slots their whole-split filtered ranks
    params, kb = trained_hierarchy()
    facts = ranked_facts(kb, "test")
    test_index = fact_index(kb.test)
    assert sum(len(answers) > 1 for answers in (
        evaluation.known_answers(test_index, f.relation, f.entities, p)
        for f in facts for p in range(f.arity))) >= 10  # filtered by other test facts
    metrics = evaluation.metrics_from_ranks
    filtered = []

    def recording(ranks, ks):
        filtered.append(list(ranks))
        return metrics(ranks, ks)

    monkeypatch.setattr(evaluation, "metrics_from_ranks", recording)
    evaluate(params, kb, "test")
    whole = filtered[0]
    assert len(whole) == sum(f.arity for f in facts)
    at = 0
    for fact in facts:
        filtered.clear()
        evaluate(params, dataclasses.replace(kb, test=(fact,)), "test")
        assert filtered[0] == whole[at:at + fact.arity], fact
        at += fact.arity


def test_evaluate_holds_one_query_per_worker():
    # ~1000 distinct binary queries.  Each one's working set is a few (E, d)
    # tables (see test_candidate_scores_working_set_does_not_grow_with_arity)
    # and its score vector is E floats, so holding every query's scores at
    # once would break the bound.
    n_e, d = 2000, 16
    table = n_e * d * 8
    per_query = 4096  # bookkeeping: a query's slots and targets, and a pool future
    v = vocab_of(n_e, (2, 2, 2, 2))
    rng = np.random.default_rng(0)
    test = {Fact(int(r), (int(a), int(b)))
            for r, a, b in zip(rng.integers(0, 4, 520), rng.integers(0, n_e, 520),
                               rng.integers(0, n_e, 520))}
    kb = kb_with(v, test=sorted(test))
    n_queries = len(set(query_keys(kb.test)))
    assert n_queries >= 1000
    params = init_params(v, d, np.random.default_rng(1))
    for workers in (1, 2):
        bound = (1 + 4 * workers) * table + per_query * n_queries
        assert n_queries * n_e * 8 > bound
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evaluate(params, kb, "test", workers=workers)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound, (workers, peak / table)


def traced_peak(fn, *args, **kwargs):
    """Peak bytes ``fn`` allocates above the traced level it starts at."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_evaluate_pool_memory_does_not_grow_with_the_query_count():
    # Two workers hold one more query's working set than one worker does,
    # and nothing per query: doubling the distinct queries (about 1000 to
    # about 2000) must leave the peak gap between workers=2 and workers=1
    # where it was.  A pool future per query costs about 1.5 KB, which
    # would widen the gap by about 1.5 MB.  One traced peak is noisy: the
    # first call at a size reads 125-150 KB high, and how the two
    # workers' working sets overlap in time moves a workers=2 peak by
    # hundreds of KB now and then, so each side is the median of 3 calls.
    n_e, d = 1000, 16
    v = vocab_of(n_e, (2, 2, 2, 2))
    params = init_params(v, d, np.random.default_rng(1))
    rng = np.random.default_rng(0)
    test = set()
    gaps = {}
    for n_facts in (540, 1160):
        while len(test) < n_facts:
            test.add(Fact(int(rng.integers(0, 4)),
                          (int(rng.integers(0, n_e)), int(rng.integers(0, n_e)))))
        kb = kb_with(v, test=sorted(test))
        n_queries = len(set(query_keys(kb.test)))
        peaks = [np.median([traced_peak(evaluate, params, kb, "test", workers=workers)
                            for _ in range(3)])
                 for workers in (1, 2)]
        gaps[n_queries] = peaks[1] - peaks[0]
    (few, few_gap), (many, many_gap) = sorted(gaps.items())
    assert few >= 1000 and many >= 2000
    assert many_gap - few_gap <= 256 * (many - few), gaps


# -- the float32 screen ranks exactly as float64 does -------------------------

def assert_float64_ranks(params, kb):
    """``evaluate`` and every ``rank_fact`` equal the float64 references."""
    assert evaluate(params, kb, "test") == reference_evaluate(params, kb, "test")
    for fact in ranked_facts(kb, "test"):
        for p in range(fact.arity):
            got = tuple(rank_fact(params, kb, fact, p, filtered) for filtered in (False, True))
            assert got == reference_position_ranks(params, kb, fact, p), (fact, p)


def float32_alone_misranks(params, kb):
    """Whether ranking on the screen's float32 scores alone, with no
    re-score, would give some test ranking another raw rank."""
    screen = _Screen(params, range(kb.vocab.n_relations))
    for fact in ranked_facts(kb, "test"):
        for p in range(fact.arity):
            with np.errstate(over="ignore", invalid="ignore"):
                scores = score_point_group(
                    params, [_box_tensors(params, fact.relation, dtype=np.float32)],
                    fact.entities, p, screen.tables)[0]
            expect = reference_position_ranks(params, kb, fact, p)[0]
            if rank_from_scores(scores, fact.entities[p]) != expect:
                return True
    return False


def near_tie_case(norm_order, bounded, per_dim_branch, scale=1.0):
    """Entity 0 and the targets' co-participants are random; entities 1-5
    are exact copies of entity 0, and entities 6-29 copies moved by 1e-12 to
    1e-6 of ``scale`` per coordinate, so their scores tie entity 0's or lie
    closer to it than float32 can tell apart."""
    v = vocab_of(40, (2, 1))
    p = init_params(v, 5, np.random.default_rng(5), norm_order=norm_order, bounded=bounded)
    p.per_dim_branch = per_dim_branch
    rng = np.random.default_rng(6)
    for table in (p.entity_base, p.entity_bump, p.box_a, p.box_b):
        table *= scale
    for e in range(1, 30):
        size = 0.0 if e < 6 else scale * 10.0 ** -rng.integers(6, 13)
        p.entity_base[e] = p.entity_base[0] + size * rng.uniform(-1, 1, p.d)
        p.entity_bump[e] = p.entity_bump[0] + size * rng.uniform(-1, 1, p.d)
    test = [Fact(0, (31, 0)), Fact(0, (31, 12)), Fact(0, (0, 32)), Fact(0, (3, 33)),
            Fact(1, (0,)), Fact(1, (20,))]
    train = [Fact(0, (31, 2)), Fact(0, (31, 15)), Fact(0, (7, 32)), Fact(1, (4,))]
    return p, kb_with(v, train=train, test=test)


@pytest.mark.parametrize("norm_order,bounded,per_dim_branch",
                         [(2, True, False), (1, True, False), (2, False, True),
                          (1, True, True)])
def test_screen_ranks_exact_and_near_ties_as_float64(norm_order, bounded, per_dim_branch):
    params, kb = near_tie_case(norm_order, bounded, per_dim_branch)
    assert float32_alone_misranks(params, kb)
    assert_float64_ranks(params, kb)


@pytest.mark.parametrize("scale", [1e6, 1e20])
def test_screen_ranks_large_unbounded_coordinates_as_float64(scale):
    # at 1e20 the float32 squares overflow, and every score is re-scored
    params, kb = near_tie_case(2, False, False, scale=scale)
    assert float32_alone_misranks(params, kb)
    assert_float64_ranks(params, kb)


def face_case(norm_order, per_dim_branch):
    """Unbounded points on and near the faces of a relation's second box,
    whose first dimension is [-0.1, 0.1] and second [-2, 2]: with no bumps a
    candidate's point is its base.  0.1 + 1e-12 is outside in float64 but
    rounds to float32's 0.1, inside, and under the whole-point branch the
    score jumps from about 0.08 inside to about 9.6 outside; the targets
    score about 0.9, in between.  Target 4, at 0.1 + 1e-12, is such a point.
    The last points lie 2e-5 and 1e-4 outside that face, past ``slack``,
    with y set from each dimension's slope so that their float64 scores lie
    within a float32 ulp of target 4's, on either side."""
    offsets = [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 3e-8, -3e-8, 1e-7, -1e-7, 1e-6]
    faces = [(0.1, 0.0), (-0.1, 0.0), (0.0, 2.0), (0.05, -2.0)]
    points = [(0.0, 2.1), (2.1 * 0.1 / 2.0, 0.0), (0.0, 0.0)]
    for fx, fy in faces:
        for off in offsets:
            points.append((fx + off, fy) if fy == 0.0 else (fx, fy + off))
    slope = 1.2 / 5.0 if norm_order == 1 else 0.1 / 48.0
    for off in (2e-5, 1e-4):
        for k in range(-3, 4):
            points.append((0.1 + off, slope * off + k * 2e-8))
    v = vocab_of(len(points) + 1, (2,))
    p = init_params(v, 2, np.random.default_rng(0), norm_order=norm_order, bounded=False)
    p.per_dim_branch = per_dim_branch
    p.entity_bump[:] = 0.0
    p.entity_base[:-1] = points
    p.entity_base[-1] = 0.0  # the anchor, at the center of the first box
    p.box_a[0], p.box_b[0] = -5.0, 5.0
    p.box_a[1], p.box_b[1] = (-0.1, -2.0), (0.1, 2.0)
    anchor = len(points)
    test = [Fact(0, (anchor, 0)), Fact(0, (anchor, 1)), Fact(0, (anchor, 2)),
            Fact(0, (anchor, 4))]
    return p, kb_with(v, train=[Fact(0, (anchor, 5))], test=test)


@pytest.mark.parametrize("norm_order", [1, 2])
def test_screen_ranks_points_on_and_near_box_faces_as_float64(norm_order):
    params, kb = face_case(norm_order, per_dim_branch=False)
    assert float32_alone_misranks(params, kb)
    assert_float64_ranks(params, kb)


def test_screen_ranks_near_faces_with_the_per_dimension_branch_as_float64():
    # no jump at the faces here: the bound covers a coordinate's branch
    assert_float64_ranks(*face_case(2, per_dim_branch=True))


@pytest.mark.parametrize("norm_order", [1, 2])
def test_a_query_is_re_scored_in_float64_at_most_once(monkeypatch, norm_order):
    # target 4 lies near a face, so both queries of its fact fall back to float64
    params, kb = face_case(norm_order, per_dim_branch=False)
    score = evaluation.score_point_group
    calls = collections.Counter()

    def counting(params, boxes, entities, position, tables=None, *args, **kwargs):
        if tables is None:  # the float64 pass: the screen passes its tables
            slots = tuple(tuple(box[0].tolist()) for box in boxes)
            calls[slots, position, entities[:position] + entities[position + 1:]] += 1
        return score(params, boxes, entities, position, tables, *args, **kwargs)

    monkeypatch.setattr(evaluation, "score_point_group", counting)
    evaluate(params, kb, "test")
    assert calls and max(calls.values()) == 1, calls
    for fact in ranked_facts(kb, "test"):
        for p in range(fact.arity):
            calls.clear()
            rank_fact(params, kb, fact, p, filtered=True)
            assert max(calls.values(), default=0) <= 1, (fact, p, calls)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screen_ranks_entities_past_float32_range_as_float64_without_a_warning():
    # entity 2's base and bump both round to float32 inf, and their float32
    # difference is inf - inf: its rows are non-finite, so re-scored
    v = vocab_of(8, (2,))
    params = init_params(v, 3, np.random.default_rng(3), bounded=False)
    params.entity_base[2] = params.entity_bump[2] = 1e39
    test = [Fact(0, (0, 2)), Fact(0, (2, 5)), Fact(0, (4, 1)), Fact(0, (6, 7))]
    kb = kb_with(v, train=[Fact(0, (0, 3)), Fact(0, (2, 4))], test=test)
    assert_float64_ranks(params, kb)


def test_screen_ranks_a_trained_hierarchy_as_float64():
    # injected containment puts many candidates inside their boxes
    params, kb = trained_hierarchy()
    screen = _Screen(params, range(kb.vocab.n_relations))
    inside = 0
    for fact in ranked_facts(kb, "test"):
        for p in range(fact.arity):
            gap = np.full(kb.vocab.n_entities, np.inf, dtype=np.float32)
            score_point_group(params, [screen.relations[fact.relation].box32],
                              fact.entities, p, screen.tables, gap[None])
            inside += int(np.isfinite(gap).sum())
    assert inside >= 500
    assert_float64_ranks(params, kb)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screen_ranks_boxes_of_huge_corners_as_float64_without_a_warning():
    # finite corners whose kappa and whose screen bounds overflow float64:
    # an inf bound sends every row to the float64 re-score
    v = vocab_of(3, (2,))
    params = init_params(v, 3, np.random.default_rng(8), bounded=False)
    params.box_a[:] = -1e200
    params.box_b[:] = 1e200
    kb = kb_with(v, train=[Fact(0, (0, 1)), Fact(0, (1, 2))],
                 test=[Fact(0, (2, 0)), Fact(0, (0, 2)), Fact(0, (1, 1))])
    assert_float64_ranks(params, kb)


def test_screen_bound_holds_for_norms_summed_down_the_dimensions():
    # the screen sums each norm down a C-ordered (d, rows) block, one
    # dimension after another.  At d = 1000, a point with one coordinate far
    # outside its box and the rest just beyond a face (the far one first,
    # in the middle or last), or with every coordinate equal, makes that
    # sum's rounding large; every float32 score must still lie within the
    # screen's bound of the float64 score
    d, far = 1000, (0, 500, 999)
    params = init_params(vocab_of(7, (1,)), d, np.random.default_rng(6), bounded=False)
    params.box_a[:], params.box_b[:] = -1.0, 1.0
    params.entity_bump[:] = 0.0  # the final point of a unary fact is its base
    base = params.entity_base
    base[:3] = 1.0 + np.random.default_rng(7).uniform(1e-3, 1e-2, (3, d))
    base[[0, 1, 2], far] = 1e3
    base[3:] = np.array([1.5, 3.7, 1e2, 7e2])[:, None]
    screen = _Screen(params, [0])
    relation = screen.relations[0]
    # the column sums differ from pairwise ones on both kinds of point
    _, _, _, c, w, kappa = relation.box32
    dv = np.abs(screen.tables[1] - c[0, :, None]) * w[0, :, None] - kappa[0, :, None]
    squares = dv * dv
    assert squares.flags.c_contiguous
    pairwise = np.ascontiguousarray(squares.T).sum(axis=1)
    differ = squares.sum(axis=0) != pairwise
    assert differ[:3].any() and differ[3:].any()
    scores, undecided = _candidate_scores(params, (0,), 0, screen, [0])
    assert not undecided.any()
    expect = score_point_group(params, [relation.box], (0,), 0)[0]
    err = relation.err_abs + relation.err_rel * np.abs(expect)
    assert (np.abs(scores[0] - expect) <= err).all(), (scores[0] - expect) / err


def test_float32_tanh_keeps_half_the_screens_assumed_error():
    # the screen's bound takes numpy's float32 tanh to lie within
    # _TANH_ULPS units of 2^-24 of the true value, twice the error measured
    # on numpy 2.4.6 x86-64; the numpy that runs must keep that headroom.
    # Every 7th float32 of [2^-12, 9] and every one of [0.5, 1.5], both
    # signs, 2^20 values at a time.
    worst = 0.0
    chunk = 1 << 20
    for lo, hi, step in ((2.0 ** -12, 9.0, 7), (0.5, 1.5, 1)):
        start, stop = (int(b) for b in np.array([lo, hi], dtype=np.float32).view(np.int32))
        for first in range(start, stop + 1, chunk * step):
            x = np.arange(first, min(first + chunk * step, stop + 1), step,
                          dtype=np.int32).view(np.float32)
            for signed in (x, -x):
                err = np.abs(np.tanh(signed) - np.tanh(signed.astype(np.float64)))
                worst = max(worst, float(err.max()))
    assert worst / 2.0 ** -24 <= evaluation._TANH_ULPS / 2, worst / 2.0 ** -24
