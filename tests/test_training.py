"""Loss arithmetic, sparse Adam, negative sampling, and the epoch loop."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkb import model, rules, training
from boxkb.kb import Fact, KnowledgeBase, Vocabulary, fact_index, known_rows
from boxkb.model import GradBuffer, init_params, score, score_gradient
from boxkb.synth import random_binary_kb
from boxkb.training import (NEGATIVE_RETRY_BOUND, STREAM_INIT,
                            STREAM_NEGATIVES, STREAM_SHUFFLE, OptimizerState,
                            TrainConfig, TrainingAbort, _draw_corruptions,
                            _substitute, adam_update,
                            adversarial_loss_terms, loss, sample_negatives,
                            stream_rng, train_epoch, train_model)


def snapshot(params):
    return [params.entity_base.copy(), params.entity_bump.copy(),
            params.box_a.copy(), params.box_b.copy()]


def arrays_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


# -- loss arithmetic ----------------------------------------------------------

def test_loss_anchor_single_negative():
    # margin 1, s+ = 0, s- = 2, temperature 0: both sides -log sigma(1)
    value, d_pos, d_neg = adversarial_loss_terms(
        np.array([0.0]), np.array([[2.0]]), margin=1.0,
        adversarial_temperature=0.0)
    expect = -2.0 * math.log(1.0 / (1.0 + math.exp(-1.0)))
    assert value[0] == pytest.approx(0.62652338, abs=1e-8)
    assert value[0] == pytest.approx(expect, abs=1e-12)


def test_loss_anchor_everything_at_margin():
    value, _, _ = adversarial_loss_terms(
        np.array([3.0]), np.array([[3.0]]), margin=3.0,
        adversarial_temperature=0.0)
    assert value[0] == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_loss_uniform_weights_at_zero_temperature():
    # two identical negatives must reproduce the single-negative loss
    single, _, _ = adversarial_loss_terms(
        np.array([0.0]), np.array([[2.0]]), 1.0, 0.0)
    double, _, d_neg = adversarial_loss_terms(
        np.array([0.0]), np.array([[2.0, 2.0]]), 1.0, 0.0)
    assert double[0] == pytest.approx(single[0], abs=1e-12)
    assert np.allclose(d_neg, d_neg[0, 0])  # equal weights


def test_adversarial_weights_favor_low_scoring_negatives():
    # score is a distance: the lowest-scoring negative is the hardest
    _, _, d_neg = adversarial_loss_terms(
        np.array([0.0]), np.array([[0.5, 4.0]]), 3.0, 2.0)
    assert abs(d_neg[0, 0]) > abs(d_neg[0, 1])


def test_loss_gradient_factors_match_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s_pos = rng.uniform(0, 6, size=3)
        s_neg = rng.uniform(0, 6, size=(3, 4))
        margin = rng.uniform(0.5, 5)
        temp = rng.uniform(0, 2)
        _, d_pos, d_neg = adversarial_loss_terms(s_pos, s_neg, margin, temp)
        h = 1e-6

        def total(sp, sn):
            v, _, _ = adversarial_loss_terms(sp, sn, margin, temp)
            return v.sum()

        for b in range(3):
            bumped = s_pos.copy()
            bumped[b] += h
            fd = (total(bumped, s_neg) - total(s_pos, s_neg)) / h
            assert d_pos[b] == pytest.approx(fd, abs=1e-5)
        # weights are stop-gradient constants, so the FD oracle must hold
        # them fixed too: perturb one negative, reuse the original weights
        w = -d_neg / (1.0 / (1.0 + np.exp(-(margin - s_neg))))
        for b in range(3):
            for i in range(4):
                bumped = s_neg.copy()
                bumped[b, i] += h
                base_term = (w[b] * np.logaddexp(0.0, margin - s_neg[b])).sum()
                bump_term = (w[b] * np.logaddexp(0.0, margin - bumped[b])).sum()
                assert d_neg[b, i] == pytest.approx((bump_term - base_term) / h,
                                                    abs=1e-5)


def test_loss_wrapper_composes_scores():
    kb = random_binary_kb(n_entities=6, n_relations=1, n_facts=5, seed=0)
    p = init_params(kb.vocab, 4, np.random.default_rng(0))
    fact = kb.train[0]
    negs = sample_negatives(np.random.default_rng(1), fact, 3, kb.vocab)
    got = loss(p, fact, negs, margin=2.0, adversarial_temperature=1.0)
    s_pos = np.array([score(p, fact)])
    s_neg = np.array([[score(p, n) for n in negs]])
    expect, _, _ = adversarial_loss_terms(s_pos, s_neg, 2.0, 1.0)
    assert got == pytest.approx(float(expect[0]), rel=1e-12)
    with pytest.raises(ValueError):
        loss(p, fact, [], 2.0, 1.0)


@settings(max_examples=100)
@given(st.lists(st.floats(0, 10), min_size=1, max_size=6),
       st.floats(0.1, 6), st.floats(0, 3))
def test_loss_positive_and_finite(neg, margin, temp):
    value, d_pos, d_neg = adversarial_loss_terms(
        np.array([1.0]), np.array([neg]), margin, temp)
    assert np.isfinite(value).all() and value[0] > 0
    assert 0 <= d_pos[0] <= 1
    assert np.all(d_neg <= 0)
    # negative-side weights sum to at most 1 in absolute value
    assert abs(d_neg.sum()) <= 1.0 + 1e-12


# -- sparse Adam ---------------------------------------------------------------

def reference_adam(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Dense scalar Adam over a fixed sequence of gradients."""
    x, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        x -= lr * (m / (1 - beta1 ** t)) / (math.sqrt(v / (1 - beta2 ** t)) + eps)
    return x


def test_adam_matches_scalar_reference():
    p = init_params(Vocabulary(["a"], ["r"], [1]), 1, np.random.default_rng(0))
    p.entity_base[0, 0] = 0.0
    opt = OptimizerState()
    grads = [0.3, -1.2, 0.7, 0.7, -0.1]
    for g in grads:
        adam_update(opt, p, {("base", 0): np.array([g])}, 0.01)
    assert p.entity_base[0, 0] == pytest.approx(reference_adam(grads, 0.01),
                                                abs=1e-12)


def test_adam_steps_read_zero_for_an_untouched_row_of_an_allocated_table():
    p = init_params(Vocabulary(["a", "b", "c"], ["r"], [2]), 1,
                    np.random.default_rng(0))
    opt = OptimizerState()
    adam_update(opt, p, {("base", 1): np.array([1.0])}, 0.1)
    assert opt.steps[("base", 1)] == 1
    assert opt.steps[("base", 0)] == opt.steps[("base", 2)] == 0
    with pytest.raises(KeyError):  # the bump table is not allocated yet
        opt.steps[("bump", 0)]


def test_adam_step_counters_are_per_slot():
    p = init_params(Vocabulary(["a", "b"], ["r"], [2]), 1,
                    np.random.default_rng(0))
    opt = OptimizerState()
    g = np.array([1.0])
    adam_update(opt, p, {("base", 0): g}, 0.1)
    adam_update(opt, p, {("base", 0): g, ("base", 1): g}, 0.1)
    assert opt.steps[("base", 0)] == 2
    assert opt.steps[("base", 1)] == 1
    # a slot's first step always moves by ~lr regardless of global time
    fresh = init_params(Vocabulary(["a", "b"], ["r"], [2]), 1,
                        np.random.default_rng(0))
    before = fresh.entity_base[1, 0]
    solo = OptimizerState()
    adam_update(solo, fresh, {("base", 1): g}, 0.1)
    first_move = before - fresh.entity_base[1, 0]
    assert first_move == pytest.approx(0.1, rel=1e-6)


def test_adam_untouched_slots_never_move():
    kb = random_binary_kb(n_entities=8, n_relations=2, n_facts=10, seed=1)
    p = init_params(kb.vocab, 3, np.random.default_rng(2))
    opt = OptimizerState()
    grads = score_gradient(p, kb.train[0])
    touched = {idx for kind, idx in grads if kind == "base"}
    before = p.entity_base.copy()
    adam_update(opt, p, grads, 0.05)
    for e in range(kb.vocab.n_entities):
        if e not in touched:
            assert np.array_equal(p.entity_base[e], before[e])


def reference_sparse_adam(state, params, grads, lr, beta1=0.9, beta2=0.999,
                          eps=1e-8):
    """Per-slot dictionary Adam: moments and step counters keyed by slot."""
    arrays = {"base": params.entity_base, "bump": params.entity_bump,
              "boxa": params.box_a, "boxb": params.box_b}
    for key, g in grads.items():
        if key not in state:
            state[key] = [np.zeros_like(g), np.zeros_like(g), 0]
        m, v, t = state[key]
        t += 1
        state[key][2] = t
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        kind, idx = key
        arrays[kind][idx] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_dense_adam_matches_per_slot_reference():
    vocab = Vocabulary([f"e{i}" for i in range(12)], ["r", "s"], [2, 3])
    dense = init_params(vocab, 4, np.random.default_rng(3))
    ref = dense.copy()
    opt, ref_state = OptimizerState(), {}
    rng = np.random.default_rng(4)
    tables = {"base": dense.entity_base, "bump": dense.entity_bump,
              "boxa": dense.box_a, "boxb": dense.box_b}
    for step in range(25):
        grads = {}
        # uneven: some tables untouched, a few hot rows, the rest rare; a
        # box slot's two corners are touched together, as in a GradBuffer
        for kinds, n_rows in ((("base",), 12), (("bump",), 12), (("boxa", "boxb"), 5)):
            if rng.random() < 0.2:
                continue
            rows = np.flatnonzero(rng.random(n_rows) < np.linspace(0.9, 0.05, n_rows))
            for r in rows:
                for kind in kinds:
                    grads[(kind, int(r))] = rng.normal(
                        scale=rng.choice([1e-3, 1.0, 30.0]), size=4)
        before = [a.copy() for a in tables.values()]
        if step % 2:
            adam_update(opt, dense, grads, 0.05)
        else:  # the same gradients through a GradBuffer
            buf = GradBuffer(dense)
            for (kind, r), g in grads.items():
                getattr(buf, kind)[r] = g
                mask = {"boxa": "box", "boxb": "box"}.get(kind, kind)
                getattr(buf, f"{mask}_touched")[r] = True
            adam_update(opt, dense, buf, 0.05)
        reference_sparse_adam(ref_state, ref, grads, 0.05)
        for (kind, arr), old in zip(tables.items(), before):
            touched = {r for k, r in grads if k == kind}
            for r in range(arr.shape[0]):
                if r not in touched:
                    assert arr[r].tobytes() == old[r].tobytes(), (step, kind, r)
        assert np.allclose(dense.entity_base, ref.entity_base, rtol=0, atol=1e-12)
        assert np.allclose(dense.entity_bump, ref.entity_bump, rtol=0, atol=1e-12)
        assert np.allclose(dense.box_a, ref.box_a, rtol=0, atol=1e-12)
        assert np.allclose(dense.box_b, ref.box_b, rtol=0, atol=1e-12)
    for key, (_, _, t) in ref_state.items():
        assert opt.steps[key] == t


def test_blocked_adam_equals_one_block_bytewise(monkeypatch):
    # blocks of three 32-byte rows against one block; each step touches an
    # uneven set of rows, so the last block of a table is often short
    vocab = Vocabulary([f"e{i}" for i in range(40)], ["r", "s"], [2, 3])
    counts = set()  # touched rows per table and step

    def run(block_bytes: int) -> list[bytes]:
        monkeypatch.setattr(model, "_BLOCK_BYTES", block_bytes)
        p = init_params(vocab, 4, np.random.default_rng(3))
        opt = OptimizerState()
        rng = np.random.default_rng(4)
        for _ in range(8):
            buf = GradBuffer(p)
            for names, touched in ((("base",), buf.base_touched),
                                   (("bump",), buf.bump_touched),
                                   (("boxa", "boxb"), buf.box_touched)):
                n_rows = len(touched)
                rows = np.flatnonzero(rng.random(n_rows) < np.linspace(0.9, 0.1, n_rows))
                touched[rows] = True
                counts.add(len(rows))
                for name in names:
                    getattr(buf, name)[rows] = rng.normal(
                        scale=rng.choice([1e-3, 1.0, 30.0]), size=(len(rows), 4))
            adam_update(opt, p, buf, 0.05)
        return [a.tobytes() for a in snapshot(p)] + [
            a.tobytes() for state in opt.tables.values()
            for a in (state.m, state.v, state.steps)]

    blocked = run(3 * 32)
    one_block = run(1 << 30)
    # some table took several blocks, and some last block was short
    assert max(counts) > 3 and any(c % 3 for c in counts)
    assert len(blocked) == len(one_block) == 4 + 3 * 4
    for i, (got, expect) in enumerate(zip(blocked, one_block)):
        assert got == expect, i


# -- rng streams ----------------------------------------------------------------

def test_stream_rng_reproducible_and_distinct():
    a = stream_rng(42, STREAM_SHUFFLE, 3).random(4)
    b = stream_rng(42, STREAM_SHUFFLE, 3).random(4)
    c = stream_rng(42, STREAM_NEGATIVES, 3).random(4)
    d = stream_rng(42, STREAM_SHUFFLE, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # negative seeds are folded into range rather than rejected
    stream_rng(-1, STREAM_INIT).random()


# -- negative sampling ------------------------------------------------------------

def test_sample_negatives_differ_in_one_position():
    v = Vocabulary()
    for i in range(10):
        v.entity_id(f"e{i}", create=True)
    v.relation_id("r", arity=3, create=True)
    fact = Fact(0, (1, 2, 3))
    negs = sample_negatives(stream_rng(0, STREAM_NEGATIVES), fact, 50, v)
    assert len(negs) == 50
    for n in negs:
        assert n.relation == 0
        diffs = [i for i in range(3) if n.entities[i] != fact.entities[i]]
        assert len(diffs) == 1


def test_sample_negatives_accepts_collision_after_retries():
    # a single-entity vocabulary leaves no valid corruption
    v = Vocabulary()
    v.entity_id("only", create=True)
    v.relation_id("r", arity=2, create=True)
    stats = {}
    negs = sample_negatives(stream_rng(0, STREAM_NEGATIVES), Fact(0, (0, 0)),
                            4, v, stats=stats)
    assert all(n == Fact(0, (0, 0)) for n in negs)
    assert stats["negatives_accepted_equal"] == 4


def test_sample_negatives_deterministic():
    v = Vocabulary()
    for i in range(6):
        v.entity_id(f"e{i}", create=True)
    v.relation_id("r", arity=2, create=True)
    fact = Fact(0, (0, 1))
    a = sample_negatives(stream_rng(9, STREAM_NEGATIVES, 0), fact, 8, v)
    b = sample_negatives(stream_rng(9, STREAM_NEGATIVES, 0), fact, 8, v)
    assert a == b


def reference_draw_corruptions(rng, relation, ents, m, n_entities, stats, avoid):
    """Corruption draw with a per-(b, i) loop over a set of fact tuples."""
    B, n = ents.shape
    pos = rng.integers(0, n, size=(B, m))
    repl = rng.integers(0, n_entities, size=(B, m))

    def bad_mask():
        mask = repl == ents[np.arange(B)[:, None], pos]
        for b in range(B):
            for i in range(m):
                if mask[b, i]:
                    continue
                cand = [int(x) for x in ents[b]]
                cand[int(pos[b, i])] = int(repl[b, i])
                if (relation, *cand) in avoid:
                    mask[b, i] = True
        return mask

    bad = bad_mask()
    for _ in range(NEGATIVE_RETRY_BOUND):
        if not bad.any():
            break
        k = int(bad.sum())
        pos[bad] = rng.integers(0, n, size=k)
        repl[bad] = rng.integers(0, n_entities, size=k)
        bad = bad_mask()
    if bad.any():
        stats["negatives_accepted_equal"] = (
            stats.get("negatives_accepted_equal", 0) + int(bad.sum()))
    out = np.repeat(ents[:, None, :], m, axis=1)
    out[np.arange(B)[:, None], np.arange(m)[None, :], pos] = repl
    return out


@pytest.mark.parametrize("arity", [1, 2, 4])
def test_known_fact_filter_matches_reference_loop(arity):
    n_entities = 5 if arity > 1 else 3
    rng = np.random.default_rng(arity)
    facts = [Fact(rel, tuple(int(x) for x in row))
             for rel in range(2)
             for row in rng.integers(0, n_entities, size=(40, arity))]
    avoid = frozenset((f.relation, *f.entities) for f in facts)
    index = fact_index(facts)
    for trial in range(20):
        rel = trial % 2
        ents = np.array([f.entities for f in facts if f.relation == rel][:12])
        pos = rng.integers(0, arity, size=(len(ents), 7))
        repl = rng.integers(0, n_entities, size=(len(ents), 7))
        expect = np.zeros(pos.shape, dtype=bool)
        for b in range(len(ents)):
            for i in range(7):
                cand = [int(x) for x in ents[b]]
                cand[pos[b, i]] = int(repl[b, i])
                expect[b, i] = (rel, *cand) in avoid
        rows = _substitute(ents, pos, repl).reshape(-1, arity)
        assert np.array_equal(known_rows(index, rel, rows).reshape(pos.shape), expect)
        got_stats, ref_stats = {}, {}
        got = _draw_corruptions(stream_rng(trial, STREAM_NEGATIVES), rel, ents, 7,
                                n_entities, stats=got_stats, avoid=index)
        ref = reference_draw_corruptions(stream_rng(trial, STREAM_NEGATIVES), rel,
                                         ents, 7, n_entities, ref_stats, avoid)
        assert got.tobytes() == ref.tobytes()
        assert got_stats == ref_stats


# -- epoch loop --------------------------------------------------------------------

def test_zero_learning_rate_leaves_parameters_unchanged():
    kb = random_binary_kb(n_entities=8, n_relations=2, n_facts=20, seed=3)
    p = init_params(kb.vocab, 4, stream_rng(3, STREAM_INIT))
    before = snapshot(p)
    cfg = TrainConfig(learning_rate=0.0, epochs=2, seed=3, batch_size=7)
    train_model(p, kb, cfg)
    assert arrays_equal(before, snapshot(p))


def test_train_epoch_is_deterministic():
    kb = random_binary_kb(n_entities=10, n_relations=2, n_facts=25, seed=4)
    results = []
    for _ in range(2):
        p = init_params(kb.vocab, 5, stream_rng(4, STREAM_INIT))
        opt = OptimizerState()
        metrics = train_epoch(p, opt, kb, TrainConfig(seed=4, batch_size=8))
        results.append((snapshot(p), metrics["mean_loss"]))
    assert arrays_equal(results[0][0], results[1][0])
    assert results[0][1] == results[1][1]


def test_training_reduces_loss():
    # filtered negatives keep true facts from fighting themselves, so the
    # loss floor is low enough for a clean halving check
    kb = random_binary_kb(n_entities=10, n_relations=2, n_facts=30, seed=5)
    p = init_params(kb.vocab, 16, stream_rng(5, STREAM_INIT))
    cfg = TrainConfig(learning_rate=0.05, epochs=120, seed=5, batch_size=64,
                      filter_train_negatives=True)
    history = train_model(p, kb, cfg)
    assert history[-1]["mean_loss"] < 0.5 * history[0]["mean_loss"]


def test_shuffle_stream_independent_of_negative_count():
    # changing the negative count must not change the shuffle order
    kb = random_binary_kb(n_entities=8, n_relations=1, n_facts=12, seed=6)
    orders = []
    for negatives in (1, 5):
        cfg = TrainConfig(seed=6, negatives=negatives)
        rng = stream_rng(cfg.seed, STREAM_SHUFFLE, 0)
        orders.append(rng.permutation(len(kb.train)))
    assert np.array_equal(orders[0], orders[1])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_epoch_aborts_on_nonfinite_loss():
    kb = random_binary_kb(n_entities=6, n_relations=1, n_facts=8, seed=7)
    p = init_params(kb.vocab, 3, stream_rng(7, STREAM_INIT))
    p.entity_base[0, 0] = np.nan
    with pytest.raises(TrainingAbort) as exc:
        train_epoch(p, OptimizerState(), kb, TrainConfig(seed=7))
    diag = exc.value.diagnostic
    assert diag["epoch"] == 0
    assert "facts" in diag and diag["facts"]


def test_filter_train_negatives_avoids_known_facts():
    v = Vocabulary()
    for i in range(3):
        v.entity_id(f"e{i}", create=True)
    v.relation_id("r", arity=2, create=True)
    # every pair (0, x) is a training fact, so corruptions of position 1
    # starting from (0, 1) can only collide; heads must switch instead
    train = tuple(Fact(0, (0, x)) for x in range(3))
    kb = KnowledgeBase(v, train, (), (), 1)
    p = init_params(v, 3, stream_rng(8, STREAM_INIT))
    stats = {}
    cfg = TrainConfig(seed=8, negatives=20, filter_train_negatives=True,
                      learning_rate=0.0)
    train_epoch(p, OptimizerState(), kb, cfg, stats=stats)
    # the filter has few escapes here; any accepted collisions are counted
    assert stats.get("negatives_accepted_equal", 0) < 60


def test_train_epoch_calls_apply_projection_through_the_rules_module(monkeypatch):
    # a wrapper put on boxkb.rules.apply_projection after import sees every
    # call: train_epoch looks the name up on the module, once per batch
    kb = random_binary_kb(n_entities=8, n_relations=2, n_facts=20, seed=10)
    p = init_params(kb.vocab, 3, stream_rng(10, STREAM_INIT))
    plan = rules.inject([rules.Rule(rules.HIERARCHY, (0, 1))], p)
    calls = []
    real = rules.apply_projection

    def counted(params, projection_plan):
        calls.append(projection_plan)
        return real(params, projection_plan)

    monkeypatch.setattr(rules, "apply_projection", counted)
    train_epoch(p, OptimizerState(), kb, TrainConfig(seed=10, batch_size=6),
                projection_plan=plan)
    assert len(calls) == math.ceil(len(kb.train) / 6) and all(c is plan for c in calls)


def test_float32_entity_tables_stay_in_step_with_the_masters(monkeypatch):
    # every forward call of an epoch runs on the float32 rounding of the
    # float64 masters as they stand, bit for bit, and on the masters' boxes
    # and slot map: the rows each Adam step moved were copied back.  Merged
    # slots, projection and filtered negatives are all in play, and each
    # batch touches only some of the 60 entities
    kb = random_binary_kb(n_entities=60, n_relations=3, n_facts=60, seed=12)
    p = init_params(kb.vocab, 4, stream_rng(12, STREAM_INIT))
    plan = rules.inject([rules.Rule(rules.SYMMETRY, (0,)),
                         rules.Rule(rules.HIERARCHY, (1, 2))], p)
    assert p.slot_of[0][0] == p.slot_of[0][1] and plan.containments
    real = training.forward
    calls = []

    def checked(params, relation, ents):
        for name in ("entity_base", "entity_bump"):
            view, master = getattr(params, name), getattr(p, name)
            assert view.dtype == np.float32
            assert np.array_equal(view.view(np.uint32),
                                  master.astype(np.float32).view(np.uint32)), name
        assert params.box_a is p.box_a and params.box_b is p.box_b
        assert params.slot_of is p.slot_of
        calls.append(relation)
        return real(params, relation, ents)

    monkeypatch.setattr(training, "forward", checked)
    before = snapshot(p)
    cfg = TrainConfig(seed=12, batch_size=4, negatives=2, learning_rate=0.05,
                      filter_train_negatives=True)
    opt = OptimizerState()
    for epoch in range(2):
        train_epoch(p, opt, kb, cfg, projection_plan=plan, epoch=epoch)
    assert len(calls) >= 2 * len(kb.train) // 4
    assert not np.array_equal(before[0], p.entity_base)


def test_refreshing_an_entity_past_float32_range_writes_no_warning():
    # entity 0's base is finite in float64 but past float32's range: the
    # epoch-start copy rounds it to inf without a warning, and so must the
    # copy of the rows each Adam step moved (the suite turns warnings into
    # errors)
    kb = random_binary_kb(n_entities=6, n_relations=1, n_facts=12, seed=13)
    p = init_params(kb.vocab, 3, stream_rng(13, STREAM_INIT))
    p.entity_base[0] = 1e39
    assert any(0 in f.entities for f in kb.train)
    train_epoch(p, OptimizerState(), kb, TrainConfig(seed=13, batch_size=4))
    assert p.entity_base[0, 0] == 1e39


def test_training_on_squares_past_float32_range_aborts_without_a_warning():
    # entity 0's base fits float32 but its distances' squares do not: the
    # float32 kernel's norms are inf, so the loss is not finite and the
    # epoch aborts, with no warning (the suite turns warnings into errors)
    kb = random_binary_kb(n_entities=6, n_relations=1, n_facts=12, seed=13)
    p = init_params(kb.vocab, 3, stream_rng(13, STREAM_INIT), bounded=False)
    p.entity_base[0] = 1e20
    assert any(0 in f.entities for f in kb.train)
    with pytest.raises(TrainingAbort):
        train_epoch(p, OptimizerState(), kb, TrainConfig(seed=13, batch_size=4))


def test_train_model_checkpoint_cadence():
    kb = random_binary_kb(n_entities=6, n_relations=1, n_facts=10, seed=9)
    p = init_params(kb.vocab, 3, stream_rng(9, STREAM_INIT))
    seen = []
    cfg = TrainConfig(epochs=7, checkpoint_every=3, seed=9)
    train_model(p, kb, cfg, on_checkpoint=lambda e, _, m: seen.append(e))
    assert seen == [2, 5, 6]  # every 3rd epoch plus the final one


def test_train_config_validation():
    TrainConfig().validate()
    TrainConfig(learning_rate=0.0).validate()  # zero is a legal no-op rate
    for bad in [TrainConfig(learning_rate=-1), TrainConfig(margin=0),
                TrainConfig(negatives=0), TrainConfig(batch_size=0),
                TrainConfig(adversarial_temperature=-0.5),
                TrainConfig(epochs=-1), TrainConfig(checkpoint_every=0),
                TrainConfig(learning_rate=float("nan")),
                TrainConfig(learning_rate=float("inf")),
                TrainConfig(margin=float("inf")), TrainConfig(margin=float("nan")),
                TrainConfig(adversarial_temperature=float("inf")),
                TrainConfig(adversarial_temperature=float("nan"))]:
        with pytest.raises(ValueError):
            bad.validate()
