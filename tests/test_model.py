"""Scoring model: distances, final embeddings, gradients, checkpoints."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkb.geometry import Box
from boxkb.kb import Fact, Vocabulary
from boxkb.model import (GradBuffer, ModelParams, apply_gradient_offsets, backward,
                         bound, dist, final_embedding, forward, init_params,
                         load_checkpoint, save_checkpoint, score, score_batch,
                         score_gradient)


def make_vocab(n_entities=4, arities=(2,)):
    v = Vocabulary()
    for i in range(n_entities):
        v.entity_id(f"e{i}", create=True)
    for i, a in enumerate(arities):
        v.relation_id(f"r{i}", arity=a, create=True)
    return v


def make_params(n_entities=4, arities=(2,), d=3, seed=0, **kw):
    return init_params(make_vocab(n_entities, arities), d,
                       np.random.default_rng(seed), **kw)


# -- distance ---------------------------------------------------------------

def test_dist_anchor_inside():
    box = Box(np.array([-1.0]), np.array([1.0]))
    assert dist(np.array([0.5]), box)[0] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_dist_anchor_outside():
    # w = 3, kappa = 0.5 * 2 * (3 - 1/3) = 8/3; 2*3 - 8/3 = 10/3
    box = Box(np.array([-1.0]), np.array([1.0]))
    assert dist(np.array([2.0]), box)[0] == pytest.approx(10.0 / 3.0, abs=1e-12)


def test_dist_point_box_reduces_to_absolute_deviation():
    box = Box(np.array([2.0, -1.0]), np.array([2.0, -1.0]))
    p = np.array([3.5, -1.0])
    assert np.array_equal(dist(p, box), [1.5, 0.0])
    assert np.array_equal(dist(p, box, per_dim=True), [1.5, 0.0])


def test_dist_continuous_at_box_boundary():
    rng = np.random.default_rng(1)
    for _ in range(300):
        lo = rng.uniform(-3, 3, 2)
        hi = lo + rng.uniform(0, 4, 2)
        box = Box(lo, hi)
        w = hi - lo + 1.0
        kappa = 0.5 * (w - 1.0) * (w - 1.0 / w)
        # at the boundary |p - c| = (w - 1) / 2; both branches give (w-1)/(2w)
        t = (w - 1.0) / 2.0
        inside_val = t / w
        outside_val = t * w - kappa
        assert np.allclose(inside_val, outside_val, atol=1e-12)
        p = hi.copy()
        assert np.allclose(dist(p, box), inside_val, atol=1e-12)


def test_dist_per_dim_branch_differs_when_partially_inside():
    # box [0,1]^2: c = 0.5, w = 2, kappa = 0.75
    box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    p = np.array([0.25, 3.0])  # inside on dim 0, outside on dim 1
    whole = dist(p, box)
    per = dist(p, box, per_dim=True)
    assert per[0] == pytest.approx(0.25 / 2.0)
    # whole-point branch treats dim 0 as outside too: t*w - kappa
    assert whole[0] == pytest.approx(0.25 * 2.0 - 0.75)
    assert whole[1] == per[1] == pytest.approx(2.5 * 2.0 - 0.75)


def test_dist_shape_guard():
    with pytest.raises(ValueError):
        dist(np.zeros(3), Box(np.zeros(2), np.ones(2)))


@settings(max_examples=150)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(0, 5), min_size=2, max_size=2),
       st.lists(st.floats(-8, 8), min_size=2, max_size=2))
def test_dist_zero_at_center_and_bounded_inside(lo, width, p):
    lo = np.asarray(lo)
    box = Box(lo, lo + np.asarray(width))
    assert np.allclose(dist((box.lower + box.upper) / 2, box), 0.0)
    # inside branch values never exceed 1/2 (|p - c| <= (w-1)/2 < w/2)
    pt = np.asarray(p)
    if np.all(box.lower <= pt) and np.all(pt <= box.upper):
        assert np.all(dist(pt, box) <= 0.5)


# -- final embeddings --------------------------------------------------------

def test_final_embedding_bump_anchor():
    p = make_params(n_entities=2, d=2, bounded=False)
    p.entity_base[0] = [1.0, 2.0]
    p.entity_bump[0] = [1.0, 2.0]
    p.entity_base[1] = [1.0, 1.0]
    p.entity_bump[1] = [-1.0, -2.0]
    pts = final_embedding(p, Fact(0, (0, 1)))
    # position 0: base0 + bump1; position 1: base1 + bump0
    assert np.array_equal(pts[0], [0.0, 0.0])
    assert np.array_equal(pts[1], [2.0, 3.0])


def test_final_embedding_is_relation_independent():
    p = make_params(n_entities=3, arities=(2, 2), d=4, bounded=True)
    a = final_embedding(p, Fact(0, (1, 2)))
    b = final_embedding(p, Fact(1, (1, 2)))
    assert np.array_equal(a, b)


def test_final_embedding_bounded_applies_tanh():
    p = make_params(n_entities=2, d=2, bounded=True)
    p.entity_base[:] = 3.0
    p.entity_bump[:] = 0.0
    pts = final_embedding(p, Fact(0, (0, 1)))
    assert np.allclose(pts, np.tanh(3.0))
    assert np.all(np.abs(pts) < 1.0)


def test_bound_is_tanh():
    x = np.linspace(-4, 4, 9)
    assert np.array_equal(bound(x), np.tanh(x))


# -- scoring ----------------------------------------------------------------

def test_score_matches_manual_composition():
    p = make_params(n_entities=3, d=3, seed=5, bounded=False, norm_order=2)
    f = Fact(0, (0, 2))
    pts = final_embedding(p, f)
    expect = sum(
        float(np.linalg.norm(dist(pts[i], p.effective_box(0, i)), ord=2))
        for i in range(2))
    assert score(p, f) == pytest.approx(expect, rel=1e-12)


def test_score_norm_order_one():
    p = make_params(n_entities=3, d=3, seed=5, bounded=False, norm_order=1)
    f = Fact(0, (1, 0))
    pts = final_embedding(p, f)
    expect = sum(
        float(np.abs(dist(pts[i], p.effective_box(0, i))).sum()) for i in range(2))
    assert score(p, f) == pytest.approx(expect, rel=1e-12)


def test_score_batch_agrees_with_score():
    p = make_params(n_entities=5, arities=(2, 3), d=4, seed=2)
    ents = np.array([[0, 1, 2], [4, 4, 4], [3, 0, 1]])
    batch = score_batch(p, 1, ents)
    for row, s in zip(ents, batch):
        assert score(p, Fact(1, tuple(row))) == pytest.approx(float(s), rel=1e-12)


def test_score_rejects_arity_mismatch():
    p = make_params(arities=(2,))
    with pytest.raises(ValueError):
        score(p, Fact(0, (0, 1, 2)))


def test_score_zero_when_all_finals_at_box_centers():
    p = make_params(n_entities=2, d=2, bounded=False)
    p.entity_base[:] = 0.0
    p.entity_bump[:] = 0.0
    p.box_a[:] = -1.0
    p.box_b[:] = 1.0
    assert score(p, Fact(0, (0, 1))) == 0.0


# -- gradients ---------------------------------------------------------------

def fd_gradient(params, fact, kind, idx, h=1e-6):
    arr = {"base": params.entity_base, "bump": params.entity_bump,
           "boxa": params.box_a, "boxb": params.box_b}[kind]
    out = np.zeros(params.d)
    for j in range(params.d):
        old = arr[idx, j]
        arr[idx, j] = old + h
        hi = score(params, fact)
        arr[idx, j] = old - h
        lo = score(params, fact)
        arr[idx, j] = old
        out[j] = (hi - lo) / (2 * h)
    return out


@pytest.mark.parametrize("norm_order", [1, 2])
@pytest.mark.parametrize("bounded", [True, False])
def test_score_gradient_matches_finite_differences(norm_order, bounded):
    rng = np.random.default_rng(7)
    for trial in range(8):
        p = make_params(n_entities=3, arities=(2,), d=3, seed=trial,
                        norm_order=norm_order, bounded=bounded)
        p.entity_base[:] = rng.uniform(-1, 1, p.entity_base.shape)
        p.entity_bump[:] = rng.uniform(-1, 1, p.entity_bump.shape)
        f = Fact(0, (int(rng.integers(3)), int(rng.integers(3))))
        grads = score_gradient(p, f)
        assert grads  # at least the box slots are touched
        for (kind, idx), vec in grads.items():
            fd = fd_gradient(p, f, kind, idx)
            assert np.allclose(vec, fd, rtol=1e-4, atol=1e-6), (kind, idx)


def test_score_gradient_repeated_entity_accumulates():
    # r(a, a): the entity receives base gradient from both positions
    p = make_params(n_entities=2, d=3, seed=3, bounded=False)
    f = Fact(0, (0, 0))
    grads = score_gradient(p, f)
    fd = fd_gradient(p, f, "base", 0)
    assert np.allclose(grads[("base", 0)], fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("norm_order", [1, 2])
@pytest.mark.parametrize("bounded", [True, False])
@pytest.mark.parametrize("per_dim_branch", [False, True])
def test_batched_backward_matches_per_fact_gradients(norm_order, bounded,
                                                     per_dim_branch):
    # four entities over rows of arity 1..4: ids repeat within rows and
    # across rows; relation 4 shares one box between both its positions
    arities = (1, 2, 3, 4, 2)
    rng = np.random.default_rng(11)
    for trial in range(6):
        p = make_params(n_entities=4, arities=arities, d=5, seed=trial,
                        norm_order=norm_order, bounded=bounded)
        p.per_dim_branch = per_dim_branch
        p.merge_slots([(int(p.slot_of[4][0]), int(p.slot_of[4][1]))])
        for rel, arity in enumerate(arities):
            ents = rng.integers(0, 4, size=(9, arity))
            weights = rng.normal(size=9)
            scores, cache = forward(p, rel, ents)
            assert np.array_equal(score_batch(p, rel, ents), scores)
            buf = GradBuffer(p)
            backward(p, cache, weights, buf)
            batched = buf.to_dict()
            expect = {}
            for row, wgt in zip(ents, weights):
                for key, vec in score_gradient(p, Fact(rel, tuple(row))).items():
                    expect[key] = expect.get(key, 0.0) + wgt * vec
            assert batched.keys() == expect.keys()
            for key, vec in expect.items():
                assert np.allclose(batched[key], vec, rtol=0.0, atol=1e-12), key


def test_apply_gradient_offsets_descends():
    p = make_params(n_entities=3, d=4, seed=9)
    f = Fact(0, (0, 1))
    before = score(p, f)
    apply_gradient_offsets(p, score_gradient(p, f), -1e-3)
    assert score(p, f) < before


# -- slots and corner routing -------------------------------------------------

def test_merge_slots_shares_boxes():
    p = make_params(n_entities=3, arities=(2, 2), d=2, seed=1)
    mapping = p.merge_slots([(0, 3), (1, 2)])
    assert p.slot_of[0][0] == p.slot_of[1][1]
    assert p.slot_of[0][1] == p.slot_of[1][0]
    assert mapping[3] == 0 and mapping[2] == 1
    b1 = p.effective_box(0, 0)
    b2 = p.effective_box(1, 1)
    assert np.array_equal(b1.lower, b2.lower) and np.array_equal(b1.upper, b2.upper)


def test_merge_slots_is_transitive():
    p = make_params(n_entities=2, arities=(2, 2, 2), d=2, seed=1)
    p.merge_slots([(0, 2), (2, 4)])
    assert p.slot_of[0][0] == p.slot_of[1][0] == p.slot_of[2][0] == 0


def test_set_raw_bounds_route_to_min_max_corner():
    p = make_params(n_entities=2, d=2, seed=0)
    slot = int(p.slot_of[0][0])
    p.box_a[slot] = [1.0, -1.0]
    p.box_b[slot] = [-1.0, 1.0]
    p.set_raw_lower(slot, 0, -2.0)   # min corner on dim 0 is box_b
    p.set_raw_upper(slot, 1, 2.0)    # max corner on dim 1 is box_b
    assert p.box_b[slot, 0] == -2.0 and p.box_a[slot, 0] == 1.0
    assert p.box_b[slot, 1] == 2.0 and p.box_a[slot, 1] == -1.0
    lo, hi = p.raw_bounds(slot)
    assert np.array_equal(lo, [-2.0, -1.0]) and np.array_equal(hi, [1.0, 2.0])


def test_effective_box_is_tanh_of_raw():
    p = make_params(n_entities=2, d=2, seed=0, bounded=True)
    slot = int(p.slot_of[0][0])
    lo, hi = p.raw_bounds(slot)
    eff = p.effective_box(0, 0)
    assert np.allclose(eff.lower, np.tanh(lo))
    assert np.allclose(eff.upper, np.tanh(hi))


# -- checkpoints ---------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    p = make_params(n_entities=4, arities=(2, 3), d=5, seed=11, norm_order=1,
                    bounded=False)
    path = tmp_path / "ck.json"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.vocab.entity_names == p.vocab.entity_names
    assert q.vocab.relation_arities == p.vocab.relation_arities
    assert q.norm_order == 1 and q.bounded is False
    assert np.array_equal(q.entity_base, p.entity_base)
    assert np.array_equal(q.entity_bump, p.entity_bump)
    for rel in range(2):
        for pos in range(p.vocab.arity(rel)):
            b1, b2 = p.effective_box(rel, pos), q.effective_box(rel, pos)
            assert np.array_equal(b1.lower, b2.lower)
            assert np.array_equal(b1.upper, b2.upper)


def test_checkpoint_save_is_deterministic(tmp_path):
    p = make_params(n_entities=3, d=4, seed=2)
    p.merge_slots([(0, 1)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p, a)
    save_checkpoint(load_checkpoint(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_scores_survive_round_trip(tmp_path):
    p = make_params(n_entities=4, d=3, seed=8)
    path = tmp_path / "ck.json"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    for fact in [Fact(0, (0, 1)), Fact(0, (3, 2))]:
        assert score(q, fact) == score(p, fact)
