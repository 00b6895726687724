"""Scoring model: distances, final embeddings, gradients, checkpoints."""
import base64
import binascii
import functools
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from boxkb import model
from boxkb.evaluation import evaluate, rank_fact
from boxkb.geometry import Box
from boxkb.kb import Fact, KnowledgeBase, Vocabulary
from boxkb.model import (GradBuffer, GradMap, ModelParams, backward, dist,
                         final_embedding, float32_entities, forward, init_params,
                         load_checkpoint, row_blocks, save_checkpoint, score,
                         score_batch, score_gradient, score_point_group)


def make_vocab(n_entities=4, arities=(2,)):
    v = Vocabulary()
    for i in range(n_entities):
        v.entity_id(f"e{i}", create=True)
    for i, a in enumerate(arities):
        v.relation_id(f"r{i}", arity=a, create=True)
    return v


def apply_gradient_offsets(params: ModelParams, grads: GradMap, scale: float) -> None:
    """In-place params += scale * grads, used by finite-difference tests."""
    arrays = {"base": params.entity_base, "bump": params.entity_bump,
              "boxa": params.box_a, "boxb": params.box_b}
    for (kind, idx), vec in grads.items():
        arrays[kind][idx] += scale * vec


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


SCORERS = {
    "score": lambda p, kb, f: score(p, f),
    "score_batch": lambda p, kb, f: score_batch(p, f.relation, np.array([f.entities])),
    "score_gradient": lambda p, kb, f: score_gradient(p, f),
    "score_point_group": lambda p, kb, f: score_point_group(
        p, [model._box_tensors(p, f.relation)], f.entities, 0,
        (p.entity_bump.T, (p.entity_base - p.entity_bump).T)),
    "rank_fact": lambda p, kb, f: rank_fact(p, kb, f, 0, True),
    "evaluate": lambda p, kb, f: evaluate(p, kb, "test"),
}


@pytest.mark.parametrize("entities", [(0,), (0, 1, 2)], ids=["short", "long"])
@pytest.mark.parametrize("scorer", list(SCORERS))
def test_every_scorer_rejects_a_row_of_another_arity(scorer, entities):
    p = make_params(arities=(2,))

    def run(fact):
        kb = KnowledgeBase(p.vocab, (), (), (fact,), 1)
        return SCORERS[scorer](p, kb, fact)

    run(Fact(0, (0, 1)))  # the relation's own arity scores
    with pytest.raises(ValueError, match="^fact arity does not match relation arity$"):
        run(Fact(0, entities))


def test_scores_whose_squares_pass_float64_range_are_inf_without_a_warning():
    # an unbounded model whose entity 2 lies at 1e160: its distances are
    # finite, their squares are not, and no scorer may warn about it (the
    # suite turns warnings into errors)
    p = make_params(n_entities=3, d=3, bounded=False)
    p.entity_base[2] = 1e160
    test = (Fact(0, (2, 0)), Fact(0, (0, 1)))
    kb = KnowledgeBase(p.vocab, (Fact(0, (1, 2)),), (), test, 1)
    assert score(p, test[0]) == np.inf
    assert np.isfinite(score(p, test[1]))
    assert evaluate(p, kb, "test")["n_facts"] == 2
    for fact in test:
        for position in range(2):
            for filtered in (False, True):
                assert rank_fact(p, kb, fact, position, filtered) >= 1


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
            assert vec.dtype == np.float64
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


def float64_and_float32_gradients(p: ModelParams, relation: int, ents, weights):
    """The float64 ``GradBuffer`` of forward and backward on ``p``, and the
    one on ``float32_entities(p)``, the training kernel's view."""
    bufs = []
    for q in (p, float32_entities(p)):
        buf = GradBuffer(p)
        backward(q, forward(q, relation, ents)[1], weights, buf)
        bufs.append(buf)
    return bufs


# The largest gap allowed between a float32 and a float64 gradient table, as
# a fraction of the float64 table's largest entry: each entry sums a few
# hundred float32 roundings (worst measured on the cases below: 4.4e-7)
FLOAT32_GRAD_RTOL = 1e-5


@pytest.mark.parametrize("norm_order", [1, 2])
@pytest.mark.parametrize("bounded", [True, False])
@pytest.mark.parametrize("per_dim_branch", [False, True])
def test_float32_backward_matches_float64_backward(norm_order, bounded, per_dim_branch):
    # rows of arity 1..4 and a binary relation whose positions share a slot;
    # one wide box holds points, so both branches of the distance are taken
    arities = (1, 2, 3, 4, 2)
    rng = np.random.default_rng(13)
    for trial in range(4):
        p = make_params(n_entities=12, arities=arities, d=8, seed=trial,
                        norm_order=norm_order, bounded=bounded)
        p.per_dim_branch = per_dim_branch
        p.merge_slots([(int(p.slot_of[4][0]), int(p.slot_of[4][1]))])
        wide = int(p.slot_of[1][0])
        p.box_a[wide], p.box_b[wide] = -3.0, 3.0
        for rel, arity in enumerate(arities):
            ents = rng.integers(0, 12, size=(40, arity))
            b64, b32 = float64_and_float32_gradients(p, rel, ents, rng.normal(size=40))
            for name in ("base", "bump", "boxa", "boxb"):
                g64, g32 = getattr(b64, name), getattr(b32, name)
                assert g32.dtype == np.float64
                assert np.abs(g32 - g64).max() <= FLOAT32_GRAD_RTOL * np.abs(g64).max(), \
                    (trial, rel, name)
            for name in ("base_touched", "bump_touched", "box_touched"):
                assert np.array_equal(getattr(b32, name), getattr(b64, name))


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_float32_backward_sums_each_entity_in_occurrence_order(arity):
    # five entities over 30 rows, so ids repeat within rows and across them;
    # a model with one entity per occurrence (a copy of its entity's rows)
    # gives each occurrence's point gradient alone, exactly
    n_e, B, d = 5, 30, 6
    p = make_params(n_entities=n_e, arities=(arity,), d=d, seed=arity)
    rng = np.random.default_rng(20 + arity)
    ents = rng.integers(0, n_e, size=(B, arity))
    weights = rng.normal(size=B)
    flat = ents.ravel()
    apart = replace(p, vocab=make_vocab(flat.size, (arity,)),
                    entity_base=p.entity_base[flat], entity_bump=p.entity_bump[flat])

    def float32_gradients(q: ModelParams, rows) -> GradBuffer:
        kernel = float32_entities(q)
        buf = GradBuffer(q)
        backward(kernel, forward(kernel, 0, rows)[1], weights, buf)
        return buf

    got = float32_gradients(p, ents)
    alone = float32_gradients(apart, np.arange(flat.size).reshape(B, arity))
    terms = alone.base.astype(np.float32).reshape(B, arity, d)
    row_totals = terms.sum(axis=1)  # backward's own sum over positions
    base = np.zeros((n_e, d), dtype=np.float32)
    occ = np.zeros((n_e, d), dtype=np.float32)
    for k, e in enumerate(flat):  # left to right in occurrence order
        base[e] += terms[k // arity, k % arity]
        occ[e] += row_totals[k // arity]
    assert np.bincount(flat).max() >= 3
    for name, expect in (("base", base), ("bump", occ - base)):
        table = getattr(got, name)
        assert table.dtype == np.float64
        assert np.array_equal(table.view(np.uint64),
                              expect.astype(np.float64).view(np.uint64)), name


def reselecting_backward(params: ModelParams, cache, weights, buf: GradBuffer) -> None:
    """``backward`` as written before it took each point's branch from
    ``forward``: it runs the inside test again for every position (through
    ``_distance``) and selects each derivative factor from two (B, d)
    ``np.where`` tables.  ``backward`` must match it bit for bit."""
    dtype = params.entity_base.dtype
    weights = np.asarray(weights, dtype=dtype)
    ents = cache.ents
    B, n = ents.shape
    slots, lo, hi, c, w, kappa = cache.box
    g_raw = np.empty((B, n, params.d), dtype=dtype)
    for p, x in enumerate(cache.points):
        dv, z, t, branch = (a.T for a in model._distance(x.T, lo[p], hi[p], c[p], w[p],
                                                         kappa[p], params.per_dim_branch))
        if params.norm_order == 1:
            g_dv = np.sign(dv)
            g_dv *= weights[:, None]
        else:
            s = cache.norms[:, p]
            with np.errstate(invalid="ignore", divide="ignore"):
                g_dv = dv * np.where(s > 0.0, weights / s, 0.0)[:, None]
        wp = w[p]
        inv_w2 = 1.0 / (wp * wp)
        kappa_p = wp - 0.5 - 0.5 * inv_w2
        g_w = (g_dv * np.where(branch, t * -inv_w2, t - kappa_p)).sum(axis=0)
        g_z = g_dv * np.where(branch, 1.0 / wp, wp)
        g_z *= np.sign(z)
        g_c = -g_z.sum(axis=0)
        g_lo = 0.5 * g_c - g_w
        g_hi = 0.5 * g_c + g_w
        if params.bounded:
            g_lo = g_lo * (1.0 - lo[p] * lo[p])
            g_hi = g_hi * (1.0 - hi[p] * hi[p])
        slot = int(slots[p])
        g_a, g_b = params.to_corners(slot, g_lo, g_hi)
        buf.boxa[slot] += g_a
        buf.boxb[slot] += g_b
        buf.box_touched[slot] = True
        if params.bounded:
            np.multiply(g_z, 1.0 - x * x, out=g_raw[:, p, :])
        else:
            g_raw[:, p, :] = g_z
    flat = ents.ravel()
    order = np.argsort(flat, kind="stable")
    sorted_ids = flat[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
    rows = sorted_ids[starts]
    indptr = np.append(starts, flat.size)
    ones = np.ones(flat.size, dtype=dtype)
    g_base = (csr_array((ones, order, indptr), shape=(rows.size, B * n))
              @ g_raw.reshape(B * n, params.d))
    g_occ = csr_array((ones, order // n, indptr), shape=(rows.size, B)) @ g_raw.sum(axis=1)
    buf.base[rows] += g_base
    buf.bump[rows] += g_occ - g_base
    buf.base_touched[rows] = True
    buf.bump_touched[rows] = True


def branch_edge_params(norm_order, bounded, per_dim_branch) -> ModelParams:
    """Relations of arity 1, 2, 3 and a binary one whose positions share a
    slot, where entities 0-2 sit at the origin (base and bump 0), so a row
    of them puts every point at 0 exactly, bounded or not.  Relation 1's
    first box is the point 0 itself (its rows of origin entities have norm
    0 there) and its second a wide box with its lower face at 0 in
    dimension 0 (those rows' points lie on that face); relation 2's middle
    box is wide, so both branches are taken."""
    p = make_params(n_entities=12, arities=(1, 2, 3, 2), d=4, seed=8,
                    norm_order=norm_order, bounded=bounded)
    p.per_dim_branch = per_dim_branch
    p.merge_slots([(int(p.slot_of[3][0]), int(p.slot_of[3][1]))])
    p.entity_base *= 2.5
    p.entity_base[:3] = p.entity_bump[:3] = 0.0
    point, faced = p.slot_of[1]
    p.box_a[point] = p.box_b[point] = 0.0
    p.box_a[faced], p.box_b[faced] = -2.5, 2.5
    p.box_a[faced, 0] = 0.0
    wide = int(p.slot_of[2][1])
    p.box_a[wide], p.box_b[wide] = -2.0, 2.0
    return p


@pytest.mark.parametrize("norm_order", [1, 2])
@pytest.mark.parametrize("bounded", [True, False])
@pytest.mark.parametrize("per_dim_branch", [False, True])
@pytest.mark.parametrize("kernel_of", [lambda p: p, float32_entities],
                         ids=["float64", "float32"])
def test_backward_equals_reselecting_backward_bitwise(monkeypatch, norm_order, bounded,
                                                      per_dim_branch, kernel_of):
    # 37 rows in blocks of five (float64) or ten (float32) rows; the first
    # six rows of each relation hold only origin entities
    p = branch_edge_params(norm_order, bounded, per_dim_branch)
    kernel = kernel_of(p)
    monkeypatch.setattr(model, "_BLOCK_BYTES", 160)
    B = 37
    assert len(row_blocks(B, kernel.entity_base.itemsize * p.d)) >= 4
    rng = np.random.default_rng(17)
    weights = np.linspace(-1.0, 2.0, B)  # weight 0 at row 12
    branches_taken = set()
    for rel, arity in enumerate((1, 2, 3, 2)):
        ents = rng.integers(0, 12, size=(B, arity))
        ents[:6] = rng.integers(0, 3, size=(6, arity))
        _, cache = forward(kernel, rel, ents)
        if rel == 1:
            assert (cache.norms[:6, 0] == 0.0).all()
            assert (cache.points[1, :6, 0] == 0.0).all()
            assert cache.branch[1, :6].all()  # on the face, so inside
        branches_taken.update(np.unique(cache.branch).tolist())
        got, expect = GradBuffer(p), GradBuffer(p)
        backward(kernel, cache, weights, got)
        reselecting_backward(kernel, cache, weights, expect)
        for name in ("base", "bump", "boxa", "boxb"):
            assert np.array_equal(getattr(got, name).view(np.uint64),
                                  getattr(expect, name).view(np.uint64)), (rel, name)
        for name in ("base_touched", "bump_touched", "box_touched"):
            assert np.array_equal(getattr(got, name), getattr(expect, name)), (rel, name)
    assert branches_taken == {False, True}


def test_only_forward_runs_the_inside_test(monkeypatch):
    # forward decides each point's branch once per block and position;
    # backward takes it from the cache, so score_gradient runs the test only
    # in its forward call
    calls = []
    real_inside = model.inside

    def counted_inside(lo, hi, x):
        calls.append(x.shape)
        return real_inside(lo, hi, x)

    monkeypatch.setattr(model, "inside", counted_inside)
    monkeypatch.setattr(model, "_BLOCK_BYTES", 160)
    rng = np.random.default_rng(4)
    for per_dim_branch in (False, True):
        p = make_params(n_entities=9, arities=(3,), d=4, seed=2)
        p.per_dim_branch = per_dim_branch
        ents = rng.integers(0, 9, size=(23, 3))
        calls.clear()
        _, cache = forward(p, 0, ents)
        assert len(calls) == len(row_blocks(23, 8 * p.d)) * 3 == 15
        calls.clear()
        backward(p, cache, np.ones(23), GradBuffer(p))
        assert calls == []
        score_gradient(p, Fact(0, (1, 2, 3)))
        assert len(calls) == 3  # one block of one row, three positions


@pytest.mark.parametrize("norm_order", [1, 2])
@pytest.mark.parametrize("bounded", [True, False])
@pytest.mark.parametrize("per_dim_branch", [False, True])
def test_score_candidates_equals_score_batch_bitwise(norm_order, bounded,
                                                     per_dim_branch):
    # relations of arity 1..4 and a binary one whose positions share a slot;
    # anchor rows repeat an entity, and every anchor holds some candidate
    arities = (1, 2, 3, 4, 2)
    n_e = 40
    p = make_params(n_entities=n_e, arities=arities, d=6, seed=3,
                    norm_order=norm_order, bounded=bounded)
    p.per_dim_branch = per_dim_branch
    p.merge_slots([(int(p.slot_of[4][0]), int(p.slot_of[4][1]))])
    p.entity_base *= 4.0
    wide = int(p.slot_of[2][1])  # a box wide enough to hold some points
    p.box_a[wide], p.box_b[wide] = -3.0, 3.0
    tables = p.entity_bump.T, (p.entity_base - p.entity_bump).T
    rng = np.random.default_rng(7)
    for rel, arity in enumerate(arities):
        for anchor in (rng.integers(0, n_e, arity), np.full(arity, 5),
                       np.arange(arity)):
            for pos in range(arity):
                rows = np.tile(anchor, (n_e, 1))
                rows[:, pos] = np.arange(n_e)
                expect = score_batch(p, rel, rows)
                got = score_point_group(p, [model._box_tensors(p, rel)], tuple(anchor),
                                        pos, tables)[0]
                assert got.shape == expect.shape
                assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), \
                    (rel, tuple(anchor), pos)


def test_row_blocks_are_balanced_and_cover_every_row(monkeypatch):
    monkeypatch.setattr(model, "_BLOCK_BYTES", 160)  # five 32-byte rows
    assert [(b.start, b.stop) for b in row_blocks(23, 32)] == \
        [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]
    assert row_blocks(3, 32) == [slice(0, 3)]
    assert row_blocks(0, 32) == []
    assert [b.stop - b.start for b in row_blocks(10, 1000)] == [1] * 10


def scoring_outputs(p, arities, rows_by_relation):
    """Every scoring output as uint64 bit patterns: ``score_point_group`` at
    each position of each row, and ``forward`` scores, ``cache.points`` and
    the ``backward`` gradient tables of each relation's rows."""
    tables = p.entity_bump.T, (p.entity_base - p.entity_bump).T
    out = []
    for rel, rows in enumerate(rows_by_relation):
        for anchor in rows[:3]:
            for pos in range(arities[rel]):
                out.append(score_point_group(p, [model._box_tensors(p, rel)], tuple(anchor),
                                             pos, tables)[0])
        scores, cache = forward(p, rel, rows)
        buf = GradBuffer(p)
        backward(p, cache, np.linspace(-1.0, 2.0, len(rows)), buf)
        out += [scores, *cache.points, buf.base, buf.bump, buf.boxa, buf.boxb]
    return [a.view(np.uint64) for a in out]


@pytest.mark.parametrize("n_e", [23, 3])
@pytest.mark.parametrize("norm_order,bounded", [(2, True), (1, False)])
@pytest.mark.parametrize("per_dim_branch", [False, True])
def test_blocked_scoring_equals_one_block_bitwise(monkeypatch, n_e, norm_order,
                                                  bounded, per_dim_branch):
    # blocks of five 32-byte rows: 23 rows are five blocks, the last of
    # three rows, and 37 batch rows eight; 3 rows fit in one block
    arities = (1, 2, 3, 4, 5, 2)
    p = make_params(n_entities=n_e, arities=arities, d=4, seed=5,
                    norm_order=norm_order, bounded=bounded)
    p.per_dim_branch = per_dim_branch
    p.merge_slots([(int(p.slot_of[5][0]), int(p.slot_of[5][1]))])
    p.entity_base *= 3.0
    for rel in (1, 3):  # boxes wide enough to hold some points
        p.box_a[p.slot_of[rel]], p.box_b[p.slot_of[rel]] = -2.5, 2.5
    rng = np.random.default_rng(11)
    rows = [rng.integers(0, n_e, size=(37, a)) for a in arities]
    monkeypatch.setattr(model, "_BLOCK_BYTES", 160)
    assert len(row_blocks(37, 8 * p.d)) == 8
    blocked = scoring_outputs(p, arities, rows)
    monkeypatch.setattr(model, "_BLOCK_BYTES", 1 << 30)
    assert len(row_blocks(37, 8 * p.d)) == 1
    one_block = scoring_outputs(p, arities, rows)
    assert len(blocked) == len(one_block)
    for i, (got, expect) in enumerate(zip(blocked, one_block)):
        assert got.shape == expect.shape and np.array_equal(got, expect), i


def one_dim_params(arity):
    """d = 1, unbounded, entity 0's bump 1e16 and the others' 1: a bump sum
    of 1e16 and ones is 1e16 when added left to right (each 1 is half an
    ulp), but not when the ones are added up first."""
    p = make_params(n_entities=3, arities=(arity,), d=1, seed=arity, bounded=False)
    p.entity_bump[:, 0] = [1e16, 1.0, 1.0]
    return p


@pytest.mark.parametrize("arity", [8, 9])
def test_score_candidates_equals_score_batch_bitwise_at_one_dimension(arity):
    # at d = 1 a (B, n, 1) gather summed over n would be a contiguous
    # reduction, which numpy does not add left to right from eight terms on
    p = one_dim_params(arity)
    tables = p.entity_bump.T, (p.entity_base - p.entity_bump).T
    anchor = np.array([0] + [1] * (arity - 1))
    for pos in range(arity):
        rows = np.tile(anchor, (3, 1))
        rows[:, pos] = np.arange(3)
        expect = score_batch(p, 0, rows)
        got = score_point_group(p, [model._box_tensors(p, 0)], tuple(anchor), pos,
                                tables)[0]
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), pos


def row_major_scores(p, rel, rows, sum_rows=lambda sq: sq.sum(axis=1)):
    """Scores of the (B, n) id array ``rows`` by the row-major formula: each
    position's (B, d) points, their whole-point distance and a norm summed
    along each row, ``(dv * dv).sum(axis=1)``, which numpy sums pairwise
    (``sum_rows`` replaces that sum)."""
    lo, hi = p.effective_bounds(p.slot_of[rel])
    c = (lo + hi) / 2.0
    w = hi - lo + 1.0
    kappa = 0.5 * (w - 1.0) * (w - 1.0 / w)
    s = p.entity_bump[rows[:, 0]]
    for q in range(1, rows.shape[1]):
        s = s + p.entity_bump[rows[:, q]]
    total = np.zeros(len(rows))
    for q in range(rows.shape[1]):
        x = p.entity_base[rows[:, q]] - p.entity_bump[rows[:, q]] + s
        if p.bounded:
            x = np.tanh(x)
        inside = ((lo[q] <= x) & (x <= hi[q])).all(axis=1, keepdims=True)
        t = np.abs(x - c[q])
        dv = np.where(inside, t / w[q], t * w[q] - kappa[q])
        total += np.sqrt(sum_rows(dv * dv))
    return total


def spread_params():
    """Unbounded, d = 100, entity entries of either sign spread over
    1e-3..1e3 and boxes as initialised, so a distance's squares span many
    orders of magnitude; one box is wide enough to hold some points."""
    p = make_params(n_entities=12, arities=(2, 3), d=100, seed=21, bounded=False)
    rng = np.random.default_rng(21)
    for table in (p.entity_base, p.entity_bump):
        sign = rng.choice([-1.0, 1.0], table.shape)
        table[:] = sign * 10.0 ** rng.uniform(-3, 3, table.shape)
    p.entity_base[:3] = rng.uniform(-0.5, 0.5, (3, p.d))
    p.entity_bump[:3] = rng.uniform(-0.05, 0.05, (3, p.d))
    p.box_a[p.slot_of[0][0]], p.box_b[p.slot_of[0][0]] = -2.0, 2.0
    return p


def test_float64_scores_sum_each_norm_as_the_row_major_formula(monkeypatch):
    # every float64 scorer gives the bits of the row-major formula, whose
    # norms numpy sums pairwise along a row; on this data a sum down the
    # dimensions in order gives other bits, so a scorer that summed that
    # way would fail here
    p = spread_params()
    n_e = p.vocab.n_entities
    rng = np.random.default_rng(5)
    for rel, arity in enumerate((2, 3)):
        rows = rng.integers(0, n_e, size=(30, arity))
        rows[:3] = rng.integers(0, 3, size=(3, arity))  # points inside the wide box
        expect = row_major_scores(p, rel, rows).view(np.uint64)
        sequential = row_major_scores(p, rel, rows,
                                      lambda sq: functools.reduce(np.add, sq.T))
        assert not np.array_equal(sequential.view(np.uint64), expect)
        assert np.array_equal(score_batch(p, rel, rows).view(np.uint64), expect)
        got = np.array([score(p, Fact(rel, tuple(int(e) for e in row))) for row in rows])
        assert np.array_equal(got.view(np.uint64), expect)
        box = [model._box_tensors(p, rel)]
        for anchor in rows[:4]:
            for pos in range(arity):
                every = np.tile(anchor, (n_e, 1))
                every[:, pos] = np.arange(n_e)
                expect = row_major_scores(p, rel, every).view(np.uint64)
                got = score_point_group(p, box, tuple(anchor), pos)[0]
                assert np.array_equal(got.view(np.uint64), expect), (rel, pos)
                for ids in (np.array([7]), np.array([2, 9])):
                    got = score_point_group(p, box, tuple(anchor), pos, ids=ids)[0]
                    assert np.array_equal(got.view(np.uint64), expect[ids]), (rel, pos, ids)
                monkeypatch.setattr(model, "_BLOCK_BYTES", 8)  # one row per block
                assert len(row_blocks(n_e, 8 * p.d)) == n_e
                got = score_point_group(p, box, tuple(anchor), pos)[0]
                assert np.array_equal(got.view(np.uint64), expect), (rel, pos)
                assert np.array_equal(score_batch(p, rel, every).view(np.uint64), expect)
                monkeypatch.undo()


def test_final_embedding_adds_the_bump_sum_left_to_right():
    p = one_dim_params(9)
    ents = (0, 1, 2, 1, 2, 1, 2, 1, 2)
    expect = [p.entity_base[e, 0] - p.entity_bump[e, 0] + 1e16 for e in ents]
    assert final_embedding(p, Fact(0, ents))[:, 0].tolist() == expect


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
    p.set_raw_bounds((slot, 0), -2.0, p.raw_bounds((slot, 0))[1])  # min corner on dim 0 is box_b
    p.set_raw_bounds((slot, 1), p.raw_bounds((slot, 1))[0], 2.0)   # max corner on dim 1 is box_b
    assert p.box_b[slot, 0] == -2.0 and p.box_a[slot, 0] == 1.0
    assert p.box_b[slot, 1] == 2.0 and p.box_a[slot, 1] == -1.0
    lo, hi = p.raw_bounds(slot)
    assert np.array_equal(lo, [-2.0, -1.0]) and np.array_equal(hi, [1.0, 2.0])


@pytest.mark.parametrize("bounded", [True, False])
def test_float32_backward_routes_box_gradients_by_the_float64_corners(bounded):
    # on dimension 0 box_a lies above box_b by less than float32 resolves:
    # the float64 corners make box_b the lower bound, while float32 copies
    # of them would tie and send the lower bound's gradient to box_a
    p = make_params(n_entities=3, d=3, seed=4, bounded=bounded)
    slot = int(p.slot_of[0][0])
    p.box_b[slot, 0] = 0.1
    p.box_a[slot, 0] = 0.1 + 1e-12
    assert np.float32(p.box_a[slot, 0]) == np.float32(p.box_b[slot, 0])
    ents = np.array([[0, 1], [1, 2], [2, 0]])
    b64, b32 = float64_and_float32_gradients(p, 0, ents, np.ones(3))
    g_hi, g_lo = b64.boxa[slot, 0], b64.boxb[slot, 0]
    assert abs(g_hi - g_lo) > 0.1 * abs(g_hi)  # a swap of the two would show
    for name in ("boxa", "boxb"):
        g64, g32 = getattr(b64, name)[slot], getattr(b32, name)[slot]
        assert np.allclose(g32, g64, rtol=FLOAT32_GRAD_RTOL, atol=0.0), name


def test_d_is_the_table_width():
    p = make_params(n_entities=3, arities=(2, 3), d=4, seed=0)
    assert p.d == 4 and p.copy().d == 4
    with pytest.raises(AttributeError):
        p.d = 5
    p.entity_base = np.zeros((3, 6))
    assert p.d == 6


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


def test_checkpoint_save_is_atomic(tmp_path, monkeypatch):
    # a write that fails part-way leaves the previous checkpoint as it was
    path = tmp_path / "ck.json"
    save_checkpoint(make_params(n_entities=3, d=4, seed=2), path)
    save_checkpoint(make_params(n_entities=3, d=4, seed=3), path)
    assert sorted(tmp_path.iterdir()) == [path]
    before = path.read_bytes()

    class TornFile(io.FileIO):
        def write(self, data):
            super().write(b'{"version": 1, "entit')
            raise OSError("disk full")

    monkeypatch.setattr(model, "open", TornFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(make_params(n_entities=3, d=4, seed=4), path)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]
    fresh = tmp_path / "fresh.json"
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(make_params(n_entities=3, d=4, seed=4), fresh)
    assert sorted(tmp_path.iterdir()) == [path]


def test_checkpoint_save_that_fails_among_the_tables_leaves_no_trace(tmp_path,
                                                                     monkeypatch):
    # the third table's text fails after the header and two tables are written
    path = tmp_path / "ck.json"
    save_checkpoint(make_params(n_entities=3, d=4, seed=2), path)
    before = path.read_bytes()
    encoded, real_b2a = [], binascii.b2a_base64

    def failing_b2a(data, **kw):
        encoded.append(len(encoded))
        if len(encoded) == 3:
            raise OSError("disk full")
        return real_b2a(data, **kw)

    monkeypatch.setattr(binascii, "b2a_base64", failing_b2a)
    for target in (path, tmp_path / "fresh.json"):
        encoded.clear()
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(make_params(n_entities=3, d=4, seed=4), target)
        assert encoded == [0, 1, 2]
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]


def reference_save_checkpoint(params: ModelParams, path) -> None:
    """A reference version 2 writer: the whole object through ``json.dump``,
    then a newline.  ``save_checkpoint`` must write the same bytes."""
    vocab = params.vocab
    payload = {
        "version": 2,
        "entities": vocab.entity_names,
        "relations": vocab.relation_names,
        "arities": vocab.relation_arities,
        "d": params.d,
        "n_slots": params.n_slots,
        "norm_order": params.norm_order,
        "bounded": params.bounded,
        "per_dim_branch": params.per_dim_branch,
        "slot_of": [slots.tolist() for slots in params.slot_of],
    }
    for name in TABLES:
        table = np.asarray(getattr(params, name), dtype="<f8")
        payload[name] = base64.b64encode(table.tobytes()).decode("ascii")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def assert_writes_reference_bytes(params: ModelParams, directory) -> None:
    save_checkpoint(params, directory / "ck.json")
    reference_save_checkpoint(params, directory / "ref.json")
    assert (directory / "ck.json").read_bytes() == (directory / "ref.json").read_bytes()
    assert_same_params(load_checkpoint(directory / "ck.json"), params)


ESCAPED_NAMES = ['"', "\\", "\t", "\x01", "/", "é", "中文", "a b", ""]


def _merged(p: ModelParams) -> ModelParams:
    p.merge_slots([(0, 3), (1, 2)])
    return p


@pytest.mark.parametrize("make", [
    pytest.param(lambda: init_params(
        Vocabulary(ESCAPED_NAMES, ESCAPED_NAMES[::-1], [2] * len(ESCAPED_NAMES)),
        3, np.random.default_rng(1)), id="escaped-names"),
    pytest.param(lambda: make_params(n_entities=0, arities=(2, 1)), id="no-entities"),
    pytest.param(lambda: make_params(arities=()), id="no-relations"),
    pytest.param(lambda: make_params(n_entities=0, arities=()), id="empty"),
    pytest.param(lambda: make_params(arities=(2, 3), d=1), id="d1"),
    pytest.param(lambda: _merged(make_params(arities=(2, 3))), id="merged-slots"),
    pytest.param(lambda: make_params(norm_order=1), id="norm-order-1"),
    pytest.param(lambda: make_params(bounded=False), id="unbounded"),
    pytest.param(lambda: replace(make_params(), per_dim_branch=True), id="per-dim-branch"),
])
def test_checkpoint_bytes_equal_the_reference_writer(tmp_path, make):
    assert_writes_reference_bytes(make(), tmp_path)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=6), unique=True, max_size=5),
       st.lists(st.tuples(st.text(max_size=6), st.integers(1, 3)),
                unique_by=lambda rel: rel[0], max_size=3),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_checkpoint_bytes_equal_the_reference_writer_for_any_names(
        tmp_path_factory, entities, relations, d, seed):
    vocab = Vocabulary(entities, [name for name, _ in relations],
                       [arity for _, arity in relations])
    params = init_params(vocab, d, np.random.default_rng(seed))
    assert_writes_reference_bytes(params, tmp_path_factory.mktemp("ck"))


def save_checkpoint_v1(params: ModelParams, path) -> None:
    """The version 1 writer: per-relation JSON float lists and no slot map.
    Kept here so that version 1 files, and the checks made on them, stay
    tested now that ``save_checkpoint`` writes version 2."""
    vocab = params.vocab
    rel_boxes = []
    for rel in range(vocab.n_relations):
        slots = params.slot_of[rel]
        rel_boxes.append({
            "corner_a": params.box_a[slots].tolist(),
            "corner_b": params.box_b[slots].tolist(),
        })
    payload = {
        "version": 1,
        "entities": vocab.entity_names,
        "relations": vocab.relation_names,
        "arities": vocab.relation_arities,
        "d": params.d,
        "norm_order": params.norm_order,
        "bounded": params.bounded,
        "per_dim_branch": params.per_dim_branch,
        "entity_base": params.entity_base.tolist(),
        "entity_bump": params.entity_bump.tolist(),
        "relation_boxes": rel_boxes,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _tampered_checkpoint(tmp_path, edit, save=save_checkpoint_v1):
    path = tmp_path / "ck.json"
    save(make_params(n_entities=4, arities=(2, 3), d=3, seed=6), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


def test_checkpoint_load_rejects_box_count_other_than_arity(tmp_path):
    def one_box(payload):
        for corner in ("corner_a", "corner_b"):
            del payload["relation_boxes"][0][corner][1:]
    with pytest.raises(ValueError, match="arity 2 has 1 and 1 box corners"):
        load_checkpoint(_tampered_checkpoint(tmp_path, one_box))


def test_checkpoint_load_rejects_short_corner_row(tmp_path):
    def short(payload):
        payload["relation_boxes"][1]["corner_b"][2].pop()
    with pytest.raises(ValueError, match="corner_b is not 5 rows of length 3"):
        load_checkpoint(_tampered_checkpoint(tmp_path, short))


def test_checkpoint_load_rejects_long_entity_row(tmp_path):
    def long(payload):
        payload["entity_bump"][3].append(0.0)
    with pytest.raises(ValueError, match="entity_bump is not 4 rows of length 3"):
        load_checkpoint(_tampered_checkpoint(tmp_path, long))


def test_checkpoint_load_rejects_missing_entity_row(tmp_path):
    def missing(payload):
        payload["entity_base"].pop()
    with pytest.raises(ValueError, match="entity_base is not 4 rows of length 3"):
        load_checkpoint(_tampered_checkpoint(tmp_path, missing))


@pytest.mark.parametrize("table", ["entity_base", "corner_a"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_checkpoint_load_rejects_non_finite_values(tmp_path, table, value):
    def poison(payload):
        rows = (payload[table] if table.startswith("entity")
                else payload["relation_boxes"][1][table])
        rows[1][2] = value
    with pytest.raises(ValueError, match=f"{table} holds a non-finite value"):
        load_checkpoint(_tampered_checkpoint(tmp_path, poison))


def test_checkpoint_scores_survive_round_trip(tmp_path):
    p = make_params(n_entities=4, d=3, seed=8)
    path = tmp_path / "ck.json"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    for fact in [Fact(0, (0, 1)), Fact(0, (3, 2))]:
        assert score(q, fact) == score(p, fact)


TABLES = ("entity_base", "entity_bump", "box_a", "box_b")


def assert_same_params(p, q):
    """Bit-for-bit equality of two ModelParams, the slot map included."""
    assert q.vocab.entity_names == p.vocab.entity_names
    assert q.vocab.relation_names == p.vocab.relation_names
    assert q.vocab.relation_arities == p.vocab.relation_arities
    assert (q.d, q.norm_order, q.bounded, q.per_dim_branch) == \
        (p.d, p.norm_order, p.bounded, p.per_dim_branch)
    for name in TABLES:
        a, b = getattr(p, name), getattr(q, name)
        assert b.shape == a.shape and b.tobytes() == a.tobytes(), name
    assert [s.tolist() for s in q.slot_of] == [s.tolist() for s in p.slot_of]


def test_checkpoint_v1_and_v2_files_load_to_equal_tables(tmp_path):
    p = make_params(n_entities=5, arities=(2, 3, 1), d=4, seed=12, norm_order=1)
    p.per_dim_branch = True
    save_checkpoint_v1(p, tmp_path / "v1.json")
    save_checkpoint(p, tmp_path / "v2.json")
    assert json.loads((tmp_path / "v2.json").read_text())["version"] == 2
    assert_same_params(load_checkpoint(tmp_path / "v1.json"),
                       load_checkpoint(tmp_path / "v2.json"))


def _table_bytes(payload, name):
    return bytearray(base64.b64decode(payload[name]))


def _set_table_bytes(payload, name, raw):
    payload[name] = base64.b64encode(bytes(raw)).decode("ascii")


@pytest.mark.parametrize("text", ["not base64!", "AAAA=AAA", "été", 12])
def test_checkpoint_v2_rejects_a_table_that_is_not_base64(tmp_path, text):
    def garble(payload):
        payload["entity_bump"] = text
    with pytest.raises(ValueError, match="entity_bump is not base64"):
        load_checkpoint(_tampered_checkpoint(tmp_path, garble, save_checkpoint))


@pytest.mark.parametrize("table,rows", [("entity_base", 4), ("box_b", 5)])
@pytest.mark.parametrize("change", [-8, -1, 8])
def test_checkpoint_v2_rejects_a_wrong_byte_count(tmp_path, table, rows, change):
    def resize(payload):
        raw = _table_bytes(payload, table)
        raw = raw[:change] if change < 0 else raw + bytes(change)
        _set_table_bytes(payload, table, raw)
    with pytest.raises(ValueError, match=f"{table} is not {rows} rows of length 3"):
        load_checkpoint(_tampered_checkpoint(tmp_path, resize, save_checkpoint))


@pytest.mark.parametrize("table", ["entity_base", "box_a"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_v2_rejects_non_finite_bit_patterns(tmp_path, table, value):
    def poison(payload):
        raw = _table_bytes(payload, table)
        raw[5 * 8:6 * 8] = np.array([value], dtype="<f8").tobytes()
        _set_table_bytes(payload, table, raw)
    with pytest.raises(ValueError, match=f"{table} holds a non-finite value"):
        load_checkpoint(_tampered_checkpoint(tmp_path, poison, save_checkpoint))


@pytest.mark.parametrize("slot", [-1, 5, 99, 1.0, "1", True, None])
def test_checkpoint_v2_rejects_a_bad_slot_id(tmp_path, slot):
    def bad(payload):
        payload["slot_of"][1][2] = slot
    with pytest.raises(ValueError, match=r"'r1' has a slot id that is not an int in \[0, 5\)"):
        load_checkpoint(_tampered_checkpoint(tmp_path, bad, save_checkpoint))


@pytest.mark.parametrize("edit", [lambda row: row.pop(), lambda row: row.append(0)])
def test_checkpoint_v2_rejects_a_slot_row_of_another_length(tmp_path, edit):
    with pytest.raises(ValueError, match="'r0' of arity 2 has a slot row of another length"):
        load_checkpoint(_tampered_checkpoint(
            tmp_path, lambda payload: edit(payload["slot_of"][0]), save_checkpoint))


def test_checkpoint_v2_rejects_a_slot_map_of_another_length(tmp_path):
    with pytest.raises(ValueError, match="slot_of is not 2 slot rows"):
        load_checkpoint(_tampered_checkpoint(
            tmp_path, lambda payload: payload["slot_of"].pop(), save_checkpoint))


@pytest.mark.parametrize("n_slots", [-1, 2.0, "5", None])
def test_checkpoint_v2_rejects_a_bad_slot_count(tmp_path, n_slots):
    def bad(payload):
        payload["n_slots"] = n_slots
    with pytest.raises(ValueError, match="n_slots is .*, not a count"):
        load_checkpoint(_tampered_checkpoint(tmp_path, bad, save_checkpoint))


@pytest.mark.parametrize("version", [0, 3, "2", 2.0, True, None])
def test_checkpoint_load_rejects_an_unknown_version(tmp_path, version):
    def bad(payload):
        payload["version"] = version
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        load_checkpoint(_tampered_checkpoint(tmp_path, bad, save_checkpoint))


@pytest.mark.parametrize("save", [save_checkpoint_v1, save_checkpoint])
@pytest.mark.parametrize("key,value", [("bounded", "false"), ("bounded", 0),
                                       ("per_dim_branch", "true"),
                                       ("per_dim_branch", None)])
def test_checkpoint_load_requires_bool_flags(tmp_path, save, key, value):
    def bad(payload):
        payload[key] = value
    with pytest.raises(ValueError, match=f"{key} is {value!r}, not a bool"):
        load_checkpoint(_tampered_checkpoint(tmp_path, bad, save))


@pytest.mark.parametrize("save", [save_checkpoint_v1, save_checkpoint])
@pytest.mark.parametrize("d", [0, -3, 3.0, "3", True])
def test_checkpoint_load_requires_a_positive_int_d(tmp_path, save, d):
    def bad(payload):
        payload["d"] = d
    with pytest.raises(ValueError, match="d is .*, not a positive int"):
        load_checkpoint(_tampered_checkpoint(tmp_path, bad, save))


@pytest.mark.parametrize("save", [save_checkpoint_v1, save_checkpoint])
@pytest.mark.parametrize("key,value,message", [
    ("relations", 5, "vocabulary is not lists"),
    ("entities", "e0 e1 e2 e3", "vocabulary is not lists"),
    ("entities", [0, 1, 2, 3], "vocabulary is not lists"),
    ("relations", ["r0", ["r1"]], "vocabulary is not lists"),
    ("arities", [2, 0], "an arity that is not a positive int"),
    ("arities", [2, "3"], "an arity that is not a positive int"),
    ("arities", {"r0": 2, "r1": 3}, "vocabulary is not lists"),
    ("arities", [2], "2 relation names and 1 arities"),
])
def test_checkpoint_load_rejects_a_malformed_vocabulary(tmp_path, save, key, value,
                                                        message):
    def bad(payload):
        payload[key] = value
    with pytest.raises(ValueError, match=message):
        load_checkpoint(_tampered_checkpoint(tmp_path, bad, save))


@pytest.mark.parametrize("boxes", [5, [1], [{"corner_a": 3, "corner_b": 4}],
                                   [{"corner_a": [[0.0] * 3] * 2}, {"corner_b": []}]])
def test_checkpoint_v1_rejects_relation_boxes_that_are_not_corner_lists(tmp_path, boxes):
    def bad(payload):
        payload["relation_boxes"] = boxes
    with pytest.raises(ValueError, match="relation_boxes is not a list of"):
        load_checkpoint(_tampered_checkpoint(tmp_path, bad))


def test_checkpoint_v1_rejects_more_box_sets_than_relations(tmp_path):
    def extra(payload):
        payload["relation_boxes"].append(payload["relation_boxes"][0])
    with pytest.raises(ValueError, match="3 box sets for 2 relations"):
        load_checkpoint(_tampered_checkpoint(tmp_path, extra))


@pytest.mark.parametrize("save", [save_checkpoint_v1, save_checkpoint])
@pytest.mark.parametrize("value", [True, False, 2.0, 1.0, "2", 3, 0, None])
def test_checkpoint_load_requires_norm_order_1_or_2(tmp_path, save, value):
    def bad(payload):
        payload["norm_order"] = value
    with pytest.raises(ValueError, match=f"norm_order is {value!r}, not 1 or 2"):
        load_checkpoint(_tampered_checkpoint(tmp_path, bad, save))


# -0.0, subnormals (the smallest of each sign, and one near the normal range)
# and ordinary values, each of which must come back with the same bits
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 1.1125369292536007e-308)
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def checkpoint_params(draw):
    arities = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    p = make_params(n_entities=draw(st.integers(1, 3)), arities=arities,
                    d=draw(st.integers(1, 3)), norm_order=draw(st.sampled_from([1, 2])),
                    bounded=draw(st.booleans()))
    p.per_dim_branch = draw(st.booleans())
    for name in TABLES:
        table = getattr(p, name)
        values = draw(st.lists(finite_floats, min_size=table.size, max_size=table.size))
        table[...] = np.array(values, dtype=np.float64).reshape(table.shape)
        table.flat[0], table.flat[-1] = -0.0, 5e-324
    slot = st.integers(0, p.n_slots - 1)
    p.merge_slots(draw(st.lists(st.tuples(slot, slot), max_size=4)))
    return p


@settings(max_examples=60, deadline=None)
@given(p=checkpoint_params())
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, p):
    tmp = tmp_path_factory.mktemp("ck")
    a, b = tmp / "a.json", tmp / "b.json"
    save_checkpoint(p, a)
    save_checkpoint(p, b)
    assert a.read_bytes() == b.read_bytes()
    assert_same_params(p, load_checkpoint(a))


@pytest.mark.parametrize("norm_order,bounded,per_dim_branch",
                         [(2, True, False), (1, False, True)])
def test_score_candidates_on_an_id_array_equals_all_candidates_bitwise(
        monkeypatch, norm_order, bounded, per_dim_branch):
    # blocks of five 48-byte rows, so the ids span several blocks
    arities = (1, 2, 3)
    n_e = 23
    p = make_params(n_entities=n_e, arities=arities, d=6, seed=9,
                    norm_order=norm_order, bounded=bounded)
    p.per_dim_branch = per_dim_branch
    p.entity_base *= 3.0
    tables = p.entity_bump.T, (p.entity_base - p.entity_bump).T
    monkeypatch.setattr(model, "_BLOCK_BYTES", 240)
    rng = np.random.default_rng(3)
    ids = np.array([0, 4, 5, 6, 11, 17, 22, 22])
    for rel, arity in enumerate(arities):
        anchor = tuple(int(e) for e in rng.integers(0, n_e, arity))
        for pos in range(arity):
            box = [model._box_tensors(p, rel)]
            every = score_point_group(p, box, anchor, pos, tables)[0]
            got = score_point_group(p, box, anchor, pos, ids=ids)[0]
            assert np.array_equal(got.view(np.uint64), every[ids].view(np.uint64)), (rel, pos)
