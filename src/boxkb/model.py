"""Scoring model: entities as base+bump vector pairs, relations as boxes.

Every entity e carries a base position and a translational bump.  For a fact
r(e_1, ..., e_n) the position-i point is

    final_i = (base_i - bump_i) + sum_j bump_j

so each entity shifts its co-participants but not itself (for arity 1 the
formula collapses to the base alone).  Relation r owns one box per argument
position; the fact's score is the sum over positions of the L-x norm of an
element-wise distance between final_i and box i.  Lower scores mean more
plausible facts.

The distance is piecewise: inside the box it is |p - c| / w (shallow, keeps
gradient signal for points already inside), outside it is |p - c| * w - kappa
where kappa = 0.5 * (w - 1) * (w - 1/w) makes the two pieces agree on the box
boundary.  Here c is the box center and w its width plus one.  The
inside/outside test uses the whole point by default; ``per_dim_branch``
switches to an element-wise test.

Boxes are stored as two free corner vectors; lower/upper are derived by
element-wise min/max at evaluation time, so no gradient step can produce an
invalid box.  With ``bounded`` set, final points and box corners are squashed
through tanh before any distance arithmetic.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Box
from .kb import Fact, Vocabulary

CHECKPOINT_VERSION = 1

# Gradient slot keys: ("base", entity), ("bump", entity), ("boxa", slot), ("boxb", slot)
SlotKey = tuple[str, int]
GradMap = dict[SlotKey, np.ndarray]


def bound(raw: np.ndarray) -> np.ndarray:
    """Squash raw coordinates into (-1, 1), element-wise."""
    return np.tanh(raw)


@dataclass
class ModelParams:
    vocab: Vocabulary
    d: int
    entity_base: np.ndarray  # (E, d)
    entity_bump: np.ndarray  # (E, d)
    box_a: np.ndarray        # (n_slots, d), free corner
    box_b: np.ndarray        # (n_slots, d), free corner
    slot_of: list[np.ndarray]  # per relation, (arity,) int64 slot ids
    norm_order: int = 2
    bounded: bool = True
    per_dim_branch: bool = False

    def __post_init__(self) -> None:
        if self.norm_order not in (1, 2):
            raise ValueError("norm_order must be 1 or 2")
        if self.d < 1:
            raise ValueError("embedding dimensionality must be positive")

    @property
    def n_slots(self) -> int:
        return self.box_a.shape[0]

    def slots_in_use(self) -> np.ndarray:
        return np.unique(np.concatenate(self.slot_of)) if self.slot_of else np.empty(0, np.int64)

    def raw_bounds(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.box_a[slot], self.box_b[slot]
        return np.minimum(a, b), np.maximum(a, b)

    def set_raw_lower(self, slot: int, dim: int, value: float) -> None:
        # write through whichever free corner currently holds the minimum
        if self.box_a[slot, dim] <= self.box_b[slot, dim]:
            self.box_a[slot, dim] = value
        else:
            self.box_b[slot, dim] = value

    def set_raw_upper(self, slot: int, dim: int, value: float) -> None:
        if self.box_a[slot, dim] <= self.box_b[slot, dim]:
            self.box_b[slot, dim] = value
        else:
            self.box_a[slot, dim] = value

    def effective_box(self, relation: int, position: int) -> Box:
        slot = int(self.slot_of[relation][position])
        lo, hi = self.raw_bounds(slot)
        if self.bounded:
            lo, hi = np.tanh(lo), np.tanh(hi)
        return Box(lo, hi)

    def merge_slots(self, pairs: list[tuple[int, int]]) -> dict[int, int]:
        """Alias box slots so the listed pairs share one parameter vector.

        Returns the applied slot -> canonical-slot mapping.  The canonical
        slot of each class is its smallest member; aliased slots keep their
        stale parameters but are no longer referenced.
        """
        parent = list(range(self.n_slots))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s, t in pairs:
            rs, rt = find(s), find(t)
            if rs != rt:
                parent[max(rs, rt)] = min(rs, rt)
        mapping = {s: find(s) for s in range(self.n_slots)}
        for rel in range(len(self.slot_of)):
            self.slot_of[rel] = np.array([mapping[int(s)] for s in self.slot_of[rel]],
                                         dtype=np.int64)
        return mapping

    def copy(self) -> "ModelParams":
        return ModelParams(
            vocab=self.vocab.copy(),
            d=self.d,
            entity_base=self.entity_base.copy(),
            entity_bump=self.entity_bump.copy(),
            box_a=self.box_a.copy(),
            box_b=self.box_b.copy(),
            slot_of=[s.copy() for s in self.slot_of],
            norm_order=self.norm_order,
            bounded=self.bounded,
            per_dim_branch=self.per_dim_branch,
        )


def init_params(vocab: Vocabulary, d: int, rng: np.random.Generator,
                norm_order: int = 2, bounded: bool = True) -> ModelParams:
    """Uniform [-0.5, 0.5] initialization for all parameter tensors."""
    n_e = vocab.n_entities
    slots = []
    offset = 0
    for arity in vocab.relation_arities:
        slots.append(np.arange(offset, offset + arity, dtype=np.int64))
        offset += arity
    base = rng.uniform(-0.5, 0.5, size=(n_e, d))
    bump = rng.uniform(-0.5, 0.5, size=(n_e, d))
    box_a = rng.uniform(-0.5, 0.5, size=(offset, d))
    box_b = rng.uniform(-0.5, 0.5, size=(offset, d))
    return ModelParams(vocab, d, base, bump, box_a, box_b, slots,
                       norm_order=norm_order, bounded=bounded)


def _box_shape(lo: np.ndarray, hi: np.ndarray):
    """Center, width plus one and boundary offset kappa of boxes [lo, hi]."""
    c = (lo + hi) / 2.0
    w = hi - lo + 1.0
    kappa = 0.5 * (w - 1.0) * (w - 1.0 / w)
    return c, w, kappa


def _distance(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, c: np.ndarray,
              w: np.ndarray, kappa: np.ndarray, per_dim: bool):
    """Element-wise distance of points ``x`` (..., d) to one box.

    Returns (dv, z, t, branch): the distance vector, the offset z = x - c,
    t = |z| and the inside-branch mask (per coordinate with ``per_dim``,
    else one flag per point, broadcastable against ``x``).  This is the only
    place the piecewise distance is written.
    """
    z = x - c
    t = np.abs(z)
    inside_dim = (lo <= x) & (x <= hi)
    branch = inside_dim if per_dim else inside_dim.all(axis=-1, keepdims=True)
    dv = t * w
    dv -= kappa
    np.divide(t, w, out=dv, where=branch)
    return dv, z, t, branch


def dist(point: np.ndarray, box: Box, per_dim: bool = False) -> np.ndarray:
    """Element-wise distance between a point and a box.

    Inside (boundary inclusive): |p - c| / w.  Outside: |p - c| * w - kappa.
    With ``per_dim`` the branch is chosen coordinate-wise instead of from
    full containment.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.shape != box.lower.shape:
        raise ValueError("point dimensionality does not match box")
    return _distance(p, box.lower, box.upper, *_box_shape(box.lower, box.upper),
                     per_dim)[0]


def final_embedding(params: ModelParams, fact: Fact) -> np.ndarray:
    """Per-position final points of a fact, after bounding; shape (arity, d)."""
    return _final_points(params, np.array([fact.entities], dtype=np.int64))[0]


def _final_points(params: ModelParams, ents: np.ndarray) -> np.ndarray:
    """(B, n) entity ids -> bounded final points of shape (B, n, d)."""
    bump = params.entity_bump[ents]
    pts = params.entity_base[ents] - bump
    pts += bump.sum(axis=1, keepdims=True)
    return np.tanh(pts, out=pts) if params.bounded else pts


def _box_tensors(params: ModelParams, relation: int):
    slots = params.slot_of[relation]
    a, b = params.box_a[slots], params.box_b[slots]
    lo_raw, hi_raw = np.minimum(a, b), np.maximum(a, b)
    if params.bounded:
        lo, hi = np.tanh(lo_raw), np.tanh(hi_raw)
    else:
        lo, hi = lo_raw, hi_raw
    return (slots, lo, hi, *_box_shape(lo, hi), a <= b)


@dataclass
class ForwardCache:
    """What ``backward`` needs from ``forward``: the scored rows, their final
    points (B, n, d) and per-position norms (B, n).  Everything else is
    recomputed one position at a time, on (B, d) slices, to keep memory low.
    """
    relation: int
    ents: np.ndarray
    points: np.ndarray
    norms: np.ndarray


def forward(params: ModelParams, relation: int, ents: np.ndarray
            ) -> tuple[np.ndarray, ForwardCache]:
    """Scores of a batch of same-relation facts given as a (B, n) id array."""
    ents = np.asarray(ents, dtype=np.int64)
    pts = _final_points(params, ents)
    _, lo, hi, c, w, kappa, _ = _box_tensors(params, relation)
    B, n = ents.shape
    norms = np.empty((B, n), dtype=np.float64)
    total = np.zeros(B, dtype=np.float64)
    for p in range(n):
        dv = _distance(pts[:, p, :], lo[p], hi[p], c[p], w[p], kappa[p],
                       params.per_dim_branch)[0]
        if params.norm_order == 1:
            norms[:, p] = np.abs(dv).sum(axis=1)
        else:
            norms[:, p] = np.sqrt((dv * dv).sum(axis=1))
        total += norms[:, p]
    return total, ForwardCache(relation, ents, pts, norms)


def score_batch(params: ModelParams, relation: int, ents: np.ndarray) -> np.ndarray:
    """Scores for a batch of same-relation facts given as a (B, n) id array."""
    return forward(params, relation, ents)[0]


def score(params: ModelParams, fact: Fact) -> float:
    """Plausibility score of one fact; lower is better."""
    if len(fact.entities) != params.vocab.arity(fact.relation):
        raise ValueError("fact arity does not match relation arity")
    return float(score_batch(params, fact.relation, np.array([fact.entities]))[0])


class GradBuffer:
    """Dense gradient accumulator with touched-slot masks for sparse updates."""

    def __init__(self, params: ModelParams):
        self.base = np.zeros_like(params.entity_base)
        self.bump = np.zeros_like(params.entity_bump)
        self.boxa = np.zeros_like(params.box_a)
        self.boxb = np.zeros_like(params.box_b)
        self.base_touched = np.zeros(params.entity_base.shape[0], dtype=bool)
        self.bump_touched = np.zeros(params.entity_bump.shape[0], dtype=bool)
        self.box_touched = np.zeros(params.box_a.shape[0], dtype=bool)

    def touched_rows(self):
        """(kind, rows, gradient rows) for each parameter table."""
        for kind, grad, touched in (("base", self.base, self.base_touched),
                                    ("bump", self.bump, self.bump_touched),
                                    ("boxa", self.boxa, self.box_touched),
                                    ("boxb", self.boxb, self.box_touched)):
            rows = np.flatnonzero(touched)
            yield kind, rows, grad[rows]

    def to_dict(self) -> GradMap:
        return {(kind, int(i)): g for kind, rows, grads in self.touched_rows()
                for i, g in zip(rows, grads)}


def backward(params: ModelParams, cache: ForwardCache, weights: np.ndarray,
             buf: GradBuffer) -> None:
    """Add sum_b weights[b] * d(score_b)/d(params) into ``buf``.

    ``weights`` holds one upstream d(loss)/d(score) factor per row of the
    ``forward`` call that made ``cache``.  Subgradient conventions: boundary
    points take the inside branch, |z| contributes 0 at z = 0, and the L2
    norm has zero gradient at the origin.
    """
    weights = np.asarray(weights, dtype=np.float64)
    ents, pts = cache.ents, cache.points
    B, n = ents.shape
    slots, lo, hi, c, w, kappa, a_is_min = _box_tensors(params, cache.relation)
    g_raw = np.empty((B, n, params.d), dtype=np.float64)
    for p in range(n):
        x = pts[:, p, :]
        dv, z, t, branch = _distance(x, lo[p], hi[p], c[p], w[p], kappa[p],
                                     params.per_dim_branch)
        if params.norm_order == 1:
            g_dv = np.sign(dv)
            g_dv *= weights[:, None]
        else:
            s = cache.norms[:, p]
            with np.errstate(invalid="ignore", divide="ignore"):
                g_dv = dv * np.where(s > 0.0, weights / s, 0.0)[:, None]
        # d(dv)/dt is 1/w inside and w outside; d(dv)/dw is -t/w^2 inside
        # and t - kappa'(w) outside, with kappa'(w) = w - 1/2 - 1/(2 w^2)
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
        buf.boxa[slot] += np.where(a_is_min[p], g_lo, g_hi)
        buf.boxb[slot] += np.where(a_is_min[p], g_hi, g_lo)
        buf.box_touched[slot] = True
        if params.bounded:
            np.multiply(g_z, 1.0 - x * x, out=g_raw[:, p, :])
        else:
            g_raw[:, p, :] = g_z
    # raw_p = base_p - bump_p + sum_q bump_q: each occurrence of an entity
    # gives its base the point gradient of its position, and its bump the
    # row's total point gradient less that same term.  Segment sums: a
    # stable sort groups the occurrences of each entity, reduceat adds them.
    flat = ents.ravel()
    order = np.argsort(flat, kind="stable")
    sorted_ids = flat[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
    rows = sorted_ids[starts]
    g_base = np.add.reduceat(g_raw.reshape(B * n, params.d)[order], starts, axis=0)
    g_occ = np.add.reduceat(g_raw.sum(axis=1)[order // n], starts, axis=0)
    buf.base[rows] += g_base
    buf.bump[rows] += g_occ - g_base
    buf.base_touched[rows] = True
    buf.bump_touched[rows] = True


def score_gradient(params: ModelParams, fact: Fact) -> GradMap:
    """Exact subgradient of score(fact) w.r.t. every parameter slot it touches."""
    buf = GradBuffer(params)
    _, cache = forward(params, fact.relation, np.array([fact.entities], dtype=np.int64))
    backward(params, cache, np.ones(1), buf)
    return buf.to_dict()


def apply_gradient_offsets(params: ModelParams, grads: GradMap, scale: float) -> None:
    """In-place params += scale * grads, used by finite-difference tests."""
    arrays = {"base": params.entity_base, "bump": params.entity_bump,
              "boxa": params.box_a, "boxb": params.box_b}
    for (kind, idx), vec in grads.items():
        arrays[kind][idx] += scale * vec


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write a self-contained JSON checkpoint (exact binary64 round-trip)."""
    vocab = params.vocab
    rel_boxes = []
    for rel in range(vocab.n_relations):
        slots = params.slot_of[rel]
        rel_boxes.append({
            "corner_a": params.box_a[slots].tolist(),
            "corner_b": params.box_b[slots].tolist(),
        })
    payload = {
        "version": CHECKPOINT_VERSION,
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


def load_checkpoint(path: str | Path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    vocab = Vocabulary()
    for name in payload["entities"]:
        vocab.entity_id(name, create=True)
    for name, arity in zip(payload["relations"], payload["arities"]):
        vocab.relation_id(name, arity=arity, create=True)
    d = payload["d"]
    box_a_rows, box_b_rows, slot_of = [], [], []
    offset = 0
    for rel in payload["relation_boxes"]:
        ca, cb = rel["corner_a"], rel["corner_b"]
        box_a_rows.extend(ca)
        box_b_rows.extend(cb)
        slot_of.append(np.arange(offset, offset + len(ca), dtype=np.int64))
        offset += len(ca)
    return ModelParams(
        vocab=vocab,
        d=d,
        entity_base=np.array(payload["entity_base"], dtype=np.float64).reshape(vocab.n_entities, d),
        entity_bump=np.array(payload["entity_bump"], dtype=np.float64).reshape(vocab.n_entities, d),
        box_a=np.array(box_a_rows, dtype=np.float64).reshape(offset, d),
        box_b=np.array(box_b_rows, dtype=np.float64).reshape(offset, d),
        slot_of=slot_of,
        norm_order=payload["norm_order"],
        bounded=payload["bounded"],
        per_dim_branch=payload.get("per_dim_branch", False),
    )
