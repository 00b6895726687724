"""Scoring model: entities as base+bump vector pairs, relations as boxes.

Every entity e carries a base position and a translational bump.  For a fact
r(e_1, ..., e_n) the position-i point is

    final_i = (base_i - bump_i) + sum_j bump_j

so each entity shifts its co-participants but not itself (for arity 1 the
formula collapses to the base alone).  ``_final_points`` alone forms these
points, the bump sum added left to right.  Ranking exploits this algebra:
the |E| facts that substitute every entity at one position share the bump
sum but for one term, so ``score_point_group`` scores them all with
broadcasts over the entity tables, not an (E, n, d) gather, and returns
bitwise the scores ``score_batch`` gives the same rows.  The points do not
depend on the relation, so it scores such rows under several relations'
boxes from one pass of ``_final_points``.  It and ``forward`` work one
block of rows at a time (``row_blocks``): every element-wise pass over
a block stays within ``_BLOCK_BYTES``, so it runs in cache, and a ranking
query holds at most about 1 MB at any |E| and arity.  A block's points are
dimension-major, one point per column of a (d, rows) array, so the
per-point reductions (the whole-point inside test and the norm's sum) run
down the columns, one vectorised pass per dimension, not one short row at
a time.  numpy picks the order of that sum from the memory layout.
``forward``, ``backward`` and the scorers by default index the transposes
of the row-major entity tables, so their blocks are F-ordered and each
norm is summed pairwise, bit for bit as along a row of the row-major
points.  The ranking screen passes C-contiguous (d, E) float32 tables,
whose C-ordered blocks are summed one dimension after another; its error
bound covers any summation order.  The scorers and ``backward`` compute
in the entity tables' dtype, so a ``ModelParams`` whose entity tables are
float32 copies computes in float32: training runs on such copies (see
``training``), and the ranking screen on its float32 tables (see
``evaluation``), while the parameter tables themselves are float64.
Relation r owns one box per argument position; the fact's score is the sum
over positions of the L-x norm of an element-wise distance between final_i
and box i.  Lower scores mean more plausible facts.

The distance is piecewise: inside the box it is |p - c| / w (shallow, keeps
gradient signal for points already inside), outside it is |p - c| * w - kappa
where kappa = 0.5 * (w - 1) * (w - 1/w) makes the two pieces agree on the box
boundary.  Here c is the box center and w its width plus one.  The
inside/outside test uses the whole point by default; ``per_dim_branch``
switches to an element-wise test.

Boxes are two free corner vectors; only ``ModelParams`` turns them into
lower/upper bounds (element-wise min/max) or writes bounds back, so no
gradient step can produce an invalid box.  With ``bounded`` set, final points
and box corners are squashed through tanh before any distance arithmetic.
"""
from __future__ import annotations

import base64
import binascii
import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array

from .geometry import Box, inside
from .kb import Fact, Vocabulary

CHECKPOINT_VERSION = 2
# Each gradient kind's parameter table, as a ModelParams attribute; a version 2
# checkpoint stores the tables in this order.
TABLE_OF_KIND = {"base": "entity_base", "bump": "entity_bump",
                 "boxa": "box_a", "boxb": "box_b"}
_TABLES = tuple(TABLE_OF_KIND.values())

# Gradient slot keys: (kind, row), a row of the kind's table
SlotKey = tuple[str, int]
GradMap = dict[SlotKey, np.ndarray]


@dataclass
class ModelParams:
    vocab: Vocabulary
    entity_base: np.ndarray  # (E, d)
    entity_bump: np.ndarray  # (E, d)
    box_a: np.ndarray        # (n_slots, d), free corner
    box_b: np.ndarray        # (n_slots, d), free corner
    slot_of: list[np.ndarray]  # per relation, (arity,) int64 slot ids
    norm_order: int = 2
    bounded: bool = True
    per_dim_branch: bool = False

    def __post_init__(self) -> None:
        if type(self.norm_order) is not int or self.norm_order not in (1, 2):
            raise ValueError(f"norm_order is {self.norm_order!r}, not 1 or 2")
        if self.d < 1:
            raise ValueError("embedding dimensionality must be positive")

    @property
    def d(self) -> int:
        """Embedding dimensionality: the width of every table."""
        return self.entity_base.shape[1]

    @property
    def n_slots(self) -> int:
        return self.box_a.shape[0]

    def raw_bounds(self, slots) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.box_a[slots], self.box_b[slots]
        return np.minimum(a, b), np.maximum(a, b)

    def effective_bounds(self, slots) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the boxes in ``slots`` (a slot id or an
        array of them): the min and max of the two free corners, through tanh
        when the model is ``bounded``."""
        lo, hi = self.raw_bounds(slots)
        return (np.tanh(lo), np.tanh(hi)) if self.bounded else (lo, hi)

    def to_corners(self, slots, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Per-bound values ``lo`` and ``hi`` at ``slots`` (any index into the
        box tables) as (box_a, box_b) values, each through the corner holding it."""
        a_is_min = self.box_a[slots] <= self.box_b[slots]
        return np.where(a_is_min, lo, hi), np.where(a_is_min, hi, lo)

    def set_raw_bounds(self, slots, lo, hi) -> None:
        """Write raw bounds ``lo`` and ``hi`` at ``slots`` through ``to_corners``."""
        self.box_a[slots], self.box_b[slots] = self.to_corners(slots, lo, hi)

    def effective_box(self, relation: int, position: int) -> Box:
        return Box(*self.effective_bounds(int(self.slot_of[relation][position])))

    def merge_slots(self, pairs: list[tuple[int, int]]) -> dict[int, int]:
        """Alias box slots so the listed pairs share one parameter vector.

        Returns the applied slot -> canonical-slot mapping.  The canonical
        slot of each class is its smallest member; aliased slots keep their
        stale parameters but are no longer referenced.
        """
        parent = list(range(self.n_slots))  # the smaller root wins a union

        def find(s: int) -> int:
            while parent[s] != s:
                parent[s] = parent[parent[s]]  # path halving
                s = parent[s]
            return s

        for s, t in pairs:
            rs, rt = find(s), find(t)
            parent[max(rs, rt)] = min(rs, rt)
        mapping = {s: find(s) for s in range(self.n_slots)}
        for rel in range(len(self.slot_of)):
            self.slot_of[rel] = np.array([mapping[int(s)] for s in self.slot_of[rel]],
                                         dtype=np.int64)
        return mapping

    def copy(self) -> "ModelParams":
        return replace(self, vocab=self.vocab.copy(), slot_of=[s.copy() for s in self.slot_of],
                       **{name: getattr(self, name).copy() for name in _TABLES})


def float32_entities(params: ModelParams) -> ModelParams:
    """``params`` with float32 copies of its entity tables, sharing the
    vocabulary, the slot map and the box tables: the scorers and ``backward``
    compute in float32 on it.  A value past float32's range becomes inf."""
    with np.errstate(over="ignore"):
        return replace(params, entity_base=params.entity_base.astype(np.float32),
                       entity_bump=params.entity_bump.astype(np.float32))


def fresh_slots(arities) -> tuple[list[np.ndarray], int]:
    """One fresh box slot per relation position, numbered in relation order:
    each relation's (arity,) slot ids, and the slot count."""
    ends = np.cumsum([0, *arities], dtype=np.int64)
    return [np.arange(a, b, dtype=np.int64) for a, b in zip(ends, ends[1:])], int(ends[-1])


def init_params(vocab: Vocabulary, d: int, rng: np.random.Generator,
                norm_order: int = 2, bounded: bool = True) -> ModelParams:
    """Uniform [-0.5, 0.5] initialization for all parameter tensors."""
    n_e = vocab.n_entities
    slot_of, n_slots = fresh_slots(vocab.relation_arities)
    base = rng.uniform(-0.5, 0.5, size=(n_e, d))
    bump = rng.uniform(-0.5, 0.5, size=(n_e, d))
    box_a = rng.uniform(-0.5, 0.5, size=(n_slots, d))
    box_b = rng.uniform(-0.5, 0.5, size=(n_slots, d))
    return ModelParams(vocab, base, bump, box_a, box_b, slot_of,
                       norm_order=norm_order, bounded=bounded)


def _box_shape(lo: np.ndarray, hi: np.ndarray):
    """Center, width plus one and boundary offset kappa of boxes [lo, hi]."""
    c = (lo + hi) / 2.0
    w = hi - lo + 1.0
    kappa = 0.5 * (w - 1.0) * (w - 1.0 / w)
    return c, w, kappa


def _distance(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, c: np.ndarray,
              w: np.ndarray, kappa: np.ndarray, per_dim: bool,
              overwrite: bool = False, branch: np.ndarray | None = None):
    """Element-wise distance of points ``x`` (d, rows), one point per
    column, to one box given by its (d,) vectors.

    Returns (dv, z, t, branch): the distance vector, the offset z = x - c,
    t = |z|, each laid out as ``x``, and the inside-branch mask (per
    coordinate with ``per_dim``, else one flag per point, a (1, rows) row).
    This is the only place the piecewise distance is written.  With
    ``overwrite`` the caller gives up ``x``: z and then t are formed in its
    buffer, so z is t.  A caller that already knows the branch of these
    points (``backward``, from ``forward``) passes it as ``branch`` and the
    inside test is not run again.
    """
    lo, hi, c, w = lo[:, None], hi[:, None], c[:, None], w[:, None]
    kappa = kappa[:, None]
    if branch is None:
        inside_dim = inside(lo, hi, x)
        branch = inside_dim if per_dim else inside_dim.all(axis=0, keepdims=True)
    z = np.subtract(x, c, out=x if overwrite else None)
    t = np.abs(z, out=z if overwrite else None)
    dv = t * w
    dv -= kappa
    if per_dim:
        np.divide(t, w, out=dv, where=branch)
    else:  # the inside formula for the inside points only
        cols_in = branch[0].nonzero()[0]
        if cols_in.size:
            dv[:, cols_in] = t[:, cols_in] / w
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
    return _distance(p[:, None], box.lower, box.upper,
                     *_box_shape(box.lower, box.upper), per_dim)[0][:, 0]


def final_embedding(params: ModelParams, fact: Fact) -> np.ndarray:
    """Per-position final points of a fact, after bounding; shape (arity, d)."""
    return np.stack(list(_final_points(params, fact.entities)))


# Bytes of one block of rows that the scorers and training's Adam step form
# at a time: a block's element-wise passes then stay in a core's L2 cache.
_BLOCK_BYTES = 256 * 1024


def row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Balanced slices covering ``range(n_rows)``, as few as keep each block
    of rows ``row_bytes`` long within ``_BLOCK_BYTES``."""
    n_blocks = max(1, -(-n_rows * row_bytes // _BLOCK_BYTES))
    size = max(1, -(-n_rows // n_blocks))
    return [slice(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]


def _rows(table: np.ndarray, op) -> np.ndarray:
    """Rows ``op`` of ``table``: a slice by basic indexing (a view), an id
    or id array by ``take``, which gives fancy indexing's rows in less time."""
    return table[op] if isinstance(op, slice) else table.take(op, axis=0)


def _final_points(params: ModelParams, operands, tables=None):
    """Yield each position's bounded final points in turn, one point per
    column: (base - bump) of its operand plus S, the bump sum added left to
    right.  ``operands[p]`` (an id column, one id, a slice of entities or
    an id array) indexes the columns of (d, E) entity tables: the caller's
    ``tables``, a (bump, base - bump) pair, or by default the transposes of
    the entity tables, with base - bump formed per operand (the same bits).
    Points come laid out as the tables' columns: the transposes give
    F-ordered (d, rows) points, C-contiguous tables C-ordered ones."""
    # each operand takes rows of the tables' (E, d) transposes, turned back:
    # the same columns, and cheaper than a column gather for an id array
    if tables is None:
        bump, base_less_bump = params.entity_bump, None
    else:
        bump, base_less_bump = tables[0].T, tables[1].T
    s = _rows(bump, operands[0]).T
    for op in operands[1:]:
        s = s + _rows(bump, op).T
    for op in operands:
        own = (_rows(params.entity_base, op) - _rows(bump, op) if base_less_bump is None
               else _rows(base_less_bump, op)).T
        pts = own + s
        yield np.tanh(pts, out=pts) if params.bounded else pts


def _check_arity(slots: np.ndarray, n_positions: int) -> None:
    """ValueError unless rows of ``n_positions`` entities have one box slot
    each: every scorer calls this."""
    if n_positions != len(slots):
        raise ValueError("fact arity does not match relation arity")


def _box_tensors(params: ModelParams, relation: int, slack: float = 0.0, dtype=None):
    """The boxes of ``relation`` in ``dtype``, by default the entity tables':
    its slot ids, then lower and upper faces, center, width plus one and
    kappa, one row per position.  With ``slack`` each face is moved out by
    it; the center, width and kappa stay those of the box itself.  A value
    past the dtype's range becomes inf, as in ``float32_entities``."""
    slots = params.slot_of[relation]
    lo, hi = params.effective_bounds(slots)
    if dtype is None:  # formed in float64, then rounded once
        dtype = params.entity_base.dtype
    with np.errstate(over="ignore"):
        shape = _box_shape(lo, hi)
        if slack:
            lo, hi = lo - slack, hi + slack
        return (slots, *(np.asarray(a, dtype=dtype) for a in (lo, hi, *shape)))


def _position_norms(params: ModelParams, x: np.ndarray, box: tuple, p: int,
                    face_gap=None) -> tuple[np.ndarray, np.ndarray]:
    """Norm of the distance of each point of ``x`` (d, rows) to box ``p`` of
    ``box`` (a ``_box_tensors`` tuple), formed in ``x``'s buffer (``x`` is
    given up, as with ``_distance``'s ``overwrite``) and summed down each
    column, and the branch mask ``_distance`` chose for those points;
    ``face_gap`` as in ``score_point_group``.  numpy picks the order
    of that sum from the layout: an F-ordered ``x`` (or one column) is
    summed pairwise, bit for bit as the rows of its transpose would be, and
    a C-contiguous one top to bottom, one vectorised pass per dimension.
    A norm past the dtype's range is inf: ``forward`` and
    ``score_point_group`` call this under ``np.errstate(over="ignore")``
    (once per call, not per block and position), so it raises no warning."""
    _, lo, hi, c, w, kappa = box
    dv, _, t, branch = _distance(x, lo[p], hi[p], c[p], w[p], kappa[p],
                                 params.per_dim_branch, overwrite=True)
    if face_gap is not None:
        cols = branch[0].nonzero()[0]
        if cols.size:
            depth = ((w[p, :, None] - 1.0) * 0.5 - t[:, cols]).min(axis=0)
            face_gap[cols] = np.minimum(face_gap[cols], depth)
    if params.norm_order == 1:
        return np.abs(dv, out=dv).sum(axis=0), branch
    return np.sqrt(np.multiply(dv, dv, out=dv).sum(axis=0)), branch


@dataclass
class ForwardCache:
    """What ``backward`` needs from ``forward``: the relation's boxes (its
    ``_box_tensors`` tuple), the scored rows, their final points (n, B, d),
    row-major (``points[p]`` is position p's), per-position norms (B, n)
    and the inside branch each point took, (n, B, 1) whole-point flags or
    with ``per_dim_branch`` an (n, B, d) mask, so ``backward`` takes the
    same branch without testing again.  The distance terms (offset,
    distance vector) are recomputed one position at a time, to keep memory
    low.
    """
    box: tuple
    ents: np.ndarray
    points: np.ndarray
    norms: np.ndarray
    branch: np.ndarray


def forward(params: ModelParams, relation: int, ents: np.ndarray
            ) -> tuple[np.ndarray, ForwardCache]:
    """Scores of a batch of same-relation facts given as a (B, n) id array,
    formed one ``row_blocks`` block of rows at a time in the entity tables'
    dtype.  ``_final_points`` indexes the tables' transposes, so each
    block's points are the F-ordered (d, rows) transpose of its row-major
    points: the cache keeps those and each point's branch, and the norms
    sum them pairwise."""
    ents = np.asarray(ents, dtype=np.int64)
    box = _box_tensors(params, relation)
    _check_arity(box[0], ents.shape[1])
    # one allocation for every position: n separate (B, d) arrays of a large
    # batch go back to the system when freed and fault in again next call
    dtype = params.entity_base.dtype
    points = np.empty((ents.shape[1], ents.shape[0], params.d), dtype=dtype)
    norms = np.empty(ents.shape, dtype=dtype)
    branches = np.empty((*points.shape[:2], params.d if params.per_dim_branch else 1),
                        dtype=bool)
    total = np.zeros(ents.shape[0], dtype=dtype)
    with np.errstate(over="ignore"):  # a norm past the dtype's range is inf
        for blk in row_blocks(ents.shape[0], points.itemsize * params.d):
            block_total = total[blk]
            for p, x in enumerate(_final_points(params, ents[blk].T)):
                points[p, blk] = x.T
                norms[blk, p], branch = _position_norms(params, x, box, p)
                branches[p, blk] = branch.T
                block_total += norms[blk, p]
    return total, ForwardCache(box, ents, points, norms, branches)


def score_point_group(params: ModelParams, boxes: list, entities, position: int,
                      tables: tuple | None = None,
                      face_gaps: np.ndarray | None = None,
                      ids: np.ndarray | None = None) -> np.ndarray:
    """Scores (k, |E|) of the |E| facts that put each entity in turn at
    ``position`` of ``entities``, under each of the k ``boxes`` (a list of
    ``_box_tensors`` tuples): row k is bitwise the ``score_batch`` scores of
    those rows under the relation of ``boxes[k]``.

    The rows differ only in the candidate, so ``_final_points`` takes a
    block of entities at ``position`` and one entity column elsewhere:
    (d, rows) broadcasts, one ``row_blocks`` block and one position at a
    time, never an (E, n, d) gather nor even a whole (E, d) array.  A final
    point depends on the entities alone, so each block's points are formed
    once, and each box set takes its distances on its own copy of them (the
    last on the points themselves).  Everything is formed in the dtype of
    the (d, E) entity tables: ``tables``, the (bump, base - bump) pair
    ``_final_points`` takes, or by default the transposes of ``params``'
    tables.  Those give F-ordered points, whose norms are summed pairwise,
    as ``score_batch`` sums them; C-contiguous tables give C-ordered points,
    whose norms are summed one dimension after another, in other bits.
    Given ``ids``, an id array, only those candidates are scored, bitwise
    as among all |E|.

    The ranking screen passes C-contiguous float32 tables, its float32
    boxes, their faces moved out for the whole-point inside test, and
    ``face_gaps`` (k, E), filled with inf: for each row, it takes the least
    depth of one of its points in its box, min over dimensions of half the
    box width less |x - c|, over the positions that the inside test passed
    (whole-point branch only).
    """
    for box in boxes:
        _check_arity(box[0], len(entities))
    n_rows = params.entity_base.shape[0] if ids is None else len(ids)
    dtype = params.entity_base.dtype if tables is None else tables[0].dtype
    totals = np.zeros((len(boxes), n_rows), dtype=dtype)
    last = len(boxes) - 1
    with np.errstate(over="ignore"):  # a norm past the dtype's range is inf
        for blk in row_blocks(n_rows, totals.itemsize * params.d):
            rows = blk if ids is None else ids[blk]
            operands = [rows if q == position else slice(e, e + 1)
                        for q, e in enumerate(entities)]
            block_totals = totals[:, blk]
            for q, x in enumerate(_final_points(params, operands, tables)):
                for k, box in enumerate(boxes):
                    gap = None if face_gaps is None else face_gaps[k, blk]
                    block_totals[k] += _position_norms(
                        params, x if k == last else x.copy(order="K"), box, q,
                        face_gap=gap)[0]
    return totals


def score_batch(params: ModelParams, relation: int, ents: np.ndarray) -> np.ndarray:
    """Scores for a batch of same-relation facts given as a (B, n) id array."""
    return forward(params, relation, ents)[0]


def score(params: ModelParams, fact: Fact) -> float:
    """Plausibility score of one fact; lower is better."""
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
    ``forward`` call that made ``cache``.  Each point takes the branch
    ``forward`` chose for it: the cache's boxes and branch masks are reused,
    and no inside test is run again.  Each derivative factor starts from its
    outside formula and the inside points (whole-point rows, or with
    ``per_dim_branch`` masked coordinates) are written over, element by
    element the same operations as a select between the two.  The gradients
    are computed in the entity tables' dtype and added into ``buf``;
    ``to_corners`` routes the box gradients by the box tables, which a
    ``float32_entities`` view shares in float64.  Subgradient conventions:
    boundary points take the inside branch, |z| contributes 0 at z = 0, and
    the L2 norm has zero gradient at the origin.
    """
    dtype = params.entity_base.dtype
    weights = np.asarray(weights, dtype=dtype)
    ents = cache.ents
    B, n = ents.shape
    slots, lo, hi, c, w, kappa = cache.box
    g_raw = np.empty((B, n, params.d), dtype=dtype)
    for p, x in enumerate(cache.points):
        branch = cache.branch[p]  # (B, 1) flags, or (B, d) with per_dim_branch
        # the transposes of F-ordered results: (B, d) C-ordered arrays
        dv, z, t, _ = (a.T for a in _distance(x.T, lo[p], hi[p], c[p], w[p], kappa[p],
                                              params.per_dim_branch, branch=branch.T))
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
        # each starts as the outside formula; the inside points are written over
        dv_dw = t - kappa_p
        g_z = g_dv * wp
        if params.per_dim_branch:
            np.multiply(t, -inv_w2, out=dv_dw, where=branch)
            np.multiply(g_dv, 1.0 / wp, out=g_z, where=branch)
        else:
            rows_in = np.flatnonzero(branch)
            if rows_in.size:
                dv_dw[rows_in] = t[rows_in] * -inv_w2
                g_z[rows_in] = g_dv[rows_in] * (1.0 / wp)
        g_w = np.multiply(g_dv, dv_dw, out=dv_dw).sum(axis=0)
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
    # raw_p = base_p - bump_p + sum_q bump_q: each occurrence of an entity
    # gives its base the point gradient of its position, and its bump the
    # row's total point gradient less that same term.  Segment sums: a
    # stable sort groups the occurrences of each entity into one row of a
    # 0/1 CSR matrix, whose product adds them left to right in occurrence
    # order, in the entity tables' dtype.
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


def score_gradient(params: ModelParams, fact: Fact) -> GradMap:
    """Exact subgradient of score(fact) w.r.t. every parameter slot it touches."""
    buf = GradBuffer(params)
    _, cache = forward(params, fact.relation, np.array([fact.entities], dtype=np.int64))
    backward(params, cache, np.ones(1), buf)
    return buf.to_dict()


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write a self-contained checkpoint: one JSON object, version 2.

    The header holds the vocabulary (entity names, relation names and
    arities), ``d``, ``n_slots``, the flags and ``slot_of`` (each relation's
    box slot ids, so boxes tied by rule injection stay tied after a load).
    Each of the tables ``entity_base``, ``entity_bump``, ``box_a`` and
    ``box_b`` is base64 text of its C-order little-endian float64 bytes.
    The box tables keep every slot, stale aliased rows too, so
    ``load_checkpoint`` gives back ``params`` bit for bit, and equal params
    give byte-identical files.

    The file is the text ``json.dump`` writes for the whole object, then a
    newline; only the header goes through the encoder.  Each table's base64
    text is written to the file as it is made, one table at a time, since
    the base64 alphabet needs no JSON escape.  The file is written beside
    ``path`` and renamed over it (``staged``), so ``path`` holds either the
    previous checkpoint or the new one, never a torn write.
    """
    vocab = params.vocab
    header = json.dumps({
        "version": CHECKPOINT_VERSION,
        "entities": vocab.entity_names,
        "relations": vocab.relation_names,
        "arities": vocab.relation_arities,
        "d": params.d,
        "n_slots": params.n_slots,
        "norm_order": params.norm_order,
        "bounded": params.bounded,
        "per_dim_branch": params.per_dim_branch,
        "slot_of": [slots.tolist() for slots in params.slot_of],
    })
    with staged(Path(path)) as tmp, open(tmp, "wb") as fh:
        fh.write(header[:-1].encode("ascii"))  # the object stays open
        for name in _TABLES:
            table = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            fh.write(f', "{name}": "'.encode("ascii"))
            fh.write(binascii.b2a_base64(table, newline=False))
            fh.write(b'"')
        fh.write(b"}\n")


@contextmanager
def staged(path: Path) -> Iterator[Path]:
    """A sibling ``.tmp`` path to write ``path``'s new content to: renamed
    over ``path`` when the block ends, removed if the block raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _checkpoint_table(rows, n_rows: int, d: int, what: str) -> np.ndarray:
    """``rows`` as an (n_rows, d) float table of finite values, or ValueError."""
    try:
        table = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):
        table = None
    if table is not None and table.shape == (0,) and n_rows == 0:
        table = table.reshape(0, d)
    return _checked_table(table, n_rows, d, what)


def _checked_table(table, n_rows: int, d: int, what: str) -> np.ndarray:
    """``table`` if it is an (n_rows, d) table of finite values, else ValueError."""
    if table is None or table.shape != (n_rows, d):
        raise ValueError(f"checkpoint {what} is not {n_rows} rows of length {d}")
    if not np.isfinite(table).all():
        raise ValueError(f"checkpoint {what} holds a non-finite value")
    return table


class _Fields(dict):
    """A JSON object of a checkpoint: a field it lacks is a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError(f"checkpoint has no {key} field")


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a version 2 or version 1 checkpoint, or raise ValueError.

    Both versions are rejected unless every field they need is there (a
    missing one is named), the entity and relation names are lists of
    strings, each relation has a positive int arity, ``d`` is a positive
    int, ``norm_order`` is the int 1 or 2, ``bounded`` and
    ``per_dim_branch`` are bools, every table has the right shape and every
    value is finite.  A version 1 file (per-relation float lists, no slot
    map) also needs ``relation_boxes`` to be a list of {corner_a, corner_b}
    lists with one box per position; it loads with ``fresh_slots``.  A version 2
    file needs each table to decode to exactly rows * d * 8 bytes and each
    relation's ``slot_of`` row to hold one int in [0, n_slots) per position.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh, object_hook=_Fields)
    version = payload.get("version") if isinstance(payload, dict) else None
    read_tables = ({1: _v1_tables, 2: _v2_tables}.get(version)
                   if type(version) is int else None)
    if read_tables is None:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    vocab, d, flags = _checkpoint_header(payload)
    return ModelParams(vocab, **read_tables(payload, vocab, d), **flags)


def _checkpoint_header(payload: dict) -> tuple[Vocabulary, int, dict]:
    """The vocabulary, ``d`` and flags both versions store, checked."""
    entities, names, arities = payload["entities"], payload["relations"], payload["arities"]
    if not (all(isinstance(part, list) for part in (entities, names, arities))
            and all(type(name) is str for name in entities + names)):
        raise ValueError("checkpoint vocabulary is not lists of entity names, "
                         "relation names and arities")
    if len(names) != len(arities):
        raise ValueError(f"checkpoint has {len(names)} relation names and "
                         f"{len(arities)} arities")
    if not all(type(arity) is int and arity >= 1 for arity in arities):
        raise ValueError("checkpoint holds an arity that is not a positive int")
    vocab = Vocabulary(entities, names, arities)
    d = payload["d"]
    if type(d) is not int or d < 1:
        raise ValueError(f"checkpoint d is {d!r}, not a positive int")
    flags = {"norm_order": payload["norm_order"], "bounded": payload["bounded"],
             "per_dim_branch": payload.get("per_dim_branch", False)}
    for key in ("bounded", "per_dim_branch"):
        if type(flags[key]) is not bool:
            raise ValueError(f"checkpoint {key} is {flags[key]!r}, not a bool")
    return vocab, d, flags


def _v2_tables(payload: dict, vocab: Vocabulary, d: int) -> dict:
    """The slot map and the four tables of a version 2 payload, checked."""
    n_slots = payload["n_slots"]
    if type(n_slots) is not int or n_slots < 0:
        raise ValueError(f"checkpoint n_slots is {n_slots!r}, not a count")
    rows = payload["slot_of"]
    if not isinstance(rows, list) or len(rows) != vocab.n_relations:
        raise ValueError(f"checkpoint slot_of is not {vocab.n_relations} slot rows")
    slot_of = []
    for name, arity, row in zip(vocab.relation_names, vocab.relation_arities, rows):
        if not isinstance(row, list) or len(row) != arity:
            raise ValueError(f"relation {name!r} of arity {arity} has a slot row "
                             f"of another length")
        if not all(type(s) is int and 0 <= s < n_slots for s in row):
            raise ValueError(f"relation {name!r} has a slot id that is not an "
                             f"int in [0, {n_slots})")
        slot_of.append(np.array(row, dtype=np.int64))
    n_e = vocab.n_entities
    n_rows = {"entity_base": n_e, "entity_bump": n_e, "box_a": n_slots, "box_b": n_slots}
    return {"slot_of": slot_of,
            **{name: _decoded_table(payload[name], n_rows[name], d, name)
               for name in _TABLES}}


def _decoded_table(text, n_rows: int, d: int, what: str) -> np.ndarray:
    """Base64 ``<f8`` text as an (n_rows, d) table of finite values, or ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"checkpoint {what} is not base64 text")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ValueError(f"checkpoint {what} is not base64: {exc}") from exc
    table = (np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(n_rows, d)
             if len(raw) == n_rows * d * 8 else None)
    return _checked_table(table, n_rows, d, what)


def _v1_tables(payload: dict, vocab: Vocabulary, d: int) -> dict:
    """The tables of a version 1 payload, checked, with one slot per position."""
    boxes = payload["relation_boxes"]
    if not (isinstance(boxes, list) and all(
            isinstance(rel, dict) and isinstance(rel.get(corner), list)
            for rel in boxes for corner in ("corner_a", "corner_b"))):
        raise ValueError("checkpoint relation_boxes is not a list of "
                         "{corner_a, corner_b} lists")
    if len(boxes) != vocab.n_relations:
        raise ValueError(f"checkpoint has {len(boxes)} box sets for "
                         f"{vocab.n_relations} relations")
    for name, arity, rel in zip(vocab.relation_names, vocab.relation_arities, boxes):
        ca, cb = rel["corner_a"], rel["corner_b"]
        if len(ca) != arity or len(cb) != arity:
            raise ValueError(f"relation {name!r} of arity {arity} has "
                             f"{len(ca)} and {len(cb)} box corners")
    slot_of, n_slots = fresh_slots(vocab.relation_arities)
    tables = {name: _checkpoint_table(payload[name], vocab.n_entities, d, name)
              for name in ("entity_base", "entity_bump")}
    for name, corner in (("box_a", "corner_a"), ("box_b", "corner_b")):
        rows = [row for rel in boxes for row in rel[corner]]
        tables[name] = _checkpoint_table(rows, n_slots, d, corner)
    return {**tables, "slot_of": slot_of}
