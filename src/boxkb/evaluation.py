"""Ranking evaluation: MR, MRR, and Hits@K over every corruption position.

For each evaluated fact and each argument position, the fact is scored
against all |E| single-entity substitutions at that position.  Its rank is

    1 + (# strictly better candidates) + (# tied other candidates + 1) // 2

i.e. ties resolve to the mean rank (rounded half up to keep ranks integral),
so a constant-score model gets the middle rank rather than rank 1.  Filtered
ranking additionally drops candidates that are themselves known true facts
(in any split), except the target itself; the filtered numbers are the
headline, raw numbers ride along.  Relations at or above
kb.n_scored_relations (inverse-augmentation helpers) are skipped.

Candidates are scored by ``model.score_candidates`` from the bump algebra:
substituting a candidate changes only its own position's base and one term
of the bump sum S shared by every position, so a query never gathers the
(E, n, d) candidate rows; it forms S, one position's points and their
distance vector for one cache-sized block of candidates at a time, at
most about 1 MB at any |E| and arity.

Ranking screens every candidate in float32 and re-scores in float64 only
the rows the screen cannot decide (filter and refine, as in Faloutsos,
Ranganathan & Manolopoulos, SIGMOD 1994).  ``evaluate`` copies
``entity_base``, ``entity_bump`` and their difference to float32 once per
call, and forms each relation's boxes once in float64 and rounds them to
float32 (``_Screen``); each query scores all |E| candidates on those.  A
rank depends only on whether each candidate scores below the target or
equal to it.  ``_float32_bounds`` derives, from the magnitudes of the
tables and of the relation's boxes, a bound on how far each float32 score
can lie from the float64 one (a priori rounding-error analysis, as in
Higham, *Accuracy and Stability of Numerical Algorithms*, 2002): through
the input rounding, the n-term bump sum, numpy's float32 tanh, the
distance pieces, the d-term norm and the sum over positions, padded by a
fixed factor.  A candidate is undecided if its float32 score lies within
both bounds of a target's, if its score is not finite, or, under the
whole-point branch where the score jumps at the box boundary, if one of
its points lies within ``slack`` of a box face.  A query with a target
the screen cannot decide (near a face, where its float32 score can be off
by the whole jump, or not finite) is ranked in float64 whole.  Otherwise
every other candidate compares with every target the same way in float32
as in float64, and never ties.  The undecided rows and the targets are
re-scored by one ``score_candidates`` call on the float64 tables, on an id
array (bitwise the values it gives among all |E|), and the ranks are
counted on the float32 scores with those rows replaced: exactly the
float64 ranks.  When no row is undecided the float64 pass is skipped.
Non-finite parameters make every bound non-finite, so every row is
re-scored.

The filter tests the candidate rows, one block at a time, with
``kb.known_rows`` against the knowledge base's ``known_index`` (the
membership test that training uses to filter negatives), which it builds
on first use and keeps, so every ``evaluate`` and ``rank_fact`` call shares
one index.  No query holds all (E, n) candidate rows at once.

The unit of work is one distinct query, keyed by (relation, position, other
entities): facts that differ only at the ranked position pose the same
query, and neither the candidate scores nor the filter depend on the
target.  ``evaluate`` groups its rankings by key and, key by key in sorted
order (one query per worker live at a time), forms one score vector and one
filter mask and ranks every target of the query from them.  With several
workers, each takes one strided shard of the sorted keys, so the pool's
bookkeeping does not grow with the query count.

Ranks are integers written back into their canonical (fact, position) slots
before any averaging, so metrics cannot depend on query order, on the
grouping, or on parallel partitioning.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .kb import Fact, KnowledgeBase, known_rows
from .model import (ModelParams, _box_tensors, float32_entities, row_blocks,
                    score_candidates)


def rank_from_scores(scores: np.ndarray, target: int,
                     include: np.ndarray | None = None) -> int:
    """Mean-rank position of ``scores[target]`` among included candidates."""
    s = np.asarray(scores, dtype=np.float64)
    mask = np.ones(s.shape[0], dtype=bool) if include is None else include.copy()
    mask[target] = True
    t = s[target]
    better = int(((s < t) & mask).sum())
    ties = int(((s == t) & mask).sum()) - 1  # other candidates tied with target
    return 1 + better + (ties + 1) // 2


_U = 2.0 ** -24          # float32 unit roundoff: one rounding's relative error
_TINY = 2.0 ** -149      # float32's smallest subnormal: an underflowing product's error
# numpy float32 tanh's absolute error in units of 2^-24, an ulp just below 1.
# Measured over every finite float32 input on numpy 2.4.6, x86-64: at most
# 1.01 on the AVX2 and AVX-512 paths and 1.74 on the baseline path.  numpy's
# own accuracy test holds it within 2 ulps of its validation set's reference
# values, on Linux with AVX2 or AVX-512 only.  Other numpy versions and other
# architectures were not measured: 4 assumes they stay within twice that.
_TANH_ULPS = 4.0
_PAD = 2.0               # covers second-order terms and the float64 path's own rounding


def _gamma(k: int) -> float:
    """Relative error of a product of k float32 roundings (Higham's gamma_k)."""
    return k * _U / (1.0 - k * _U)


def _float32_bounds(params: ModelParams, box: tuple, base_max: float,
                    bump_max: float) -> tuple[float, float, float]:
    """(slack, err_abs, err_rel) of the float32 scores against the boxes
    ``box`` (float64 ``_box_tensors``), derived step by step from the
    kernel's operations and the largest |entity_base| and |entity_bump|
    entries: a float32 score lies within ``err_abs + err_rel * |score|`` of
    the float64 one.  Under the whole-point branch, the inside test moves
    each face out by ``slack``, and a point that passes it but lies within
    ``slack`` of a face leaves its row undecided."""
    _, lo, hi, c, w, kappa = box
    n, d = lo.shape
    # raw point base - bump + S, S the bump sum: inputs rounded to float32,
    # one subtraction, n - 1 additions and one more; every partial sum is
    # at most raw_max
    raw_max = base_max + (n + 1) * bump_max
    e_x, x_max = _gamma(n + 3) * raw_max, raw_max
    if params.bounded:  # tanh is 1-Lipschitz, and an ulp below 1 is _U
        e_x, x_max = e_x + _TANH_ULPS * _U, 1.0
    f_max = max(float(np.abs(lo).max()), float(np.abs(hi).max()))  # |c| <= f_max
    w_max, k_max = float(w.max()), float(kappa.max())  # w >= 1, kappa >= 0
    # the inside test against the moved faces, and the depth behind a
    # face: x, the faces or c and w each rounded, and one subtraction
    slack = _PAD * (e_x + _U * (2 * x_max + 4 * f_max + 3 * w_max))
    # t = |x - c|, then t * w - kappa outside (t / w inside is smaller)
    e_t = e_x + _U * (x_max + 2 * f_max)
    e_dv = w_max * e_t + _U * (3 * (x_max + f_max) * w_max + 2 * k_max) + 2 * _TINY
    if params.per_dim_branch:
        # a coordinate whose branch differs lies that near a face, where
        # the two pieces meet with slopes w and 1 / w
        e_dv += (e_x + _U * f_max) * w_max
        slack = 0.0
    if params.norm_order == 1:
        e_norm = d * e_dv
    else:  # the error vector's 2-norm, and the squares that underflow
        e_norm = np.sqrt(d) * (e_dv + np.sqrt(_TINY))
    # the norms' own d-term sums and the n-term sum over positions
    return slack, _PAD * n * e_norm, _PAD * (_gamma(d + 1) + _gamma(n))


class _Relation(NamedTuple):
    """One relation as the screen sees it: its float64 ``_box_tensors``, its
    float32 ones with the faces moved out by ``slack``, and the bounds."""
    box: tuple
    box32: tuple
    slack: float
    err_abs: float
    err_rel: float


class _Screen:
    """What the queries of one ranking call share: float32 copies of the
    entity tables and of their difference, and each of ``relations`` as a
    ``_Relation``."""

    def __init__(self, params: ModelParams, relations):
        # a value past float32's range becomes inf, and inf - inf is NaN:
        # either makes the scores it enters non-finite, so their rows are
        # re-scored
        self.params = float32_entities(params)
        with np.errstate(over="ignore", invalid="ignore"):
            self.base_less_bump = self.params.entity_base - self.params.entity_bump
        base_max, bump_max = (max(t.max(initial=0.0), -t.min(initial=0.0))
                              for t in (params.entity_base, params.entity_bump))
        self.relations = {}
        for r in set(relations):
            box = _box_tensors(params, r, len(params.slot_of[r]))
            slack, err_abs, err_rel = _float32_bounds(params, box, base_max, bump_max)
            slots, lo, hi, *shape = box
            with np.errstate(over="ignore"):
                box32 = (slots, *(a.astype(np.float32)
                                  for a in (lo - slack, hi + slack, *shape)))
            self.relations[r] = _Relation(box, box32, slack, err_abs, err_rel)


def _candidate_scores(params: ModelParams, fact: Fact, position: int,
                      screen: _Screen) -> tuple[np.ndarray, np.ndarray]:
    """Float32 scores of the |E| rows substituting every entity at
    ``position``, and the rows no target can decide: a non-finite score, or
    under the whole-point branch a point within ``slack`` of a box face."""
    relation = screen.relations[fact.relation]
    face_gap = (None if params.per_dim_branch
                else np.full(params.entity_base.shape[0], np.inf, dtype=np.float32))
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are re-scored
        scores = score_candidates(screen.params, fact.relation, fact.entities, position,
                                  screen.base_less_bump, relation.box32, face_gap)
    undecided = ~np.isfinite(scores)
    if face_gap is not None:
        undecided |= ~(face_gap > relation.slack)
    return scores, undecided


def _known_candidates(index: dict[int, np.ndarray], fact: Fact, position: int,
                      n_e: int) -> np.ndarray:
    """(E,) mask of the rows substituting every entity at ``position`` that
    are facts in ``index``, tested one ``row_blocks`` block of rows at a time."""
    known = np.empty(n_e, dtype=bool)
    row = np.array(fact.entities, dtype=np.int64)
    for blk in row_blocks(n_e, row.nbytes):
        rows = np.tile(row, (blk.stop - blk.start, 1))
        rows[:, position] = np.arange(blk.start, blk.stop)
        known[blk] = known_rows(index, fact.relation, rows)
    return known


def _query_ranks(params: ModelParams, index: dict[int, np.ndarray], fact: Fact,
                 position: int, targets: list[int],
                 screen: _Screen) -> list[tuple[int, int]]:
    """(raw, filtered) rank of each of ``targets`` at ``position`` of the query
    ``fact`` poses there, from one score vector and one filter mask; the
    filter drops the candidates that are facts in ``index``, a
    ``kb.fact_index``.  The scores are ``screen``'s float32 ones, with the
    rows it cannot decide re-scored in float64."""
    scores, undecided = _candidate_scores(params, fact, position, screen)
    relation = screen.relations[fact.relation]
    scores = scores.astype(np.float64)
    if undecided[targets].any():
        # a target near a face, where its float32 score can be off by the
        # whole jump, or not finite: no row is compared with it in float32
        undecided[:] = True
    else:
        err = np.abs(scores)
        err *= relation.err_rel
        err += relation.err_abs
        apart = np.empty_like(scores)  # how far each row lies beyond both bounds
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, so undecided
            for t in targets:
                np.subtract(scores, scores[t], out=apart)
                np.abs(apart, out=apart)
                apart -= err
                apart -= err[t]
                apart[t] = np.inf
                undecided |= ~(apart > 0.0)
    if undecided.any():
        ids = np.union1d(np.flatnonzero(undecided), targets)
        scores[ids] = score_candidates(params, fact.relation, fact.entities, position,
                                       None, relation.box, ids=ids)
    include = ~_known_candidates(index, fact, position, scores.shape[0])
    return [(rank_from_scores(scores, t, None), rank_from_scores(scores, t, include))
            for t in targets]


def rank_fact(params: ModelParams, kb: KnowledgeBase, fact: Fact,
              position: int, filtered: bool) -> int:
    """Rank of ``fact`` against all substitutions at ``position``."""
    return _query_ranks(params, kb.known_index, fact, position,
                        [fact.entities[position]],
                        _Screen(params, [fact.relation]))[0][filtered]


def metrics_from_ranks(ranks: list[int], ks: tuple[int, ...]) -> dict:
    if not ranks:
        return {"mr": 0.0, "mrr": 0.0, "hits": {str(k): 0.0 for k in ks}}
    arr = np.array(ranks, dtype=np.float64)
    return {
        "mr": float(arr.mean()),
        "mrr": float((1.0 / arr).mean()),
        "hits": {str(k): float((arr <= k).mean()) for k in ks},
    }


def ranked_facts(kb: KnowledgeBase, split: str) -> list[Fact]:
    """The facts of ``split`` that ``evaluate`` ranks, one ranking per position."""
    return [f for f in kb.split(split) if f.relation < kb.n_scored_relations]


def evaluate(params: ModelParams, kb: KnowledgeBase, split: str,
             ks: tuple[int, ...] = (1, 3, 10), workers: int = 1) -> dict:
    """Filtered (headline) and raw metrics over one split."""
    facts = ranked_facts(kb, split)
    # (relation, position, other entities) -> a fact posing that query, the
    # position, and the canonical slots and targets of its rankings
    queries: dict[tuple, tuple[Fact, int, list[int], list[int]]] = {}
    n_rankings = 0
    for fact in facts:
        for position, target in enumerate(fact.entities):
            key = (fact.relation, position,
                   fact.entities[:position] + fact.entities[position + 1:])
            _, _, slots, targets = queries.setdefault(key, (fact, position, [], []))
            slots.append(n_rankings)
            targets.append(target)
            n_rankings += 1
    work = [queries[key] for key in sorted(queries)]
    index = kb.known_index  # built here, before any worker thread reads it
    screen = _Screen(params, [fact.relation for fact, *_ in work])
    raw, filt = [0] * n_rankings, [0] * n_rankings

    def rank_all(shard):
        for fact, position, slots, targets in shard:
            pairs = _query_ranks(params, index, fact, position, targets, screen)
            for i, (r, f) in zip(slots, pairs):
                raw[i], filt[i] = r, f

    if workers > 1 and len(work) > 1:
        # one strided shard per worker, so the pool holds `workers` futures
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(rank_all, [work[i::workers] for i in range(workers)]))
    else:
        rank_all(work)
    out = {"split": split, "n_facts": len(facts)}
    out.update(metrics_from_ranks(filt, ks))
    out["raw"] = metrics_from_ranks(raw, ks)
    return out
