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

Candidates are scored by ``model.score_point_group`` from the bump algebra:
substituting a candidate changes only its own position's base and one term
of the bump sum S shared by every position, so a query never gathers the
(E, n, d) candidate rows; it forms S, one position's points and their
distance vector for one cache-sized block of candidates at a time, at
most about 1 MB at any |E| and arity.  A block is dimension-major, (d,
rows), one candidate per column.

Ranking screens every candidate in float32 and re-scores in float64 only
the rows the screen cannot decide (filter and refine, as in Faloutsos,
Ranganathan & Manolopoulos, SIGMOD 1994).  ``evaluate`` copies
``entity_bump`` and ``entity_base - entity_bump`` to float32 once per call,
as C-contiguous (d, E) tables, and forms each relation's boxes once in
float64 and rounds them to float32 (``_Screen``); each query scores all |E|
candidates on those.  Each block is then a C-ordered (d, rows) array, so
the inside test and the norm reduce down its columns, one vectorised pass
per dimension, and the norm sums the dimensions in order; the float64
re-score sums each norm pairwise, as ``score_batch`` does.  A rank depends
only on whether each candidate scores below the target or equal to it.
``_float32_bounds`` derives, from the magnitudes of the tables and of the
relation's boxes, a bound on how far each float32 score can lie from the
float64 one (a priori rounding-error analysis, as in Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002): through the input rounding,
the n-term bump sum, numpy's float32 tanh, the distance pieces, the d-term
norm and the sum over positions, padded by a fixed factor.  Its
``_gamma(d + 1)`` term bounds recursive summation in any order (Higham,
§4.2), so it holds for the dimension-by-dimension sum.  A candidate is
undecided if its score is not finite or, under the whole-point branch
where the score jumps at the box boundary, if one of its points lies
within ``slack`` of a box face; one error test settles every other row,
which is undecided if its float32 score lies within both bounds of a
target's.  An undecided row's bound is taken as
infinite, so it lies apart from no target, and a target the screen cannot
place (near a face, where its float32 score can be off by the whole jump,
or not finite) lies apart from no row, so its query is ranked in float64
whole.  Every other row compares with every target the same way in
float32 as in float64, and never ties.  The undecided rows and the
targets are re-scored by one ``score_point_group`` call on the float64
tables, on an id array (bitwise the values it gives among all |E|), and
the ranks are counted on the float32 scores with those rows replaced:
exactly the float64 ranks.  When no row is undecided the float64 pass is skipped.
Non-finite parameters make every bound non-finite, so every row is
re-scored.

The filter of a query is the set of entities that complete it into a known
fact.  ``kb.known_answers`` reads them off the query relation's keys in the
knowledge base's ``known_index``, a ``kb.fact_index`` like the one training
filters negatives through, which the knowledge base builds on first use and
keeps, so every ``evaluate`` and ``rank_fact`` call shares one index.  The
filter costs one pass over the relation's known facts, and no candidate
rows are built.

The unit of work is one point group: the distinct queries with the same
(position, other entities), which differ only in relation.  Facts that
differ only at the ranked position pose the same query, and neither the
candidate scores nor the filter depend on the target; and a final point
depends on the entities alone, so the queries of a group (a held-out fact
that holds in several ancestor relations poses one per relation) ask for
the same candidate points.  ``evaluate`` groups its rankings by that key
and, group by group in sorted order (one group per worker live at a time),
forms each block's float32 points once (``model.score_point_group``); each
relation of the group then takes its own distances, screen, float64
re-score, filter mask and ranks, so every rank is the one the query gets
alone.  With several workers, each takes one strided shard of the sorted
groups, so the pool's bookkeeping does not grow with the query count.

Ranks are integers written back into their canonical (fact, position) slots
before any averaging, so metrics cannot depend on query order, on the
grouping, or on parallel partitioning.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .kb import Fact, KnowledgeBase, known_answers
from .model import ModelParams, _box_tensors, score_point_group


def rank_from_scores(scores: np.ndarray, target: int,
                     include: np.ndarray | None = None) -> int:
    """Mean-rank position of ``scores[target]`` among included candidates."""
    s = np.asarray(scores, dtype=np.float64)
    t = s[target]
    better, ties = s < t, s == t
    if include is not None:
        better &= include
        ties &= include
    # other candidates tied with the target: an excluded target is not counted
    n_ties = int(np.count_nonzero(ties)) - (include is None or bool(include[target]))
    return 1 + int(np.count_nonzero(better)) + (n_ties + 1) // 2


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
    """What the queries of one ranking call share: ``tables``, float32
    copies of ``entity_bump`` and of ``entity_base - entity_bump`` as
    C-contiguous (d, E) tables (the pair ``score_point_group`` takes), and
    each of ``relations`` as a ``_Relation``."""

    def __init__(self, params: ModelParams, relations):
        # a value past float32's range becomes inf, and inf - inf is NaN:
        # either makes the scores it enters non-finite, so their rows are
        # re-scored
        with np.errstate(over="ignore", invalid="ignore"):
            bump = params.entity_bump.T.astype(np.float32, order="C")
            base_less_bump = params.entity_base.T.astype(np.float32, order="C")
            base_less_bump -= bump
        self.tables = bump, base_less_bump
        base_max, bump_max = (max(t.max(initial=0.0), -t.min(initial=0.0))
                              for t in (params.entity_base, params.entity_bump))
        self.relations = {}
        for r in set(relations):
            box = _box_tensors(params, r)
            with np.errstate(over="ignore"):  # an inf bound re-scores every row
                slack, err_abs, err_rel = _float32_bounds(params, box, base_max, bump_max)
            box32 = _box_tensors(params, r, slack, np.float32)
            self.relations[r] = _Relation(box, box32, slack, err_abs, err_rel)


def _candidate_scores(params: ModelParams, entities: tuple[int, ...], position: int,
                      screen: _Screen, relations) -> tuple[np.ndarray, np.ndarray]:
    """Float32 scores (k, |E|) of the |E| rows substituting every entity at
    ``position`` of ``entities``, under each of the k ``relations``, and the
    rows no target can decide: a non-finite score, or under the whole-point
    branch a point within ``slack`` of a box face."""
    group = [screen.relations[r] for r in relations]
    face_gap = (None if params.per_dim_branch
                else np.full((len(group), params.entity_base.shape[0]), np.inf,
                             dtype=np.float32))
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are re-scored
        scores = score_point_group(params, [r.box32 for r in group], entities,
                                   position, screen.tables, face_gap)
    undecided = ~np.isfinite(scores)
    if face_gap is not None:
        for k, relation in enumerate(group):
            undecided[k] |= ~(face_gap[k] > relation.slack)
    return scores, undecided


def _group_ranks(params: ModelParams, index: dict[int, np.ndarray],
                 entities: tuple[int, ...], position: int, targets: dict[int, list[int]],
                 screen: _Screen) -> list[list[tuple[int, int]]]:
    """For each relation of ``targets`` (relation -> target entities), in
    its order, the (raw, filtered) rank of each of its targets at
    ``position`` of the query that ``entities`` pose there under that
    relation (the entity at ``position`` is not read).  The queries share
    their candidate points, so one ``_candidate_scores`` call scores them
    all; each query is then ranked from its own score vector and filter
    mask.  The filter drops the candidates that complete the query into a
    fact in ``index``, a ``kb.fact_index``.  The scores are ``screen``'s
    float32 ones, with the rows it cannot decide re-scored in float64."""
    all_scores, all_undecided = _candidate_scores(params, entities, position, screen,
                                                  list(targets))
    out = []
    for (r, query_targets), scores, undecided in zip(targets.items(), all_scores,
                                                     all_undecided):
        relation = screen.relations[r]
        scores = scores.astype(np.float64)
        err = np.abs(scores)
        err *= relation.err_rel
        err += relation.err_abs
        # an undecided row lies apart from no target, and an undecided target
        # (near a face, where its float32 score can be off by the whole jump,
        # or not finite) from no row
        err[undecided] = np.inf
        apart = np.empty_like(scores)  # how far each row lies beyond both bounds
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, so undecided
            for t in query_targets:
                np.subtract(scores, scores[t], out=apart)
                np.abs(apart, out=apart)
                apart -= err
                apart -= err[t]
                apart[t] = np.inf
                undecided |= ~(apart > 0.0)
        if undecided.any():
            undecided[query_targets] = True
            ids = np.flatnonzero(undecided)
            scores[ids] = score_point_group(params, [relation.box], entities, position,
                                            ids=ids)[0]
        include = np.ones(scores.shape[0], dtype=bool)
        include[known_answers(index, r, entities, position)] = False
        out.append([(rank_from_scores(scores, t, None),
                     rank_from_scores(scores, t, include)) for t in query_targets])
    return out


def rank_fact(params: ModelParams, kb: KnowledgeBase, fact: Fact,
              position: int, filtered: bool) -> int:
    """Rank of ``fact`` against all substitutions at ``position``."""
    return _group_ranks(params, kb.known_index, fact.entities, position,
                        {fact.relation: [fact.entities[position]]},
                        _Screen(params, [fact.relation]))[0][0][filtered]


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
    # (position, other entities) -> the entities of a fact posing that point
    # group, the position, and per relation the targets and canonical slots
    # of its rankings
    groups: dict[tuple, tuple[tuple[int, ...], int, dict[int, list[int]],
                              dict[int, list[int]]]] = {}
    n_rankings = 0
    for fact in facts:
        for position, target in enumerate(fact.entities):
            key = (position, fact.entities[:position] + fact.entities[position + 1:])
            _, _, targets, slots = groups.setdefault(key, (fact.entities, position, {}, {}))
            targets.setdefault(fact.relation, []).append(target)
            slots.setdefault(fact.relation, []).append(n_rankings)
            n_rankings += 1
    work = [groups[key] for key in sorted(groups)]
    index = kb.known_index  # built here, before any worker thread reads it
    screen = _Screen(params, [fact.relation for fact in facts])
    raw, filt = [0] * n_rankings, [0] * n_rankings

    def rank_all(shard):
        for entities, position, targets, slots in shard:
            ranks = _group_ranks(params, index, entities, position, targets, screen)
            for query_slots, pairs in zip(slots.values(), ranks):
                for i, (r, f) in zip(query_slots, pairs):
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
