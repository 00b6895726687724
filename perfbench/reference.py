"""Independent reference scorer and mean-tie ranker.

Scores come straight from the parameter arrays and the distance in PAPER.md,
without calling any boxkb scoring code.  Candidates at position p are scored
with the bump algebra rather than a per-candidate gather: candidate c at p
lands at ``base_c + S`` and every other position q at
``base_q - bump_q + S + bump_c``, where S is the sum of the other
participants' bumps.  The arithmetic order therefore differs from boxkb's,
so scores agree only to rounding; a candidate whose score lies within
``tol`` of the target's could rank either way, and the reference gives each
query an interval of possible ranks instead of a single one.

Ranks follow the mean-tie rule: 1 + (# better) + (# tied others + 1) // 2.
Filtered ranking drops known facts other than the target.
"""
from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np

KS = (1, 3, 10)
SCORE_TOL = 1e-9  # relative; scores are sums of O(1) distances in float64


def _boxes(params, relation: int) -> tuple[np.ndarray, np.ndarray]:
    slots = params.slot_of[relation]
    a, b = params.box_a[slots], params.box_b[slots]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if params.bounded:
        lo, hi = np.tanh(lo), np.tanh(hi)
    return lo, hi


def _position_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                       params) -> np.ndarray:
    """Norm of the PAPER.md distance vector of each row of ``points``."""
    center = (lo + hi) / 2.0
    width = hi - lo + 1.0
    gap = np.abs(points - center)
    inside = (points >= lo) & (points <= hi)
    if not params.per_dim_branch:
        inside = np.broadcast_to(inside.all(axis=1, keepdims=True), inside.shape)
    outside = gap * width - 0.5 * (width - 1.0) * (width - 1.0 / width)
    dist = np.where(inside, gap / width, outside)
    if params.norm_order == 1:
        return np.abs(dist).sum(axis=1)
    return np.sqrt((dist * dist).sum(axis=1))


def candidate_scores(params, relation: int, entities: tuple[int, ...],
                     position: int) -> np.ndarray:
    """Scores of all |E| substitutions at ``position``; lower is better."""
    base, bump = params.entity_base, params.entity_bump
    rest = [e for q, e in enumerate(entities) if q != position]
    s_rest = bump[rest].sum(axis=0)
    lo, hi = _boxes(params, relation)
    total = np.zeros(base.shape[0])
    for q, e in enumerate(entities):
        if q == position:
            raw = base + s_rest
        else:
            raw = (base[e] - bump[e] + s_rest) + bump
        points = np.tanh(raw) if params.bounded else raw
        total += _position_distance(points, lo[q], hi[q], params)
    return total


def rank_interval(scores: np.ndarray, target: int, excluded: set[int],
                  tol: float = SCORE_TOL) -> tuple[int, int]:
    """Smallest and largest mean-tie rank consistent with scores +- tol."""
    others = np.ones(scores.shape[0], dtype=bool)
    others[target] = False
    for e in excluded:
        others[e] = False
    diff = scores - scores[target]
    near = np.abs(diff) <= tol * max(1.0, abs(float(scores[target])))
    better = int(((diff < 0) & ~near & others).sum())
    ambiguous = int((near & others).sum())
    return 1 + better, 1 + better + ambiguous


def answer_index(known, facts) -> dict[tuple, set[int]]:
    """(relation, position, other entities) -> known answers, for ``facts``' queries."""
    def key(fact, p):
        return (fact.relation, p, fact.entities[:p] + fact.entities[p + 1:])

    wanted = {key(f, p) for f in facts for p in range(len(f.entities))}
    index: dict[tuple, set[int]] = defaultdict(set)
    for fact in known:
        for p in range(len(fact.entities)):
            k = key(fact, p)
            if k in wanted:
                index[k].add(fact.entities[p])
    return index


def known_per_query(kb, facts) -> float:
    """Mean number of known answers per ranking query, the target included."""
    index = answer_index(kb.known, facts)
    sizes = [len(index[(f.relation, p, f.entities[:p] + f.entities[p + 1:])])
             for f in facts for p in range(len(f.entities))]
    return float(np.mean(sizes)) if sizes else 0.0


def _metric_bounds(intervals: list[tuple[int, int]]) -> dict[str, tuple[float, float]]:
    lo = np.array([a for a, _ in intervals], dtype=np.float64)
    hi = np.array([b for _, b in intervals], dtype=np.float64)
    out = {"mr": (lo.mean(), hi.mean()), "mrr": ((1 / hi).mean(), (1 / lo).mean())}
    for k in KS:
        out[f"hits@{k}"] = ((hi <= k).mean(), (lo <= k).mean())
    return {m: (float(a), float(b)) for m, (a, b) in out.items()}


def _within(value: float, bounds: tuple[float, float]) -> bool:
    lo, hi = bounds
    return lo - 1e-12 <= value <= hi + 1e-12


def check_against_evaluate(evaluate, params, kb, facts) -> list[dict]:
    """Compare ``evaluate()`` on each fact alone with the reference ranks.

    Returns one record per disagreeing fact (empty when all agree).  Each
    fact is evaluated through a copy of ``kb`` whose test split holds only
    that fact, so every per-fact MR/MRR/Hits figure is checked, filtered and
    raw, and filtered MR must not exceed raw MR.
    """
    index = answer_index(kb.known, facts)
    disagreements = []
    for fact in facts:
        raw_iv, filt_iv = [], []
        for p, target in enumerate(fact.entities):
            scores = candidate_scores(params, fact.relation, fact.entities, p)
            answers = index[(fact.relation, p, fact.entities[:p] + fact.entities[p + 1:])]
            raw_iv.append(rank_interval(scores, target, set()))
            filt_iv.append(rank_interval(scores, target, answers - {target}))
        got = evaluate(params, dataclasses.replace(kb, test=(fact,)), "test", ks=KS)
        problems = []
        for label, res, iv in (("filtered", got, filt_iv), ("raw", got["raw"], raw_iv)):
            bounds = _metric_bounds(iv)
            values = {"mr": res["mr"], "mrr": res["mrr"],
                      **{f"hits@{k}": res["hits"][str(k)] for k in KS}}
            problems += [f"{label} {m} {v} not in {bounds[m]}"
                         for m, v in values.items() if not _within(v, bounds[m])]
        if got["mr"] > got["raw"]["mr"]:
            problems.append(f"filtered MR {got['mr']} > raw MR {got['raw']['mr']}")
        if problems:
            disagreements.append({"fact": [fact.relation, list(fact.entities)],
                                  "problems": problems})
    return disagreements
