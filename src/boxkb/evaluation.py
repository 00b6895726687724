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
most about 1 MB at any |E| and arity.  ``evaluate`` forms ``entity_base -
entity_bump`` once per call for every query to share.  The scores are
bitwise those of ``score_batch`` on the (E, n) candidate rows.

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

import numpy as np

from .kb import Fact, KnowledgeBase, known_rows
from .model import ModelParams, row_blocks, score_candidates


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


def _candidate_scores(params: ModelParams, fact: Fact, position: int,
                      base_less_bump: np.ndarray) -> np.ndarray:
    """Scores of the |E| rows substituting every entity at ``position``."""
    return score_candidates(params, fact.relation, fact.entities, position,
                            base_less_bump)


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
                 base_less_bump: np.ndarray) -> list[tuple[int, int]]:
    """(raw, filtered) rank of each of ``targets`` at ``position`` of the query
    ``fact`` poses there, from one score vector and one filter mask; the
    filter drops the candidates that are facts in ``index``, a
    ``kb.fact_index``."""
    scores = _candidate_scores(params, fact, position, base_less_bump)
    include = ~_known_candidates(index, fact, position, scores.shape[0])
    return [(rank_from_scores(scores, t, None), rank_from_scores(scores, t, include))
            for t in targets]


def rank_fact(params: ModelParams, kb: KnowledgeBase, fact: Fact,
              position: int, filtered: bool) -> int:
    """Rank of ``fact`` against all substitutions at ``position``."""
    return _query_ranks(params, kb.known_index, fact, position,
                        [fact.entities[position]],
                        params.entity_base - params.entity_bump)[0][filtered]


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
    base_less_bump = params.entity_base - params.entity_bump
    raw, filt = [0] * n_rankings, [0] * n_rankings

    def rank_all(shard):
        for fact, position, slots, targets in shard:
            pairs = _query_ranks(params, index, fact, position, targets, base_less_bump)
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
