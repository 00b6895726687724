"""Negative-sampling training loop with sparse Adam.

The loss for one positive fact with scores s+ (positive) and s-_i (its m
corruptions) is

    L = -log sigma(margin - s+) - sum_i w_i * log sigma(s-_i - margin)

where w_i is a softmax over -adversarial_temperature * s-_i.  Since score is
a distance, the lowest-scoring corruptions are the hardest negatives and get
the largest weights; temperature 0 gives uniform weights summing to 1.  The
weights are treated as constants during differentiation.

Each relation group of a batch is scored once: its positives and their
corruptions go through one ``model.forward`` call and one ``model.backward``
call.  Both compute in float32 over float64 master tables (mixed precision,
as in Micikevicius et al., ICLR 2018): each epoch rounds ``entity_base``
and ``entity_bump`` to float32 once (``model.float32_entities``), and after
each Adam step copies from the masters only the rows the batch touched.
The box tables are not copied: each call forms its boxes from the float64
corners, and box gradients are routed to the float64 corners, so merged
slots and containment projection need nothing more.  Batch gradients are
plain sums over examples (the learning rate absorbs scale): within a
relation group, each entity's sum over its occurrences and each box's sum
over the group's rows are float32, in the kernel's dtype; only the sums
across the groups of a batch, and Adam, are float64.  Adam keeps dense
float64 first and second moments and a step counter per row of each
parameter table; only rows touched by a batch advance their moments and
step counters, one cache-sized block of rows at a time.  ``loss`` and
``score`` stay float64.

All randomness derives from a single seed through named sub-streams; the
shuffle stream is additionally keyed by epoch so changing the negative count
never perturbs the shuffle order.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import expit, softmax

from . import rules  # rules.apply_projection is looked up per call, so a wrapper sees it
from .kb import Fact, KnowledgeBase, Vocabulary, group_by_relation, known_rows
from .model import (TABLE_OF_KIND, GradBuffer, GradMap, ModelParams, SlotKey, backward,
                    float32_entities, forward, row_blocks, score)

STREAM_INIT = 1
STREAM_NEGATIVES = 2
STREAM_SHUFFLE = 3

NEGATIVE_RETRY_BOUND = 10

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def stream_rng(seed: int, stream: int, *extra: int) -> np.random.Generator:
    """Independent generator for a named sub-stream of the run seed."""
    words = [seed % (1 << 64), stream, *extra]
    return np.random.default_rng(np.random.SeedSequence(words))


class TrainingAbort(RuntimeError):
    """Raised when a batch produces a non-finite loss."""

    def __init__(self, message: str, diagnostic: dict):
        super().__init__(message)
        self.diagnostic = diagnostic


def setting(default, doc: str, **flag):
    """A run-setting field: its default, plus the ``argparse`` keywords of its
    command-line flag (``help`` and any extra, such as ``choices``)."""
    return field(default=default, metadata={"help": doc, **flag})


@dataclass
class TrainConfig:
    learning_rate: float = setting(1e-3, "Adam step size")
    margin: float = setting(3.0, "loss margin on the distance scores")
    negatives: int = setting(10, "corrupted facts drawn per positive")
    adversarial_temperature: float = setting(
        1.0, "softmax temperature of the negative weights (0 is uniform)")
    batch_size: int = setting(256, "positive facts per batch")
    epochs: int = setting(100, "training epochs")
    seed: int = setting(0, "run seed; every random stream derives from it")
    checkpoint_every: int = setting(100, "epochs between checkpoints")
    filter_train_negatives: bool = setting(
        False, "re-draw negatives that are known training facts")

    def validate(self) -> None:
        for name in ("learning_rate", "margin", "adversarial_temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.negatives < 1:
            raise ValueError("negatives must be at least 1")
        if self.adversarial_temperature < 0:
            raise ValueError("adversarial_temperature must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")


@dataclass
class AdamMoments:
    """Adam state of one parameter table: moments and a step count per row."""
    m: np.ndarray      # (rows, d)
    v: np.ndarray      # (rows, d)
    steps: np.ndarray  # (rows,) int64


@dataclass
class OptimizerState:
    """Sparse Adam: moments and step counters advance only for touched rows.

    The per-table state is allocated on a table's first update.
    """
    tables: dict[str, AdamMoments] = field(default_factory=dict)

    @property
    def steps(self) -> dict[SlotKey, int]:
        """The step count of every row of each allocated table."""
        return {(kind, row): t for kind, state in self.tables.items()
                for row, t in enumerate(state.steps.tolist())}


def _grad_rows(gradients: GradBuffer | GradMap):
    """(kind, rows, gradient rows) per parameter table with touched rows."""
    if isinstance(gradients, GradBuffer):
        yield from gradients.touched_rows()
        return
    by_kind: dict[str, tuple[list[int], list[np.ndarray]]] = {}
    for (kind, idx), g in gradients.items():
        rows, grads = by_kind.setdefault(kind, ([], []))
        rows.append(idx)
        grads.append(g)
    for kind, (rows, grads) in by_kind.items():
        yield kind, np.array(rows, dtype=np.int64), np.array(grads, dtype=np.float64)


def adam_update(opt: OptimizerState, params: ModelParams,
                gradients: GradBuffer | GradMap, learning_rate: float) -> None:
    """One Adam step over exactly the slots present in ``gradients``, one
    ``row_blocks`` block of touched rows at a time, so the gathered moment
    rows and their temporaries stay in cache."""
    for kind, all_rows, all_g in _grad_rows(gradients):
        param = getattr(params, TABLE_OF_KIND[kind])
        state = opt.tables.get(kind)
        if state is None:
            state = opt.tables[kind] = AdamMoments(
                np.zeros_like(param), np.zeros_like(param),
                np.zeros(param.shape[0], dtype=np.int64))
        for blk in row_blocks(len(all_rows), param.itemsize * param.shape[1]):
            rows, g = all_rows[blk], all_g[blk]
            t = state.steps[rows] + 1
            state.steps[rows] = t
            m = state.m[rows]
            m *= BETA1
            m += (1.0 - BETA1) * g
            state.m[rows] = m
            v = state.v[rows]
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            state.v[rows] = v
            # learning_rate * m_hat / (sqrt(v_hat) + eps); m and v are copies
            # of the state rows, so v can be overwritten
            step = m / (1.0 - BETA1 ** t)[:, None]
            step *= learning_rate
            v /= (1.0 - BETA2 ** t)[:, None]
            np.sqrt(v, out=v)
            v += EPS
            step /= v
            param[rows] -= step


def adversarial_loss_terms(pos_scores: np.ndarray, neg_scores: np.ndarray,
                           margin: float, adversarial_temperature: float
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row losses and dL/dscore factors.

    pos_scores: (B,), neg_scores: (B, m).  Returns (loss, d_pos, d_neg) with
    shapes (B,), (B,), (B, m).  Uses log sigma(x) = -logaddexp(0, -x) for
    stability; the softmax weights are stop-gradient constants.
    """
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    w = softmax(-adversarial_temperature * neg_scores, axis=-1)
    loss = (np.logaddexp(0.0, pos_scores - margin)
            + (w * np.logaddexp(0.0, margin - neg_scores)).sum(axis=-1))
    d_pos = expit(pos_scores - margin)
    d_neg = -w * expit(margin - neg_scores)
    return loss, d_pos, d_neg


def loss(params: ModelParams, fact: Fact, negatives: list[Fact],
         margin: float, adversarial_temperature: float) -> float:
    """Self-adversarial negative sampling loss for one positive fact."""
    if not negatives:
        raise ValueError("at least one negative sample is required")
    s_pos = np.array([score(params, fact)])
    s_neg = np.array([[score(params, n) for n in negatives]])
    value, _, _ = adversarial_loss_terms(s_pos, s_neg, margin,
                                         adversarial_temperature)
    return float(value[0])


def _substitute(ents: np.ndarray, pos: np.ndarray, repl: np.ndarray) -> np.ndarray:
    """(B, n) rows, (B, m) positions and replacements -> (B, m, n) rows."""
    B, m = pos.shape
    out = np.repeat(ents[:, None, :], m, axis=1)
    out[np.arange(B)[:, None], np.arange(m)[None, :], pos] = repl
    return out


def _draw_corruptions(rng: np.random.Generator, relation: int, ents: np.ndarray,
                      m: int, n_entities: int, stats: dict | None = None,
                      avoid: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """(B, n) positive rows -> (B, m, n) corrupted rows.

    Each corruption redraws position and replacement together when it
    collides with its source fact (or, with ``avoid``, any fact in that
    ``kb.fact_index``), giving up after a bounded number of retries.
    """
    B, n = ents.shape
    pos = rng.integers(0, n, size=(B, m))
    repl = rng.integers(0, n_entities, size=(B, m))

    def bad_mask() -> np.ndarray:
        mask = repl == ents[np.arange(B)[:, None], pos]
        if avoid is not None:
            rows = _substitute(ents, pos, repl).reshape(B * m, n)
            mask |= known_rows(avoid, relation, rows).reshape(B, m)
        return mask

    bad = bad_mask()
    for _ in range(NEGATIVE_RETRY_BOUND):
        if not bad.any():
            break
        k = int(bad.sum())
        pos[bad] = rng.integers(0, n, size=k)
        repl[bad] = rng.integers(0, n_entities, size=k)
        bad = bad_mask()
    if stats is not None and bad.any():
        stats["negatives_accepted_equal"] = (
            stats.get("negatives_accepted_equal", 0) + int(bad.sum()))
    return _substitute(ents, pos, repl)


def sample_negatives(rng: np.random.Generator, fact: Fact, m: int,
                     vocab: Vocabulary, stats: dict | None = None) -> list[Fact]:
    """m corruptions of ``fact``: uniform position, uniform replacement entity.

    A corruption equal to the original fact is re-drawn; after the retry
    bound it is accepted and counted in ``stats``.
    """
    ents = np.array([fact.entities], dtype=np.int64)
    out = _draw_corruptions(rng, fact.relation, ents, m, vocab.n_entities,
                            stats=stats)
    return [Fact(fact.relation, tuple(int(x) for x in out[0, i]))
            for i in range(m)]


def train_epoch(params: ModelParams, optimizer: OptimizerState,
                kb: KnowledgeBase, config: TrainConfig,
                projection_plan=None, epoch: int = 0,
                stats: dict | None = None) -> dict:
    """One shuffled pass over the training split; returns epoch metrics."""
    t0 = time.perf_counter()
    facts = list(kb.train)
    shuffle_rng = stream_rng(config.seed, STREAM_SHUFFLE, epoch)
    order = shuffle_rng.permutation(len(facts))
    neg_rng = stream_rng(config.seed, STREAM_NEGATIVES, epoch)
    avoid = kb.train_index if config.filter_train_negatives else None
    n_entities = params.vocab.n_entities
    kernel = float32_entities(params)
    total_loss = 0.0
    growth = 0
    for start in range(0, len(facts), config.batch_size):
        batch = [facts[i] for i in order[start:start + config.batch_size]]
        buf = GradBuffer(params)
        batch_loss = 0.0
        for rel, ents in group_by_relation(batch).items():
            negs = _draw_corruptions(neg_rng, rel, ents, config.negatives,
                                     n_entities, stats=stats, avoid=avoid)
            B, m, n = negs.shape
            scores, cache = forward(kernel, rel,
                                    np.concatenate([ents, negs.reshape(B * m, n)]))
            row_loss, d_pos, d_neg = adversarial_loss_terms(
                scores[:B], scores[B:].reshape(B, m), config.margin,
                config.adversarial_temperature)
            batch_loss += float(row_loss.sum())
            backward(kernel, cache, np.concatenate([d_pos, d_neg.ravel()]), buf)
        if not np.isfinite(batch_loss):
            raise TrainingAbort(
                "non-finite loss; training aborted",
                diagnostic={
                    "epoch": epoch,
                    "batch_start": start,
                    "batch_loss": batch_loss,
                    "relations": sorted({f.relation for f in batch}),
                    "facts": [[f.relation, list(f.entities)] for f in batch[:8]],
                })
        adam_update(optimizer, params, buf, config.learning_rate)
        with np.errstate(over="ignore"):  # rounded as float32_entities rounds
            for name, touched in (("entity_base", buf.base_touched),
                                  ("entity_bump", buf.bump_touched)):
                rows = np.flatnonzero(touched)
                getattr(kernel, name)[rows] = getattr(params, name)[rows]
        if projection_plan is not None:
            growth += rules.apply_projection(params, projection_plan)
        total_loss += batch_loss
    wall_ms = (time.perf_counter() - t0) * 1e3
    return {
        "epoch": epoch,
        "mean_loss": total_loss / max(1, len(facts)),
        "wall_ms": wall_ms,
        "projection_growth_count": growth,
    }


def train_model(params: ModelParams, kb: KnowledgeBase, config: TrainConfig,
                projection_plan=None, metrics_fh=None,
                on_checkpoint: Callable[[int, ModelParams, dict], None] | None = None,
                stats: dict | None = None) -> list[dict]:
    """Run config.epochs epochs; returns the per-epoch metrics history.

    ``on_checkpoint`` fires every config.checkpoint_every epochs and after the
    final epoch (validation evaluation and best-checkpoint logic live with the
    caller).
    """
    config.validate()
    optimizer = OptimizerState()
    history = []
    for epoch in range(config.epochs):
        metrics = train_epoch(params, optimizer, kb, config,
                              projection_plan=projection_plan, epoch=epoch,
                              stats=stats)
        history.append(metrics)
        if metrics_fh is not None:
            metrics_fh.write(json.dumps(metrics) + "\n")
            metrics_fh.flush()
        last = epoch == config.epochs - 1
        if on_checkpoint is not None and ((epoch + 1) % config.checkpoint_every == 0 or last):
            on_checkpoint(epoch, params, metrics)
    return history
