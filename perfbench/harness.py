"""The boxkb calls each benchmark pass makes, and the correctness gates.

Every boxkb function is reached through its module attribute
(``boxkb.training.train_epoch``, not a name imported here), so a tracer that
wraps those attributes sees the benchmark's own calls too.
"""
from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

EXPECTED = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Tally:
    """Operations attempted and failed; failures keep a message each."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, n: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += n
        self.failed += failed
        if problem is not None:
            self.problems.append(problem)

    def gate(self, ok: bool, problem: str) -> None:
        self.add(1, 0 if ok else 1, None if ok else problem)


@dataclass
class Run:
    kb: object
    params: object
    config: object
    optimizer: object
    plan: object = None
    rules: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def set_up(boxkb, workload, files, seed: int) -> Run:
    """Parse the splits, initialise the model and inject the rules, if any."""
    kb = boxkb.kb.parse_kb(files.train, files.valid, files.test, fmt=workload.fmt)
    params = boxkb.model.init_params(
        kb.vocab, workload.d,
        boxkb.training.stream_rng(seed, boxkb.training.STREAM_INIT))
    run = Run(kb, params,
              boxkb.training.TrainConfig(
                  learning_rate=workload.learning_rate, margin=3.0,
                  negatives=workload.negatives, adversarial_temperature=1.0,
                  batch_size=workload.batch_size, seed=seed,
                  filter_train_negatives=workload.filter_train_negatives),
              boxkb.training.OptimizerState())
    if files.rules is not None:
        run.rules = boxkb.rules.parse_rules(files.rules, kb.vocab)
        run.plan = boxkb.rules.inject(run.rules, params)
    return run


def train_epoch(boxkb, run: Run, epoch: int, tally: Tally, kb=None) -> dict | None:
    """One epoch over ``kb`` (default: the whole training split).

    Returns None when a batch loss was non-finite, counted as a failure.
    """
    kb = run.kb if kb is None else kb
    batches = math.ceil(len(kb.train) / run.config.batch_size)
    try:
        metrics = boxkb.training.train_epoch(
            run.params, run.optimizer, kb, run.config,
            projection_plan=run.plan, epoch=epoch, stats=run.stats)
    except boxkb.training.TrainingAbort as exc:
        done = exc.diagnostic["batch_start"] // run.config.batch_size
        tally.add(done + 1, 1, f"epoch {epoch}: {exc}")
        return None
    tally.add(batches)
    return metrics


def train_slices(kb, size: int) -> list:
    """Copies of ``kb`` whose training split is one slice of ``size`` facts."""
    if size <= 0:
        return [kb]
    return [dataclasses.replace(kb, train=kb.train[i:i + size])
            for i in range(0, len(kb.train), size)]


def queries(kb) -> list:
    return [f for f in kb.test if f.relation < kb.n_scored_relations]


def n_rankings(kb) -> int:
    return sum(len(f.entities) for f in queries(kb))


def evaluate(boxkb, kb, params, tally: Tally, workers: int = 1):
    """One filtered+raw evaluate() call over ``kb``'s test split.

    Returns None if it raised, counting every ranking as failed.
    """
    rankings = n_rankings(kb)
    try:
        out = boxkb.evaluation.evaluate(params, kb, "test", workers=workers)
    except (ValueError, IndexError, KeyError, FloatingPointError) as exc:
        tally.add(rankings, rankings, f"evaluate: {exc!r}")
        return None
    tally.add(rankings)
    return out


def checkpoint_roundtrip(boxkb, params, path: Path):
    boxkb.model.save_checkpoint(params, path)
    return boxkb.model.load_checkpoint(path)


def warm_up(boxkb, workload, files, seed: int, path: Path) -> Run:
    """Set up, then make one untimed checkpoint round trip through ``path``.

    Freeing the checkpoint's multi-megabyte buffers raises glibc malloc's
    mmap and trim thresholds; from then on the process reuses its heap for
    large arrays instead of mapping fresh pages for each, and evaluate() on
    kg-binary runs about 1.6x faster.  ``boxkb eval`` loads a checkpoint
    before it ranks, so this is the state users see; doing it before any
    timing puts every timed phase in it, whatever the order of the phases.
    """
    run = set_up(boxkb, workload, files, seed)
    checkpoint_roundtrip(boxkb, run.params, path)
    return run


def same_model(a, b) -> bool:
    """Entity tables and every relation's corners agree exactly."""
    if not (a.entity_base.tobytes() == b.entity_base.tobytes()
            and a.entity_bump.tobytes() == b.entity_bump.tobytes()
            and len(a.slot_of) == len(b.slot_of)):
        return False
    return all(a.box_a[sa].tobytes() == b.box_a[sb].tobytes()
               and a.box_b[sa].tobytes() == b.box_b[sb].tobytes()
               for sa, sb in zip(a.slot_of, b.slot_of))


@dataclass
class Pass:
    """What one fixed pass computed."""
    run: Run
    final_loss: float | None
    eval_out: dict | None
    checkpoint: bytes


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def fixed_pass(boxkb, workload, files, seed: int, path: Path, tally: Tally,
               tracer=None) -> Pass:
    """Set-up, the gate epochs, one evaluate() call over the query split and
    one checkpoint round trip through ``path``.

    With a ``tracer`` (spans.Tracer), each phase's spans carry its run id.
    """
    def phase(name: str) -> None:
        if tracer is not None:
            tracer.run = f"{workload.name}/seed{seed}/{name}"

    phase("setup")
    run = set_up(boxkb, workload, files, seed)
    phase("train")
    final_loss = None
    for epoch in range(workload.gate_epochs):
        metrics = train_epoch(boxkb, run, epoch, tally)
        if metrics is None:
            break
        final_loss = metrics["mean_loss"]
    phase("eval")
    eval_out = evaluate(boxkb, run.kb, run.params, tally)
    phase("checkpoint")
    loaded = checkpoint_roundtrip(boxkb, run.params, path)
    tally.gate(same_model(run.params, loaded), "checkpoint round trip changed the model")
    return Pass(run, final_loss, eval_out, path.read_bytes())


def reference_sample(kb, size: int) -> list:
    """Evenly spaced query facts, the same for every run of one seed."""
    facts = queries(kb)
    step = max(1, len(facts) // max(1, size))
    return facts[::step][:size]


def check_gates(boxkb, workload, run: Run, model, final_loss: float | None,
                eval_out: dict | None, tally: Tally) -> dict:
    """Correctness gates on the model after the fixed gate epochs.

    Returns the gated figures, for calibration and diagnostics.
    """
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload.name]
    figures = {"mean_loss": final_loss,
               "filtered_mrr": None if eval_out is None else eval_out["mrr"]}
    for key, value in figures.items():
        lo, hi = expected[key]
        tally.gate(value is not None and lo <= value <= hi,
                   f"{key} {value} outside the seed-commit band [{lo}, {hi}]")
    if eval_out is not None:
        tally.gate(eval_out["mr"] <= eval_out["raw"]["mr"],
                   f"filtered MR {eval_out['mr']} > raw MR {eval_out['raw']['mr']}")
    for rule in run.rules:
        tally.gate(boxkb.rules.check_capture(model, rule).captured,
                   f"rule not captured after training: {rule.format(run.kb.vocab)}")
    sample = reference_sample(run.kb, workload.reference_sample)
    disagreements = reference.check_against_evaluate(
        boxkb.evaluation.evaluate, model, run.kb, sample)
    tally.add(len(sample), len(disagreements),
              None if not disagreements else f"reference ranker: {disagreements[:3]}")
    return figures
