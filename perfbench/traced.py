"""The traced run: per-layer counts, busy and self time, and tracing overhead.

After the untimed warm-up of harness.warm_up, a fixed amount of work --
set-up, the workload's gate epochs, one ``evaluate()`` call over the query
split and one checkpoint round trip -- runs once untraced and once with
every layer wrapped.  Counts repeat exactly for one seed.  The two passes
must write byte-identical checkpoints and equal ``evaluate()`` output.  A
third ``evaluate()`` call, under a memory tracer, gives the peak allocation
of evaluation and of one candidate scoring.  The overhead comes from
separate pairs of adjacent untraced and traced calls (see overhead_pct),
because on a shared host two whole passes a few seconds apart differ by
tens of percent whatever they run.
"""
from __future__ import annotations

import contextlib
import statistics
from pathlib import Path

import numpy as np

import harness
import reference
import selftest
import spans


def groups_per_batch(boxkb, run: harness.Run, epochs: int) -> float:
    """Mean relation groups per batch, under train_epoch's own shuffles."""
    rel = np.array([f.relation for f in run.kb.train])
    bs = run.config.batch_size
    groups = []
    for epoch in range(epochs):
        order = boxkb.training.stream_rng(
            run.config.seed, boxkb.training.STREAM_SHUFFLE, epoch).permutation(len(rel))
        groups += [len(np.unique(rel[order[i:i + bs]])) for i in range(0, len(rel), bs)]
    return float(np.mean(groups))


OVERHEAD_PAIRS = 5


def overhead_pct(boxkb, workload, run: harness.Run, tally: harness.Tally) -> dict:
    """Tracing overhead in percent, from adjacent untraced and traced calls.

    Each pair times one training call (a slice of ``train_slice`` facts, or
    an epoch) and one ``evaluate()`` over the query split, untraced and
    traced, in an order that alternates between pairs, so that a slow spell
    of the host hits both halves of a pair alike.  Each figure is the median
    over pairs of traced time over untraced time, less one.  The calls go on
    training ``run``.
    """
    kb = harness.train_slices(run.kb, workload.train_slice)[0]
    ratios = {"train": [], "eval": [], "total": []}
    for pair in range(OVERHEAD_PAIRS):
        times = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            with spans.Tracer(boxkb) if traced else contextlib.nullcontext():
                _, train_s = harness.timed(harness.train_epoch, boxkb, run,
                                           workload.gate_epochs + pair, tally, kb)
                _, eval_s = harness.timed(harness.evaluate, boxkb, run.kb, run.params, tally)
            times[traced] = (train_s, eval_s)
        (plain_train, plain_eval), (traced_train, traced_eval) = times[False], times[True]
        ratios["train"].append(traced_train / plain_train)
        ratios["eval"].append(traced_eval / plain_eval)
        ratios["total"].append((traced_train + traced_eval) / (plain_train + plain_eval))
    return {key: (statistics.median(r) - 1.0) * 100.0 for key, r in ratios.items()}


def layer_metrics(tracer: spans.Tracer, memory: spans.Tracer) -> dict:
    times = tracer.busy_and_self_ms()
    out = {}
    for _, _, name, counter in spans.LAYERS:
        counts = tracer.counts.get(name, {})
        busy, own = times.get(name, (0.0, 0.0))
        out[f"{name}.calls"] = (counts.get("calls", 0), "count")
        out[f"{name}.ms"] = (busy, "ms")
        out[f"{name}.self_ms"] = (own, "ms")
        for key in spans.COUNT_KEYS[counter]:
            out[f"{name}.{key}"] = (counts.get(key, 0), "bytes" if "bytes" in key else "count")
    for _, _, name, _ in spans.MEMORY_LAYERS:
        out[f"{name}.peak_alloc_bytes"] = (memory.peak_bytes.get(name, 0), "bytes")
    return out


def measure(boxkb, workload, files, seed: int, workdir: Path, spans_dir: Path,
            tally: harness.Tally) -> dict:
    harness.warm_up(boxkb, workload, files, seed, workdir / "plain.json")
    plain = harness.fixed_pass(boxkb, workload, files, seed, workdir / "plain.json", tally)
    tracer = spans.Tracer(boxkb)
    with tracer:
        traced = harness.fixed_pass(boxkb, workload, files, seed, workdir / "traced.json",
                                    tally, tracer)
    tally.gate(plain.checkpoint == traced.checkpoint,
               "checkpoint bytes differ with tracing on")
    tally.gate(plain.eval_out == traced.eval_out,
               "evaluate() output differs with tracing on")
    harness.check_gates(boxkb, workload, plain.run, plain.run.params,
                        plain.final_loss, plain.eval_out, tally)

    kb, params = plain.run.kb, plain.run.params
    memory = spans.Tracer(boxkb, spans.MEMORY_LAYERS, memory=True)
    with memory:
        in_memory_pass = harness.evaluate(boxkb, kb, params, tally)
    tally.gate(in_memory_pass == plain.eval_out,
               "evaluate() output differs under the memory tracer")
    pooled, pool_s = harness.timed(harness.evaluate, boxkb, kb, params, tally, workers=2)
    tally.gate(pooled == plain.eval_out, "evaluate(workers=2) output differs")
    problems = selftest.run_selftest(boxkb, workdir / "selftest")
    tally.add(1, int(bool(problems)), f"self-test: {problems}" if problems else None)

    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_dir / f"{workload.name}-seed{seed}.jsonl")
    overhead = overhead_pct(boxkb, workload, plain.run, tally)

    metrics = layer_metrics(tracer, memory)
    metrics.update({
        "training.negatives_accepted_equal": (
            traced.run.stats.get("negatives_accepted_equal", 0), "count"),
        "evaluation.pool_2w.rankings_per_s": (
            harness.n_rankings(kb) / pool_s, "rankings/s"),
        "workload.known_per_query": (
            reference.known_per_query(kb, harness.queries(kb)), "count"),
        "workload.groups_per_batch": (
            groups_per_batch(boxkb, plain.run, workload.gate_epochs), "count"),
        "trace.overhead_pct": (overhead["total"], "%"),
        "trace.train.overhead_pct": (overhead["train"], "%"),
        "trace.eval.overhead_pct": (overhead["eval"], "%"),
    })
    return metrics
