#!/usr/bin/env python3
"""boxkb benchmark: training and filtered-ranking throughput on three KB workloads.

    python3 perfbench/run.py --workload kg-binary --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; boxkb is imported from ``src/``.
The workload's inputs are generated from ``--seed`` and the whole run is
one process: a closed loop with one caller and ``workers=1`` (the traced
run adds one ``workers=2`` evaluation).

``--trace 0`` prints the end-to-end metrics.  After set-up (parse, init,
inject), one untimed checkpoint round trip (see harness.warm_up) and the
workload's gate epochs, the first of which is the warm-up epoch, it samples
four phases in turn, each for its share of ``--seconds``: set-up; training,
as ``train_epoch()`` calls over slices of the training split; ranking, as
``evaluate()`` calls over the whole query split, each of which must return
the same output; and checkpoint save+load.  Each sample is scaled to a
nominal host speed by the probe timed next to it (see hostprobe.py), and
each figure is the median of its scaled samples; the unscaled medians go to
stderr.

``--trace 1`` does a fixed amount of work twice, untraced and then with
every layer function wrapped (see spans.py), and prints per-layer counts,
busy and self time, and the tracing overhead; it writes the spans to
``.perfbench/spans/``.

Both modes check correctness: finite batch losses, loss and MRR within the
bands of expected.json (see calibrate.py), filtered MR <= raw MR, rule capture
after training, repeatable ranking output, exact checkpoint round trips,
and ranks against an independent reference ranker.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; failures are described on stderr.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was

import harness  # noqa: E402  (after the thread settings above)
import hostprobe  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# shares of --seconds spent on each sampled phase; a phase that reaches
# MAX_SAMPLES stops and leaves its time to the others
SHARES = {"setup": 0.05, "train": 0.25, "eval": 0.35, "checkpoint": 0.25}
MIN_SAMPLES = 5
MAX_SAMPLES = 40


def import_boxkb():
    if not (SRC / "boxkb" / "__init__.py").is_file():
        sys.exit(f"error: boxkb sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import boxkb
    return boxkb


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(boxkb, workload, files, seed: int, seconds: float, workdir: Path,
            tally) -> dict:
    """The end-to-end metrics of one run; see the module docstring."""
    path = workdir / "model.json"
    run = harness.warm_up(boxkb, workload, files, seed, path)

    # Gate epochs: full epochs, the first being the warm-up that fills the
    # sparse-Adam state.  The gates check the model as they leave it.
    final_loss = None
    for epoch in range(workload.gate_epochs):
        metrics = harness.train_epoch(boxkb, run, epoch, tally)
        if metrics is None:
            break
        final_loss = metrics["mean_loss"]
    model, loaded, eval_out = run.params.copy(), None, None
    slices = harness.train_slices(run.kb, workload.train_slice)
    epoch = workload.gate_epochs
    rankings = harness.n_rankings(run.kb)
    samples = {phase: [] for phase in SHARES}  # (scaled, unscaled) figure per sample
    probe = hostprobe.HostProbe()

    def sample(phase: str) -> tuple[float, float] | None:
        """Time one sample of ``phase``; None when its operation failed."""
        nonlocal epoch, loaded, eval_out
        if phase == "setup":
            _, dt, raw_dt = probe.timed(harness.set_up, boxkb, workload, files, seed)
            return dt, raw_dt
        if phase == "train":
            kb = slices[epoch % len(slices)]
            metrics, dt, raw_dt = probe.timed(harness.train_epoch, boxkb, run, epoch, tally, kb)
            epoch += 1
            return None if metrics is None else (len(kb.train) / dt, len(kb.train) / raw_dt)
        if phase == "eval":
            out, dt, raw_dt = probe.timed(harness.evaluate, boxkb, run.kb, model, tally)
            if out is None:
                return None
            if eval_out is None:
                eval_out = out
            else:
                tally.gate(out == eval_out, "evaluate() output changed between calls")
            return rankings / dt, rankings / raw_dt
        loaded, dt, raw_dt = probe.timed(harness.checkpoint_roundtrip, boxkb, model, path)
        return dt, raw_dt

    # The phases take turns, each next turn going to the phase furthest
    # behind its share, so that a slow spell of the host falls on a few
    # samples of every phase rather than on all samples of one.
    live = [phase for phase in SHARES if phase != "train" or final_loss is not None]
    spent = dict.fromkeys(SHARES, 0.0)
    start = time.perf_counter()
    while live:
        short = [phase for phase in live if len(samples[phase]) < MIN_SAMPLES]
        if not short and time.perf_counter() - start >= sum(SHARES.values()) * seconds:
            break
        phase = min(short or live, key=lambda p: spent[p] / SHARES[p])
        t0 = time.perf_counter()
        figures = sample(phase)
        spent[phase] += time.perf_counter() - t0
        if figures is not None:
            samples[phase].append(figures)
        if figures is None or len(samples[phase]) >= MAX_SAMPLES:
            live.remove(phase)
    tally.gate(loaded is not None and harness.same_model(model, loaded),
               "checkpoint round trip changed the model")

    figures = harness.check_gates(boxkb, workload, run, model, final_loss, eval_out, tally)
    median = statistics.median

    def median_of(phase: str, unscaled: bool = False) -> float:
        values = [raw if unscaled else scaled for scaled, raw in samples[phase]]
        return median(values) if values else 0.0

    print(json.dumps({"workload": workload.name, "seed": seed, "gates": figures,
                      "samples": {k: len(v) for k, v in samples.items()},
                      "unscaled_medians": {k: median_of(k, unscaled=True) for k in samples}}),
          file=sys.stderr)
    return {
        "train_facts_per_s": (median_of("train"), "facts/s"),
        "rankings_per_s": (median_of("eval"), "rankings/s"),
        "setup_s": (median_of("setup"), "s"),
        "checkpoint_s": (median_of("checkpoint"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    boxkb = import_boxkb()
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = harness.Tally()
    try:
        files = workloads.write_inputs(workload.name, workdir, args.seed)
        if args.trace:
            metrics = traced.measure(boxkb, workload, files, args.seed, workdir,
                                     OUT / "spans", tally)
        else:
            metrics = measure(boxkb, workload, files, args.seed, args.seconds,
                              workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
