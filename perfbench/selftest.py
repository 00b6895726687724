#!/usr/bin/env python3
"""Self-test: tracing must not change what boxkb computes.

    python3 perfbench/selftest.py

Trains a small rule-injected configuration twice, without and with every
layer wrapped, and requires byte-identical checkpoints and equal
``evaluate()`` output.  It also checks that every layer present was seen,
that a missing attribute is reported as absent without stopping the run,
that child spans nest inside their parents, that the memory tracer's peak
for ``evaluate()`` covers the peak of the candidate scoring inside it, and
that every wrapped attribute is restored afterwards.  Exit status 0 means
all checks passed.
"""
from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import harness
import spans
import workloads

SMALL = workloads.Workload(
    "selftest", "tsv-triple", d=8, batch_size=64, negatives=4, learning_rate=0.05,
    filter_train_negatives=True, gate_epochs=3, train_slice=0, reference_sample=0)
SIZES = dict(n_entities=40, leaf_facts=30, ancestor_facts=8)
SEED = 5
ABSENT = ("training", "no_such_function", "selftest.absent", None)


def run_selftest(boxkb, workdir: Path) -> list[str]:
    """Problems found; empty when tracing is transparent."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = workloads.rules_hierarchy(workdir, SEED, **SIZES)
    originals = {(m, a): getattr(getattr(boxkb, m), a, None) for m, a, _, _ in spans.LAYERS}
    tally = harness.Tally()
    plain = harness.fixed_pass(boxkb, SMALL, files, SEED, workdir / "plain.json", tally)
    tracer = spans.Tracer(boxkb, spans.LAYERS + (ABSENT,))
    with tracer:
        traced = harness.fixed_pass(boxkb, SMALL, files, SEED, workdir / "traced.json",
                                    tally, tracer)
    memory = spans.Tracer(boxkb, spans.MEMORY_LAYERS, memory=True)
    with memory:
        harness.evaluate(boxkb, plain.run.kb, plain.run.params, tally)
    problems = list(tally.problems)
    if plain.checkpoint != traced.checkpoint:
        problems.append("checkpoint bytes differ with tracing on")
    if plain.eval_out != traced.eval_out:
        problems.append("evaluate() output differs with tracing on")
    outer, inner = (memory.peak_bytes.get(name, 0) for _, _, name, _ in spans.MEMORY_LAYERS)
    if not memory.absent and not outer >= inner > 0:
        problems.append(f"memory peaks not nested: {dict(memory.peak_bytes)}")
    if ABSENT[2] not in tracer.absent:
        problems.append(f"{ABSENT[2]!r} not reported absent: {tracer.absent}")
    unseen = [name for _, _, name, _ in spans.LAYERS
              if name not in tracer.counts and name not in tracer.absent]
    if unseen:
        problems.append(f"layers never called: {unseen}")
    if tracer.counter_errors:
        problems.append(f"counter errors: {tracer.counter_errors}")
    by_id = {s.id: s for s in tracer.spans}
    if any(s.parent is not None and not (by_id[s.parent].start <= s.start
                                         and s.end <= by_id[s.parent].end)
           for s in tracer.spans):
        problems.append("a child span lies outside its parent")
    if any(getattr(getattr(boxkb, m), a, None) is not f for (m, a), f in originals.items()):
        problems.append("a wrapped attribute was not restored")
    return problems


def main() -> int:
    import run

    boxkb = run.import_boxkb()
    workdir = run.OUT / "work" / f"selftest-{os.getpid()}"
    try:
        problems = run_selftest(boxkb, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
