#!/usr/bin/env python3
"""Derive the correctness-gate bands in expected.json.

    python3 perfbench/calibrate.py --seeds 0-11 > perfbench/expected.json

For each workload and seed, runs the fixed pass of harness.py -- set-up,
the gate epochs and one ``evaluate()`` call over the query split, exactly
what the benchmark gates check, plus a checkpoint round trip -- and records
the final mean loss and the filtered MRR.  Each band is the mean over seeds
plus or minus six standard deviations (at least 1e-6 of the mean, so that
rounding-level changes pass), which a correct program on an unseen seed
leaves with negligible probability.  Run it only on the commit that defines
the baseline; a later commit must pass the bands, not move them.

The filtered MRR of kg-binary and nary4 is the exception.  Their query
splits are random held-out facts, so each rank is uniform over the
candidates and MRR is the mean of n reciprocal uniform ranks: a
heavy-tailed figure, in which a single rank-1 hit among 80 rankings adds
0.0125, and which a dozen seeds say little about.  Its band runs from 1/E,
the least MRR any ranking can give, to the Bennett bound that chance
exceeds with probability at most DELTA.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys

import harness
import run
import workloads

SIGMAS = 6.0
REL_FLOOR = 1e-6
DELTA = 1e-6


def figures(boxkb, workload, seed: int) -> dict:
    workdir = run.OUT / "work" / f"calibrate-{workload.name}-{seed}"
    workdir.mkdir(parents=True)
    tally = harness.Tally()
    try:
        files = workloads.write_inputs(workload.name, workdir, seed)
        done = harness.fixed_pass(boxkb, workload, files, seed, workdir / "model.json", tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tally.failed:
        raise RuntimeError(f"{workload.name} seed {seed}: {tally.problems}")
    return {"mean_loss": done.final_loss, "filtered_mrr": done.eval_out["mrr"]}


def band(values: list[float]) -> list[float]:
    mean = statistics.fmean(values)
    half = max(SIGMAS * statistics.stdev(values), REL_FLOOR * abs(mean))
    return [mean - half, mean + half]


def chance_mrr_band(n_entities: int, n_rankings: int, delta: float = DELTA) -> list[float]:
    """MRR band of ``n_rankings`` independent ranks, each uniform on 1..N.

    N is the number of entities.  Filtering drops the few other known
    answers from the candidates, which raises the mean by far less than the
    slack of the bound.  Per ranking X = 1/R lies in [0, 1] with mean m and
    variance v; Bennett's inequality gives
    P(sum(X - m) >= t) <= exp(-(n v / b^2) h(b t / (n v))), b = 1 - m,
    h(u) = (1 + u) log(1 + u) - u, and t is found by bisection.
    """
    ks = range(1, n_entities + 1)
    mean = sum(1.0 / k for k in ks) / n_entities
    var = sum(1.0 / (k * k) for k in ks) / n_entities - mean * mean
    b, nv = 1.0 - mean, n_rankings * var

    def log_tail(t: float) -> float:
        u = b * t / nv
        return -(nv / (b * b)) * ((1.0 + u) * math.log1p(u) - u)

    lo, hi = 0.0, float(n_rankings)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if log_tail(mid) > math.log(delta) else (lo, mid)
    return [(1.0 - 1e-9) / n_entities, min(1.0, mean + hi / n_rankings)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-11", help="inclusive range, e.g. 0-11")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    boxkb = run.import_boxkb()
    expected = {}
    for name, workload in workloads.WORKLOADS.items():
        per_seed = [figures(boxkb, workload, s) for s in range(first, last + 1)]
        print(f"{name}: {per_seed}", file=sys.stderr)
        if name in workloads.RANDOM_KBS:
            sizes = workloads.RANDOM_KBS[name][2]
            mrr = chance_mrr_band(sizes["n_entities"],
                                  sizes["n_query"] * sizes.get("arity", 2))
        else:
            mrr = band([f["filtered_mrr"] for f in per_seed])
        expected[name] = {"mean_loss": band([f["mean_loss"] for f in per_seed]),
                          "filtered_mrr": mrr, "seeds": args.seeds}
    json.dump(expected, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
