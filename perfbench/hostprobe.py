"""Host-speed probe: fixed work, independent of boxkb, timed next to each sample.

On a shared host the same work runs up to 1.6x slower for minutes at a time,
depending on what neighbouring machines do.  Over six 10-second runs of
training slices, the median rate spread 29% on kg-binary and 10% on nary4
(interquartile range over median); scaling each sample by the probe times
around it cut that to 4% and 1.4%.  The probe mixes array work (a gather, tanh and row norms, like boxkb's
scoring, on a cache-sized and a memory-sized table), interpreter work
(tuple keys into a dict, like its filtering and bookkeeping) and text work (a JSON round trip of floats, like checkpoints
and parsing), because neighbours slow each by a different amount; its time
is the geometric mean of the parts' times.

A sample that took ``dt`` seconds while the probe took ``p`` is reported as
``dt * NOMINAL_S / p``: the time it would take on a host where the probe
takes ``NOMINAL_S``, a little above the probe's uncontended time on the
2-vCPU Xeon VM the baseline was measured on.
"""
from __future__ import annotations

import json
import time

import numpy as np

NOMINAL_S = 0.0025


class HostProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # a cache-sized and a memory-sized table, since neighbours slow
        # cache-resident and memory-bound array work by different amounts
        self._tables = [(rng.random((1000, 64)), rng.integers(0, 1000, (3, 2000))),
                        (rng.random((4000, 100)), rng.integers(0, 4000, (1, 6000)))]
        self._floats = rng.random((30, 100)).tolist()
        self.last = self()

    def __call__(self) -> float:
        """Geometric mean of the parts' times, in seconds."""
        times = []
        for table, batches in self._tables:
            t0 = time.perf_counter()
            for rows in batches:
                x = np.tanh(table[rows]) - 0.1
                float(np.sqrt((x * x).sum(axis=1)).sum())
            times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        counts: dict[tuple[int, int], int] = {}
        for i in range(8000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
        times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        json.loads(json.dumps(self._floats))
        times.append(time.perf_counter() - t0)
        return float(np.prod(times) ** (1.0 / len(times)))

    def timed(self, fn, *args, **kwargs):
        """(result, seconds scaled to the nominal host, raw seconds).

        The host speed is the mean of the probe before the call (the
        previous call's closing probe) and a fresh one after it.
        """
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        after = self()
        speed = (self.last + after) / 2.0
        self.last = after
        return out, dt * NOMINAL_S / speed, dt
