"""Span tracing by wrapping boxkb's layer functions from outside.

A ``Tracer`` replaces module attributes (``boxkb.training.score_batch`` and
so on) with wrappers that record one span per call -- name, start, end,
parent span and run id -- and add per-call counts computed from the
arguments and result.  Spans stay in memory until ``write``.  Because
callers inside boxkb look these names up in their module globals at call
time, wrapping the attribute catches internal calls too.  An attribute that
does not exist is reported as absent and skipped, so the benchmark keeps
running when a function is renamed.  ``restore`` puts every original back.

A tracer made with ``memory=True`` runs ``tracemalloc`` while installed and,
instead of spans, records per layer the largest rise of traced memory above
its level at a call's start, over all calls (``peak_bytes``).  Nested calls
are handled by carrying each child's peak up to its parent.  tracemalloc
slows allocation-heavy code, so a memory tracer's times are not reported.

Single-threaded use only: the parent of a span is the innermost open span.
"""
from __future__ import annotations

import json
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _gradient_rows(args, kwargs, result) -> dict:
    return {"rows": len(args[2])}


def _negatives(args, kwargs, result) -> dict:
    return {"negatives": int(result.shape[0] * result.shape[1])}


def _adam_slots(args, kwargs, result) -> dict:
    # GradBuffer: one slot per touched entity row, two per touched box slot
    grads = args[2]
    return {"slots": int(grads.base_touched.sum() + grads.bump_touched.sum()
                         + 2 * grads.box_touched.sum())}


def _projection_moves(args, kwargs, result) -> dict:
    return {"moves": int(result), "calls_moved": int(result > 0)}


def _checkpoint_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, layer name, counter) -- the layer name follows the
# function's role, not its current spelling.
LAYERS = (
    ("kb", "parse_kb", "kb.parse_kb", None),
    ("model", "init_params", "model.init_params", None),
    ("rules", "inject", "rules.inject", None),
    ("training", "train_epoch", "training.train_epoch", None),
    ("training", "_draw_corruptions", "training.draw_corruptions", _negatives),
    ("training", "score_batch", "model.forward", _rows),
    ("training", "accumulate_score_gradients", "model.gradient", _gradient_rows),
    ("training", "adam_update", "training.adam_update", _adam_slots),
    ("rules", "apply_projection", "rules.apply_projection", _projection_moves),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "_fact_ranks", "evaluation.fact_ranks", None),
    ("evaluation", "_candidate_scores", "evaluation.candidate_scores", None),
    ("evaluation", "score_batch", "model.forward_eval", _rows),
    ("evaluation", "rank_from_scores", "evaluation.rank_from_scores", None),
    ("model", "save_checkpoint", "model.save_checkpoint", _checkpoint_bytes),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
)

# layers whose peak allocation a memory tracer reports
MEMORY_LAYERS = tuple(layer for layer in LAYERS
                      if layer[2] in ("evaluation.evaluate", "evaluation.candidate_scores"))

# the keys each counter adds, besides "calls"
COUNT_KEYS = {_rows: ("rows",), _gradient_rows: ("rows",),
              _negatives: ("negatives",), _adam_slots: ("slots",),
              _projection_moves: ("moves", "calls_moved"),
              _checkpoint_bytes: ("bytes",),
              None: ()}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    def __init__(self, package, layers=LAYERS, memory: bool = False):
        self.package = package
        self.layers = layers
        self.memory = memory
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self.run = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._mem: list[list[int]] = []  # [start level, carried peak] per open call

    def install(self) -> None:
        for module_name, attr, name, counter in self.layers:
            module = getattr(self.package, module_name, None)
            target = getattr(module, attr, None)
            if target is None:
                self.absent.append(name)
                continue
            self._originals.append((module, attr, target))
            setattr(module, attr, self._wrap(target, name, counter))

    def restore(self) -> None:
        while self._originals:
            module, attr, target = self._originals.pop()
            setattr(module, attr, target)

    def __enter__(self) -> "Tracer":
        if self.memory:
            tracemalloc.start()
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
        if self.memory:
            tracemalloc.stop()

    def _mem_open(self) -> None:
        level, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([level, level])

    def _mem_close(self, name: str) -> None:
        level, carried = self._mem.pop()
        peak = max(tracemalloc.get_traced_memory()[1], carried)
        self.peak_bytes[name] = max(self.peak_bytes[name], peak - level)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)

    def _wrap(self, target, name, counter):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            if self.memory:
                self._mem_open()
            start = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self.memory:
                    self._mem_close(name)
                else:
                    self.spans.append(Span(span_id, name, start, end, parent, self.run))
            self.counts[name]["calls"] += 1
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[name][key] += value
                except (AttributeError, TypeError, IndexError, OSError) as exc:
                    self.counter_errors[name] = repr(exc)
            return result

        traced.__wrapped__ = target
        return traced

    def busy_and_self_ms(self) -> dict[str, tuple[float, float]]:
        """Per layer: total span time and time not covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for s in self.spans:
            dur = s.end - s.start
            out[s.name][0] += dur * 1e3
            out[s.name][1] += (dur - child_time[s.id]) * 1e3
        return {name: (busy, own) for name, (busy, own) in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent,
                                 "counter_errors": self.counter_errors}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
