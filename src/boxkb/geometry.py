"""Axis-aligned boxes and the one box algebra of boxkb.

A box is a pair of corner vectors (lower, upper) with lower <= upper
element-wise.  Degenerate boxes (zero width in some or all dimensions) are
valid; they behave as points along those axes.

The predicates take boxes as bound arrays: a box is a pair ``(lo, hi)``
whose last axis is d, and leading axes broadcast, so one call decides many
boxes at once.  They are the only place a point or a bound is compared
with a bound: the distance branch and exact-fit classification
(``inside``), rule capture and ``box_stats`` (``mismatch``, ``overhang``,
``gap``, ``within``, ``meet``), containment projection (``meet``,
``overhang``, ``cover``) and the ``Box`` functions below them.

Over ``Box`` objects an empty intersection is represented by ``None``
rather than an inverted box, so callers can never accidentally feed an
invalid box back into the arithmetic.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


def inside(lo, hi, x) -> np.ndarray:
    """Per coordinate, whether points ``x`` lie in boxes [lo, hi], boundary
    inclusive."""
    mask = lo <= x
    return np.logical_and(mask, x <= hi, out=mask)


def mismatch(a, b):
    """Per side, how far the bounds of boxes ``a`` and ``b`` differ."""
    return np.abs(a[0] - b[0]), np.abs(a[1] - b[1])


def overhang(outer, inner):
    """Per side, how far box ``inner`` sticks out of box ``outer``."""
    return outer[0] - inner[0], inner[1] - outer[1]


def gap(a, b):
    """How far apart boxes ``a`` and ``b`` are; negative where they overlap."""
    return np.maximum(a[0] - b[1], b[0] - a[1])


def within(excess) -> np.ndarray:
    """Per box pair, whether no excess (a ``mismatch`` or an ``overhang``) is
    positive in any dimension: the boxes are equal, or nested."""
    return (np.maximum(*excess) <= 0).all(axis=-1)


def meet(lo, hi):
    """The meet of the boxes stacked along the first axis of ``lo`` and ``hi``
    (arrays, or sequences of equal-shape arrays): its bounds, and whether it
    is empty.  Boxes that merely touch meet in a degenerate box."""
    lo, hi = np.maximum.reduce(lo), np.minimum.reduce(hi)
    return (lo, hi), (lo > hi).any(axis=-1)


def cover(a, b):
    """The smallest box holding boxes ``a`` and ``b``: each bound of ``a``
    that ``b`` violates moves exactly to ``b``'s bound."""
    return np.minimum(a[0], b[0]), np.maximum(a[1], b[1])


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box corners must be 1-d vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box corners must be finite")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def center(box: Box) -> np.ndarray:
    """Midpoint of the box, element-wise."""
    return (box.lower + box.upper) / 2.0


def width_plus_one(box: Box) -> np.ndarray:
    """Element-wise width shifted by one: upper - lower + 1.

    The shift keeps the value >= 1 so it can be used both as a divisor
    (inside a box) and a multiplier (outside) without a sign change.
    """
    return box.upper - box.lower + 1.0


def contains(box: Box, point: np.ndarray) -> bool:
    """Whether the point lies in the box, boundary inclusive."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != box.lower.shape:
        raise ValueError("point dimensionality does not match box")
    return bool(inside(box.lower, box.upper, p).all())


def intersect(a: Box, b: Box) -> Box | None:
    """Intersection of two boxes, or None when they are disjoint.

    Boxes that merely touch (shared boundary) intersect in a degenerate box.
    """
    if a.dim != b.dim:
        raise ValueError("boxes have different dimensionality")
    region, empty = meet((a.lower, b.lower), (a.upper, b.upper))
    return None if empty else Box(*region)


def contains_box(outer: Box, inner: Box) -> bool:
    """Whether ``inner`` lies entirely within ``outer`` (closed containment)."""
    if outer.dim != inner.dim:
        raise ValueError("boxes have different dimensionality")
    return bool(within(overhang((outer.lower, outer.upper), (inner.lower, inner.upper))))


def grow_to_cover(target: Box, region: Box | None) -> Box:
    """Minimal enlargement of ``target`` that covers ``region``.

    Each violated bound moves exactly to the region's bound; satisfied
    dimensions are untouched.  An empty region (None) is a no-op and only
    emits a warning, since there is nothing to cover.
    """
    if region is None:
        warnings.warn("grow_to_cover called with an empty region; no-op", stacklevel=2)
        return target
    if target.dim != region.dim:
        raise ValueError("boxes have different dimensionality")
    return Box(*cover((target.lower, target.upper), (region.lower, region.upper)))
