"""Box construction and interval arithmetic."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkb.geometry import (Box, center, contains, contains_box, cover, gap,
                            grow_to_cover, inside, intersect, meet, mismatch,
                            overhang, width_plus_one, within)


def boxes(dim=3, lo=-10.0, hi=10.0):
    corner = st.lists(st.floats(lo, hi, allow_nan=False), min_size=dim, max_size=dim)
    return st.tuples(corner, corner).map(
        lambda ab: Box(np.minimum(ab[0], ab[1]), np.maximum(ab[0], ab[1])))


def test_box_validates_shape_and_order():
    with pytest.raises(ValueError):
        Box(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Box(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        Box(np.zeros((2, 2)), np.zeros((2, 2)))


def test_degenerate_box_is_a_point():
    b = Box(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert contains(b, np.array([1.0, 2.0]))
    assert not contains(b, np.array([1.0, 2.0 + 1e-12]))
    assert np.array_equal(width_plus_one(b), [1.0, 1.0])


def test_center_and_width_anchors():
    b = Box(np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
    assert np.array_equal(center(b), [0.0, 1.5])
    assert np.array_equal(width_plus_one(b), [3.0, 4.0])


def test_contains_is_boundary_inclusive():
    b = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    assert contains(b, np.array([0.0, 2.0]))
    assert contains(b, np.array([1.0, 0.0]))
    assert not contains(b, np.array([1.0 + 1e-15, 0.0]))


def test_contains_rejects_dim_mismatch():
    b = Box(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        contains(b, np.zeros(3))
    with pytest.raises(ValueError):
        intersect(b, Box(np.zeros(3), np.ones(3)))


def test_intersect_disjoint_returns_none():
    a = Box(np.array([0.0]), np.array([1.0]))
    b = Box(np.array([2.0]), np.array([3.0]))
    assert intersect(a, b) is None


def test_intersect_touching_is_degenerate():
    a = Box(np.array([0.0]), np.array([1.0]))
    b = Box(np.array([1.0]), np.array([3.0]))
    r = intersect(a, b)
    assert r is not None
    assert r.lower[0] == r.upper[0] == 1.0


def test_grow_to_cover_moves_only_violated_bounds():
    target = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    region = Box(np.array([-1.0, 0.25]), np.array([0.5, 2.0]))
    grown = grow_to_cover(target, region)
    assert np.array_equal(grown.lower, [-1.0, 0.0])
    assert np.array_equal(grown.upper, [1.0, 2.0])


def test_grow_to_cover_empty_region_warns_and_noops():
    target = Box(np.array([0.0]), np.array([1.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = grow_to_cover(target, None)
    assert out is target
    assert len(caught) == 1


@settings(max_examples=200)
@given(boxes(), boxes())
def test_intersection_is_contained_in_both(a, b):
    r = intersect(a, b)
    if r is not None:
        assert contains_box(a, r)
        assert contains_box(b, r)


@settings(max_examples=200)
@given(boxes(), boxes())
def test_intersect_commutes(a, b):
    r1, r2 = intersect(a, b), intersect(b, a)
    if r1 is None:
        assert r2 is None
    else:
        assert np.array_equal(r1.lower, r2.lower)
        assert np.array_equal(r1.upper, r2.upper)


@settings(max_examples=200)
@given(boxes(), boxes())
def test_grow_to_cover_is_minimal_cover(target, region):
    grown = grow_to_cover(target, region)
    assert contains_box(grown, target)
    assert contains_box(grown, region)
    # minimality: every bound equals one of the inputs' bounds
    assert np.all((grown.lower == target.lower) | (grown.lower == region.lower))
    assert np.all((grown.upper == target.upper) | (grown.upper == region.upper))


@settings(max_examples=200)
@given(boxes(), boxes())
def test_grow_to_cover_idempotent(target, region):
    once = grow_to_cover(target, region)
    twice = grow_to_cover(once, region)
    assert np.array_equal(once.lower, twice.lower)
    assert np.array_equal(once.upper, twice.upper)


@settings(max_examples=200)
@given(boxes())
def test_containment_from_membership_of_corners(a):
    # a box contains itself, and containment agrees with corner membership
    assert contains_box(a, a)
    assert contains(a, a.lower) and contains(a, a.upper)


# A few grid values make degenerate boxes, touching boxes and points on a
# boundary common; the floats between them cover the general case.
GRID = [-1.0, 0.0, 0.5, 1.0]


def grid_values(n):
    value = st.one_of(st.sampled_from(GRID), st.floats(-2.0, 2.0, allow_nan=False))
    return st.lists(value, min_size=n, max_size=n).map(np.array)


def stacked(draw, rows, dim):
    """``rows`` random boxes as Box objects and as (lo, hi) (rows, dim) arrays."""
    a = draw(grid_values(rows * dim)).reshape(rows, dim)
    b = draw(grid_values(rows * dim)).reshape(rows, dim)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return [Box(lo[i], hi[i]) for i in range(rows)], (lo, hi)


@settings(max_examples=200)
@given(st.data())
def test_bound_array_predicates_agree_with_the_box_functions_row_by_row(data):
    # the batched form capture, projection, box_stats and the distance run:
    # one call over stacked boxes decides what the Box functions decide
    # for each row on its own, and what plain float comparisons decide
    rows = data.draw(st.integers(1, 5))
    dim = data.draw(st.integers(1, 3))
    (a, bounds_a), (b, bounds_b), (c, bounds_c) = (stacked(data.draw, rows, dim)
                                                    for _ in range(3))
    points = data.draw(grid_values(rows * dim)).reshape(rows, dim)
    point_in = inside(*bounds_a, points).all(axis=-1)
    nested = within(overhang(bounds_a, bounds_b))
    equal = within(mismatch(bounds_a, bounds_b))
    apart = (gap(bounds_a, bounds_b) > 0).any(axis=-1)
    (two_lo, two_hi), two_empty = meet(*zip(bounds_a, bounds_b))
    (three_lo, three_hi), three_empty = meet(*(np.stack(side) for side in
                                               zip(bounds_a, bounds_b, bounds_c)))
    grown_lo, grown_hi = cover(bounds_a, bounds_b)
    for i in range(rows):
        sides = list(zip(a[i].lower, a[i].upper, b[i].lower, b[i].upper))
        assert point_in[i] == contains(a[i], points[i]) == all(
            lo <= x <= hi for lo, hi, x in zip(a[i].lower, a[i].upper, points[i]))
        assert nested[i] == contains_box(a[i], b[i]) == all(
            alo <= blo and bhi <= ahi for alo, ahi, blo, bhi in sides)
        assert equal[i] == (contains_box(a[i], b[i]) and contains_box(b[i], a[i]))
        two = intersect(a[i], b[i])
        assert two_empty[i] == apart[i] == (two is None) == any(
            max(alo, blo) > min(ahi, bhi) for alo, ahi, blo, bhi in sides)
        if two is not None:
            assert np.array_equal(two_lo[i], two.lower)
            assert np.array_equal(two_hi[i], two.upper)
        three = None if two is None else intersect(two, c[i])
        assert three_empty[i] == (three is None)
        if three is not None:
            assert np.array_equal(three_lo[i], three.lower)
            assert np.array_equal(three_hi[i], three.upper)
        grown = grow_to_cover(a[i], b[i])
        assert np.array_equal(grown_lo[i], grown.lower)
        assert np.array_equal(grown_hi[i], grown.upper)
        assert grown_lo[i].tolist() == [min(alo, blo) for alo, _, blo, _ in sides]
        assert grown_hi[i].tolist() == [max(ahi, bhi) for _, ahi, _, bhi in sides]
