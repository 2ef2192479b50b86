"""Property-based laws of the value families' probe samplers and ``fit``
(needs ``hypothesis``; the module is skipped without it)."""

import math
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, strategies as st  # noqa: E402

from propeng.errors import ConfigError  # noqa: E402
from propeng.lattice import (  # noqa: E402
    GridInterval, GrowSetValue, IntGrid, PointGrid, PowersetValue, leq,
)

BOUNDS = (-math.inf, -2, -1, 0, 1, 3, math.inf)


@st.composite
def interval(draw):
    """An interval over an integer or a point grid, and the grid points in it."""
    if draw(st.booleans()):
        lo = draw(st.integers(-5, 5))
        grid = IntGrid(lo, lo + draw(st.integers(0, 6)))
        points = list(range(grid.lo, grid.hi + 1))
    else:
        grid = PointGrid(tuple(draw(st.sets(st.sampled_from(BOUNDS), min_size=1))))
        points = list(grid.points)
    if draw(st.integers(0, 5)) == 0:
        return GridInterval.empty(grid), []
    a, b = sorted(draw(st.lists(st.sampled_from(points), min_size=2, max_size=2)))
    return GridInterval(grid, a, b), [p for p in points if a <= p <= b]


@st.composite
def fittable(draw):
    """A value that fits projected points, with the points inside it."""
    if draw(st.booleans()):
        base = frozenset(range(draw(st.integers(1, 6))))
        v = PowersetValue(base, draw(st.frozensets(st.sampled_from(sorted(base)))))
        return v, sorted(v.elements)
    return draw(interval())


growset = st.builds(
    lambda seed, extra: GrowSetValue(seed, seed | extra),
    st.frozensets(st.integers(0, 5)), st.frozensets(st.integers(0, 5)))

values = st.one_of(fittable().map(lambda vp: vp[0]), growset)


@given(values, st.integers(0, 2**32))
def test_samples_lie_in_the_structure_and_above(v, seed):
    rng = random.Random(seed)
    assert leq(v, v.sample_above(rng))
    # each family's own least element
    if isinstance(v, PowersetValue):
        bottom = PowersetValue.bottom(v.base)
    elif isinstance(v, GridInterval):
        bottom = GridInterval.full(v.grid)
    else:
        bottom = GrowSetValue.bottom(v.seed)
    assert leq(bottom, v.sample(rng))


@given(fittable())
def test_fit_of_what_spans_the_value_is_the_value(vp):
    v, members = vp
    # all of a powerset's elements; an interval's two ends
    ends = {*members[:1], *members[-1:]}
    spanning = set(members) if isinstance(v, PowersetValue) else ends
    assert v.fit(spanning) is v


@given(fittable(), st.data())
def test_fit_of_points_inside_is_above(vp, data):
    v, members = vp
    points = data.draw(st.sets(st.sampled_from(members)) if members else st.just(set()))
    fitted = v.fit(points)
    assert leq(v, fitted)
    assert all(p in fitted for p in points)


# ---------------------------------------------------------------------------
# Interval equality, hash and order


@st.composite
def grid_maker(draw):
    """A function building a new, equal grid object at each call."""
    if draw(st.booleans()):
        lo = draw(st.integers(-5, 5))
        hi = lo + draw(st.integers(0, 6))
        return lambda: IntGrid(lo, hi)
    points = tuple(draw(st.sets(st.sampled_from(BOUNDS), min_size=1)))
    return lambda: PointGrid(points)


def grid_points(grid) -> list:
    return list(range(grid.lo, grid.hi + 1)) if isinstance(grid, IntGrid) else list(grid.points)


@st.composite
def interval_on(draw, grid):
    """An interval over ``grid``; ends drawn in either order, so a reversed
    pair gives the canonical empty interval as well as ``empty``."""
    if draw(st.integers(0, 5)) == 0:
        return GridInterval.empty(grid)
    points = grid_points(grid)
    return GridInterval(grid, draw(st.sampled_from(points)), draw(st.sampled_from(points)))


@st.composite
def interval_pair(draw):
    """Two intervals over equal grids: the same object, the same ends over an
    equal but distinct grid object, or two independent draws over the same
    grid object or equal ones."""
    make = draw(grid_maker())
    grid = make()
    x = draw(interval_on(grid))
    how = draw(st.sampled_from(["same", "rebuilt", "shared grid", "equal grid"]))
    if how == "same":
        return x, x
    if how == "rebuilt":
        return x, GridInterval(make(), x.lo, x.hi)
    return x, draw(interval_on(grid if how == "shared grid" else make()))


def fields(v: GridInterval) -> tuple:
    return (v.grid, v.lo, v.hi)


@given(interval_pair())
def test_interval_eq_and_hash_follow_the_field_tuple(pair):
    x, y = pair
    assert (x == y) == (fields(x) == fields(y))
    assert (x != y) == (fields(x) != fields(y))
    assert hash(x) == hash(fields(x)) and hash(y) == hash(fields(y))
    assert x == x and not x != x
    assert x != fields(x)


@given(interval_pair())
def test_interval_leq_is_reverse_inclusion(pair):
    x, y = pair
    def members(v):
        return {p for p in grid_points(v.grid) if p in v}
    assert leq(x, y) == (members(y) <= members(x))


@given(grid_maker(), grid_maker(), st.data())
def test_intervals_over_different_grids_do_not_meet(make_a, make_b, data):
    a, b = make_a(), make_b()
    assume(a != b)
    x, y = data.draw(interval_on(a)), data.draw(interval_on(b))
    assert x != y
    with pytest.raises(ConfigError, match="different grids"):
        leq(x, y)
