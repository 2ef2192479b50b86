"""Component order laws and the interval/powerset operations."""

import itertools
import math
import random

import pytest

from propeng.errors import ConfigError
from propeng.lattice import (
    GridInterval, GrowSetValue, IntGrid, PointGrid, PowersetValue, interval_hull, leq,
)


def ival(lo, hi, grid=IntGrid(0, 9)):
    return GridInterval(grid, lo, hi)


FLOAT_GRID = PointGrid((-math.inf, 0, 1, 2, math.inf))


def hull_oracle(xs, grid):
    """Intersect every grid interval containing xs."""
    best_lo, best_hi = None, None
    for a, b in itertools.product(grid.points, repeat=2):
        if a <= b and all(a <= x <= b for x in xs):
            best_lo = a if best_lo is None else max(best_lo, a)
            best_hi = b if best_hi is None else min(best_hi, b)
    return GridInterval(grid, best_lo, best_hi)


class TestIntervalHull:
    def test_float_grid_example(self):
        got = interval_hull({0.5, 1.5}, FLOAT_GRID)
        assert got == GridInterval(FLOAT_GRID, 0, 2)
        assert got == hull_oracle({0.5, 1.5}, FLOAT_GRID)

    def test_empty_input(self):
        assert interval_hull((), FLOAT_GRID).is_empty

    def test_on_grid_point(self):
        assert interval_hull({1}, FLOAT_GRID) == GridInterval(FLOAT_GRID, 1, 1)

    def test_contains_input_and_minimal(self):
        rng = random.Random(3)
        for _ in range(100):
            xs = {rng.uniform(-3, 3) for _ in range(rng.randint(1, 4))}
            got = interval_hull(xs, FLOAT_GRID)
            assert all(x in got for x in xs)
            # no strictly smaller grid interval contains xs
            for a, b in itertools.product(FLOAT_GRID.points, repeat=2):
                if a <= b and all(a <= x <= b for x in xs):
                    cand = GridInterval(FLOAT_GRID, a, b)
                    assert leq(cand, got)

    def test_integer_grid(self):
        assert interval_hull({2, 5}, IntGrid(0, 9)) == ival(2, 5)


class TestPowerset:
    def test_bottom_below_everything(self):
        base = frozenset({1, 2, 3})
        bot = PowersetValue.bottom(base)
        for s in map(frozenset, [(), (1,), (1, 2), (1, 2, 3), (3,)]):
            assert leq(bot, PowersetValue(base, s))

    def test_elements_outside_base_rejected(self):
        with pytest.raises(ConfigError):
            PowersetValue(frozenset({1}), frozenset({2}))


class TestProduct:
    def test_mixed_kind_comparison_rejected(self):
        with pytest.raises(ConfigError):
            leq(PowersetValue(frozenset({1}), frozenset()), ival(0, 1))


def all_powerset_values(base):
    for r in range(len(base) + 1):
        for c in itertools.combinations(sorted(base), r):
            yield PowersetValue(base, frozenset(c))


def all_intervals(grid):
    yield GridInterval.empty(grid)
    for a in range(grid.lo, grid.hi + 1):
        for b in range(a, grid.hi + 1):
            yield GridInterval(grid, a, b)


@pytest.mark.parametrize("values", [
    list(all_powerset_values(frozenset({1, 2, 3, 4}))),
    list(all_intervals(IntGrid(0, 5))),
])
def test_order_laws_exhaustive(values):
    for x in values:
        assert leq(x, x)
    for x, y in itertools.product(values, repeat=2):
        if leq(x, y) and leq(y, x):
            assert x == y
    for x, y, z in itertools.product(values, repeat=3):
        if leq(x, y) and leq(y, z):
            assert leq(x, z)


def test_strict_chains_are_bounded():
    rng = random.Random(11)
    base = frozenset(range(4))
    for _ in range(50):
        cur = set(base)
        chain = [PowersetValue(base, frozenset(cur))]
        while cur and rng.random() < 0.9:
            cur.remove(rng.choice(sorted(cur)))
            chain.append(PowersetValue(base, frozenset(cur)))
        for a, b in zip(chain, chain[1:]):
            assert leq(a, b) and a != b
        assert len(chain) <= len(base) + 1


class TestGrowSet:
    def test_order_and_join(self):
        seed = frozenset({("a",)})
        a = GrowSetValue(seed, seed | {("b",)})
        b = GrowSetValue(seed, seed | {("c",)})
        assert leq(GrowSetValue.bottom(seed), a)
        assert not leq(a, b)

    def test_seed_must_be_contained(self):
        with pytest.raises(ConfigError):
            GrowSetValue(frozenset({1}), frozenset({2}))


INF = math.inf
DRAW_CASES = {
    "powerset": PowersetValue(frozenset(range(6)), frozenset({0, 2, 3, 5})),
    "int_full": GridInterval.full(IntGrid(0, 9)),
    "int_narrow": ival(4, 5),
    "int_empty": GridInterval.empty(IntGrid(0, 9)),
    "point_full": GridInterval.full(PointGrid((-INF, -1, 0, 2, 5, INF))),
    "point_part": GridInterval(PointGrid((-INF, -1, 0, 2, 5, INF)), -INF, 2),
    "growset": GrowSetValue(frozenset({1}), frozenset({1, 2})),
}

# three (sample, sample_above) pairs drawn in turn from random.Random(seed),
# as the registration probes have always drawn them: a powerset or grow-set
# as its digits, an interval as (lo, hi) or None when empty
PINNED_DRAWS = {
    ("powerset", 1): [("0345", "035"), ("134", "05"), ("01345", "0235")],
    ("powerset", 2): [("23", "0235"), ("0123", "235"), ("01234", "0235")],
    ("powerset", 3): [("0125", "035"), ("135", "03"), ("1345", "2")],
    ("int_full", 1): [(None, (1, 4)), (None, (6, 7)), ((1, 7), None)],
    ("int_full", 2): [((0, 1), None), ((4, 4), (0, 9)), ((2, 6), (5, 8))],
    ("int_full", 3): [((2, 8), (7, 9)), ((1, 9), None), ((4, 8), (7, 8))],
    ("int_narrow", 1): [(None, (4, 5)), (None, (5, 5)), ((1, 7), None)],
    ("int_narrow", 2): [((0, 1), None), ((4, 4), (4, 4)), ((6, 8), (5, 5))],
    ("int_narrow", 3): [((2, 8), (4, 5)), ((4, 7), (4, 5)), ((7, 8), (4, 4))],
    ("int_empty", 1): [(None, None), ((1, 4), None), (None, None)],
    ("int_empty", 2): [((0, 1), None), (None, None), ((4, 4), None)],
    ("int_empty", 3): [((2, 8), None), ((7, 9), None), ((1, 9), None)],
    ("point_full", 1): [(None, (-INF, 0)), (None, (2, INF)), ((-INF, -1), (2, 2))],
    ("point_full", 2): [((-INF, -INF), None), ((INF, INF), (0, 5)), ((-INF, 5), (2, INF))],
    ("point_full", 3): [((-1, 5), (2, 5)), ((-INF, 5), None), ((0, 5), (2, INF))],
    ("point_part", 1): [(None, (-INF, 0)), (None, (2, 2)), ((-INF, 2), None)],
    ("point_part", 2): [((-INF, -INF), None), ((INF, INF), (-1, 0)), ((5, INF), (2, 2))],
    ("point_part", 3): [((-1, 5), (-INF, 2)), ((0, 2), (-1, 2)), ((2, 5), (-1, -1))],
    ("growset", 1): [("1", "12"), ("1", "12"), ("1", "12")],
}


def _plain(v):
    if isinstance(v, GridInterval):
        return None if v.is_empty else (v.lo, v.hi)
    items = v.elements if isinstance(v, PowersetValue) else v.items
    return "".join(map(str, sorted(items)))


@pytest.mark.parametrize("case, seed", sorted(PINNED_DRAWS))
def test_pinned_draws(case, seed):
    v, rng = DRAW_CASES[case], random.Random(seed)
    got = [(_plain(v.sample(rng)), _plain(v.sample_above(rng))) for _ in range(3)]
    assert got == PINNED_DRAWS[case, seed]


# the first 20 (sample, sample_above) pairs from random.Random(7), each
# sample_above drawn above the sample before it, as the draws were made when
# every drawn interval went through __post_init__'s grid checks
WIDE_GRIDS = {
    "int": IntGrid(0, 1000),
    "point": PointGrid((-INF, -3, 0, 2.5, 7, 10, 11, 40, INF)),
}
PINNED_WIDE_DRAWS = {
    "int": [
        ((154, 404), (172, 364)), ((374, 596), None), ((38, 88), (42, 53)),
        (None, None), ((579, 846), None), ((596, 642), (632, 633)), ((226, 999), None),
        ((296, 429), None), (None, None), ((698, 835), (746, 793)), (None, None),
        ((61, 577), (498, 569)), ((476, 599), (514, 522)), ((184, 715), (267, 491)),
        ((351, 896), (425, 645)), (None, None), ((350, 775), (565, 600)), (None, None),
        ((571, 782), (651, 780)), ((358, 608), (474, 562)),
    ],
    "point": [
        ((0, 11), (0, 11)), (None, None), ((2.5, INF), None), ((-3, 2.5), None),
        ((-3, 2.5), (-3, 2.5)), ((-INF, 11), (-INF, 7)), ((7, 11), None), (None, None),
        ((-3, 0), (-3, 0)), (None, None), ((-INF, 2.5), (0, 2.5)),
        ((10, 40), (10, 40)), ((-3, 7), (2.5, 7)), ((-3, -3), (-3, -3)),
        ((11, 40), None), ((10, INF), (40, INF)), ((-3, 40), (2.5, 7)),
        ((-INF, -3), (-3, -3)), ((10, 11), None), ((-3, 0), (-3, 0)),
    ],
}


@pytest.mark.parametrize("grid", sorted(WIDE_GRIDS))
def test_pinned_draws_over_wide_grids(grid):
    rng = random.Random(7)
    full = GridInterval.full(WIDE_GRIDS[grid])
    got = []
    for _ in range(20):
        s = full.sample(rng)
        above = s.sample_above(rng)
        for v in (s, above):
            # a draw is the interval the checked constructor builds
            assert type(v) is GridInterval
            assert vars(v) == vars(GridInterval(v.grid, v.lo, v.hi))
        got.append((_plain(s), _plain(above)))
    assert got == PINNED_WIDE_DRAWS[grid]
