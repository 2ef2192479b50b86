"""Ordered value families the propagation state is built from.

Three component kinds are provided, plus their Cartesian product:

* ``PowersetValue`` -- a finite subset of a fixed base set, ordered by
  *reverse* inclusion (smaller set = more information).  The least element
  is the full base set.
* ``GridInterval`` -- an interval whose endpoints are drawn from a fixed
  finite grid of bounds (all integers of a range, or an explicit point set
  that may include +/-inf).  Ordered by reverse inclusion; the least
  element is the full ``[min..max]`` interval.
* ``GrowSetValue`` -- a set of opaque items that only ever grows from a
  fixed seed (used for accumulating derived linear inequalities).  Ordered
  by direct inclusion of the item sets; the least element is the seed.

A product is ordered componentwise (``leq``).  The engine needs no more than
these orders and their least elements: no step takes a least upper bound.

All values are immutable and hashable; equality is structural, which is
what the engine's change detection relies on.  Each family draws probe inputs
(``sample(rng)`` in its structure, ``sample_above(rng)`` above the value); a
variable's two families ``fit(points)``, the least value holding the points.

Intervals are the values a narrowing run makes and compares most, so they
are kept cheap without changing a result: ``GridInterval`` checks an
integer grid's ends inline, its ``==`` tests identity before the field
tuple, ``leq`` tests a pair of intervals before the other kinds and their
grids by identity before equality, and ``ProductValue.replace`` stores its
new tuple as it is.  An integer grid draws a point as ``randrange(lo, hi +
1)``, the very call ``randint(lo, hi)`` makes, so the draws are the same,
and a drawn interval, two grid points in order, is built without
``__post_init__``'s grid checks, as is an empty one, which has no
endpoints to check.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ConfigError, DataError


def atom_key(a):
    """Total order over mixed atom types, used only for canonical printing."""
    if isinstance(a, (int, float)):    # bool too
        return (0, float(a), repr(a))
    if isinstance(a, str):
        return (1, 0.0, a)
    if isinstance(a, tuple):
        return (2, float(len(a)), tuple(atom_key(x) for x in a))
    return (3, 0.0, repr(a))


# ---------------------------------------------------------------------------
# Powerset components


@dataclass(frozen=True)
class PowersetValue:
    """A subset of ``base`` under the reverse-inclusion order."""

    base: frozenset
    elements: frozenset

    def __post_init__(self):
        object.__setattr__(self, "base", frozenset(self.base))
        object.__setattr__(self, "elements", frozenset(self.elements))
        if not self.elements <= self.base:
            raise ConfigError("powerset value has elements outside its base set")

    @classmethod
    def bottom(cls, base: Iterable) -> "PowersetValue":
        base = frozenset(base)
        return cls(base, base)

    @property
    def is_empty(self) -> bool:
        return not self.elements

    def __contains__(self, x) -> bool:
        return x in self.elements

    def with_elements(self, elements: Iterable) -> "PowersetValue":
        return PowersetValue(self.base, frozenset(elements))

    def sample(self, rng) -> "PowersetValue":
        """A random subset of the base, each element kept with probability 0.6."""
        return self.with_elements(a for a in self.base if rng.random() < 0.6)

    def sample_above(self, rng) -> "PowersetValue":
        """A random subset of the elements, each kept with probability 0.7."""
        return self.with_elements(a for a in self.elements if rng.random() < 0.7)

    def fit(self, points) -> "PowersetValue":
        """The value holding ``points`` (some elements); itself if they are all."""
        return self if len(points) == len(self.elements) else self.with_elements(points)


# ---------------------------------------------------------------------------
# Grid intervals


@dataclass(frozen=True)
class IntGrid:
    """The grid of all integers in ``[lo..hi]``."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConfigError(f"integer grid [{self.lo}..{self.hi}] is empty")

    @property
    def min(self) -> int:
        return self.lo

    @property
    def max(self) -> int:
        return self.hi

    def __contains__(self, p) -> bool:
        return isinstance(p, int) and self.lo <= p <= self.hi

    def snap_down(self, x):
        """Largest grid point <= x, or None when x is below the grid."""
        p = math.floor(x)
        if p < self.lo:
            return None
        return min(p, self.hi)

    def snap_up(self, x):
        """Smallest grid point >= x, or None when x is above the grid."""
        p = math.ceil(x)
        if p > self.hi:
            return None
        return max(p, self.lo)

    def pick(self, rng, lo, hi):
        """A random grid point in ``[lo..hi]`` (both on the grid), drawn as
        ``randint(lo, hi)`` draws it, without its extra call."""
        return rng.randrange(lo, hi + 1)


@dataclass(frozen=True)
class PointGrid:
    """An explicit finite set of bounds; may include -inf and +inf."""

    points: tuple

    def __post_init__(self):
        pts = tuple(sorted(set(self.points)))
        if not pts:
            raise ConfigError("point grid needs at least one bound")
        object.__setattr__(self, "points", pts)

    @property
    def min(self):
        return self.points[0]

    @property
    def max(self):
        return self.points[-1]

    def __contains__(self, p) -> bool:
        i = bisect_left(self.points, p)
        return i < len(self.points) and self.points[i] == p

    def snap_down(self, x):
        i = bisect_right(self.points, x)
        return self.points[i - 1] if i else None

    def snap_up(self, x):
        i = bisect_left(self.points, x)
        return self.points[i] if i < len(self.points) else None

    def pick(self, rng, lo, hi):
        """A random grid point in ``[lo..hi]`` (both on the grid)."""
        pts = self.points
        return rng.choice(pts[bisect_left(pts, lo):bisect_right(pts, hi)])


@dataclass(frozen=True, eq=False)
class GridInterval:
    """An interval with endpoints on ``grid``; ``lo=hi=None`` is the one
    canonical empty interval, so structural equality is sound for fixpoint
    detection.  Equality and hash are those of the ``(grid, lo, hi)`` field
    tuple; ``==`` tests identity first, since a narrowing step hands back an
    unmoved interval as the same object."""

    grid: IntGrid | PointGrid
    lo: object = None
    hi: object = None

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if lo is None or hi is None:
            if lo is not hi:
                raise ConfigError("interval endpoints must both be set or both be None")
            return
        g = self.grid
        if type(g) is IntGrid:
            # IntGrid.__contains__ for both ends, without its two calls
            on_grid = (isinstance(lo, int) and isinstance(hi, int)
                       and g.lo <= lo <= g.hi and g.lo <= hi <= g.hi)
        else:
            on_grid = lo in g and hi in g
        if not on_grid:
            raise ConfigError("interval endpoints must lie on the grid")
        if hi < lo:
            object.__setattr__(self, "lo", None)
            object.__setattr__(self, "hi", None)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.grid, self.lo, self.hi) == (other.grid, other.lo, other.hi)

    def __hash__(self):
        return hash((self.grid, self.lo, self.hi))

    @classmethod
    def full(cls, grid) -> "GridInterval":
        return cls(grid, grid.min, grid.max)

    @classmethod
    def empty(cls, grid) -> "GridInterval":
        # no endpoints: nothing for __post_init__ to check
        empty = object.__new__(cls)
        empty.__dict__.update(grid=grid, lo=None, hi=None)
        return empty

    @property
    def is_empty(self) -> bool:
        return self.lo is None

    def __contains__(self, x) -> bool:
        return not self.is_empty and self.lo <= x <= self.hi

    def members(self) -> list:
        """Enumerate the integer members; only defined over integer grids."""
        if not isinstance(self.grid, IntGrid):
            raise ConfigError("only intervals over integer grids are enumerable")
        if self.is_empty:
            return []
        return list(range(self.lo, self.hi + 1))

    def sample(self, rng) -> "GridInterval":
        """A random interval on the grid, empty with probability 0.15."""
        return self._sample_within(rng, self.grid.min, self.grid.max)

    def sample_above(self, rng) -> "GridInterval":
        """A random subinterval, empty with probability 0.15 (or if this is)."""
        return self if self.is_empty else self._sample_within(rng, self.lo, self.hi)

    def _sample_within(self, rng, lo, hi) -> "GridInterval":
        grid = self.grid
        if rng.random() < 0.15:
            return GridInterval.empty(grid)
        a, b = grid.pick(rng, lo, hi), grid.pick(rng, lo, hi)
        if b < a:
            a, b = b, a
        # two grid points in order: nothing for __post_init__ to check
        drawn = object.__new__(GridInterval)
        drawn.__dict__.update(grid=grid, lo=a, hi=b)
        return drawn

    def fit(self, points) -> "GridInterval":
        """The hull of ``points`` (inside the interval); itself if that is it."""
        hull = interval_hull(points, self.grid)
        return self if hull == self else hull


def interval_hull(xs: Iterable, grid) -> GridInterval:
    """The smallest interval with endpoints on ``grid`` containing ``xs``."""
    xs = list(xs)
    if not xs:
        return GridInterval.empty(grid)
    lo = grid.snap_down(min(xs))
    hi = grid.snap_up(max(xs))
    if lo is None or hi is None:
        raise DataError("point outside the grid range")
    return GridInterval(grid, lo, hi)


# ---------------------------------------------------------------------------
# Growing item sets


@dataclass(frozen=True)
class GrowSetValue:
    """A set of opaque items that accumulates on top of a fixed seed.

    Unlike the other families this one is ordered by *direct* inclusion
    (more items = more information) and has no finite-chain guarantee.
    """

    seed: frozenset
    items: frozenset

    def __post_init__(self):
        object.__setattr__(self, "seed", frozenset(self.seed))
        object.__setattr__(self, "items", frozenset(self.items))
        if not self.seed <= self.items:
            raise ConfigError("grow-set items must contain the seed")

    @classmethod
    def bottom(cls, seed: Iterable) -> "GrowSetValue":
        seed = frozenset(seed)
        return cls(seed, seed)

    def with_items(self, items: Iterable) -> "GrowSetValue":
        return GrowSetValue(self.seed, frozenset(items))

    def sample(self, rng) -> "GrowSetValue":
        """The seed alone: opaque items cannot be drawn at random."""
        return GrowSetValue.bottom(self.seed)

    def sample_above(self, rng) -> "GrowSetValue":
        return self


# ---------------------------------------------------------------------------
# Products and generic operations


@dataclass(frozen=True)
class ProductValue:
    """Componentwise product of lattice values (mixed kinds allowed)."""

    components: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def __len__(self) -> int:
        return len(self.components)

    def component(self, i: int):
        """1-based component access."""
        return self.components[i - 1]

    def replace(self, updates: dict) -> "ProductValue":
        """New product with 1-based components replaced per ``updates``; the
        new tuple is stored as it is, without ``__post_init__``'s copy."""
        comps = list(self.components)
        for i, v in updates.items():
            comps[i - 1] = v
        new = object.__new__(ProductValue)
        object.__setattr__(new, "components", tuple(comps))
        return new


LatticeValue = PowersetValue | GridInterval | GrowSetValue | ProductValue


def _pair_kind(a, b, kind):
    return isinstance(a, kind) and isinstance(b, kind)


def leq(a: LatticeValue, b: LatticeValue) -> bool:
    """The component order: does ``b`` carry at least as much information?
    Two intervals, the most frequent pair, are tested first, and their grids
    by identity before equality."""
    if isinstance(a, GridInterval) and isinstance(b, GridInterval):
        if a.grid is not b.grid and a.grid != b.grid:
            raise ConfigError("cannot compare intervals over different grids")
        if b.lo is None:
            return True
        if a.lo is None:
            return False
        return a.lo <= b.lo and b.hi <= a.hi
    if _pair_kind(a, b, PowersetValue):
        if a.base != b.base:
            raise ConfigError("cannot compare powerset values over different bases")
        return a.elements >= b.elements
    if _pair_kind(a, b, GrowSetValue):
        if a.seed != b.seed:
            raise ConfigError("cannot compare grow-sets with different seeds")
        return a.items <= b.items
    if _pair_kind(a, b, ProductValue):
        if len(a) != len(b):
            raise ConfigError("cannot compare products of different lengths")
        return all(leq(x, y) for x, y in zip(a.components, b.components))
    raise ConfigError(
        f"cannot compare {type(a).__name__} with {type(b).__name__}"
    )


def is_empty_value(v: LatticeValue) -> bool:
    """True when a component denotes the empty set of concrete values."""
    return isinstance(v, (PowersetValue, GridInterval)) and v.is_empty
