"""Property-based check of the ``lineq@`` reducer against the exact-rational
oracle of ``test_reducers`` (needs ``hypothesis``; the module is skipped
without it)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from test_reducers import reference_narrow  # noqa: E402
from propeng.csp import Constraint, LinearEqBody, Scheme  # noqa: E402
from propeng.lattice import GridInterval, IntGrid  # noqa: E402
from propeng.reducers import make_linear_eq_narrowing  # noqa: E402

GRID = IntGrid(-6, 6)


@st.composite
def narrowing_case(draw):
    """An equality with 1-3 nonzero coefficients in -4..4, a box of
    nonempty intervals over ``GRID`` and, now and then, one emptied
    coordinate."""
    n = draw(st.integers(1, 3))
    coeffs = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=n, max_size=n))
    eq = LinearEqBody(tuple(coeffs), draw(st.integers(-12, 12)))
    box = [tuple(sorted(draw(st.lists(st.integers(GRID.lo, GRID.hi),
                                      min_size=2, max_size=2))))
           for _ in range(n)]
    args = [GridInterval(GRID, lo, hi) for lo, hi in box]
    if draw(st.integers(0, 7)) == 0:
        args[draw(st.integers(0, n - 1))] = GridInterval.empty(GRID)
    return eq, box, tuple(args)


@given(narrowing_case())
def test_lineq_apply_matches_the_reference(case):
    eq, box, args = case
    f = make_linear_eq_narrowing(
        Constraint("e", Scheme(tuple(range(1, len(box) + 1))), eq))
    out = f.apply(args)
    if any(v.is_empty for v in args):
        expected = tuple(GridInterval.empty(GRID) for _ in args)
    else:
        expected = tuple(GridInterval(GRID, lo, hi) if lo <= hi else GridInterval.empty(GRID)
                         for lo, hi in reference_narrow(eq, box))
    assert out == expected
    # an unmoved coordinate comes back as the argument object itself
    for old, new in zip(args, out):
        assert (new is old) == (new == old)
