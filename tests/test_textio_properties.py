"""Property-based round trips of the problem-file format (needs
``hypothesis``; the module is skipped without it)."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import NAME_ATOMS, spaced_text  # noqa: E402
from propeng.csp import (  # noqa: E402
    CSP, Constraint, ExtensionalBody, IntDomain, LinearEqBody, LinearIneqBody,
    Scheme, SetDomain,
)
from propeng.textio import parse_csp, serialize_csp  # noqa: E402

atoms = st.one_of(st.integers(-40, 40), st.sampled_from(NAME_ATOMS),
                  st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True))


@st.composite
def domains(draw):
    if draw(st.booleans()):
        return SetDomain(draw(st.frozensets(atoms, max_size=5)))
    lo = draw(st.integers(-30, 30))
    return IntDomain(lo, lo + draw(st.integers(-2, 6)))


@st.composite
def problems(draw):
    ds = draw(st.lists(domains(), min_size=1, max_size=4))
    constraints = []
    for k in range(draw(st.integers(0, 4))):
        order = draw(st.permutations(range(1, len(ds) + 1)))
        scheme = Scheme(tuple(order[:draw(st.integers(1, len(ds)))]))
        kind = draw(st.sampled_from(("tuples", "lineq", "leq")))
        if kind == "tuples":
            body = ExtensionalBody(draw(st.frozensets(
                st.tuples(*[atoms] * len(scheme)), max_size=5)))
        else:
            coeffs = tuple(draw(st.lists(st.integers(-20, 20).filter(bool),
                                         min_size=len(scheme), max_size=len(scheme))))
            const = draw(st.integers(-50, 50))
            body = (LinearEqBody if kind == "lineq" else LinearIneqBody)(coeffs, const)
        constraints.append(Constraint(f"c{k + 1}", scheme, body))
    return CSP(tuple(ds), tuple(constraints))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problems(), st.randoms(use_true_random=False))
def test_round_trip(p, rng: random.Random):
    canon = serialize_csp(p)
    assert parse_csp(canon) == p
    assert parse_csp(spaced_text(p, rng)) == p
