"""Property-based round trips of the problem-file format, and the JSON
writers against ``json.dumps`` (needs ``hypothesis``; the module is skipped
without it)."""

import json
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import NAME_ATOMS, spaced_text  # noqa: E402
from propeng.csp import (  # noqa: E402
    CSP, Constraint, ExtensionalBody, IntDomain, LinearEqBody, LinearIneqBody,
    Scheme, SetDomain,
)
from propeng.engine import TraceStep  # noqa: E402
from propeng.textio import (  # noqa: E402
    csp_json, csp_to_obj, parse_csp, serialize_csp, trace_json,
)

names = st.one_of(st.sampled_from(NAME_ATOMS),
                  st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True))
# around -2^53 and 10^17 atom_key's float ties and falls back to repr,
# which orders these ints otherwise than their values do
atoms = st.one_of(st.integers(-40, 40), st.integers(-2**53 - 2, -2**53 + 2),
                  st.sampled_from((10**17 - 1, 10**17)), names)
# ids are single words of the file format: no blank and no '#'
id_texts = st.text(st.sampled_from('cq_"\\é€ß\U0001f600'), max_size=3)


@st.composite
def domains(draw):
    kind = draw(st.sampled_from(("set", "empty", "mixed", "int")))
    if kind == "set":
        return SetDomain(draw(st.frozensets(atoms, max_size=5)))
    if kind == "empty":
        return SetDomain(frozenset())
    if kind == "mixed":
        return SetDomain(draw(st.frozensets(st.integers(-40, -1), min_size=1, max_size=3))
                         | draw(st.frozensets(names, min_size=1, max_size=3)))
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
            body = ExtensionalBody(draw(st.just(frozenset()) | st.frozensets(
                st.tuples(*[atoms] * len(scheme)), max_size=5)))
        else:
            coeffs = tuple(draw(st.lists(st.integers(-20, 20).filter(bool),
                                         min_size=len(scheme), max_size=len(scheme))))
            const = draw(st.integers(-50, 50))
            body = (LinearEqBody if kind == "lineq" else LinearIneqBody)(coeffs, const)
        constraints.append(Constraint(f"{draw(id_texts)}{k + 1}", scheme, body))
    return CSP(tuple(ds), tuple(constraints))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problems(), st.randoms(use_true_random=False))
def test_round_trip(p, rng: random.Random):
    canon = serialize_csp(p)
    assert parse_csp(canon) == p
    assert parse_csp(spaced_text(p, rng)) == p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problems(), st.sampled_from(("", "  ", "\t")))
def test_json_writer_is_json_dumps(p, pad):
    expected = json.dumps(csp_to_obj(p), indent=2, sort_keys=True)
    assert csp_json(p, pad) == expected.replace("\n", "\n" + pad)


# fids as the CLI prints them, with quotes, backslashes and non-ASCII text
fids = st.text(st.sampled_from('pi1@c,;~"\\é€\U0001f600'), max_size=6)
trace_steps = st.lists(st.builds(
    TraceStep, fids, st.lists(st.integers(1, 300), max_size=3).map(tuple)), max_size=8)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trace_steps, st.sampled_from(("", "  ", "\t")))
def test_trace_writer_is_json_dumps(steps, pad):
    rows = [{"step": k, "fn": s.fid, "changed": int(s.changed),
             "comps": list(s.changed_components)}
            for k, s in enumerate(steps, start=1)]
    expected = json.dumps(rows, indent=2, sort_keys=True)
    assert trace_json(steps, pad) == expected.replace("\n", "\n" + pad)
