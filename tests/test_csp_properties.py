"""Property-based check of the join's witness search, ``join_constraints``
with ``within``, against the materialised join (needs ``hypothesis``; the
module is skipped without it)."""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from propeng.csp import Relation, Scheme, join_constraints, witness_plan  # noqa: E402

ATOMS = (0, 1, 2)


def relations_over(scheme):
    """Random tuple sets over ``scheme``, the empty set among them."""
    return st.frozensets(st.tuples(*[st.sampled_from(ATOMS)] * len(scheme)),
                         max_size=3 ** len(scheme)).map(lambda ts: Relation(scheme, ts))


@st.composite
def schemes(draw, indices=(1, 2, 3, 4)):
    """A scheme of 1-3 distinct indices drawn from ``indices``, in any order."""
    order = draw(st.permutations(indices))
    return Scheme(order[:draw(st.integers(1, min(3, len(indices))))])


@st.composite
def witness_case(draw):
    """Members of arity 1-3 over indices 1..4, a scheme ``onto`` over some of
    their indices and a tuple set ``within`` over it; at times also a member
    that ``onto`` binds wholly, and the target itself as a member."""
    members = [draw(relations_over(draw(schemes())))
               for _ in range(draw(st.integers(1, 3)))]
    union = list(dict.fromkeys(itertools.chain.from_iterable(m.scheme for m in members)))
    onto = draw(schemes(tuple(union)))
    within = draw(relations_over(onto)).tuples
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))),
                       draw(relations_over(draw(schemes(tuple(onto))))))
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))), Relation(onto, within))
    return members, onto, within


@settings(max_examples=300, deadline=None, derandomize=True)
@given(witness_case())
def test_within_keeps_the_tuples_the_join_holds(case):
    members, onto, within = case
    joined = join_constraints(members, cap=None, onto=onto).tuples
    got = join_constraints(members, onto=onto, within=within)
    assert got.scheme == onto
    assert got.tuples == within & joined
    # nothing removed: the argument object itself
    assert (got.tuples is within) == (within <= joined)
    # nothing materialised, so no cap is reached
    assert join_constraints(members, cap=0, onto=onto, within=within).tuples == got.tuples
    # a plan resolved once, with the members' bare tuple sets
    plan = witness_plan(tuple(m.scheme for m in members), onto)
    again = join_constraints([m.tuples for m in members], onto=plan, within=within)
    assert again == got
