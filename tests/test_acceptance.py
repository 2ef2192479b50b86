"""Acceptance suite: one test per shipped criterion, each printing its own
pass/fail line (run with ``pytest -s`` to see them)."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    AlternatingStrategy, brute_force_least_fixpoint, powerset_states,
    random_binary_constraint, random_set_csp,
)
from test_reducers import (
    box_for, constraint_reducer_zoo, domain_reducer_zoo, exact_projections,
    members_of, random_constraint_state, strongest_outputs,
)
from propeng.consistency import ConsistencyGoal, achieve, is_arc_consistent
from propeng.csp import (
    CSP, Constraint, ExtensionalBody, IntDomain, LinearEqBody, LinearIneqBody,
    Scheme, SetDomain, equivalent, scheme_union, solutions,
)
from propeng.engine import (
    MODES, Outcome, apply_step, closure_star, make_strategy, run,
)
from propeng.errors import DataError
from propeng.lattice import leq
from propeng.reducers import (
    ConstraintSpace, DomainComponent, ExtComponent, csp_from_domain_state,
    cutting_plane, domain_bottom, linear_eq_narrow, make_binary_projections,
    make_full_projection, make_linear_eq_narrowing, make_path_reducers,
    make_solution_projection, universal_constraint,
)

D01 = SetDomain(frozenset({0, 1}))


def ext(cid, scheme, tuples):
    return Constraint(cid, Scheme(scheme), ExtensionalBody(frozenset(tuples)))


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {title}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {title}: PASS")
        return inner
    return wrap


STRATEGIES = [("det", 0), ("seeded", 1), ("seeded", 2), ("lifo", 0),
              ("roundrobin", 0)]


@criterion(1, "equality narrowing reproduces the worked iterates")
def test_criterion_1_linear_narrowing():
    eq = LinearEqBody((3, -5), 4)
    assert linear_eq_narrow(eq, [(0, 9), (1, 8)]) == [(3, 9), (1, 4)]
    assert linear_eq_narrow(eq, [(3, 9), (1, 4)]) == [(3, 8), (1, 4)]
    c = Constraint("e", Scheme((1, 2)), eq)
    csp = CSP((IntDomain(0, 9), IntDomain(1, 8)), (c,))
    star = closure_star(make_linear_eq_narrowing(c))
    fixed = star.apply(tuple(domain_bottom(csp).components))
    assert [(v.lo, v.hi) for v in fixed] == [(3, 8), (1, 4)]
    assert tuple(star.apply(fixed)) == tuple(fixed)


@criterion(2, "scheme union of the worked triple")
def test_criterion_2_scheme_union():
    got = scheme_union([Scheme((3, 7, 2)), Scheme((4, 3, 7, 5)), Scheme((3, 5, 8))])
    assert got == (3, 7, 2, 4, 5, 8)


@criterion(3, "equality/inequality pair is arc consistent yet unsolvable")
def test_criterion_3_eq_ne(eq_ne_csp):
    assert is_arc_consistent(eq_ne_csp)
    reduced, trace = achieve(eq_ne_csp, ConsistencyGoal("arc"))
    assert trace.outcome is Outcome.CONVERGED
    assert reduced == eq_ne_csp
    assert solutions(eq_ne_csp) == frozenset()


def _criterion4_cases():
    rng = random.Random(2024)
    return [random_set_csp(rng) for _ in range(200)]


@criterion(4, "all modes and strategies stabilize at one fixpoint")
def test_criterion_4_order_independence():
    for csp in _criterion4_cases():
        fns = [make_full_projection(c) for c in csp.constraints]
        start = domain_bottom(csp)
        values = set()
        for mode in MODES:
            for name, seed in STRATEGIES:
                res = run(fns, start, mode=mode,
                          strategy=make_strategy(name, seed), validate=False)
                assert res.trace.outcome is Outcome.CONVERGED
                values.add(res.value)
        assert len(values) == 1


def _criterion5_cases():
    base = frozenset({0, 1})
    pairs = list(itertools.product((0, 1), repeat=2))
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            c = ext("c", (1, 2), chosen)
            yield CSP((SetDomain(base), SetDomain(base)), (c,))


@criterion(5, "converged value equals the brute-force least common fixpoint")
def test_criterion_5_least_fixpoint():
    for csp in _criterion5_cases():
        c = csp.constraints[0]
        start = domain_bottom(csp)
        states = list(powerset_states([d.values for d in csp.domains]))
        for fns in ([make_full_projection(c)], list(make_binary_projections(c))):
            res = run(fns, start, validate=False)
            assert res.value == brute_force_least_fixpoint(fns, states, start)


def _hybrid_case(rng):
    """A three-variable problem with a unique binary constraint per pair
    (universal where unstated), its variables as the first components, and a
    mixed reducer set."""
    constraints = []
    for k, (i, j) in enumerate(itertools.permutations((1, 2, 3), 2)):
        if rng.random() < 0.6:
            space = list(itertools.product((0, 1), (0, 1)))
            constraints.append(ext(f"c{k}", (i, j),
                                   {t for t in space if rng.random() < 0.75}))
    csp = CSP((D01, D01, D01), tuple(constraints))
    comps = [DomainComponent(i) for i in (1, 2, 3)]
    comps.extend(ExtComponent(c) for c in csp.constraints)
    have = {c.scheme for c in csp.constraints}
    for i, j in itertools.permutations((1, 2, 3), 2):
        if (i, j) not in have:
            comps.append(ExtComponent(universal_constraint(csp, Scheme((i, j)))))
    space = ConstraintSpace(csp, comps)

    fns = []
    for k, l, m in rng.sample(list(itertools.permutations((1, 2, 3), 3)), 3):
        fns.append(make_path_reducers(space, [(k, l, m)])[0])
    ext_keys = [c.key for c in comps if isinstance(c, ExtComponent)]
    members = rng.sample(ext_keys, 2)
    fns.append(make_solution_projection(space, members))
    target = rng.choice(ext_keys[:len(csp.constraints)] or ext_keys)
    cons = space.components[space.position(target) - 1].constraint
    fns.extend(make_binary_projections(cons))
    fns.append(make_full_projection(cons))
    return csp, space, fns


@criterion(6, "every reduction run preserves the solution set")
def test_criterion_6_equivalence_preservation(eq_ne_csp):
    reduced, _ = achieve(eq_ne_csp, ConsistencyGoal("arc"))
    assert equivalent(eq_ne_csp, reduced)
    for csp in _criterion4_cases():
        fns = [make_full_projection(c) for c in csp.constraints]
        res = run(fns, domain_bottom(csp), validate=False)
        assert solutions(csp) == solutions(csp_from_domain_state(csp, res.value))
    for csp in _criterion5_cases():
        c = csp.constraints[0]
        for fns in ([make_full_projection(c)], list(make_binary_projections(c))):
            res = run(fns, domain_bottom(csp), validate=False)
            assert solutions(csp) == solutions(csp_from_domain_state(csp, res.value))
    rng = random.Random(6)
    for _ in range(100):
        csp, space, fns = _hybrid_case(rng)
        res = run(fns, space.bottom(), validate=False)
        assert res.trace.outcome is Outcome.CONVERGED
        assert solutions(csp) == solutions(space.rebuild(res.value))


@criterion(7, "full projection and the projection pair reach equal limits")
def test_criterion_7_projection_comparison():
    rng = random.Random(7)
    for _ in range(100):
        left = frozenset(range(rng.randint(1, 3)))
        right = frozenset(range(rng.randint(1, 3)))
        c = random_binary_constraint(rng, left, right)
        csp = CSP((SetDomain(left), SetDomain(right)), (c,))
        start = domain_bottom(csp)
        a = run([make_full_projection(c)], start, validate=False)
        b = run(list(make_binary_projections(c)), start, validate=False)
        assert a.value == b.value


@criterion(8, "reducer outputs sit between the optimal projection and identity")
def test_criterion_8_characterization_bounds():
    rng = random.Random(8)
    checked = 0
    while checked < 500:
        for csp, f in domain_reducer_zoo(rng):
            box = box_for(csp, rng)
            after, _ = apply_step(f, box)
            c = csp.constraints[0]
            exact = exact_projections(csp, c, box)
            for k, i in enumerate(c.scheme):
                assert leq(box.component(i), after.component(i))
                assert exact[k] <= members_of(after.component(i))
            checked += 1
        for space, g in constraint_reducer_zoo(rng):
            state = random_constraint_state(space, rng)
            after, _ = apply_step(g, state)
            strongest = strongest_outputs(space, g, state)
            for k, p in enumerate(g.scheme):
                assert leq(state.component(p), after.component(p))
                assert strongest[k].elements <= after.component(p).elements
            checked += 1


@criterion(9, "divergence is caught by the step cap; the jump converges fast")
def test_criterion_9_nontermination_guard(counter_fixture):
    fns, start = counter_fixture
    diverging = run(fns, start, mode="ci", strategy=AlternatingStrategy(),
                    step_cap=1000, validate=False)
    assert diverging.trace.outcome is Outcome.STEP_LIMIT
    assert diverging.trace.total_applications == 1000
    converging = run(fns, start, mode="cii", step_cap=1000, validate=False)
    assert converging.trace.outcome is Outcome.CONVERGED
    assert converging.trace.total_applications <= 3


@criterion(10, "cutting planes combine exactly under rational arithmetic")
def test_criterion_10_cutting_planes():
    single = Constraint("a", Scheme((1,)), LinearIneqBody((2,), 1))
    cut = cutting_plane([single], [Fraction(1, 2)])
    assert cut.scheme == (1,) and cut.body == LinearIneqBody((1,), 0)
    i1 = Constraint("i1", Scheme((1, 2)), LinearIneqBody((1, 1), 1))
    i2 = Constraint("i2", Scheme((1, 2)), LinearIneqBody((1, -1), 0))
    cut = cutting_plane([i1, i2], [Fraction(1, 2), Fraction(1, 2)])
    assert cut.scheme == (1,) and cut.body == LinearIneqBody((1,), 0)
    with pytest.raises(DataError) as err:
        cutting_plane([i1], [Fraction(1, 2)])
    assert "x1" in str(err.value)


@criterion(11, "idempotence declarations hold; narrowing is non-idempotent")
def test_criterion_11_idempotence_flags():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        for csp, f in domain_reducer_zoo(rng):
            if not f.idempotent:
                continue
            box = box_for(csp, rng)
            once, _ = apply_step(f, box)
            _, changed = apply_step(f, once)
            assert changed == ()
            checked += 1
        for space, g in constraint_reducer_zoo(rng):
            assert g.idempotent
            state = random_constraint_state(space, rng)
            once, _ = apply_step(g, state)
            _, changed = apply_step(g, once)
            assert changed == ()
            checked += 1
    eq = LinearEqBody((3, -5), 4)
    assert not make_linear_eq_narrowing(
        Constraint("e", Scheme((1, 2)), eq)).idempotent
    first = linear_eq_narrow(eq, [(0, 9), (1, 8)])
    assert linear_eq_narrow(eq, first) != first
