"""The reduction-function catalogue: worked examples and the laws every
reducer must satisfy (solution preservation, projection bounds, idempotence
flags)."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from conftest import random_binary_constraint, random_set_csp
from propeng import consistency, reducers
from propeng.csp import (
    CSP, Constraint, ExtensionalBody, IntDomain, LinearEqBody,
    LinearIneqBody, Scheme, SetDomain, equivalent, solutions,
)
from propeng.engine import (
    DEFAULT_STEP_CAP, MODES, STRATEGIES, Outcome, ReductionFunction, TraceStep,
    apply_step, make_strategy, run,
)
from propeng.errors import ConfigError, DataError, ResourceLimitError
from propeng.lattice import (
    GridInterval, GrowSetValue, IntGrid, PointGrid, PowersetValue, ProductValue, leq,
)
from propeng.reducers import (
    ConstraintSpace, DomainComponent, ExtComponent, IneqComponent,
    build_named_reducers, csp_from_domain_state, cutting_plane, domain_bottom,
    join_projection, linear_eq_narrow, make_binary_projections, make_cut_reducer,
    make_full_projection, make_interval_hull_projection, make_linear_eq_narrowing,
    make_path_reducers, make_relational_reducer, make_solution_projection,
    universal_constraint,
)

D012 = SetDomain(frozenset({0, 1, 2}))
D01 = SetDomain(frozenset({0, 1}))


def pv(base, elements):
    return PowersetValue(frozenset(base), frozenset(elements))


def ext(cid, scheme, tuples):
    return Constraint(cid, Scheme(scheme), ExtensionalBody(frozenset(tuples)))


class TestBinaryProjections:
    C = ext("c", (1, 2), {(1, 1), (2, 2)})

    def test_supported_values_survive(self):
        pi1, pi2 = make_binary_projections(self.C)
        x, y = pv({1, 2, 3}, {1, 2, 3}), pv({1, 2}, {1, 2})
        out = pi1.apply((x, y))
        assert out[0].elements == frozenset({1, 2})
        assert out[1] is y
        out = pi2.apply((pv({1, 2, 3}, {1, 2, 3}), pv({1, 2}, {1, 2})))
        assert out[1].elements == frozenset({1, 2})

    def test_empty_side_stays_empty(self):
        pi1, pi2 = make_binary_projections(self.C)
        x, y = pv({1, 2, 3}, set()), pv({1, 2}, {1, 2})
        assert pi1.apply((x, y))[0].elements == frozenset()
        assert pi2.apply((x, y))[1].elements == frozenset()

    def test_full_product_constraint_is_identity(self):
        c = ext("c", (1, 2), set(itertools.product((1, 2, 3), (1, 2))))
        pi1, pi2 = make_binary_projections(c)
        for xs in ({1}, {1, 3}, {1, 2, 3}):
            x, y = pv({1, 2, 3}, xs), pv({1, 2}, {2})
            assert pi1.apply((x, y))[0].elements == frozenset(xs)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigError):
            make_binary_projections(ext("c", (1, 2, 3), {(0, 0, 0)}))

    def test_one_projection_body_for_every_kind(self):
        c = ext("c", (1, 2), {(0, 0)})
        fns = [*make_binary_projections(c), make_full_projection(c),
               make_interval_hull_projection(c)]
        assert len({f.apply.__code__ for f in fns}) == 1

    def test_interval_components_rejected(self):
        # reading only the other side holds where fitting intersects: a hull
        # of x & S(y) is not x & h(y)
        pi1, _ = make_binary_projections(ext("c", (1, 2), {(0, 0)}))
        box = (GridInterval.full(IntGrid(0, 3)), GridInterval.full(IntGrid(0, 3)))
        with pytest.raises(ConfigError) as err:
            pi1.apply(box)
        assert str(err.value) == "cannot project onto component kind GridInterval"


class TestFullProjection:
    def test_worked_example(self):
        c = ext("c", (1, 2, 3), {(0, 0, 1), (1, 0, 0)})
        f = make_full_projection(c)
        box = tuple(pv({0, 1}, {0, 1}) for _ in range(3))
        out = f.apply(box)
        assert [sorted(v.elements) for v in out] == [[0, 1], [0], [0, 1]]

    def test_idempotent_on_its_own_output(self):
        c = ext("c", (1, 2), {(0, 0), (1, 1)})
        f = make_full_projection(c)
        out = f.apply((pv({0, 1}, {0, 1}), pv({0, 1}, {0, 1})))
        assert f.apply(out) == out

    def test_disjoint_box_empties_all(self):
        c = ext("c", (1, 2), {(0, 0)})
        f = make_full_projection(c)
        out = f.apply((pv({0, 1}, {1}), pv({0, 1}, {0, 1})))
        assert all(v.elements == frozenset() for v in out)

    def test_component_kind_without_fit_is_config_error(self):
        f = make_full_projection(ext("c", (1, 2), {(0, 0)}))
        grow = GrowSetValue.bottom({0})
        with pytest.raises(ConfigError) as err:
            f.apply((pv({0, 1}, {0, 1}), grow))
        assert str(err.value) == "cannot project onto component kind GrowSetValue"

    @pytest.mark.parametrize("kind", ["piC", "hull"])
    def test_interval_components_against_brute_force(self, kind):
        # on GridInterval components a tuple is live when each coordinate
        # lies between the interval's ends; each output is the hull of the
        # live tuples' coordinates, a powerset component their set
        rng = random.Random(41)
        for _ in range(60):
            # hull@ takes integer domains only; piC@ also mixes in a set domain
            domains = [IntDomain(-3, 3), D012 if kind == "piC" else IntDomain(0, 2),
                       IntDomain(0, 4)]
            scheme = tuple(rng.sample((1, 2, 3), rng.randint(1, 3)))
            space = itertools.product(*(domains[i - 1].members() for i in scheme))
            c = ext("c", scheme, {t for t in space if rng.random() < 0.4})
            built, fns = build_named_reducers(CSP(tuple(domains), (c,)), [f"{kind}@c"])
            box = []
            for i in scheme:
                v = built.bottom().component(i)
                if isinstance(v, GridInterval):
                    lo, hi = sorted(rng.choices(range(v.lo, v.hi + 1), k=2))
                    box.append(GridInterval(v.grid, lo, hi))
                else:
                    box.append(v.with_elements(x for x in v.elements if rng.random() < 0.7))
            live = [t for t in c.tuples
                    if all(x in (v.members() if isinstance(v, GridInterval) else v.elements)
                           for x, v in zip(t, box))]
            out = fns[0].apply(tuple(box))
            for k, (v, got) in enumerate(zip(box, out)):
                points = {t[k] for t in live}
                if isinstance(v, GridInterval):
                    want = ((None, None) if not points else (min(points), max(points)))
                    assert (got.lo, got.hi) == want
                else:
                    assert got.elements == points

    def test_int_domain_rebuild_keeps_tuples_in_range(self):
        c = ext("c", (1, 2), {(-1, 0), (0, 2), (2, 2), (3, 1)})
        csp = CSP((IntDomain(-1, 3), IntDomain(0, 2)), (c,))
        state = ProductValue((GridInterval(IntGrid(-1, 3), 0, 2),
                              GridInterval(IntGrid(0, 2), 1, 2)))
        out = csp_from_domain_state(csp, state)
        assert out.domains == (IntDomain(0, 2), IntDomain(1, 2))
        assert out.constraint("c").tuples == frozenset({(0, 2), (2, 2)})



FLOAT_GRID = PointGrid((-math.inf, 0, 1, 2, math.inf))


class TestIntervalHullProjection:
    def test_worked_example(self):
        c = ext("c", (1, 2), {(0.5, 1.5), (1.5, 0.5)})
        f = make_interval_hull_projection(c)
        out = f.apply((GridInterval.full(FLOAT_GRID), GridInterval.full(FLOAT_GRID)))
        assert out == (GridInterval(FLOAT_GRID, 0, 2), GridInterval(FLOAT_GRID, 0, 2))

    def test_empty_constraint(self):
        f = make_interval_hull_projection(ext("c", (1,), set()))
        out = f.apply((GridInterval.full(FLOAT_GRID),))
        assert out[0].is_empty

    def test_on_grid_point(self):
        f = make_interval_hull_projection(ext("c", (1, 2), {(1, 2)}))
        out = f.apply((GridInterval.full(FLOAT_GRID), GridInterval.full(FLOAT_GRID)))
        assert out == (GridInterval(FLOAT_GRID, 1, 1), GridInterval(FLOAT_GRID, 2, 2))

    def test_agrees_with_full_projection_on_int_domains(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 3)
            domains = []
            for _ in range(n):
                lo = rng.randint(-2, 2)
                domains.append(IntDomain(lo, lo + rng.randint(0, 3)))
            scheme = tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
            space = itertools.product(*(domains[i - 1].members() for i in scheme))
            c = ext("c", scheme, {t for t in space if rng.random() < 0.4})
            csp = CSP(tuple(domains), (c,))
            hull_space, hull = build_named_reducers(csp, ["hull@c"])
            full_space, full = build_named_reducers(csp, ["piC@c"])
            start = hull_space.bottom()
            assert run(hull, start).value == run(full, full_space.bottom()).value
            box = tuple(
                GridInterval(v.grid, *sorted(rng.choices(range(v.lo, v.hi + 1), k=2)))
                for v in (start.component(i) for i in scheme))
            assert hull[0].apply(box) == full[0].apply(box)

    def test_powerset_components_project_like_the_full_projection(self):
        c = ext("c", (1, 2, 3), {(0, 0, 1), (1, 0, 0)})
        box = tuple(pv({0, 1}, {0, 1}) for _ in range(3))
        assert (make_interval_hull_projection(c).apply(box)
                == make_full_projection(c).apply(box))


class TestLinearEqNarrow:
    EQ = LinearEqBody((3, -5), 4)

    def test_worked_iterates(self):
        assert linear_eq_narrow(self.EQ, [(0, 9), (1, 8)]) == [(3, 9), (1, 4)]
        assert linear_eq_narrow(self.EQ, [(3, 9), (1, 4)]) == [(3, 8), (1, 4)]

    def test_third_application_is_fixpoint(self):
        assert linear_eq_narrow(self.EQ, [(3, 8), (1, 4)]) == [(3, 8), (1, 4)]

    def test_agrees_with_solution_hull(self):
        csp = CSP((IntDomain(0, 9), IntDomain(1, 8)),
                  (Constraint("e", Scheme((1, 2)), self.EQ),))
        sols = solutions(csp)
        lo1, hi1 = min(s[0] for s in sols), max(s[0] for s in sols)
        lo2, hi2 = min(s[1] for s in sols), max(s[1] for s in sols)
        assert (lo1, hi1, lo2, hi2) == (3, 8, 1, 4)

    def test_wrapper_collapses_empty_boxes(self):
        c = Constraint("e", Scheme((1, 2)), self.EQ)
        f = make_linear_eq_narrowing(c)
        grid = IntGrid(0, 9)
        empty = GridInterval.empty(grid)
        out = f.apply((empty, GridInterval(grid, 1, 8)))
        assert all(v.is_empty for v in out)
        assert out[0] is empty

    def test_unmoved_coordinates_come_back_as_themselves(self):
        f = make_linear_eq_narrowing(Constraint("e", Scheme((1, 2)), self.EQ))
        x, y = GridInterval(IntGrid(0, 9), 3, 9), GridInterval(IntGrid(1, 8), 1, 4)
        out = f.apply((x, y))
        assert out[0] == GridInterval(IntGrid(0, 9), 3, 8) and out[1] is y
        fixed = f.apply(out)
        assert fixed[0] is out[0] and fixed[1] is out[1]

    def test_identity_exactly_when_bounds_unmoved(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 3)
            coeffs = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
            c = Constraint("e", Scheme(tuple(range(1, n + 1))),
                           LinearEqBody(coeffs, rng.randint(-6, 6)))
            grid = IntGrid(-5, 5)
            args = tuple(GridInterval(grid, *sorted((rng.randint(-5, 5), rng.randint(-5, 5))))
                         for _ in range(n))
            out = make_linear_eq_narrowing(c).apply(args)
            for old, new in zip(args, out):
                assert (new is old) == (new == old)

    def test_apply_step_at_fixpoint_returns_the_same_product(self):
        # ReductionFunction's contract: an application that changes no
        # component returns the args tuple itself, and apply_step then
        # returns the product it was given
        def assert_no_change(f, d):
            args = tuple(d.component(i) for i in f.scheme)
            assert f.apply(args) is args, f.fid
            out, changed = apply_step(f, d)
            assert out is d and changed == (), f.fid

        f = make_linear_eq_narrowing(Constraint("e", Scheme((1, 2)), self.EQ))
        assert_no_change(f, ProductValue(
            (GridInterval(IntGrid(0, 9), 3, 8), GridInterval(IntGrid(1, 8), 1, 4))))
        rng = random.Random(73)
        kinds = set()
        for _ in range(20):
            cases = [(f, box_for(csp, rng)) for csp, f in domain_reducer_zoo(rng)]
            cases += [(g, random_constraint_state(space, rng))
                      for space, g in constraint_reducer_zoo(rng)]
            for f, d in cases:
                for _ in range(DEFAULT_STEP_CAP):    # lineq may need several steps
                    d, changed = apply_step(f, d)
                    if not changed:
                        break
                assert_no_change(f, d)
                kinds.add(f.fid.split("@")[0].split("(")[0])    # rel(...): the goal's
        assert kinds == {"pi1", "pi2", "piC", "hull", "lineq", "path", "rho", "rel"}

        i1 = Constraint("i1", Scheme((1, 2)), LinearIneqBody((1, 1), 1))
        i2 = Constraint("i2", Scheme((1, 2)), LinearIneqBody((1, -1), 0))
        space = ConstraintSpace(CSP((IntDomain(-2, 3), IntDomain(-2, 3)), (i1, i2)),
                                (IneqComponent("g", (i1, i2)),))
        assert_no_change(make_cut_reducer(space, "g", [0, 0]), space.bottom())
        cut = make_cut_reducer(space, "g", [Fraction(1, 2), Fraction(1, 2)])
        once, changed = apply_step(cut, space.bottom())
        assert changed == (1,)
        assert_no_change(cut, once)

    @pytest.mark.parametrize("other", [
        GridInterval(PointGrid((0, 1, 2)), 0, 2),
        pv({0, 1, 2}, {0, 1}),
    ], ids=["point-grid", "powerset"])
    def test_non_integer_interval_rejected_before_empty_shortcut(self, other):
        f = make_linear_eq_narrowing(Constraint("e", Scheme((1, 2)), self.EQ))
        with pytest.raises(ConfigError):
            f.apply((GridInterval.empty(IntGrid(0, 9)), other))

    def test_emptied_output_is_legal(self):
        # x - y = 5 over [0..1] x [0..1] has no solutions
        eq = LinearEqBody((1, -1), 5)
        out = linear_eq_narrow(eq, [(0, 1), (0, 1)])
        assert all(hi < lo for lo, hi in out)

    def test_negative_numerators_floor_and_ceil(self):
        # 2x = -3 has no integer solution: ceil(-3/2) = -1 > floor(-3/2) = -2
        assert linear_eq_narrow(LinearEqBody((2,), -3), [(-5, 5)]) == [(-1, -2)]
        # 3x - 2y = -7 over [-4..4]^2:
        # x in [ceil(-15/3), floor(1/3)], y in [ceil(-5/2), floor(19/2)]
        out = linear_eq_narrow(LinearEqBody((3, -2), -7), [(-4, 4), (-4, 4)])
        assert out == [(-4, 0), (-2, 4)]

    def test_matches_fraction_reference(self):
        rng = random.Random(2024)
        coeff_range = [a for a in range(-7, 8) if a]
        for _ in range(5000):
            n = rng.randint(1, 4)
            eq = LinearEqBody(tuple(rng.choice(coeff_range) for _ in range(n)),
                              rng.randint(-60, 60))
            box = [tuple(sorted((rng.randint(-20, 20), rng.randint(-20, 20))))
                   for _ in range(n)]
            assert linear_eq_narrow(eq, box) == reference_narrow(eq, box), (eq, box)


def reference_narrow(eq, box):
    """One narrowing application in exact rationals: for each ``k``,
    ``a_k x_k = b - sum_{j != k} a_j x_j``, whose right side ranges over
    ``[b - U, b - L]`` with ``L``/``U`` summing each term's extreme over the box."""
    out = []
    for k, (a, (lo, hi)) in enumerate(zip(eq.coeffs, box)):
        terms = [(c * l, c * h) for j, (c, (l, h)) in enumerate(zip(eq.coeffs, box)) if j != k]
        low = sum(min(t) for t in terms)
        high = sum(max(t) for t in terms)
        ends = (Fraction(eq.constant - high, a), Fraction(eq.constant - low, a))
        out.append((max(lo, math.ceil(min(ends))), min(hi, math.floor(max(ends)))))
    return out


class TestSolutionProjection:
    def space(self, chain_csp):
        return ConstraintSpace(
            chain_csp, tuple(ExtComponent(c) for c in chain_csp.constraints))

    def test_worked_example(self, chain_csp):
        space = self.space(chain_csp)
        rho = make_solution_projection(space, ["c1", "c2"])
        out = rho.apply(tuple(space.bottom().components))
        assert out[0].elements == frozenset({(0, 0)})
        assert out[1].elements == frozenset({(0, 1)})

    def test_fixpoint_when_already_projected(self, chain_csp):
        space = self.space(chain_csp)
        rho = make_solution_projection(space, ["c1", "c2"])
        once = rho.apply(tuple(space.bottom().components))
        assert rho.apply(once) == once

    def test_empty_member_empties_all(self, chain_csp):
        space = self.space(chain_csp)
        rho = make_solution_projection(space, ["c1", "c2"])
        start = space.bottom()
        out = rho.apply((start.component(1).with_elements(()), start.component(2)))
        assert all(v.elements == frozenset() for v in out)

    def test_member_may_be_an_embedded_domain(self):
        c1 = ext("c1", (2, 1), {(0, 1), (0, 0)})
        space = ConstraintSpace(CSP((D012, D01), (c1,)),
                                (DomainComponent(1), ExtComponent(c1)))
        rho = make_solution_projection(space, ["c1", "~dom1"])
        start = space.bottom()
        dom1 = start.component(1).with_elements({1, 2})
        out = rho.apply((start.component(2), dom1))
        # the join over scheme (2,1), by hand: c1's pairs whose x1 is in dom1
        joined = {(b, a) for b, a in c1.tuples if a in dom1.elements}
        assert out[0].elements == joined == {(0, 1)}
        assert out[1].elements == {a for _, a in joined} == {1}

    def test_one_embedded_domain_as_the_target(self):
        # ~dom1 alone is the target: the atoms that some pair of c1 supports
        c1 = ext("c1", (2, 1), {(0, 1), (0, 0)})
        space = ConstraintSpace(CSP((D012, D01), (c1,)),
                                (DomainComponent(1), ExtComponent(c1)))
        f = join_projection(space, (1,), (1, 2), "support", "support")
        start = space.bottom()
        args = (start.component(1), start.component(2))
        out = f.apply(args)
        assert out[0].elements == {0, 1}
        assert out[1] is args[1]
        # nothing left to remove: the arguments themselves
        assert f.apply(out) is out


def path_space():
    c12 = ext("c12", (1, 2), {(0, 0), (0, 1)})
    c13 = ext("c13", (1, 3), {(0, 1)})
    c32 = ext("c32", (3, 2), {(1, 1)})
    csp = CSP((D01, D01, D01), (c12, c13, c32))
    return ConstraintSpace(csp, (ExtComponent(c12), ExtComponent(c13),
                                 ExtComponent(c32)))


class TestPathReducer:
    def test_worked_example(self):
        space = path_space()
        g = make_path_reducers(space, [(1, 2, 3)])[0]
        state, changed = apply_step(g, space.bottom())
        assert changed == (1,)
        assert state.component(1).elements == frozenset({(0, 1)})

    def test_full_through_constraints_change_nothing(self):
        c12 = ext("c12", (1, 2), {(0, 0), (0, 1)})
        c13 = ext("c13", (1, 3), set(itertools.product((0, 1), (0, 1))))
        c32 = ext("c32", (3, 2), set(itertools.product((0, 1), (0, 1))))
        csp = CSP((D01, D01, D01), (c12, c13, c32))
        space = ConstraintSpace(csp, tuple(ExtComponent(c) for c in csp.constraints))
        g = make_path_reducers(space, [(1, 2, 3)])[0]
        _, changed = apply_step(g, space.bottom())
        assert changed == ()

    def test_empty_through_constraint_empties_target(self):
        space = path_space()
        g = make_path_reducers(space, [(1, 2, 3)])[0]
        start = space.bottom()
        state = start.replace({2: start.component(2).with_elements(())})
        out, changed = apply_step(g, state)
        assert changed == (1,)
        assert out.component(1).elements == frozenset()

    def test_missing_pair_rejected(self):
        space = path_space()
        with pytest.raises(ConfigError):
            make_path_reducers(space, [(2, 1, 3)])[0]

    def test_matches_joint_solution_projection(self):
        # on its triple, the path function computes exactly the projection
        # of the three constraints' joint solutions
        rng = random.Random(21)
        for _ in range(40):
            c_kl = random_binary_constraint(rng, {0, 1}, {0, 1}, "ckl", (1, 2))
            c_km = random_binary_constraint(rng, {0, 1}, {0, 1}, "ckm", (1, 3))
            c_ml = random_binary_constraint(rng, {0, 1}, {0, 1}, "cml", (3, 2))
            csp = CSP((D01, D01, D01), (c_kl, c_km, c_ml))
            space = ConstraintSpace(csp, tuple(ExtComponent(c) for c in csp.constraints))
            g = make_path_reducers(space, [(1, 2, 3)])[0]
            state, _ = apply_step(g, space.bottom())
            joint = {
                (a, b, m)
                for a, b, m in itertools.product((0, 1), repeat=3)
                if (a, b) in c_kl.tuples and (a, m) in c_km.tuples
                and (m, b) in c_ml.tuples}
            assert state.component(1).elements == frozenset(
                (a, b) for a, b, _ in joint)

    def test_matches_brute_force_over_three_values(self):
        # C_kl, C_km and C_ml at random over {0,1,2}; now and then an empty
        # member, or a target that keeps no pair
        rng = random.Random(5)
        values = (0, 1, 2)
        pairs = list(itertools.product(values, repeat=2))
        unchanged = 0
        for n in range(120):
            kl, km, ml = ({t for t in pairs if rng.random() < 0.5} for _ in range(3))
            if n % 10 == 1:
                (kl, km, ml)[n % 3].clear()
            if n % 10 == 2:
                kl = {(a, b) for a, b in kl if not any(
                    (a, m) in km and (m, b) in ml for m in values)}
            csp = CSP((D012,) * 3, (ext("ckl", (1, 2), kl), ext("ckm", (1, 3), km),
                                    ext("cml", (3, 2), ml)))
            space = ConstraintSpace(csp, tuple(map(ExtComponent, csp.constraints)))
            g = make_path_reducers(space, [(1, 2, 3)])[0]
            args = tuple(space.bottom().components)
            out = g.apply(args)
            want = {(a, b) for a, b in kl
                    if any((a, m) in km and (m, b) in ml for m in values)}
            assert out[0].elements == want
            assert out[1:] == args[1:]
            if want == kl:
                # nothing removed: the arguments themselves
                unchanged += 1
                assert out is args or all(map(operator.is_, out, args))
        assert 0 < unchanged < 120


class TestRelationalReducer:
    def test_worked_example(self, chain_csp):
        from propeng.reducers import universal_constraint
        u13 = universal_constraint(chain_csp, Scheme((1, 3)))
        space = ConstraintSpace(
            chain_csp,
            tuple(ExtComponent(c) for c in chain_csp.constraints)
            + (ExtComponent(u13),))
        g = make_relational_reducer(space, Scheme((1, 3)), ["c1", "c2"])
        state, changed = apply_step(g, space.bottom())
        assert changed == (3,)
        assert state.component(3).elements == frozenset({(0, 1)})

    def test_identity_when_projection_covers_target(self, chain_csp):
        space = ConstraintSpace(
            chain_csp, tuple(ExtComponent(c) for c in chain_csp.constraints))
        g = make_relational_reducer(space, Scheme((1, 2)), ["c1"])
        _, changed = apply_step(g, space.bottom())
        assert changed == ()

    def test_empty_member_empties_target(self, chain_csp):
        space = ConstraintSpace(
            chain_csp, tuple(ExtComponent(c) for c in chain_csp.constraints))
        g = make_relational_reducer(space, Scheme((1, 2)), ["c1", "c2"])
        start = space.bottom()
        state = start.replace({2: start.component(2).with_elements(())})
        out, changed = apply_step(g, state)
        assert out.component(1).elements == frozenset()

    def test_uncovered_target_rejected(self, chain_csp):
        space = ConstraintSpace(
            chain_csp, tuple(ExtComponent(c) for c in chain_csp.constraints))
        with pytest.raises(ConfigError):
            make_relational_reducer(space, Scheme((1, 2)), ["c2"])


class TestUniversalConstraint:
    @pytest.mark.parametrize("taken, cid", [
        ((), "u(1,3)"), (("u(3,1)",), "u(1,3)"), (("u(1,3)",), "u(1,3)'"),
        (("u(1,3)'", "u(1,3)"), "u(1,3)''"), (("u(1,3)", "u(1,3)''"), "u(1,3)'")])
    def test_takes_the_first_free_id(self, taken, cid):
        d01 = SetDomain(frozenset({0, 1}))
        csp = CSP((d01,) * 3, tuple(ext(k, (1, 2), {(0, 0)}) for k in taken))
        u = universal_constraint(csp, Scheme((1, 3)))
        assert u.cid == cid and u.scheme == (1, 3)
        assert u.tuples == frozenset(itertools.product((0, 1), repeat=2))

    def test_reads_each_domain_once(self, monkeypatch):
        read = []
        members = CSP.domain_members

        def counting(self, i):
            read.append(i)
            return members(self, i)

        monkeypatch.setattr(CSP, "domain_members", counting)
        csp = CSP((D01, D012, IntDomain(0, 999)), ())
        u = universal_constraint(csp, Scheme((2, 1)))
        assert read == [2, 1]
        assert u.tuples == frozenset(itertools.product((0, 1, 2), (0, 1)))
        read.clear()
        big = CSP((IntDomain(0, 999),) * 3, ())
        with pytest.raises(ResourceLimitError) as err:
            universal_constraint(big, Scheme((1, 2, 3)))
        assert str(err.value) == "universal constraint over (1, 2, 3) exceeds 1000000 tuples"
        assert read == [1, 2, 3]


class TestNoChangeApplication:
    @pytest.mark.parametrize("name", [
        "path@1,2,3", "rel@1,2;c13,c32", "rel@1,2;c12,c13,c32", "rho@c13,c32",
        "rho@c12,c13,c32"])
    def test_application_that_removes_nothing_keeps_its_arguments(self, name):
        csp = CSP((D01, D01, D01), (
            ext("c12", (1, 2), {(0, 0), (0, 1)}),
            ext("c13", (1, 3), {(0, 0), (0, 1)}),
            ext("c32", (3, 2), set(itertools.product((0, 1), repeat=2)))))
        space, (f,) = build_named_reducers(csp, [name])
        start = space.bottom()
        args = tuple(start.component(i) for i in f.scheme)
        out = f.apply(args)
        assert all(o is a for o, a in zip(out, args))
        state, changed = apply_step(f, start)
        assert changed == () and state is start


class TestOneJoinPerApplication:
    @pytest.mark.parametrize("name", [
        "path@1,2,3", "rel@1,2;c13,c32", "rho@c12", "rel@1,2;c13,~dom2", "rho@~dom1"])
    def test_each_application_is_one_witness_search(self, name, monkeypatch):
        # a one-target join reducer makes one join_constraints(..., within=...)
        # call per application, whatever its members and whether it changes
        # anything; the last two names join a variable's atoms, and a
        # one-member rho never changes anything
        join = reducers.join_constraints
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return join(*args, **kwargs)

        monkeypatch.setattr(reducers, "join_constraints", counting)
        rng = random.Random(97)
        changed = 0
        for _ in range(10):
            csp = CSP((D012, D012, D012), tuple(
                random_binary_constraint(rng, D012.values, D012.values, f"c{i}{j}", (i, j))
                for i, j in ((1, 2), (1, 3), (3, 2))))
            space, (f,) = build_named_reducers(csp, [name])
            args = tuple(space.bottom().component(i) for i in f.scheme)
            for x in [args] + [tuple(v.sample(rng) for v in args) for _ in range(3)]:
                calls.clear()
                changed += f.apply(x) is not x
                assert len(calls) == 1 and calls[0].get("within") is not None
            steps = []
            calls.clear()
            run([f], space.bottom(), strategy=make_strategy("det"), validate=False,
                observer=steps.append)
            assert len(calls) == len(steps)
        assert (changed > 0) == (not name.startswith("rho@"))


class TestCuttingPlane:
    def test_halved_single_inequality(self):
        c = Constraint("a", Scheme((1,)), LinearIneqBody((2,), 1))
        cut = cutting_plane([c], [Fraction(1, 2)])
        assert cut.scheme == (1,)
        assert cut.body == LinearIneqBody((1,), 0)

    def test_combined_pair(self):
        i1 = Constraint("i1", Scheme((1, 2)), LinearIneqBody((1, 1), 1))
        i2 = Constraint("i2", Scheme((1, 2)), LinearIneqBody((1, -1), 0))
        cut = cutting_plane([i1, i2], [Fraction(1, 2), Fraction(1, 2)])
        assert cut.scheme == (1,)
        assert cut.body == LinearIneqBody((1,), 0)

    def test_zero_multipliers_give_trivial_cut(self):
        c = Constraint("a", Scheme((1,)), LinearIneqBody((2,), 1))
        cut = cutting_plane([c], [0])
        assert cut.scheme == ()
        assert cut.body.constant == 0

    def test_non_integral_combination_rejected(self):
        c = Constraint("a", Scheme((1, 2)), LinearIneqBody((1, 2), 1))
        with pytest.raises(DataError, match="x1"):
            cutting_plane([c], [Fraction(1, 2)])

    def test_cut_preserves_integer_solutions(self):
        i1 = Constraint("i1", Scheme((1, 2)), LinearIneqBody((1, 1), 1))
        i2 = Constraint("i2", Scheme((1, 2)), LinearIneqBody((1, -1), 0))
        cut = cutting_plane([i1, i2], [Fraction(1, 2), Fraction(1, 2)])
        doms = (IntDomain(-2, 3), IntDomain(-2, 3))
        assert equivalent(CSP(doms, (i1, i2)), CSP(doms, (i1, i2, cut)))

    def test_reducer_appends_and_discards_trivial(self):
        i1 = Constraint("i1", Scheme((1, 2)), LinearIneqBody((1, 1), 1))
        i2 = Constraint("i2", Scheme((1, 2)), LinearIneqBody((1, -1), 0))
        csp = CSP((IntDomain(-2, 3), IntDomain(-2, 3)), (i1, i2))
        space = ConstraintSpace(csp, (IneqComponent("g", (i1, i2)),))
        f = make_cut_reducer(space, "g", [Fraction(1, 2), Fraction(1, 2)])
        state, changed = apply_step(f, space.bottom())
        assert changed == (1,)
        assert len(state.component(1).items) == 3
        trivial = make_cut_reducer(space, "g", [0, 0])
        _, changed = apply_step(trivial, state)
        assert changed == ()
        rebuilt = space.rebuild(state)
        assert [c.cid for c in rebuilt.constraints] == ["i1", "i2", "g/cut1"]
        assert equivalent(csp, rebuilt)


class TestConstraintSpaceRebuild:
    def test_constraint_order(self):
        # reduced base constraints keep their base places and pass-through
        # ones stay put; synthetic constraints that still say something and
        # derived cuts follow in component order
        d = IntDomain(0, 2)
        a = ext("a", (1, 2), {(0, 0), (1, 1), (2, 2)})
        i1 = Constraint("i1", Scheme((1, 2)), LinearIneqBody((1, 1), 1))
        q = Constraint("q", Scheme((1, 2)), LinearEqBody((1, -1), 0))
        i2 = Constraint("i2", Scheme((1, 2)), LinearIneqBody((1, -1), 0))
        b = ext("b", (2,), {(0,), (1,)})
        csp = CSP((d, d), (a, i1, q, i2, b))
        space = ConstraintSpace(csp, (
            ExtComponent(a),
            ExtComponent(universal_constraint(csp, Scheme((1,)))),
            IneqComponent("g", (i1, i2)),
            ExtComponent(b),
            ExtComponent(universal_constraint(csp, Scheme((2, 1))))))
        cut = make_cut_reducer(space, "g", [Fraction(1, 2), Fraction(1, 2)])
        state, _ = apply_step(cut, space.bottom())
        state = state.replace({2: state.component(2).with_elements({(0,), (1,)})})
        rebuilt = space.rebuild(state)
        assert [c.cid for c in rebuilt.constraints] == [
            "a", "i1", "q", "i2", "b", "u(1)", "g/cut1"]


class TestFoldBackToAProblem:
    def test_domain_state_with_an_emptied_interval(self):
        c = ext("c", (1, 2), {(0, 1), (2, 2)})
        csp = CSP((IntDomain(0, 2), IntDomain(0, 2)), (c,))
        start = domain_bottom(csp)
        state = start.replace({1: GridInterval.empty(start.component(1).grid)})
        rebuilt = csp_from_domain_state(csp, state)
        assert rebuilt.domains == (IntDomain(1, 0), IntDomain(0, 2))
        assert rebuilt.constraint("c").tuples == frozenset()


class TestNamedReducerRegistry:
    def test_domain_space_names(self):
        c = ext("b", (1, 2), {(3, 1), (8, 4), (5, 2)})
        h = Constraint("h", Scheme((1,)), ExtensionalBody(frozenset({(3,), (5,)})))
        e = Constraint("e", Scheme((1, 2)), LinearEqBody((3, -5), 4))
        csp = CSP((IntDomain(0, 9), IntDomain(1, 8)), (c, h, e))
        space, fns = build_named_reducers(csp, ["hull@h", "lineq@e", "piC@b"])
        assert isinstance(space, ConstraintSpace)
        assert [c.key for c in space.components] == ["~dom1", "~dom2"]
        assert [f.fid for f in fns] == ["hull@h", "lineq@e", "piC@b"]
        res = run(fns, space.bottom(), validate=False)
        rebuilt = space.rebuild(res.value)
        assert rebuilt.domains[0] == IntDomain(3, 3)
        assert rebuilt.domains[1] == IntDomain(1, 1)
        assert equivalent(csp, rebuilt)

    def test_support_projection_needs_set_domains(self):
        c = ext("b", (1, 2), {(0, 0)})
        csp = CSP((IntDomain(0, 9), IntDomain(1, 8)), (c,))
        with pytest.raises(ConfigError, match="set domains"):
            build_named_reducers(csp, ["pi1@b"])

    def test_constraint_space_names(self, chain_csp):
        space, fns = build_named_reducers(
            chain_csp, ["rel@1,3;c1,c2", "rho@c1,c2"])
        res = run(fns, space.bottom(), validate=False)
        rebuilt = space.rebuild(res.value)
        assert rebuilt.constraint("u(1,3)").tuples == frozenset({(0, 1)})
        assert equivalent(chain_csp, rebuilt)

    @pytest.mark.parametrize("names", [
        ["rho@c13,c32"], ["path@1,2,3"], ["rel@1,2;c13,c32"]])
    def test_empty_domain_empties_only_rho_members(self, names):
        # an empty domain leaves no solutions, so rho empties its members;
        # path and relational reduction compose what their members allow
        c12 = ext("c12", (1, 2), {(0, 0), (0, 1), (1, 1)})
        c13 = ext("c13", (1, 3), {(0, 1), (1, 1)})
        c32 = ext("c32", (3, 2), {(1, 1)})
        csp = CSP((D01, D01, D01, SetDomain(frozenset())), (c12, c13, c32))
        space, fns = build_named_reducers(csp, names)
        res = run(fns, space.bottom(), validate=False)
        rebuilt = space.rebuild(res.value)
        if names[0].startswith("rho"):
            expected = {"c12": c12.tuples, "c13": set(), "c32": set()}
        else:
            expected = {"c12": {(0, 1), (1, 1)}, "c13": c13.tuples, "c32": c32.tuples}
        assert {c.cid: c.tuples for c in rebuilt.constraints} == expected

    def test_path_names(self):
        space = path_space()
        space, fns = build_named_reducers(space.csp, ["path@1,2,3"])
        res = run(fns, space.bottom(), validate=False)
        rebuilt = space.rebuild(res.value)
        assert rebuilt.constraint("c12").tuples == frozenset({(0, 1)})

    def test_named_path_triples_share_one_apply(self, chain_csp):
        # one make_path_reducers call builds every path@ of a list, as it
        # builds the path goal's, whatever names come between them
        space, fns = build_named_reducers(
            chain_csp, ["path@1,2,3", "rho@c1,c2", "path@3,1,2", "pi1@c1", "path@2,3,1"])
        assert [f.fid for f in fns] == [
            "path@1,2,3", "rho@c1,c2", "path@3,1,2", "pi1@c1", "path@2,3,1"]
        paths = fns[::2]
        assert len({id(f.apply) for f in paths}) == 1
        for f in paths:
            k, l, m = map(int, f.fid.removeprefix("path@").split(","))
            at = {comp.scheme: p for p, comp in enumerate(space.components, start=1)
                  if isinstance(comp, ExtComponent)}
            assert f.scheme == (at[k, l], at[k, m], at[m, l])

    def test_universals_follow_the_constraints_in_scheme_order(self, chain_csp):
        # named last to first, by length, then indices
        space, fns = build_named_reducers(
            chain_csp, ["rel@3,2,1;c1,c2", "path@3,2,1", "path@2,1,3"])
        assert [c.key for c in space.components] == [
            "c1", "c2", "u(2,1)", "u(3,1)", "u(3,2)", "u(3,2,1)"]
        _, comps = reducers.constraint_components(
            chain_csp, [(3, 2, 1), (3, 1), (1, 2), (2, 1, 3), (2, 1), (3, 1)])
        assert [c.scheme for c in comps] == [(1, 2), (2, 3), (2, 1), (3, 1),
                                             (2, 1, 3), (3, 2, 1)]

    def test_cut_names(self):
        i1 = Constraint("i1", Scheme((1, 2)), LinearIneqBody((1, 1), 1))
        i2 = Constraint("i2", Scheme((1, 2)), LinearIneqBody((1, -1), 0))
        csp = CSP((IntDomain(-2, 3), IntDomain(-2, 3)), (i1, i2))
        space, fns = build_named_reducers(csp, ["cut@i1,i2;1/2,1/2"])
        res = run(fns, space.bottom(), validate=False)
        rebuilt = space.rebuild(res.value)
        cids = [c.cid for c in rebuilt.constraints]
        assert cids == ["i1", "i2", "cutset(i1,i2)/cut1"]
        assert equivalent(csp, rebuilt)

    def test_unknown_kind_rejected(self, chain_csp):
        with pytest.raises(ConfigError):
            build_named_reducers(chain_csp, ["zap@c1"])

    def test_a_constraint_joins_one_cut_group(self):
        i = [Constraint(f"i{k}", Scheme((1,)), LinearIneqBody((1,), k)) for k in (1, 2, 3)]
        csp = CSP((IntDomain(0, 3),), tuple(i))
        with pytest.raises(ConfigError, match="constraint 'i2' appears in two cut groups"):
            build_named_reducers(csp, ["cut@i1,i2;1,1", "cut@i2,i3;1,1"])

    def test_a_shared_scheme_is_merged_first(self, chain_csp):
        # the builders merge the constraints on one scheme; a space built by
        # hand may keep both, and a reducer found by scheme refuses them
        c1, c2 = chain_csp.constraints
        b = ext("b", (1, 2), {(0, 0)})
        csp = CSP(chain_csp.domains, (c1, b, c2))
        space = ConstraintSpace(csp, [ExtComponent(c) for c in (
            c1, b, c2, universal_constraint(csp, Scheme((1, 3))))])
        for build in (lambda: make_relational_reducer(space, Scheme((1, 2)), ["c2"]),
                      lambda: make_path_reducers(space, [(1, 2, 3)])):
            with pytest.raises(ConfigError, match=(
                    r"several constraints share scheme \(1, 2\); normalize first")):
                build()


class TestOneSpace:
    """Domain and constraint reducers in one list act on one space: the
    variables first, then the constraints."""

    @staticmethod
    def run_all_modes(csp, names):
        """The problem each mode's run rebuilds, once checked that the run
        ends at a common fixpoint of the list and keeps the solution set."""
        space, fns = build_named_reducers(csp, names)
        out = []
        for mode in MODES:
            res = run(fns, space.bottom(), mode=mode, validate=False)
            assert res.converged, mode
            for f in fns:
                assert apply_step(f, res.value)[1] == (), (mode, f.fid)
            rebuilt = space.rebuild(res.value)
            assert solutions(rebuilt) == solutions(csp), mode
            out.append(rebuilt)
        assert all(r == out[0] for r in out)
        return out

    def test_lineq_mixes_with_rho(self):
        # an int range stays an interval next to a constraint reducer
        e = Constraint("e", Scheme((1, 2)), LinearEqBody((3, -5), 4))
        b = ext("b", (1, 2), {(3, 1), (5, 2), (8, 4)})
        csp = CSP((IntDomain(0, 9), IntDomain(1, 8)), (e, b))
        for rebuilt in self.run_all_modes(csp, ["lineq@e", "rho@b"]):
            assert rebuilt.domains == (IntDomain(3, 8), IntDomain(1, 4))
            assert rebuilt.constraint("b").tuples == b.tuples

    def test_hull_mixes_with_rel(self):
        rng = random.Random(71)
        d = IntDomain(0, 3)
        for _ in range(30):
            h = random_binary_constraint(rng, range(4), range(4), "h", (1, 2))
            c = random_binary_constraint(rng, range(4), range(4), "c", (2, 3))
            self.run_all_modes(CSP((d, d, d), (h, c)), ["hull@h", "rel@1,3;h,c", "hull@c"])

    def test_projections_mix_with_path(self):
        rng = random.Random(73)
        for _ in range(30):
            cs = tuple(random_binary_constraint(rng, {0, 1, 2}, {0, 1, 2}, cid, scheme)
                       for cid, scheme in [("c12", (1, 2)), ("c13", (1, 3)), ("c32", (3, 2))])
            self.run_all_modes(CSP((D012, D012, D012), cs),
                               ["pi1@c12", "pi2@c32", "path@1,2,3"])

    def test_domain_reducer_keeps_its_id(self, chain_csp):
        space, fns = build_named_reducers(chain_csp, ["pi1@c1", "rho@c1,c2", "piC@c2"])
        assert [f.fid for f in fns] == ["pi1@c1", "rho@c1,c2", "piC@c2"]
        assert [c.key for c in space.components] == [
            "~dom1", "~dom2", "~dom3", "c1", "c2"]
        assert [f.scheme for f in fns] == [(1, 2), (4, 5), (2, 3)]

    @pytest.mark.parametrize("names, keys", [
        (["rho@c2,~dom2"], ["~dom1", "~dom2", "~dom3", "c1", "c2"]),
        (["rel@2,3;c2,~dom2"], ["~dom1", "~dom2", "~dom3", "c1", "c2"]),
        (["rho@c1,c2"], ["c1", "c2"]),
        (["rel@1,3;c1,c2"], ["c1", "c2", "u(1,3)"])])
    def test_domain_join_member_puts_the_variables_first(self, chain_csp, names, keys):
        # naming ~domN is enough; a list that names none has no variables
        space, fns = build_named_reducers(chain_csp, names)
        assert [c.key for c in space.components] == keys

    def test_unknown_constraint_id(self, chain_csp):
        for names in (["pi1@nope"], ["cut@nope;1"]):
            with pytest.raises(ConfigError, match="no constraint with id 'nope'"):
                build_named_reducers(chain_csp, names)

    def test_variable_out_of_place_rejected(self, chain_csp):
        c1 = chain_csp.constraint("c1")
        for comps in [(DomainComponent(2),), (ExtComponent(c1), DomainComponent(1)),
                      tuple(map(DomainComponent, (1, 2, 3, 4)))]:
            with pytest.raises(ConfigError, match="the variables take positions 1..3"):
                ConstraintSpace(chain_csp, comps)


def mixed_space(csp):
    """The variables, then one component per constraint: the space of a
    reducer list that mixes domain and constraint reducers."""
    return ConstraintSpace(csp, tuple(DomainComponent(i) for i in range(1, csp.arity + 1))
                           + tuple(ExtComponent(c) for c in csp.constraints))


class TestEmbedding:
    # a domain reducer acts on the variables of a mixed space as it is
    def test_embedded_projection_matches_domain_run(self, chain_csp):
        pi1 = make_binary_projections(chain_csp.constraint("c1"))[0]
        space = mixed_space(chain_csp)
        state, _ = apply_step(pi1, space.bottom())
        direct, _ = apply_step(pi1, domain_bottom(chain_csp))
        assert state.components[:3] == direct.components
        # the constraint components are left as they were
        assert state.components[3:] == space.bottom().components[3:]

    def test_embedded_identity(self, chain_csp):
        ident = ReductionFunction("id", Scheme((1,)), lambda args: args)
        _, changed = apply_step(ident, mixed_space(chain_csp).bottom())
        assert changed == ()

    def test_hybrid_run_is_strategy_independent(self, chain_csp):
        space, fns = build_named_reducers(
            chain_csp, ["rho@c1,c2", "pi1@c1", "pi2@c1", "piC@c2"])
        values = set()
        for mode in ("ci", "cii", "ciq", "ciiq"):
            for name, seed in [("det", 0), ("seeded", 3), ("lifo", 0), ("block", 0)]:
                res = run(fns, space.bottom(), mode=mode,
                          strategy=make_strategy(name, seed), validate=False)
                assert res.converged
                values.add(res.value)
        assert len(values) == 1
        rebuilt = space.rebuild(values.pop())
        assert equivalent(chain_csp, rebuilt)


# ---------------------------------------------------------------------------
# Cross-cutting laws


def random_box(csp, rng):
    comps = []
    for i in range(1, csp.arity + 1):
        base = frozenset(csp.domain_members(i))
        comps.append(pv(base, {a for a in base if rng.random() < 0.7}))
    return ProductValue(tuple(comps))


def domain_reducer_zoo(rng):
    """(csp, reducer) pairs covering every domain-reducer kind."""
    out = []
    c = random_binary_constraint(rng, {0, 1, 2}, {0, 1, 2}, "b")
    csp = CSP((D012, D012), (c,))
    pi1, pi2 = make_binary_projections(c)
    out += [(csp, pi1), (csp, pi2), (csp, make_full_projection(c))]
    tern = random_set_csp(rng, max_vars=3, min_vars=3, max_atoms=3, max_constraints=1)
    out.append((tern, make_full_projection(tern.constraints[0])))
    coeffs = (rng.choice((1, 2, 3)), -rng.choice((1, 2, 3)))
    eq = Constraint("e", Scheme((1, 2)), LinearEqBody(coeffs, rng.randint(-4, 4)))
    eq_csp = CSP((IntDomain(0, 6), IntDomain(0, 6)), (eq,))
    out.append((eq_csp, make_linear_eq_narrowing(eq)))
    pts = {(x, y) for x in range(7) for y in range(7) if rng.random() < 0.4}
    hc = Constraint("h", Scheme((1, 2)), ExtensionalBody(frozenset(pts)))
    hull_csp = CSP((IntDomain(0, 6), IntDomain(0, 6)), (hc,))
    out.append((hull_csp, make_interval_hull_projection(hc)))
    return out


def random_interval_box(csp, rng):
    comps = []
    for d in csp.domains:
        grid = IntGrid(d.lo, d.hi)
        if rng.random() < 0.1:
            comps.append(GridInterval.empty(grid))
        else:
            a, b = sorted((rng.randint(d.lo, d.hi), rng.randint(d.lo, d.hi)))
            comps.append(GridInterval(grid, a, b))
    return ProductValue(tuple(comps))


def box_for(csp, rng):
    if all(isinstance(d, SetDomain) for d in csp.domains):
        return random_box(csp, rng)
    return random_interval_box(csp, rng)


def members_of(value):
    if isinstance(value, PowersetValue):
        return set(value.elements)
    return set(value.members())


def exact_projections(csp, constraint, box):
    """The per-coordinate projections of (constraint tuples) & box."""
    comps = [box.component(i) for i in constraint.scheme]
    if constraint.is_extensional:
        live = [t for t in constraint.tuples
                if all(x in members_of(v) for v, x in zip(comps, t))]
    else:
        live = [t for t in itertools.product(*(sorted(members_of(v)) for v in comps))
                if constraint.satisfied_by(t)]
    return [{t[k] for t in live} for k in range(len(constraint.scheme))]


class TestDomainReducerLaws:
    def test_solution_preservation(self):
        rng = random.Random(41)
        for _ in range(20):
            for csp, f in domain_reducer_zoo(rng):
                box = box_for(csp, rng)
                after, _ = apply_step(f, box)
                assert equivalent(csp_from_domain_state(csp, box),
                                  csp_from_domain_state(csp, after))

    def test_projection_bounds(self):
        # optimal projection <= reducer output <= input, componentwise
        rng = random.Random(43)
        for _ in range(25):
            for csp, f in domain_reducer_zoo(rng):
                box = box_for(csp, rng)
                after, _ = apply_step(f, box)
                c = csp.constraints[0]
                exact = exact_projections(csp, c, box)
                for k, i in enumerate(c.scheme):
                    assert leq(box.component(i), after.component(i))
                    assert exact[k] <= members_of(after.component(i))

    def test_identity_exactly_when_unchanged(self):
        # ReductionFunction's contract: an unchanged coordinate comes back as
        # the argument object itself, a changed one as a new object
        rng = random.Random(67)
        unchanged = set()
        for _ in range(40):
            for csp, f in domain_reducer_zoo(rng):
                args = tuple(box_for(csp, rng).component(i) for i in f.scheme)
                for old, new in zip(args, f.apply(args)):
                    assert (new is old) == (new == old), f.fid
                    if new is old:
                        unchanged.add(f.fid.split("@")[0])
        assert unchanged == {"pi1", "pi2", "piC", "hull", "lineq"}


def constraint_reducer_zoo(rng):
    """(space, reducer) pairs covering the constraint-reducer kinds."""
    out = []
    space = path_space()
    out.append((space, make_path_reducers(space, [(1, 2, 3)])[0]))
    c_kl = random_binary_constraint(rng, {0, 1}, {0, 1}, "ckl", (1, 2))
    c_km = random_binary_constraint(rng, {0, 1}, {0, 1}, "ckm", (1, 3))
    c_ml = random_binary_constraint(rng, {0, 1}, {0, 1}, "cml", (3, 2))
    csp = CSP((D01, D01, D01), (c_kl, c_km, c_ml))
    sp = ConstraintSpace(csp, tuple(ExtComponent(c) for c in csp.constraints))
    out.append((sp, make_path_reducers(sp, [(1, 2, 3)])[0]))
    out.append((sp, make_solution_projection(sp, ["ckl", "cml"])))
    out.append((sp, make_relational_reducer(sp, Scheme((1, 2)), ["ckm", "cml"])))
    # a relational-goal reducer whose targets strictly include its members
    rel_space, rel = consistency._relational_setup(csp, 2)
    out.append((rel_space, rng.choice([f for f in rel if f.reads])))
    # a domain reducer on the variables of a mixed space
    mixed = mixed_space(csp)
    out.append((mixed, rng.choice(make_binary_projections(c_kl))))
    # both shapes joining a variable: a several-target rho with a variable
    # target, and a one-target rel@ with a variable member
    out.append((mixed, make_solution_projection(mixed, ["ckl", "~dom1"])))
    out.append((mixed, make_relational_reducer(mixed, Scheme((1, 2)), ["ckm", "~dom2"])))
    return out


def random_constraint_state(space, rng):
    comps = []
    for comp, bottom in zip(space.components, space.bottom().components):
        comps.append(bottom.with_elements(
            t for t in bottom.elements if rng.random() < 0.75))
    return ProductValue(tuple(comps))


def strongest_outputs(space, g, state):
    """What the strongest reducer over the components ``g`` acts on leaves
    of them: the projections of their joint solutions, and for a domain
    reducer those of its variables and the constraint it is built from."""
    keys = [space.components[p - 1].key for p in g.scheme]
    if all(isinstance(space.components[p - 1], DomainComponent) for p in g.scheme):
        keys.append(g.group)
    rho = make_solution_projection(space, keys)
    return rho.apply(tuple(state.component(space.position(k)) for k in keys))[:len(g.scheme)]


class TestConstraintReducerLaws:
    def test_solution_preservation(self):
        rng = random.Random(47)
        for _ in range(20):
            for space, g in constraint_reducer_zoo(rng):
                state = random_constraint_state(space, rng)
                after, _ = apply_step(g, state)
                assert equivalent(space.rebuild(state), space.rebuild(after))

    def test_solution_projection_bounds(self):
        # strongest reducer <= any reducer <= identity, componentwise
        rng = random.Random(53)
        for _ in range(25):
            for space, g in constraint_reducer_zoo(rng):
                state = random_constraint_state(space, rng)
                after, _ = apply_step(g, state)
                strongest = strongest_outputs(space, g, state)
                for k, p in enumerate(g.scheme):
                    assert leq(state.component(p), after.component(p))
                    assert strongest[k].elements <= after.component(p).elements


class TestDeclaredReads:
    def test_shrinking_an_unread_component_keeps_the_function_stable(self):
        # x := x & h(y) is stable once x <= h(y); any x' <= x still is.  The
        # functions declaring reads are idempotent: one application is stable.
        rng = random.Random(61)
        shrunk_any = 0
        for _ in range(30):
            cases = [(f, box_for(csp, rng)) for csp, f in domain_reducer_zoo(rng)]
            cases += [(g, random_constraint_state(space, rng))
                      for space, g in constraint_reducer_zoo(rng)]
            for f, state in cases:
                if f.reads is None:
                    continue
                stable, _ = apply_step(f, state)
                unread = [i for i in f.scheme if i not in f.reads]
                shrunk = stable.replace({i: stable.component(i).with_elements(
                    a for a in stable.component(i).elements if rng.random() < 0.5)
                    for i in unread})
                assert apply_step(f, shrunk)[1] == (), f.fid
                shrunk_any += shrunk != stable
        assert shrunk_any > 0

    def test_declared_reads(self):
        pi1, pi2 = make_binary_projections(ext("c", (2, 1), {(0, 0)}))
        assert (pi1.reads, pi2.reads) == ((1,), (2,))
        space = path_space()
        f = make_path_reducers(space, [(1, 2, 3)])[0]
        assert f.reads == f.scheme[1:]
        assert make_solution_projection(space, ["c13", "c32"]).reads is None


class TestIdempotenceFlags:
    def test_declared_idempotent_reducers_verified(self):
        rng = random.Random(59)
        for _ in range(25):
            for csp, f in domain_reducer_zoo(rng):
                if not f.idempotent:
                    continue
                box = box_for(csp, rng)
                once, _ = apply_step(f, box)
                twice, changed = apply_step(f, once)
                assert changed == ()
            for space, g in constraint_reducer_zoo(rng):
                assert g.idempotent
                state = random_constraint_state(space, rng)
                once, _ = apply_step(g, state)
                twice, changed = apply_step(g, once)
                assert changed == ()

    def test_narrowing_flagged_and_witnessed_non_idempotent(self):
        c = Constraint("e", Scheme((1, 2)), LinearEqBody((3, -5), 4))
        f = make_linear_eq_narrowing(c)
        assert not f.idempotent
        first = linear_eq_narrow(c.body, [(0, 9), (1, 8)])
        second = linear_eq_narrow(c.body, first)
        assert first != second

    def test_cut_reducer_flagged_non_idempotent(self):
        i1 = Constraint("i1", Scheme((1,)), LinearIneqBody((2,), 1))
        csp = CSP((IntDomain(-2, 3),), (i1,))
        space = ConstraintSpace(csp, (IneqComponent("g", (i1,)),))
        assert not make_cut_reducer(space, "g", [Fraction(1, 2)]).idempotent


def zoo_lists(rng):
    """(reducers, start) per problem or space of the two zoos: the zoo
    reducers built on one of them run together, from a random state."""
    groups = []
    for where, f in domain_reducer_zoo(rng) + constraint_reducer_zoo(rng):
        if groups and groups[-1][0] is where:
            groups[-1][1].append(f)
        else:
            groups.append((where, [f]))
    for where, fns in groups:
        if isinstance(where, ConstraintSpace):
            start = random_constraint_state(where, rng)
        else:
            start = box_for(where, rng)
        yield fns, start


class TestObservedRuns:
    """An observer sees every application once and changes nothing: the
    same value, outcome and application count come back without it."""

    @staticmethod
    def check(fns, start):
        """The outcomes of the runs, each made with and without an observer:
        every mode and strategy, with and without early exit, capped at 3
        steps and at the default cap."""
        outcomes = set()
        for mode, name, early_exit, step_cap in itertools.product(
                MODES, STRATEGIES, (False, True), (3, DEFAULT_STEP_CAP)):
            kw = dict(mode=mode, step_cap=step_cap, early_exit=early_exit,
                      validate=False)
            steps = []
            seen = run(fns, start, strategy=make_strategy(name, 3),
                       observer=steps.append, **kw)
            plain = run(fns, start, strategy=make_strategy(name, 3), **kw)
            where = (mode, name, early_exit, step_cap, [f.fid for f in fns])
            assert seen.value == plain.value, where
            assert seen.trace.outcome is plain.trace.outcome, where
            assert seen.trace.total_applications == plain.trace.total_applications, where
            assert len(steps) == plain.trace.total_applications, where
            assert all(isinstance(s, TraceStep) for s in steps), where
            outcomes.add(plain.trace.outcome)
        return outcomes

    def test_conftest_fixtures(self, counter_fixture, eq_ne_csp, chain_csp):
        outcomes = self.check(*counter_fixture)
        for csp in (eq_ne_csp, chain_csp):
            start = domain_bottom(csp)
            outcomes |= self.check(
                [f for c in csp.constraints for f in make_binary_projections(c)], start)
            outcomes |= self.check(
                [make_full_projection(c) for c in csp.constraints], start)
        assert outcomes == {Outcome.CONVERGED, Outcome.STEP_LIMIT}

    def test_reducer_zoo(self):
        rng = random.Random(73)
        outcomes = set()
        for _ in range(5):
            for fns, start in zoo_lists(rng):
                outcomes |= self.check(fns, start)
        assert outcomes == set(Outcome)
