"""Consistency predicates and the achieve drivers."""

import itertools
import math
import random
import re

import pytest

from conftest import (
    brute_force_relationally_consistent, random_set_csp,
    union_of_arc_consistent_boxes,
)
from propeng import consistency
from propeng.consistency import (
    ConsistencyGoal, achieve, is_arc_consistent,
    is_relationally_m_consistent, parse_goal,
)
from propeng.csp import (
    CSP, Constraint, ExtensionalBody, LinearEqBody, Scheme,
    SetDomain, equivalent, solutions,
)
from propeng.engine import (
    MODES, STRATEGIES, Outcome, apply_step, extend, make_strategy, run,
)
from propeng.errors import ConfigError, ResourceLimitError
from propeng.lattice import leq
from propeng.reducers import build_reducers, join_projection

D01 = SetDomain(frozenset({0, 1}))


def ext(cid, scheme, tuples):
    return Constraint(cid, Scheme(scheme), ExtensionalBody(frozenset(tuples)))


def one_per_scheme(csp):
    """``csp`` with only the first constraint on each ordered scheme (the
    relational predicate and goal count those sharing one as one)."""
    first = {}
    for c in csp.constraints:
        first.setdefault(c.scheme, c)
    return CSP(csp.domains, tuple(first.values()))


# two real constraints on {1,2}, in opposite orientations
OPPOSITE = CSP(
    (D01, D01, D01),
    (ext("a", (1, 2), {(0, 0), (0, 1), (1, 1)}),
     ext("b", (2, 1), {(0, 0), (1, 0), (1, 1)}),
     ext("c", (3, 2), {(0, 1), (1, 0)})))


def relational_problems(seed, count):
    """``OPPOSITE``, then random problems over 2-4 variables with constraints
    in random orientations; every other one also constrains the variables of
    a multi-variable constraint in the opposite orientation."""
    yield OPPOSITE
    rng = random.Random(seed)
    for k in range(count):
        csp = one_per_scheme(random_set_csp(rng, max_constraints=3))
        multi = [c.scheme for c in csp.constraints if len(c.scheme) > 1]
        if k % 2 and multi:
            flipped = rng.choice(multi)[::-1]
            if flipped not in {c.scheme for c in csp.constraints}:
                product = itertools.product(*(csp.domain_members(i) for i in flipped))
                flip = ext("t", flipped, {t for t in product if rng.random() < 0.7})
                csp = CSP(csp.domains, csp.constraints + (flip,))
        yield csp


class TestGoalParsing:
    def test_known_goals(self):
        assert parse_goal("arc") == ConsistencyGoal("arc")
        assert parse_goal("path") == ConsistencyGoal("path")
        assert parse_goal("dir-arc:2,1") == ConsistencyGoal("dir-arc", order=(2, 1))
        assert parse_goal("dir-path:1,2,3") == ConsistencyGoal("dir-path", order=(1, 2, 3))
        assert parse_goal("rel:2") == ConsistencyGoal("rel", m=2)

    def test_unknown_goal(self):
        with pytest.raises(ConfigError):
            parse_goal("nonsense")


class TestIsArcConsistent:
    def test_equality_inequality_pair(self, eq_ne_csp):
        assert is_arc_consistent(eq_ne_csp)
        assert solutions(eq_ne_csp) == frozenset()

    def test_no_constraints(self):
        assert is_arc_consistent(CSP((D01, D01), ()))

    def test_unsupported_value(self):
        csp = CSP((SetDomain(frozenset({1, 2})), SetDomain(frozenset({1}))),
                  (ext("c", (1, 2), {(1, 1)}),))
        assert not is_arc_consistent(csp)

    def test_linear_body_rejected(self):
        csp = CSP((SetDomain(frozenset({0, 1})),),
                  (Constraint("e", Scheme((1,)), LinearEqBody((1,), 1)),))
        with pytest.raises(ConfigError):
            is_arc_consistent(csp)


class TestRelationalConsistencyCheck:
    def test_projected_instance_with_tight_domains(self):
        csp = CSP((SetDomain(frozenset({0})), SetDomain(frozenset({0})),
                   SetDomain(frozenset({1}))),
                  (ext("c1", (1, 2), {(0, 0)}), ext("c2", (2, 3), {(0, 1)})))
        assert is_relationally_m_consistent(csp, 1)

    def test_unextendable_pair_witness(self, chain_csp):
        # (1,1) satisfies the first constraint but does not extend to a
        # joint solution of the two
        assert not is_relationally_m_consistent(chain_csp, 2)

    def test_empty_constraint_breaks_consistency(self):
        csp = CSP((D01, D01), (ext("c", (1, 2), set()),))
        assert not is_relationally_m_consistent(csp, 1)

    def test_m_larger_than_constraint_count(self, chain_csp):
        assert is_relationally_m_consistent(chain_csp, 5)

    @pytest.mark.parametrize("r_scheme", [(1, 2), (2, 1)])
    def test_orientation_does_not_matter(self, r_scheme):
        # every constraint says "equal", so R reads the same either way round
        same = {(0, 0), (1, 1)}
        csp = CSP((D01, D01, D01),
                  (ext("C", (1, 2, 3), {(0, 0, 0), (1, 1, 1)}),
                   ext("S", (1, 3), same), ext("T", (2, 3), same),
                   ext("R", r_scheme, same)))
        assert is_relationally_m_consistent(csp, 1)

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(97)
        verdicts = []
        for _ in range(25):
            csp = one_per_scheme(random_set_csp(rng, max_vars=3, max_constraints=4))
            for m in (1, 2):
                # the goal's output is consistent, the input seldom
                out, _ = achieve(csp, ConsistencyGoal("rel", m=m))
                for p in (csp, out):
                    want = brute_force_relationally_consistent(p, m)
                    assert is_relationally_m_consistent(p, m) == want
                    verdicts.append(want)
        assert True in verdicts and False in verdicts


class TestAchieveArc:
    def test_already_consistent_left_unchanged(self, eq_ne_csp):
        out, trace = achieve(eq_ne_csp, ConsistencyGoal("arc"))
        assert out == eq_ne_csp
        assert trace.outcome is Outcome.CONVERGED

    def test_worked_reduction(self):
        csp = CSP((SetDomain(frozenset({1, 2, 3})), SetDomain(frozenset({1, 2}))),
                  (ext("c", (1, 2), {(1, 1), (2, 2)}),))
        out, _ = achieve(csp, ConsistencyGoal("arc"))
        assert out.domains[0].values == frozenset({1, 2})
        assert out.domains[1].values == frozenset({1, 2})

    def test_result_is_arc_consistent_and_equivalent(self):
        rng = random.Random(61)
        for _ in range(30):
            csp = random_set_csp(rng)
            out, _ = achieve(csp, ConsistencyGoal("arc"))
            assert is_arc_consistent(out)
            assert equivalent(csp, out)

    def test_greatest_arc_consistent_domains(self):
        rng = random.Random(67)
        for _ in range(15):
            csp = random_set_csp(rng, max_vars=3, max_atoms=3, max_constraints=3)
            out, _ = achieve(csp, ConsistencyGoal("arc"))
            union = union_of_arc_consistent_boxes(csp)
            assert [d.values for d in out.domains] == union

    def test_mode_independence(self):
        rng = random.Random(71)
        for _ in range(10):
            csp = random_set_csp(rng)
            outs = {achieve(csp, ConsistencyGoal("arc"), mode=mode)[0]
                    for mode in MODES}
            assert len(outs) == 1

    def test_linear_bodies_rejected(self):
        csp = CSP((SetDomain(frozenset({0, 1})),),
                  (Constraint("e", Scheme((1,)), LinearEqBody((1,), 1)),))
        with pytest.raises(ConfigError):
            achieve(csp, ConsistencyGoal("arc"))


class TestAchieveRelational:
    def test_chain_reduced_at_m2(self, chain_csp):
        out, trace = achieve(chain_csp, ConsistencyGoal("rel", m=2))
        assert trace.outcome is Outcome.CONVERGED
        assert out.constraint("c1").tuples == frozenset({(0, 0)})
        assert out.constraint("c2").tuples == frozenset({(0, 1)})
        assert equivalent(chain_csp, out)
        assert is_relationally_m_consistent(out, 2)

    def test_m1_touches_only_unary_projections(self, chain_csp):
        out, _ = achieve(chain_csp, ConsistencyGoal("rel", m=1))
        assert out.constraint("c1").tuples == chain_csp.constraint("c1").tuples
        assert out.constraint("c2").tuples == chain_csp.constraint("c2").tuples
        assert out.constraint("u(2)").tuples == frozenset({(0,)})
        assert out.constraint("u(3)").tuples == frozenset({(1,)})
        assert equivalent(chain_csp, out)

    def test_second_run_is_a_fixpoint(self, chain_csp):
        out, _ = achieve(chain_csp, ConsistencyGoal("rel", m=2))
        steps2 = []
        achieve(out, ConsistencyGoal("rel", m=2), observer=steps2.append)
        assert all(not s.changed for s in steps2)

    @pytest.mark.parametrize("m", [1, 2])
    def test_output_is_equivalent_and_consistent(self, m):
        for csp in relational_problems(101, 16):
            out, trace = achieve(csp, ConsistencyGoal("rel", m=m))
            assert trace.outcome is Outcome.CONVERGED
            assert equivalent(csp, out)
            assert is_relationally_m_consistent(out, m)
            # input constraints keep their ids, schemes and places; the
            # synthetic ones that follow are in sorted orientation
            n = len(csp.constraints)
            assert ([(c.cid, c.scheme) for c in out.constraints[:n]]
                    == [(c.cid, c.scheme) for c in csp.constraints])
            assert all(list(c.scheme) == sorted(c.scheme) for c in out.constraints[n:])

    @pytest.mark.parametrize("m", [1, 2])
    def test_output_is_mode_independent_and_stable(self, m):
        goal = ConsistencyGoal("rel", m=m)
        for csp in relational_problems(103, 8):
            out, _ = achieve(csp, goal)
            assert all(achieve(csp, goal, mode=mode)[0] == out for mode in MODES)
            steps = []
            again, _ = achieve(out, goal, observer=steps.append)
            assert again == out
            assert all(not s.changed for s in steps)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_function_per_m_subset(self, m):
        for csp in relational_problems(107, 8):
            space, fns = consistency._relational_setup(csp, m)
            assert len(fns) == math.comb(len(space.components), m)

    def test_function_cap_checked_before_building(self, monkeypatch):
        # four variables, every variable set but {1,2} and {2,3,4} synthetic:
        # 15 components, C(15,2) = 105 functions at m = 2
        csp = CSP((D01,) * 4, (ext("c1", (1, 2), {(0, 0), (1, 1)}),
                               ext("c2", (4, 2, 3), {(0, 1, 0), (1, 0, 1)})))
        goal = ConsistencyGoal("rel", m=2)
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(consistency, "constraint_components",
                          lambda *args: built.append(args))
            patch.setattr(consistency, "DEFAULT_FN_CAP", 104)
            with pytest.raises(ResourceLimitError):
                achieve(csp, goal)
        assert built == []
        monkeypatch.setattr(consistency, "DEFAULT_FN_CAP", 105)
        _, trace = achieve(csp, goal)
        assert trace.outcome is Outcome.CONVERGED

    def test_same_scheme_constraints_merged(self):
        csp = CSP((D01, D01),
                  (ext("a", (1, 2), {(0, 0), (1, 1)}),
                   ext("b", (1, 2), {(0, 0), (0, 1)})))
        out, _ = achieve(csp, ConsistencyGoal("rel", m=1))
        merged = [c for c in out.constraints if c.scheme == (1, 2)]
        assert len(merged) == 1
        assert merged[0].tuples == frozenset({(0, 0)})

    def test_merged_ids_stay_distinct(self):
        # a&b with c, and a with b&c, both join to the name a&b&c
        csp = CSP((D01,) * 3,
                  (ext("a&b", (1, 2), {(0, 0), (1, 1)}), ext("c", (1, 2), {(0, 0)}),
                   ext("a", (2, 3), {(0, 0), (1, 1)}), ext("b&c", (2, 3), {(0, 0)})))
        out, _ = achieve(csp, ConsistencyGoal("rel", m=1))
        assert [c.cid for c in out.constraints[:2]] == ["a&b&c", "a&b&c'"]
        assert [c.scheme for c in out.constraints[:2]] == [(1, 2), (2, 3)]
        assert equivalent(csp, out)


# u(1,3) and x share (1,2) and merge into u(1,3)&x; the universal constraint
# on (1,3) must not take the merged-away id u(1,3)
MERGED_AWAY = CSP(
    (D01, D01, D01),
    (ext("u(1,3)", (1, 2), {(0, 0), (1, 0), (1, 1)}),
     ext("x", (1, 2), {(0, 0), (0, 1), (1, 1)}),
     ext("b", (2, 3), {(0, 0), (1, 1)})))


@pytest.mark.parametrize("goal", ["path", "rel:1", "rel:2"])
def test_a_universal_never_takes_a_merged_away_id(goal):
    steps = []
    out, _ = achieve(MERGED_AWAY, parse_goal(goal), observer=steps.append)
    assert equivalent(MERGED_AWAY, out)
    assert "u(1,3)" not in out.cids
    if "u(1,3)'" in out.cids:
        assert out.constraint("u(1,3)'").scheme == (1, 3)
    # a relational function's id names its members, commas escaped
    assert not any(re.search(r"[(,]u\(1\\,3\)[,)]", s.fid) for s in steps)


PATH_INSTANCE = CSP(
    (D01, D01, D01),
    (ext("c12", (1, 2), {(0, 0), (0, 1)}),
     ext("c13", (1, 3), {(0, 1)}),
     ext("c32", (3, 2), {(1, 1)})))


def raw_path_fixpoint(csp):
    """Independent oracle: iterate the composition rule with plain dict/set
    operations until nothing changes."""
    n = csp.arity
    rel = {}
    for i, j in itertools.permutations(range(1, n + 1), 2):
        rel[(i, j)] = set(itertools.product(csp.domain_members(i),
                                            csp.domain_members(j)))
    for c in csp.constraints:
        i, j = c.scheme
        rel[(i, j)] &= c.tuples
    changed = True
    while changed:
        changed = False
        for k, l, m in itertools.permutations(range(1, n + 1), 3):
            through = {(a, b) for a, x in rel[(k, m)] for y, b in rel[(m, l)] if x == y}
            new = rel[(k, l)] & through
            if new != rel[(k, l)]:
                rel[(k, l)] = new
                changed = True
    return rel


class TestAchievePath:
    def test_against_raw_iteration_oracle(self):
        out, trace = achieve(PATH_INSTANCE, ConsistencyGoal("path"))
        assert trace.outcome is Outcome.CONVERGED
        oracle = raw_path_fixpoint(PATH_INSTANCE)
        for c in out.constraints:
            assert c.tuples == frozenset(oracle[c.scheme])
        assert out.constraint("c12").tuples == frozenset({(0, 1)})
        assert equivalent(PATH_INSTANCE, out)

    def test_randomized_against_oracle(self):
        rng = random.Random(73)
        for _ in range(10):
            constraints = []
            for k, (i, j) in enumerate(itertools.permutations((1, 2, 3), 2)):
                if rng.random() < 0.7:
                    space = list(itertools.product((0, 1), (0, 1)))
                    tuples = frozenset(t for t in space if rng.random() < 0.7)
                    constraints.append(ext(f"c{k}", (i, j), tuples))
            csp = CSP((D01, D01, D01), tuple(constraints))
            out, _ = achieve(csp, ConsistencyGoal("path"))
            oracle = raw_path_fixpoint(csp)
            for c in out.constraints:
                assert c.tuples == frozenset(oracle[c.scheme])
            assert equivalent(csp, out)

    def test_non_binary_rejected(self, chain_csp):
        bad = CSP(chain_csp.domains,
                  chain_csp.constraints + (ext("u", (1,), {(0,)}),))
        with pytest.raises(ConfigError):
            achieve(bad, ConsistencyGoal("path"))


class TestDirectionalArc:
    CSP1 = CSP((SetDomain(frozenset({1, 2, 3})), SetDomain(frozenset({1, 2}))),
               (ext("c", (1, 2), {(1, 1), (2, 2)}),))

    def test_single_ordered_pass(self):
        out, trace = achieve(self.CSP1, ConsistencyGoal("dir-arc", order=(1, 2)))
        assert out.domains[0].values == frozenset({1, 2})
        assert out.domains[1].values == frozenset({1, 2})
        assert trace.total_applications == 1

    def test_pass_reaches_a_fixpoint_of_its_functions(self):
        rng = random.Random(79)
        for _ in range(20):
            n = rng.randint(2, 4)
            constraints = []
            cnum = 0
            for i, j in itertools.permutations(range(1, n + 1), 2):
                if rng.random() < 0.6:
                    cnum += 1
                    space = list(itertools.product((0, 1), (0, 1)))
                    constraints.append(ext(
                        f"c{cnum}", (i, j),
                        {t for t in space if rng.random() < 0.7}))
            csp = CSP((D01,) * n, tuple(constraints))
            order = tuple(rng.sample(range(1, n + 1), n))
            goal = ConsistencyGoal("dir-arc", order=order)
            rank = {v: r for r, v in enumerate(order)}
            out, _ = achieve(csp, goal)
            # a second pass finds nothing left to do
            steps2 = []
            achieve(out, goal, observer=steps2.append)
            assert all(not s.changed for s in steps2)
            assert equivalent(csp, out)
            # one pass: each constraint prunes its earlier variable once,
            # later variables first, in every mode
            later = {}
            for c in constraints:
                i, j = c.scheme
                fid = ("pi1@" if rank[i] < rank[j] else "pi2@") + c.cid
                later[fid] = max(rank[i], rank[j])
            for mode in MODES:
                steps = []
                out_m, _ = achieve(csp, goal, mode=mode, observer=steps.append)
                assert out_m == out, mode
                fids = [s.fid for s in steps]
                assert sorted(fids) == sorted(later), mode
                ranks = [later[f] for f in fids]
                assert ranks == sorted(ranks, reverse=True), mode

    def test_order_must_be_permutation(self):
        with pytest.raises(ConfigError):
            achieve(self.CSP1, ConsistencyGoal("dir-arc", order=(1, 1)))

    def test_constraint_against_the_order(self):
        # the same relation on (1,2) and on (2,1) prunes x1 alike
        for scheme, tuples in (((1, 2), {(1, 0)}), ((2, 1), {(0, 1)})):
            csp = CSP((D01, D01), (ext("c", scheme, tuples),))
            out, _ = achieve(csp, ConsistencyGoal("dir-arc", order=(1, 2)))
            assert out.domains[0].values == frozenset({1})
            assert out.domains[1].values == frozenset({0, 1})

    def test_random_orientations_are_directionally_arc_consistent(self):
        d012 = SetDomain(frozenset({0, 1, 2}))
        rng = random.Random(89)
        for _ in range(30):
            n = rng.randint(2, 4)
            constraints = []
            for i, j in itertools.permutations(range(1, n + 1), 2):
                if rng.random() < 0.4:
                    constraints.append(ext(
                        f"c{len(constraints)}", (i, j),
                        {t for t in itertools.product((0, 1, 2), repeat=2)
                         if rng.random() < 0.5}))
            csp = CSP((d012,) * n, tuple(constraints))
            order = tuple(rng.sample(range(1, n + 1), n))
            rank = {v: r for r, v in enumerate(order)}
            out, _ = achieve(csp, ConsistencyGoal("dir-arc", order=order))
            dom = {i: out.domains[i - 1].values for i in range(1, n + 1)}
            # every value of the earlier variable has a support in the later
            # variable's output domain
            for c in csp.constraints:
                earlier, later = sorted(c.scheme, key=rank.get)
                pairs = [dict(zip(c.scheme, t)) for t in c.tuples]
                for a in dom[earlier]:
                    assert any(p[earlier] == a and p[later] in dom[later]
                               for p in pairs)
            assert equivalent(csp, out)


class TestDirectionalPath:
    def test_single_pass_fixpoint_and_equivalence(self):
        rng = random.Random(83)
        for n in (3,) * 10 + (4,) * 10:
            variables = range(1, n + 1)
            constraints = []
            for k, (i, j) in enumerate(itertools.permutations(variables, 2)):
                if rng.random() < 0.7:
                    space = list(itertools.product((0, 1), (0, 1)))
                    constraints.append(ext(
                        f"c{k}", (i, j), {t for t in space if rng.random() < 0.75}))
            csp = CSP((D01,) * n, tuple(constraints))
            order = tuple(rng.sample(variables, n))
            goal = ConsistencyGoal("dir-path", order=order)
            rank = {v: r for r, v in enumerate(order)}
            out, _ = achieve(csp, goal)
            steps2 = []
            achieve(out, goal, observer=steps2.append)
            assert all(not s.changed for s in steps2)
            assert equivalent(csp, out)
            # one pass: path@k,l,m once for each m later than k and l, the
            # latest m first, in every mode
            later = {f"path@{k},{l},{m}": rank[m]
                     for k, l, m in itertools.permutations(variables, 3)
                     if rank[m] > max(rank[k], rank[l])}
            for mode in MODES:
                steps = []
                out_m, _ = achieve(csp, goal, mode=mode, observer=steps.append)
                assert out_m == out, mode
                fids = [s.fid for s in steps]
                assert sorted(fids) == sorted(later), mode
                ranks = [later[f] for f in fids]
                assert ranks == sorted(ranks, reverse=True), mode
                # and by fid within one third index
                assert fids == sorted(fids, key=lambda f: (-later[f], f)), mode


class TestDirectionalPass:
    """A directional goal is Apt's simple iteration.  Number its functions
    ``f_1 … f_k`` in application order, which is list order: each ``f_i``
    semi-commutes with every later ``f_j`` that shares a component with it,
    ``f_i(f_j(x)) ⊑ f_j(f_i(x))``, so one application of each, in order,
    from the bottom reaches their least common fixpoint.  The oracles here
    do not depend on that argument: they replay the pass themselves."""

    @staticmethod
    def goals():
        rng = random.Random(61)
        for n in (2, 3, 4, 5) * 3:
            csp = random_oriented_csp(rng, n)
            order = tuple(rng.sample(range(1, n + 1), n))
            for kind in ("dir-arc", "dir-path"):
                goal = ConsistencyGoal(kind, order=order)
                yield csp, goal, *build_reducers(csp, *consistency.goal_records(csp, goal))

    def test_one_application_per_function_in_every_mode(self):
        passes = 0
        for csp, goal, space, fns in self.goals():
            # the pass, one apply_step per function in list order
            state = space.bottom()
            for f in fns:
                state = apply_step(f, state)[0]
            assert all(apply_step(f, state)[1] == () for f in fns), goal
            assert state == run(fns, space.bottom(), validate=False).value
            for mode, name in itertools.product(MODES, STRATEGIES):
                steps = []
                out, trace = achieve(csp, goal, mode=mode, strategy=make_strategy(name, 3),
                                     observer=steps.append)
                assert trace.total_applications == len(fns), (goal, mode, name)
                assert [s.fid for s in steps] == [f.fid for f in fns], (goal, mode, name)
                assert out == space.rebuild(state), (goal, mode, name)
            passes += bool(fns)
        assert passes > 20

    def test_earlier_functions_semi_commute_with_later_ones(self):
        # on the pairs that share a component, at points drawn as the probes
        # draw them: each component by its own sample, seeded by its position
        checked = 0
        for csp, goal, space, fns in self.goals():
            bottom = space.bottom()
            lifted = [extend(f, len(bottom)) for f in fns]
            for (i, f), (j, g) in itertools.combinations(enumerate(fns), 2):
                if set(f.scheme).isdisjoint(g.scheme):
                    continue
                rngs = {p: random.Random(p) for p in {*f.scheme, *g.scheme}}
                for _ in range(4):
                    x = bottom.replace({p: bottom.component(p).sample(rng)
                                        for p, rng in rngs.items()})
                    assert leq(lifted[i](lifted[j](x)), lifted[j](lifted[i](x))), (
                        goal, f.fid, g.fid)
                    checked += 1
        assert checked > 1000


def random_oriented_csp(rng, n):
    """A binary problem over ``n`` variables with domains inside {0,1,2}:
    each pair constrained or not, in a random orientation, now and then in
    both, and now and then twice in one."""
    domains = tuple(SetDomain(frozenset(rng.sample((0, 1, 2), rng.randint(1, 3))))
                    for _ in range(n))
    constraints = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        r = rng.random()
        schemes = ([] if r < 0.2 else [(i, j), (j, i)] if r < 0.4
                   else [rng.choice([(i, j), (j, i)])] * (1 + (r > 0.9)))
        for s in schemes:
            pairs = itertools.product(*(sorted(domains[x - 1].values) for x in s))
            constraints.append(ext(f"c{len(constraints)}", s,
                                   {t for t in pairs if rng.random() < 0.6}))
    return CSP(domains, tuple(constraints))


class TestPathReducers:
    """Each reducer of the ``path`` and ``dir-path`` goals, built from the
    goal's records by ``build_reducers``, against the composition computed
    here on random sub-relations of its components."""

    def test_each_reducer_intersects_with_the_composition(self):
        rng = random.Random(29)
        checked = 0
        for n in (3, 4, 5, 6) * 6:
            csp = random_oriented_csp(rng, n)
            order = tuple(rng.sample(range(1, n + 1), n))
            for goal in (ConsistencyGoal("path"), ConsistencyGoal("dir-path", order=order)):
                space, fns = build_reducers(csp, *consistency.goal_records(csp, goal))
                start = space.bottom()
                at = {comp.scheme: p for p, comp in enumerate(space.components, start=1)}
                assert len({id(f.apply) for f in fns}) == 1
                for _ in range(2):
                    state = start.replace({
                        p: v.with_elements(x for x in v.elements if rng.random() < 0.7)
                        for p, v in enumerate(start.components, start=1)})
                    for f in fns:
                        k, l, m = map(int, f.fid.removeprefix("path@").split(","))
                        t, a, b = at[(k, l)], at[(k, m)], at[(m, l)]
                        built = join_projection(space, (t,), (a, b), f.fid,
                                                space.components[t - 1].key)
                        assert ((f.fid, f.scheme, f.group, f.reads, f.idempotent)
                                == (built.fid, built.scheme, built.group,
                                    built.reads, built.idempotent))
                        kl, km, ml = (state.component(p).elements for p in (t, a, b))
                        through = {(x, y) for x, c in km for c2, y in ml if c == c2}
                        out, changed = apply_step(f, state)
                        assert out.component(t).elements == kl & through, f.fid
                        assert set(changed) <= {t}
                        checked += 1
        assert checked > 3000


class TestEquivalencePreservation:
    def test_all_goals_preserve_solutions(self, chain_csp):
        goals = [ConsistencyGoal("arc"), ConsistencyGoal("rel", m=1),
                 ConsistencyGoal("rel", m=2),
                 ConsistencyGoal("dir-arc", order=(1, 2, 3))]
        for goal in goals:
            out, _ = achieve(chain_csp, goal)
            assert equivalent(chain_csp, out)


class TestObservedGoals:
    @pytest.mark.parametrize("goal", ["arc", "path", "rel:1", "dir-arc:3,1,2"])
    def test_achieve_passes_the_observer_through(self, goal, chain_csp, eq_ne_csp):
        # one observed step per application, and the same result unobserved
        goal = parse_goal(goal)
        observed = 0
        for csp in (chain_csp, eq_ne_csp):
            if goal.kind == "dir-arc" and csp.arity != 3:
                continue    # the order names three variables
            for mode, name in itertools.product(MODES, STRATEGIES):
                steps = []
                out, trace = achieve(csp, goal, mode=mode, observer=steps.append,
                                     strategy=make_strategy(name, 3))
                plain = achieve(csp, goal, mode=mode, strategy=make_strategy(name, 3))
                assert (out, trace) == plain, (mode, name)
                assert len(steps) == trace.total_applications, (mode, name)
                observed += len(steps)
        assert observed > 0
