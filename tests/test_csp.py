"""The problem model: scheme algebra, joins, projections, the solutions
oracle and equivalence."""

import collections
import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import brute_force_join, random_set_csp
from propeng.csp import (
    CSP, Constraint, ExtensionalBody, IntDomain, LinearEqBody, LinearIneqBody,
    Relation, Scheme, SetDomain, equivalent, join_constraints, reselect,
    scheme_union, solutions, tuple_restrict, validate, witness_plan,
)
from propeng.errors import ConfigError, DataError, ResourceLimitError


def ext(cid, scheme, tuples):
    return Constraint(cid, Scheme(scheme), ExtensionalBody(frozenset(tuples)))


def select(scheme, tuples, onto):
    """The coordinates of each tuple over ``scheme`` at the indices ``onto``,
    written out here so that it shares no code with ``reselect`` or the join
    plan."""
    return {tuple(t[scheme.index(i)] for i in onto) for t in tuples}


D01 = SetDomain(frozenset({0, 1}))


class TestExtensionalBody:
    def test_a_frozenset_of_tuples_is_kept(self):
        fs = frozenset({(0, 1), (1, 0)})
        assert ExtensionalBody(fs).tuples is fs

    @pytest.mark.parametrize("given", [
        [[0, 1], [1, 0]], {(0, 1), (1, 0)},
        frozenset({(0, 1), collections.namedtuple("Pair", "a b")(1, 0)})])
    def test_anything_else_is_normalised(self, given):
        tuples = ExtensionalBody(given).tuples
        assert tuples == frozenset({(0, 1), (1, 0)})
        assert type(tuples) is frozenset and {type(t) for t in tuples} == {tuple}


class TestSchemeUnion:
    def test_worked_example(self):
        got = scheme_union([Scheme((3, 7, 2)), Scheme((4, 3, 7, 5)), Scheme((3, 5, 8))])
        assert type(got) is Scheme and got == (3, 7, 2, 4, 5, 8)

    def test_single(self):
        assert scheme_union([Scheme((1, 2))]) == (1, 2)

    def test_later_duplicates_dropped(self):
        assert scheme_union([Scheme((2, 1)), Scheme((1, 2))]) == (2, 1)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ConfigError):
            Scheme((1, 1, 2))


class TestScheme:
    @pytest.mark.parametrize("indices", [(), (1,), (2, 1), (3, 7, 2), range(1, 5)])
    def test_is_the_tuple_of_its_indices(self, indices):
        s = Scheme(indices)
        assert isinstance(s, tuple)
        assert s == tuple(indices) and tuple(indices) == s
        assert hash(s) == hash(tuple(indices))
        assert {s: "x"}[tuple(indices)] == "x"

    def test_indices_go_through_int(self):
        s = Scheme(("2", "1"))
        assert s == (2, 1) and all(type(i) is int for i in s)

    def test_prints_as_its_tuple(self):
        assert repr(Scheme((1, 2))) == "(1, 2)" and f"{Scheme((3,))}" == "(3,)"

    @pytest.mark.parametrize("indices, text", [
        ((1, 1), "scheme (1, 1) repeats an index"),
        (("3", 2, 3), "scheme (3, 2, 3) repeats an index")])
    def test_repeated_index_text(self, indices, text):
        with pytest.raises(ConfigError) as exc:
            Scheme(indices)
        assert str(exc.value) == text


class TestReselect:
    def test_random_schemes_against_written_out_selection(self):
        rng = random.Random(31)
        for _ in range(60):
            s = Scheme(rng.sample(range(1, 9), rng.randint(1, 5)))
            tuples = {tuple(rng.randrange(3) for _ in s) for _ in range(rng.randint(0, 8))}
            targets = [tuple(rng.sample(s, rng.randint(1, len(s)))) for _ in range(3)]
            targets += [(rng.choice(s),), (), s, s[::-1]]
            for onto in targets:
                got = reselect(s, tuples, Scheme(onto))
                assert type(got) is frozenset
                assert got == select(s, tuples, onto)

    @pytest.mark.parametrize("src, onto, text", [
        ((1, 2), (3,), "indices (3,) not all present in (1, 2)"),
        ((2, 4, 1), (1, 5, 2), "indices (1, 5, 2) not all present in (2, 4, 1)")])
    def test_missing_index_text(self, src, onto, text):
        with pytest.raises(ConfigError) as exc:
            reselect(Scheme(src), {(0,) * len(src)}, Scheme(onto))
        assert str(exc.value) == text


class TestJoin:
    def test_worked_example(self):
        c1 = ext("c1", (1, 2), {(0, 0), (1, 1)})
        c2 = ext("c2", (2, 3), {(0, 1)})
        relations = [Relation(c.scheme, c.tuples) for c in (c1, c2)]
        for members in ([c1, c2], relations):
            got = join_constraints(members)
            assert got.scheme == (1, 2, 3)
            assert got.tuples == frozenset({(0, 0, 1)})

    def test_single_input_is_identity(self):
        c = ext("c", (2, 3), {(0, 1), (1, 0)})
        got = join_constraints([c])
        assert got.scheme == c.scheme and got.tuples == c.tuples

    def test_empty_member_empties_join(self):
        c1 = ext("c1", (1, 2), {(0, 0)})
        c2 = ext("c2", (2, 3), set())
        assert join_constraints([c1, c2]).tuples == frozenset()

    def test_matches_enumeration_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            csp = random_set_csp(rng, max_vars=3, max_atoms=3, max_constraints=3)
            got = join_constraints(csp.constraints)
            assert got.tuples == brute_force_join(csp, csp.constraints)

    def test_join_then_project_shrinks_members(self):
        rng = random.Random(9)
        for _ in range(40):
            csp = random_set_csp(rng, max_vars=3, max_atoms=3, max_constraints=3)
            joined = join_constraints(csp.constraints)
            for c in csp.constraints:
                assert select(joined.scheme, joined.tuples, c.scheme) <= c.tuples

    def test_onto_matches_enumeration_oracle(self):
        # onto: a random selection of the union in random order (so it
        # interleaves the members' coordinates), each member's scheme, the
        # whole union
        rng = random.Random(17)
        for _ in range(60):
            csp = random_set_csp(rng, max_vars=4, max_atoms=3, max_constraints=3)
            cs = csp.constraints
            union = scheme_union([c.scheme for c in cs])
            full = brute_force_join(csp, cs)
            picks = [tuple(rng.sample(union, rng.randint(1, len(union))))
                     for _ in range(3)]
            picks += [c.scheme for c in cs] + [union]
            for onto in map(Scheme, picks):
                got = join_constraints(cs, onto=onto)
                assert got.scheme == onto
                assert got.tuples == select(union, full, onto)

    def test_onto_interleaving_members(self):
        c1 = ext("c1", (1, 2), {(0, 0), (0, 1), (1, 1)})
        c2 = ext("c2", (2, 3), {(0, 1), (1, 0)})
        c3 = ext("c3", (3, 4), {(0, 0), (1, 1)})
        csp = CSP((D01,) * 4, (c1, c2, c3))
        onto = Scheme((4, 1, 3))
        want = select((1, 2, 3, 4), brute_force_join(csp, [c1, c2, c3]), onto)
        assert want == frozenset({(1, 0, 1), (0, 0, 0), (0, 1, 0)})
        assert join_constraints([c1, c2, c3], onto=onto).tuples == want

    def test_onto_single_member_is_reselected(self):
        rng = random.Random(23)
        for _ in range(30):
            csp = random_set_csp(rng, max_vars=3, max_atoms=3, max_constraints=1)
            (c,) = csp.constraints
            full = brute_force_join(csp, [c])
            for perm in itertools.permutations(c.scheme):
                onto = Scheme(perm[:rng.randint(1, len(perm))])
                got = join_constraints([c], onto=onto)
                assert got.scheme == onto
                assert got.tuples == select(c.scheme, full, onto)

    @pytest.mark.parametrize("members", [[(1, 2)], [(1, 2), (2, 3)]])
    def test_onto_outside_the_union_rejected(self, members):
        cs = [ext(f"c{k}", s, {(0, 0)}) for k, s in enumerate(members)]
        with pytest.raises(ConfigError):
            join_constraints(cs, onto=Scheme((1, 4)))

    def test_cap_counts_intermediate_steps(self):
        # the first step holds all 8 triples; the full join holds one
        c1 = ext("c1", (1, 2), itertools.product((0, 1), repeat=2))
        c2 = ext("c2", (3,), {(0,), (1,)})
        c3 = ext("c3", (1, 2, 3), {(0, 0, 0)})
        assert join_constraints([c1, c2, c3], cap=8).tuples == {(0, 0, 0)}
        for onto in (None, Scheme((1,))):
            with pytest.raises(ResourceLimitError):
                join_constraints([c1, c2, c3], cap=7, onto=onto)

    def test_cap_counts_the_projected_tuples_at_the_last_step(self):
        # the full join has 8 tuples; onto (1,) holds 2, onto (1,3) holds 4
        c1 = ext("c1", (1, 2), itertools.product((0, 1), repeat=2))
        c2 = ext("c2", (2, 3), itertools.product((0, 1), repeat=2))
        with pytest.raises(ResourceLimitError):
            join_constraints([c1, c2], cap=7)
        assert join_constraints([c1, c2], cap=2, onto=Scheme((1,))).tuples == {(0,), (1,)}
        assert len(join_constraints([c1, c2], cap=4, onto=Scheme((1, 3))).tuples) == 4
        with pytest.raises(ResourceLimitError):
            join_constraints([c1, c2], cap=3, onto=Scheme((1, 3)))

    def test_within_keeps_what_the_join_holds(self):
        # (1,3) pairs through c1 on (1,2) and c2 on (2,3): (0,1) and (1,0) have
        # a witness, (1,1) has none
        c1 = ext("c1", (1, 2), {(0, 0), (1, 1)})
        c2 = ext("c2", (2, 3), {(0, 1), (1, 0)})
        onto = Scheme((1, 3))
        within = frozenset({(0, 1), (1, 0), (1, 1)})
        got = join_constraints([c1, c2], onto=onto, within=within)
        assert got == (onto, {(0, 1), (1, 0)})
        kept = frozenset({(0, 1)})
        assert join_constraints([c1, c2], onto=onto, within=kept).tuples is kept

    def test_within_materialises_nothing(self):
        # the join onto (1,3) holds 4 tuples, past a cap of 1
        c1 = ext("c1", (1, 2), itertools.product((0, 1), repeat=2))
        c2 = ext("c2", (2, 3), itertools.product((0, 1), repeat=2))
        onto = Scheme((1, 3))
        with pytest.raises(ResourceLimitError):
            join_constraints([c1, c2], cap=1, onto=onto)
        within = frozenset(itertools.product((0, 1), repeat=2))
        assert join_constraints([c1, c2], cap=1, onto=onto, within=within).tuples is within

    def test_within_needs_onto_inside_the_union(self):
        c = ext("c", (1, 2), {(0, 0)})
        with pytest.raises(ConfigError):
            join_constraints([c], within=frozenset({(0, 0)}))
        with pytest.raises(ConfigError):
            join_constraints([c], onto=Scheme((1, 4)), within=frozenset({(0, 0)}))

    def test_a_long_chain_plan_is_built_in_linear_time(self):
        # (k,k+1) onto (1,4001): each member binds the index the next one
        # shares, so there are 3999 levels, the last testing (4000,4001); a
        # scan of every pending member per level took seconds here
        schemes = tuple((k, k + 1) for k in range(1, 4001))
        witness_plan.cache_clear()
        t0 = time.perf_counter()
        plan = witness_plan(schemes, (1, 4001))
        assert time.perf_counter() - t0 < 0.5
        assert plan.first == ()
        assert [level[0] for level in plan.levels] == list(range(3999))
        assert [[j for j, _ in level[3]] for level in plan.levels[-2:]] == [[], [3999]]
        # the test reads (4000,4001) off the tuple so far: 4000 was bound by
        # the last level, at its second coordinate, and 4001 is onto's second
        ((_, pick),) = plan.levels[-1][3]
        assert pick(tuple(range(2 + 2 * 3999))) == (2 + 2 * 3998 + 1, 1)


class TestSolutions:
    def test_arc_consistent_but_inconsistent(self, eq_ne_csp):
        assert solutions(eq_ne_csp) == frozenset()

    def test_no_constraints(self):
        assert len(solutions(CSP((D01, D01), ()))) == 4

    def test_linear_equality(self):
        csp = CSP((IntDomain(0, 9), IntDomain(1, 8)),
                  (Constraint("e", Scheme((1, 2)), LinearEqBody((3, -5), 4)),))
        assert solutions(csp) == frozenset({(3, 1), (8, 4)})

    def test_enumeration_cap(self):
        csp = CSP((IntDomain(0, 999), IntDomain(0, 999)), ())
        with pytest.raises(ResourceLimitError):
            solutions(csp, cap=1000)

    def test_join_formula_agrees(self):
        # solutions == join of the constraints and the untouched domains
        rng = random.Random(17)
        checked = 0
        while checked < 30:
            csp = random_set_csp(rng, max_vars=3, max_atoms=3, max_constraints=3)
            size = 1
            for d in csp.domains:
                size *= len(d.members())
            if size > 4096:
                continue
            checked += 1
            covered = scheme_union([c.scheme for c in csp.constraints])
            members = list(csp.constraints)
            for i in range(1, csp.arity + 1):
                if i not in covered:
                    members.append(ext(f"d{i}", (i,),
                                       {(a,) for a in csp.domain_members(i)}))
            joined = join_constraints(members)
            expect = {
                tuple(dict(zip(joined.scheme, t))[i]
                      for i in range(1, csp.arity + 1))
                for t in joined.tuples}
            assert solutions(csp) == frozenset(expect)

    def test_solutions_restrict_to_subsequences(self):
        rng = random.Random(23)
        for _ in range(30):
            csp = random_set_csp(rng, max_vars=3, max_atoms=3, max_constraints=3)
            sols = solutions(csp)
            for r in range(1, len(csp.constraints) + 1):
                for sub in itertools.combinations(csp.constraints, r):
                    u = scheme_union([c.scheme for c in sub])
                    joint = brute_force_join(csp, list(sub))
                    for d in sols:
                        assert tuple_restrict(d, u) in joint


@pytest.mark.parametrize("body", [LinearEqBody, LinearIneqBody])
class TestLinearBodies:
    @pytest.mark.parametrize("coeffs, constant", [
        ((1.5, 1), 3), ((1, Fraction(1, 2)), 3), ((1, 1), 2.5), ((1, 1), Fraction(7, 2)),
        ((1, 1), "3"), (("1", 1), 3), ((1, 1), float("nan")), ((1, 1), None),
    ])
    def test_non_integral_input_rejected(self, body, coeffs, constant):
        with pytest.raises(DataError):
            body(coeffs, constant)

    def test_integral_values_stored_as_int(self, body):
        b = body((Fraction(4, 2), -3.0), Fraction(4, 2))
        assert b == body((2, -3), 2)
        assert all(type(x) is int for x in (*b.coeffs, b.constant))


class TestEquivalent:
    def test_reflexive(self, chain_csp):
        assert equivalent(chain_csp, chain_csp)

    def test_narrowed_bounds_preserve_solutions(self):
        body = LinearEqBody((3, -5), 4)
        p = CSP((IntDomain(0, 9), IntDomain(1, 8)),
                (Constraint("e", Scheme((1, 2)), body),))
        q = CSP((IntDomain(3, 9), IntDomain(1, 4)),
                (Constraint("e", Scheme((1, 2)), body),))
        assert equivalent(p, q)

    def test_excluding_a_solution_breaks_equivalence(self):
        p = CSP((D01, D01), (ext("c", (1, 2), {(0, 0), (1, 1)}),))
        q = CSP((D01, D01), (ext("c", (1, 2), {(0, 0), (1, 1)}),
                             ext("d", (1,), {(0,)})))
        assert solutions(q) < solutions(p)
        assert not equivalent(p, q)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            equivalent(CSP((D01,), ()), CSP((D01, D01), ()))


class TestValidate:
    def test_clean(self, chain_csp):
        assert validate(chain_csp) == []

    def test_tuple_outside_domain(self):
        csp = CSP((D01, D01), (ext("c", (1, 2), {(0, 7)}),))
        assert any("outside domain" in p for p in validate(csp))

    def test_bad_tuples_reported_in_tuple_order(self):
        csp = CSP((D01, D01), (ext("c", (1, 2), {(5, 8), (0, 0), (1, 7)}),))
        assert validate(csp) == [
            "constraint 'c': tuple (1, 7) coordinate 7 outside domain 2",
            "constraint 'c': tuple (5, 8) coordinate 5 outside domain 1",
            "constraint 'c': tuple (5, 8) coordinate 8 outside domain 2",
        ]

    def test_int_domains_test_membership_by_range(self):
        csp = CSP((IntDomain(-2, 2), IntDomain(1, 0), D01),
                  (ext("c", (1, 3), {(-2, 0), (2, 1), (3, 0), (-3, 5), ("a", 1)}),
                   ext("d", (2,), {(0,)})))
        assert validate(csp) == [
            "constraint 'c': tuple (-3, 5) coordinate -3 outside domain 1",
            "constraint 'c': tuple (-3, 5) coordinate 5 outside domain 3",
            "constraint 'c': tuple (3, 0) coordinate 3 outside domain 1",
            "constraint 'c': tuple ('a', 1) coordinate 'a' outside domain 1",
            "constraint 'd': tuple (0,) coordinate 0 outside domain 2",
        ]

    def test_scheme_outside_arity(self):
        csp = CSP((D01,), (ext("c", (1, 3), {(0, 0)}),))
        assert any("outside domains" in p for p in validate(csp))

    def test_linear_over_set_domain(self):
        csp = CSP((D01, D01),
                  (Constraint("e", Scheme((1, 2)), LinearEqBody((1, 1), 1)),))
        assert any("non-integer domain" in p for p in validate(csp))

    def test_zero_coefficient(self):
        csp = CSP((IntDomain(0, 3), IntDomain(0, 3)),
                  (Constraint("e", Scheme((1, 2)), LinearEqBody((1, 0), 1)),))
        assert any("zero coefficient" in p for p in validate(csp))
