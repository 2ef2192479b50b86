"""The generic iteration machinery: extension, the four loop disciplines,
probes, closure, and limit comparison."""

import dataclasses
import itertools
import math
import random
import tracemalloc
from collections import deque

import pytest

from conftest import (
    AlternatingStrategy, brute_force_least_fixpoint, powerset_states,
    random_binary_constraint, random_lineq_csp, random_set_csp,
)
from propeng.csp import (
    CSP, Constraint, ExtensionalBody, IntDomain, LinearEqBody, Scheme, SetDomain,
)
from propeng.engine import (
    MODES, STRATEGIES, Outcome, Pending, ReductionFunction, Strategy, TraceStep,
    apply_step, closure_star, compare_limits, extend, make_strategy,
    position_key, probe_function, run,
)
from propeng.errors import ConfigError, ProbeRejectionError, ResourceLimitError
from propeng.lattice import GridInterval, PowersetValue, ProductValue, leq
from propeng.reducers import (
    build_named_reducers, domain_bottom, csp_from_domain_state,
    make_binary_projections, make_full_projection, make_linear_eq_narrowing,
)
from propeng.csp import solutions

# every strategy, the seeded one under two seeds
STRATEGY_SETTINGS = [("det", 0), ("seeded", 1), ("seeded", 2),
                     ("lifo", 0), ("roundrobin", 0), ("block", 0)]


def pv(base, elements):
    return PowersetValue(frozenset(base), frozenset(elements))


def runs_everywhere(fns, start):
    """The converged results of ``fns`` under every mode and strategy
    setting, as (mode, strategy name, result) triples."""
    for mode in MODES:
        for name, seed in STRATEGY_SETTINGS:
            res = run(fns, start, mode=mode, strategy=make_strategy(name, seed),
                      validate=False)
            assert res.converged, (mode, name, seed)
            yield mode, name, res


def lineq_lists(rng, count):
    """(lineq reducers, interval start) for random equality systems."""
    for _ in range(count):
        csp = random_lineq_csp(rng)
        yield [make_linear_eq_narrowing(c) for c in csp.constraints], domain_bottom(csp)


def projection_lists(rng, count):
    """(pi1/pi2 reducers, set start) for random problems with at least one
    binary constraint."""
    while count:
        csp = random_set_csp(rng)
        fns = [f for c in csp.constraints if len(c.scheme) == 2
               for f in make_binary_projections(c)]
        if fns:
            count -= 1
            yield fns, domain_bottom(csp)


NAMED_POOL = ("path@1,2,3", "path@1,3,2", "rho@c12,c23", "rho@c13,c32",
              "rel@2,3;c12,c13", "rel@1,2,3;c12,c32", "pi1@c13", "pi2@c12")


def named_lists(rng, count):
    """(named constraint-space reducers, start) over random constraints on
    (1,2), (1,3), (3,2) and (2,3), each list a random part of ``NAMED_POOL``."""
    for _ in range(count):
        domains = [frozenset(range(rng.randint(2, 3))) for _ in range(3)]
        cs = tuple(random_binary_constraint(
            rng, domains[i - 1], domains[j - 1], f"c{i}{j}", (i, j))
            for i, j in ((1, 2), (1, 3), (3, 2), (2, 3)))
        csp = CSP(tuple(SetDomain(d) for d in domains), cs)
        space, fns = build_named_reducers(
            csp, rng.sample(NAMED_POOL, rng.randint(2, len(NAMED_POOL))))
        yield fns, space.bottom()


def path_lists(rng, count):
    """(random ``path@`` reducers, start) over a constraint on every ordered
    pair of three or four variables."""
    for _ in range(count):
        n = rng.randint(3, 4)
        domains = [frozenset(range(rng.randint(2, 3))) for _ in range(n)]
        pairs = list(itertools.permutations(range(1, n + 1), 2))
        csp = CSP(tuple(SetDomain(d) for d in domains), tuple(
            random_binary_constraint(rng, domains[i - 1], domains[j - 1], f"c{i}{j}", (i, j))
            for i, j in pairs))
        triples = list(itertools.permutations(range(1, n + 1), 3))
        names = ["path@%d,%d,%d" % t for t in rng.sample(triples, rng.randint(2, len(triples)))]
        space, fns = build_named_reducers(csp, names)
        yield fns, space.bottom()


def reference_set_run(functions, start, mode, strategy):
    """The steps and the value of a set-mode run (``ci`` or ``cii``), by
    Apt's generic iteration written plainly: the worklist is a dict in wake
    order, re-sorted for every pick, the readers of a change are found by
    scanning every function, and they join in key order."""
    functions = tuple(functions)
    strategy.reset(functions)
    pending = {}

    def push(woken):
        for f in sorted(woken, key=strategy.key):
            pending.pop(f.fid, None)
            pending[f.fid] = f

    push(functions)
    d, steps = start, []
    while pending:
        view = Pending()
        view.extend(sorted(pending.values(), key=strategy.key))
        view.recent.update(pending)
        g = strategy.choose(view)
        del pending[g.fid]
        d, changed = apply_step(g, d)
        steps.append(TraceStep(g.fid, changed))
        if changed:
            push([f for f in functions
                  if set(changed) & set(f.scheme if f.reads is None else f.reads)
                  and not (mode == "cii" and f is g and g.idempotent)])
    return steps, d


def reference_queue_run(functions, start, mode, strategy):
    """The steps and the value of a queue-mode run (``ciq`` or ``ciiq``), by
    Apt's generic iteration written plainly: the worklist is a FIFO queue
    with duplicates, the readers of a change are found by scanning every
    function, and they join in key order."""
    functions = tuple(functions)
    strategy.reset(functions)
    queue = deque(sorted(functions, key=strategy.key))
    d, steps = start, []
    while queue:
        g = queue.popleft()
        d, changed = apply_step(g, d)
        steps.append(TraceStep(g.fid, changed))
        if changed:
            queue.extend(sorted(
                (f for f in functions
                 if set(changed) & set(f.scheme if f.reads is None else f.reads)
                 and not (mode == "ciiq" and f is g and g.idempotent)),
                key=strategy.key))
    return steps, d


def keep_only_one(args):
    (x,) = args
    return (x.with_elements(x.elements & {1}),)


class TestExtend:
    def test_worked_example(self):
        f = ReductionFunction("f", Scheme((2,)), keep_only_one, idempotent=True)
        lifted = extend(f, 3)
        start = ProductValue((pv({0}, {0}), pv({0, 1}, {0, 1}), pv({2}, {2})))
        got = lifted(start)
        assert got.component(1).elements == frozenset({0})
        assert got.component(2).elements == frozenset({1})
        assert got.component(3).elements == frozenset({2})

    def test_identity_copies_everything(self):
        f = ReductionFunction("id", Scheme((1,)), lambda args: args)
        start = ProductValue((pv({0, 1}, {0}), pv({5}, {5})))
        assert extend(f, 2)(start) == start

    def test_extension_stays_inflationary(self):
        rng = random.Random(2)
        base = frozenset(range(4))
        f = ReductionFunction(
            "drop", Scheme((2,)),
            lambda args: (args[0].with_elements(
                a for a in args[0].elements if a != 3),), idempotent=True)
        lifted = extend(f, 3)
        for _ in range(50):
            start = ProductValue(tuple(
                pv(base, {a for a in base if rng.random() < 0.5})
                for _ in range(3)))
            assert leq(start, lifted(start))

    def test_invalid_scheme_rejected(self):
        f = ReductionFunction("f", Scheme((4,)), lambda args: args)
        with pytest.raises(ConfigError):
            extend(f, 3)


class TestRun:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode 'cx'"):
            run([], ProductValue((pv({1}, {1}),)), mode="cx")

    def test_apply_step_rejects_a_wrong_arity_result(self):
        f = ReductionFunction("f", Scheme((1, 2)), lambda args: args[:1])
        with pytest.raises(ConfigError, match="function 'f' returned 1 components "
                                               "for a 2-ary scheme"):
            apply_step(f, ProductValue((pv({1}, {1}), pv({1}, {1}))))

    def test_apply_step_rejects_a_non_inflationary_step(self):
        # a powerset grows down: putting an atom back loses information
        f = ReductionFunction("f", Scheme((1,)), lambda args: (pv({1, 2}, {1, 2}),))
        with pytest.raises(ProbeRejectionError, match="non-inflationary"):
            apply_step(f, ProductValue((pv({1, 2}, {1}),)))

    def test_no_functions(self):
        start = ProductValue((pv({1}, {1}),))
        res = run([], start)
        assert res.value == start
        assert res.trace.total_applications == 0
        assert res.converged

    def test_support_projections_all_modes(self):
        c = Constraint("c", Scheme((1, 2)),
                       ExtensionalBody(frozenset({(1, 1), (2, 2)})))
        csp = CSP((SetDomain(frozenset({1, 2, 3})), SetDomain(frozenset({1, 2}))), (c,))
        expected = frozenset({1, 2})
        for mode in MODES:
            res = run(list(make_binary_projections(c)), domain_bottom(csp), mode=mode)
            assert res.converged
            assert res.value.component(1).elements == expected
            assert res.value.component(2).elements == expected

    def test_fixpoint_of_every_function(self):
        # in every mode, also for functions that are not idempotent (lineq)
        rng = random.Random(31)
        inputs = []
        for _ in range(25):
            csp = random_set_csp(rng, max_vars=3, max_atoms=3, max_constraints=3)
            inputs.append(([make_full_projection(c) for c in csp.constraints],
                           domain_bottom(csp)))
        inputs += lineq_lists(random.Random(37), 25)
        for fns, start in inputs:
            for mode, name, res in runs_everywhere(fns, start):
                for f in fns:
                    assert apply_step(f, res.value)[1] == (), (mode, name, f.fid)

    def test_step_cap_returns_partial_value(self, counter_fixture):
        fns, start = counter_fixture
        res = run(fns, start, mode="ci", strategy=AlternatingStrategy(),
                  step_cap=1000, validate=False)
        assert res.trace.outcome is Outcome.STEP_LIMIT
        assert res.trace.total_applications == 1000
        assert not res.value.component(1).is_empty

    def test_divergent_run_converges_when_jump_goes_first(self, counter_fixture):
        fns, start = counter_fixture
        res = run(fns, start, mode="cii", step_cap=1000, validate=False)
        assert res.converged
        assert res.trace.total_applications <= 3
        assert res.value.component(1).lo == res.value.component(1).hi

    @pytest.mark.parametrize("mode", ["ci", "cii"])
    def test_memory_does_not_grow_with_the_step_count(self, mode):
        # x1 - x2 = 1 and x1 - x2 = 0 over [0..10^9] move one bound by one per
        # step and stop only at the cap.  Without an observer a run keeps no
        # per-step record, so its peak is the same after 2*10^4 and 8*10^4
        # steps.  The queue modes are left out: their documented duplicates
        # grow the FIFO queue by one slot per changing step.
        d = IntDomain(0, 10**9)
        fns = [make_linear_eq_narrowing(
            Constraint(cid, Scheme((1, 2)), LinearEqBody((1, -1), b)))
            for cid, b in (("e1", 1), ("e0", 0))]
        start = domain_bottom(CSP((d, d), ()))
        peaks = []
        for cap in (2 * 10**4, 8 * 10**4):
            tracemalloc.start()
            try:
                res = run(fns, start, mode=mode, step_cap=cap)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.trace.outcome is Outcome.STEP_LIMIT
            assert res.trace.total_applications == cap
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks

    def test_early_exit_stops_on_empty_component(self):
        d01 = SetDomain(frozenset({0, 1}))
        c1 = Constraint("c1", Scheme((1, 2)), ExtensionalBody(frozenset({(0, 0)})))
        c2 = Constraint("c2", Scheme((1,)), ExtensionalBody(frozenset({(1,)})))
        csp = CSP((d01, d01), (c1, c2))
        fns = [make_full_projection(c) for c in csp.constraints]
        res = run(fns, domain_bottom(csp), early_exit=True, validate=False)
        assert res.trace.outcome is Outcome.EMPTY_COMPONENT
        assert any(c.is_empty for c in res.value.components)
        reduced = csp_from_domain_state(csp, res.value)
        assert solutions(reduced) == solutions(csp) == frozenset()

    def test_trace_structure(self):
        c = Constraint("c", Scheme((1, 2)),
                       ExtensionalBody(frozenset({(1, 1), (2, 2)})))
        csp = CSP((SetDomain(frozenset({1, 2, 3})), SetDomain(frozenset({1, 2}))), (c,))
        steps = []
        res = run(list(make_binary_projections(c)), domain_bottom(csp),
                  observer=steps.append)
        assert res.trace.total_applications == len(steps)
        for step in steps:
            assert step.changed == bool(step.changed_components)
        step = TraceStep(fid="f", changed_components=(1, 3))
        assert (step.fid, step.changed_components, step.changed) == ("f", (1, 3), True)
        assert not TraceStep("f", ()).changed

    def test_wakeup_only_touches_dependent_functions(self):
        base = frozenset({0, 1})
        shrink = ReductionFunction(
            "a", Scheme((1,)),
            lambda args: (args[0].with_elements(args[0].elements & {0}),),
            idempotent=True)
        bystander = ReductionFunction("b", Scheme((2,)), lambda args: args)
        start = ProductValue((PowersetValue.bottom(base),
                              PowersetValue.bottom(base)))
        steps = []
        run([shrink, bystander], start, mode="ci", validate=False,
            observer=steps.append)
        # the change to component 1 re-queues only its own dependents
        assert [s.fid for s in steps] == ["a", "a", "b"]

    def test_wakeup_follows_declared_reads(self):
        base = frozenset({0, 1})
        reader = ReductionFunction("a", Scheme((1, 2)), lambda args: args, reads=(2,))
        shrink = ReductionFunction(
            "b", Scheme((1,)),
            lambda args: (args[0].with_elements(args[0].elements & {0}),),
            idempotent=True)
        start = ProductValue((PowersetValue.bottom(base),
                              PowersetValue.bottom(base)))
        # a has component 1 in its scheme but does not read it: b's change
        # to component 1 does not wake it
        steps = []
        run([reader, shrink], start, mode="cii", validate=False,
            observer=steps.append)
        assert [s.fid for s in steps] == ["a", "b"]
        steps = []
        run([dataclasses.replace(reader, reads=None), shrink], start,
            mode="cii", validate=False, observer=steps.append)
        assert [s.fid for s in steps] == ["a", "b", "a"]

    @pytest.mark.parametrize("mode", MODES)
    def test_undeclared_function_is_not_taken_as_idempotent(self, mode):
        # drop_max removes the largest of two or more values, so it is not
        # idempotent and does not say so: every mode re-applies it after a
        # change and reaches {0}
        def drop_max(args):
            (x,) = args
            if len(x.elements) < 2:
                return args
            return (x.with_elements(x.elements - {max(x.elements)}),)

        f = ReductionFunction("drop_max", Scheme((1,)), drop_max)
        assert not f.idempotent
        res = run([f], ProductValue((PowersetValue.bottom({0, 1, 2}),)),
                  mode=mode, validate=False)
        assert res.converged
        assert res.value.component(1).elements == frozenset({0})
        assert res.trace.total_applications == 3

    def test_reads_outside_the_scheme_rejected(self):
        f = ReductionFunction("f", Scheme((1,)), lambda args: args, reads=(2,))
        start = ProductValue((pv({1}, {1}), pv({1}, {1})))
        with pytest.raises(ConfigError, match="reads"):
            run([f], start)

    def test_duplicate_ids_rejected(self):
        f = ReductionFunction("f", Scheme((1,)), lambda args: args)
        g = ReductionFunction("f", Scheme((1,)), lambda args: args)
        with pytest.raises(ConfigError):
            run([f, g], ProductValue((pv({1}, {1}),)))


PINNED_TRACES = {
    ("det", 0): {
        "ci": "pi1@c1 pi1@c1 pi1@c2 pi1@c1 pi1@c1 pi1@c2 pi2@c1 pi1@c1 pi1@c2 "
              "pi2@c1 pi2@c2 pi1@c2 pi2@c2",
        "cii": "pi1@c1 pi1@c2 pi1@c1 pi2@c1 pi1@c1 pi1@c2 pi2@c2 pi1@c2",
        "ciq": "pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi1@c1 pi2@c1 pi1@c1 pi1@c2 pi2@c1 "
               "pi2@c2 pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi1@c2 pi2@c2 pi1@c1 pi2@c1",
        "ciiq": "pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi2@c1 pi1@c1 pi2@c1 pi2@c2 pi1@c1 "
                "pi1@c2 pi2@c2 pi1@c2 pi2@c1",
    },
    ("block", 0): {
        "ci": "pi1@c1 pi1@c1 pi2@c1 pi1@c1 pi2@c1 pi1@c2 pi1@c1 pi1@c1 pi2@c1 "
              "pi1@c2 pi2@c2 pi1@c2 pi2@c2",
        "cii": "pi1@c1 pi2@c1 pi1@c1 pi1@c2 pi1@c1 pi2@c1 pi2@c2 pi1@c2",
        "ciq": "pi1@c1 pi2@c1 pi1@c2 pi2@c2 pi1@c1 pi2@c1 pi1@c1 pi2@c1 pi1@c2 "
               "pi2@c2 pi1@c1 pi2@c1 pi1@c2 pi2@c2 pi1@c2 pi2@c2 pi1@c1 pi2@c1",
        "ciiq": "pi1@c1 pi2@c1 pi1@c2 pi2@c2 pi2@c1 pi1@c1 pi1@c2 pi2@c2 pi1@c1 "
                "pi2@c1 pi2@c2 pi1@c2 pi2@c1",
    },
    ("lifo", 0): {
        "ci": "pi1@c1 pi1@c1 pi2@c1 pi1@c1 pi1@c2 pi1@c1 pi1@c1 pi2@c1 pi1@c2 "
              "pi2@c2 pi1@c2 pi2@c2",
        "cii": "pi1@c1 pi2@c1 pi1@c1 pi1@c2 pi1@c1 pi2@c1 pi2@c2 pi1@c2",
        "ciq": "pi2@c2 pi2@c1 pi1@c2 pi1@c1 pi2@c2 pi1@c2 pi2@c2 pi2@c1 pi1@c2 "
               "pi1@c1 pi2@c2 pi2@c1 pi1@c2 pi1@c1 pi2@c1 pi1@c1 pi2@c2 pi1@c2",
        "ciiq": "pi2@c2 pi2@c1 pi1@c2 pi1@c1 pi1@c2 pi2@c2 pi1@c2 pi1@c1 pi2@c2 "
                "pi2@c1 pi1@c1 pi2@c1 pi1@c2",
    },
    ("roundrobin", 0): {
        "ci": "pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi1@c1",
        "cii": "pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi1@c1 pi1@c2 pi2@c1",
        "ciq": "pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi1@c1 pi2@c1 pi1@c1 pi1@c2 pi2@c1 "
               "pi2@c2 pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi1@c2 pi2@c2 pi1@c1 pi2@c1",
        "ciiq": "pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi2@c1 pi1@c1 pi2@c1 pi2@c2 pi1@c1 "
                "pi1@c2 pi2@c2 pi1@c2 pi2@c1",
    },
    ("seeded", 1): {
        "ci": "pi2@c1 pi2@c2 pi1@c2 pi1@c2 pi1@c1 pi2@c1 pi1@c1 pi2@c2",
        "cii": "pi2@c1 pi2@c2 pi1@c2 pi1@c1 pi2@c1 pi2@c2",
        "ciq": "pi2@c2 pi1@c1 pi2@c1 pi1@c2 pi2@c2 pi1@c2 pi1@c1 pi2@c1 pi2@c2 "
               "pi1@c1 pi2@c1 pi1@c2 pi2@c2 pi1@c1 pi2@c1 pi1@c2 pi2@c2 pi1@c2 "
               "pi1@c1 pi2@c1",
        "ciiq": "pi2@c2 pi1@c1 pi2@c1 pi1@c2 pi1@c2 pi2@c1 pi2@c2 pi1@c1 pi1@c2 "
                "pi2@c2 pi1@c1 pi2@c1 pi1@c2 pi2@c1",
    },
}


# The same chain with the projections' declared reads: each side reads only
# the other, so no projection wakes itself, and ci realizes the order of cii.
PINNED_TRACES_READS = {
    ("det", 0): {
        "ci": "pi1@c1 pi1@c2 pi1@c1 pi2@c1 pi1@c1 pi2@c2 pi1@c2",
        "ciq": "pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi2@c1 pi1@c1 pi2@c2 pi1@c1 pi2@c2 "
               "pi1@c2 pi2@c1",
    },
    ("block", 0): {
        "ci": "pi1@c1 pi2@c1 pi1@c1 pi1@c2 pi1@c1 pi2@c1 pi2@c2 pi1@c2",
        "ciq": "pi1@c1 pi2@c1 pi1@c2 pi2@c2 pi2@c1 pi1@c1 pi2@c2 pi1@c1 pi2@c2 "
               "pi1@c2 pi2@c1",
    },
    ("lifo", 0): {
        "ci": "pi1@c1 pi2@c1 pi1@c1 pi2@c2 pi1@c2 pi1@c1 pi2@c1 pi2@c2",
        "ciq": "pi2@c2 pi2@c1 pi1@c2 pi1@c1 pi1@c2 pi2@c2 pi1@c1 pi2@c2 pi1@c1 "
               "pi2@c1 pi1@c2",
    },
    ("roundrobin", 0): {
        "ci": "pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi1@c1 pi1@c2 pi2@c1",
        "ciq": "pi1@c1 pi1@c2 pi2@c1 pi2@c2 pi2@c1 pi1@c1 pi2@c2 pi1@c1 pi2@c2 "
               "pi1@c2 pi2@c1",
    },
    ("seeded", 1): {
        "ci": "pi2@c1 pi2@c2 pi1@c2 pi1@c1 pi2@c1 pi2@c2",
        "ciq": "pi2@c2 pi1@c1 pi2@c1 pi1@c2 pi1@c2 pi2@c1 pi2@c2 pi1@c1 pi2@c2 "
               "pi1@c1 pi1@c2 pi2@c1",
    },
}


def chain_projections():
    """x1 < x2 < x3 over {0,1,2}: a small chain whose projections keep
    re-waking each other."""
    d = SetDomain(frozenset({0, 1, 2}))
    lt = frozenset((a, b) for a in range(3) for b in range(3) if a < b)
    cs = [Constraint("c1", Scheme((1, 2)), ExtensionalBody(lt)),
          Constraint("c2", Scheme((2, 3)), ExtensionalBody(lt))]
    csp = CSP((d, d, d), tuple(cs))
    return [f for c in cs for f in make_binary_projections(c)], domain_bottom(csp)


class TestScheduling:
    @pytest.mark.parametrize("name,seed", sorted(PINNED_TRACES))
    def test_pinned_step_order(self, name, seed):
        # the scheme-wide wake rule: the projections as if they read both
        # sides.  A changing projection wakes itself in ci and ciq, and not
        # in cii and ciiq, where it is declared idempotent.
        fns, start = chain_projections()
        fns = [dataclasses.replace(f, reads=None) for f in fns]
        want = PINNED_TRACES[name, seed]
        for mode in MODES:
            steps = []
            res = run(fns, start, mode=mode, strategy=make_strategy(name, seed),
                      validate=False, observer=steps.append)
            assert " ".join(s.fid for s in steps) == want[mode], mode
            assert [sorted(v.elements) for v in res.value.components] == [[0], [1], [2]]

    @pytest.mark.parametrize("name,seed", sorted(PINNED_TRACES_READS))
    def test_pinned_step_order_with_declared_reads(self, name, seed):
        fns, start = chain_projections()
        pins = PINNED_TRACES_READS[name, seed]
        want = dict(pins, cii=pins["ci"], ciiq=pins["ciq"])
        for mode in MODES:
            steps = []
            res = run(fns, start, mode=mode, strategy=make_strategy(name, seed),
                      validate=False, observer=steps.append)
            assert " ".join(s.fid for s in steps) == want[mode], mode
            assert [sorted(v.elements) for v in res.value.components] == [[0], [1], [2]]

    def test_lifo_takes_the_most_recently_woken(self):
        base = frozenset({0, 1})
        x = ReductionFunction(
            "x", Scheme((2,)),
            lambda args: (args[0].with_elements(args[0].elements & {0}),),
            idempotent=True)
        y = ReductionFunction("y", Scheme((1,)), lambda args: args)
        z = ReductionFunction("z", Scheme((2,)), lambda args: args)
        start = ProductValue((PowersetValue.bottom(base),
                              PowersetValue.bottom(base)))
        # x changes component 2 and wakes z (and, in ci, itself): z was
        # woken after y, so it runs before y
        for mode, want in (("ci", ["x", "x", "z", "y"]), ("cii", ["x", "z", "y"])):
            steps = []
            run([x, y, z], start, mode=mode, strategy=make_strategy("lifo"),
                validate=False, observer=steps.append)
            assert [s.fid for s in steps] == want, mode

    def test_roundrobin_skips_and_wraps_around(self):
        base = frozenset({0, 1, 2})

        def narrow_x1(args):
            x1, x2 = args
            if 2 in x2.elements:
                return args
            return (x1.with_elements(x1.elements - {2}), x2)

        a = ReductionFunction("a", Scheme((1,)), lambda args: args)
        b = ReductionFunction("b", Scheme((1, 2)), narrow_x1, idempotent=True)
        c = ReductionFunction("c", Scheme((3,)), lambda args: args)
        d = ReductionFunction(
            "d", Scheme((2,)),
            lambda args: (args[0].with_elements(args[0].elements - {2}),),
            idempotent=True)
        start = ProductValue(tuple(PowersetValue.bottom(base) for _ in range(3)))
        # d wakes b, and b wakes a; after b the cursor is at c, so in cii,
        # with neither c nor d pending, the pick wraps around to a.  In ci,
        # d re-woke itself, so the pick skips c and takes d.
        for mode, want in (("cii", "a b c d b a"), ("ci", "a b c d b d a b")):
            steps = []
            run([a, b, c, d], start, mode=mode,
                strategy=make_strategy("roundrobin"), validate=False,
                observer=steps.append)
            assert " ".join(s.fid for s in steps) == want, mode

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_scheduling_cost_is_logarithmic(self, name):
        # F functions on F separate components, each shrinking its own once:
        # every step wakes at most one function, so picking and waking must
        # not evaluate the key of every pending function
        n = 512
        base = frozenset({0, 1})
        fns = [ReductionFunction(
            f"f{i:03d}", Scheme((i,)),
            lambda args: (args[0].with_elements(args[0].elements & {0}),),
            idempotent=True)
            for i in range(1, n + 1)]
        start = ProductValue(tuple(PowersetValue.bottom(base) for _ in range(n)))
        base = STRATEGIES[name]

        class Counting(base):
            calls = 0
            inner = staticmethod(base.key)

            @property
            def key(self):
                def counted(f):
                    self.calls += 1
                    return self.inner(f)
                return counted

            @key.setter
            def key(self, value):     # lifo and seeded set their key in reset
                self.inner = value

        for mode in ("ci", "cii"):
            strategy = Counting(1)
            res = run(fns, start, mode=mode, strategy=strategy, validate=False)
            assert res.converged
            per_step = strategy.calls / res.trace.total_applications
            assert per_step <= 4 * math.log2(n), (mode, per_step)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_two_changed_components_wake_each_reader_once(self, name):
        # g shrinks components 1 and 2 together, twice (so it is not
        # idempotent): in ciq each wake-up queues the readers of either
        # component once each, in key order, after the first pass
        def shrink_both(args):
            if min(len(x.elements) for x in args) == 1:
                return args
            return tuple(x.with_elements(x.elements - {max(x.elements)}) for x in args)

        def identity(fid, *scheme):
            return ReductionFunction(fid, Scheme(scheme), lambda args: args)

        g = ReductionFunction("g", Scheme((1, 2)), shrink_both, idempotent=False)
        fns = [identity("rb", 2), g, identity("ra", 1, 2), identity("rc", 1),
               identity("rd", 3)]
        start = ProductValue(tuple(PowersetValue.bottom({0, 1, 2}) for _ in range(3)))
        strategy = make_strategy(name, 3)
        steps = []
        run(fns, start, mode="ciq", strategy=strategy, validate=False,
            observer=steps.append)
        # the strategy keeps the run's key after it
        first = [f.fid for f in sorted(fns, key=strategy.key)]
        wake = [fid for fid in first if fid != "rd"]
        assert [s.fid for s in steps] == first + wake + wake
        assert [s.changed_components for s in steps if s.changed] == [(1, 2)] * 2

    def test_seeded_runs_repeat_their_step_sequence(self):
        rng = random.Random(71)
        for _ in range(10):
            csp = random_set_csp(rng, max_vars=5, max_constraints=5)
            fns = [f for c in csp.constraints if len(c.scheme) == 2
                   for f in make_binary_projections(c)]
            fns += [make_full_projection(c) for c in csp.constraints]
            for mode in MODES:
                steps = [[], []]
                for observed in steps:
                    run(fns, domain_bottom(csp), mode=mode,
                        strategy=make_strategy("seeded", 5), validate=False,
                        observer=observed.append)
                assert steps[0] == steps[1], mode

    def test_seeded_wakes_in_the_order_of_its_first_pass(self):
        # in ciq the trace is the first pass, then every change's readers in
        # the order they were queued: each such batch keeps the first pass's
        # relative order, drawn once for the run
        rng = random.Random(73)
        several = 0     # batches of more than one function
        for _ in range(10):
            csp = random_set_csp(rng, max_vars=5, max_constraints=5)
            fns = [f for c in csp.constraints if len(c.scheme) == 2
                   for f in make_binary_projections(c)]
            fns += [make_full_projection(c) for c in csp.constraints]
            steps = []
            run(fns, domain_bottom(csp), mode="ciq",
                strategy=make_strategy("seeded", 5), validate=False,
                observer=steps.append)
            position = {s.fid: k for k, s in enumerate(steps[:len(fns)])}
            assert sorted(position) == sorted(f.fid for f in fns)
            rest = [s.fid for s in steps[len(fns):]]
            for s in steps:
                if not s.changed:
                    continue
                readers = {f.fid for f in fns if set(s.changed_components) & set(
                    f.scheme if f.reads is None else f.reads)}
                batch, rest = rest[:len(readers)], rest[len(readers):]
                assert set(batch) == readers
                assert batch == sorted(batch, key=position.__getitem__)
                several += len(batch) > 1
            assert rest == []
        assert several > 0

    def test_seeded_draws_its_order_from_the_seed(self):
        # seeds 0-9 draw different first passes (ciq's first len(fns)
        # steps), and every seed reaches det's fixpoint in every mode
        rng = random.Random(97)
        problems = 0
        while problems < 10:
            csp = random_set_csp(rng, max_vars=5, max_constraints=5)
            fns = [f for c in csp.constraints if len(c.scheme) == 2
                   for f in make_binary_projections(c)]
            fns += [make_full_projection(c) for c in csp.constraints]
            if len(fns) < 2:
                continue
            problems += 1
            start = domain_bottom(csp)
            want = run(fns, start, validate=False).value
            firsts = set()
            for mode, seed in itertools.product(MODES, range(10)):
                steps = []
                res = run(fns, start, mode=mode, strategy=make_strategy("seeded", seed),
                          validate=False, observer=steps.append)
                assert res.value == want, (mode, seed)
                if mode == "ciq":
                    firsts.add(tuple(s.fid for s in steps[:len(fns)]))
            assert len(firsts) >= 2

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_set_modes_match_a_reference_worklist(self, name):
        rng = random.Random(83)
        lists = [*projection_lists(rng, 8), *path_lists(rng, 8)]
        changes = 0
        for fns, start in lists:
            for mode in ("ci", "cii"):
                steps = []
                res = run(fns, start, mode=mode, strategy=make_strategy(name, 4),
                          validate=False, observer=steps.append)
                want, value = reference_set_run(fns, start, mode, make_strategy(name, 4))
                assert steps == want, (name, mode, [f.fid for f in fns])
                assert res.value == value
                changes += sum(s.changed for s in steps)
        assert changes > len(lists)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_queue_modes_match_a_reference_worklist(self, name):
        # the lineq lists change several components in one step
        rng = random.Random(89)
        lists = [*projection_lists(rng, 8), *path_lists(rng, 8), *lineq_lists(rng, 12)]
        several = 0    # steps that changed several components
        for fns, start in lists:
            for mode in ("ciq", "ciiq"):
                steps = []
                res = run(fns, start, mode=mode, strategy=make_strategy(name, 4),
                          validate=False, observer=steps.append)
                want, value = reference_queue_run(fns, start, mode, make_strategy(name, 4))
                assert steps == want, (name, mode, [f.fid for f in fns])
                assert res.value == value
                several += sum(len(s.changed_components) > 1 for s in steps)
        assert several > 0, several

    @pytest.mark.parametrize("name", ["det", "block", "lifo", "seeded", "pass order"])
    def test_the_key_is_evaluated_only_while_ranking(self, name):
        # eight divergent pairs of equalities, x - y = 1 and x - y = 0, run
        # to a cap of many more steps than the ranking's key evaluations
        base = Strategy if name == "pass order" else STRATEGIES[name]

        class Counting(base):
            calls = 0
            inner = staticmethod(base.key)

            @property
            def key(self):
                def counted(f):
                    self.calls += 1
                    return self.inner(f)
                return counted

            @key.setter
            def key(self, value):     # lifo and seeded set their keys in reset
                self.inner = value

        fns = [TestProbes.equation(f"e{k}{b}", (2 * k - 1, 2 * k), (1, -1), b)
               for k in range(1, 9) for b in (1, 0)]
        start = domain_bottom(CSP((IntDomain(0, 10**9),) * 16, ()))
        bound = len(fns) * math.ceil(math.log2(len(fns))) + len(fns)
        for mode in MODES:
            strategy = Counting(1)
            if name == "pass order":    # as consistency.achieve keys a directional goal
                strategy.key = position_key(fns)
            res = run(fns, start, mode=mode, strategy=strategy, step_cap=4000,
                      validate=False)
            assert res.trace.outcome is Outcome.STEP_LIMIT
            assert 0 < strategy.calls <= bound < res.trace.total_applications, mode

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            make_strategy("fastest")


class TestProbes:
    def test_growing_function_rejected(self):
        base = frozenset({1, 2, 3})
        grow = ReductionFunction(
            "grow", Scheme((1,)),
            lambda args: (args[0].with_elements(base),), idempotent=True)
        start = ProductValue((PowersetValue.bottom(base),))
        with pytest.raises(ProbeRejectionError, match="grow"):
            run([grow], start)

    def test_non_monotone_function_rejected(self):
        base = frozenset({"a", "b"})

        def weird(args):
            (x,) = args
            if x.elements == base:
                return (x.with_elements({"b"}),)
            return (x,)

        f = ReductionFunction("weird", Scheme((1,)), weird, idempotent=True)
        with pytest.raises(ProbeRejectionError, match="monotonicity"):
            probe_function(f, ProductValue((PowersetValue.bottom(base),)),
                           samples=50)

    def test_probe_passes_sound_functions(self):
        c = Constraint("c", Scheme((1, 2)),
                       ExtensionalBody(frozenset({(1, 1), (2, 2)})))
        csp = CSP((SetDomain(frozenset({1, 2, 3})), SetDomain(frozenset({1, 2}))), (c,))
        for f in make_binary_projections(c):
            probe_function(f, domain_bottom(csp), samples=40)

    def test_component_kind_without_sampler_is_config_error(self):
        f = ReductionFunction("id", Scheme((1,)), lambda args: args)
        nested = ProductValue((PowersetValue.bottom({0}),))
        with pytest.raises(ConfigError) as err:
            probe_function(f, ProductValue((nested,)))
        assert str(err.value) == "cannot sample values of kind ProductValue"

    @staticmethod
    def recorded(f, calls):
        """``f`` with every argument tuple it is applied to appended to ``calls``."""

        def apply(args):
            calls.append(args)
            return f.apply(args)

        return dataclasses.replace(f, apply=apply)

    @staticmethod
    def equation(cid, scheme, coeffs, b):
        return make_linear_eq_narrowing(
            Constraint(cid, Scheme(scheme), LinearEqBody(coeffs, b)))

    def test_draws_are_the_same_alone_or_in_a_run(self):
        # g1 and g2 read f's components and are probed first, so inside the
        # run f's probe takes both components' draws from the run's memo
        csp = CSP((IntDomain(0, 9), IntDomain(-5, 20), IntDomain(3, 40)), ())
        start = domain_bottom(csp)
        f = self.equation("f", (1, 3), (2, -1), 1)
        others = [self.equation("g1", (1, 2), (1, -1), 0),
                  self.equation("g2", (2, 3), (3, 1), 30)]
        alone, in_run = [], []
        probe_function(f, start)
        probe_function(self.recorded(f, alone), start)
        res = run([*others, self.recorded(f, in_run)], start, step_cap=0)
        assert res.trace.total_applications == 0
        assert len(alone) == 12
        assert in_run == alone

    @pytest.mark.parametrize("idempotent", [False, True])
    def test_every_sample_is_applied(self, idempotent):
        # run probes each function on probe_function's default 6 samples:
        # f(x) and f(y) for each, f(f(x)) too if f declares idempotence, and
        # f at f(x) moved up off its reads if it declares both (pi1, pi2)
        c = Constraint("c", Scheme((1, 2)),
                       ExtensionalBody(frozenset({(1, 1), (2, 2), (3, 1)})))
        csp = CSP((SetDomain(frozenset({1, 2, 3})), SetDomain(frozenset({1, 2}))), (c,))
        calls = {}
        fns = []
        for f in [*make_binary_projections(c), make_full_projection(c)]:
            f = dataclasses.replace(f, idempotent=idempotent)
            fns.append(self.recorded(f, calls.setdefault(f.fid, [])))
        run(fns, domain_bottom(csp), step_cap=0)
        assert {fid: len(args) for fid, args in calls.items()} == {
            f.fid: (2 + idempotent + (idempotent and f.reads is not None)) * 6
            for f in fns}

    @staticmethod
    def bump(idempotent):
        """Raises ``x.lo`` by one, up to 5: monotone and inflationary, and
        not idempotent."""

        def apply(args):
            (x,) = args
            if x.is_empty or x.lo >= 5:
                return args
            return (GridInterval(x.grid, x.lo + 1, x.hi),)

        return ReductionFunction("bump", Scheme((1,)), apply, idempotent=idempotent)

    @pytest.mark.parametrize("mode", MODES)
    def test_false_idempotence_declaration_rejected(self, mode):
        start = domain_bottom(CSP((IntDomain(0, 10),), ()))
        with pytest.raises(ProbeRejectionError,
                           match="'bump' rejected: declares idempotent=True"):
            run([self.bump(True)], start, mode=mode)
        res = run([self.bump(False)], start, mode=mode)
        assert res.value.component(1).lo == 5

    @staticmethod
    def a_up(reads):
        """``y := y & [x.lo..]`` on ``(x, y)``: monotone, inflationary and
        idempotent, and a change of ``x`` can make it unstable."""

        def apply(args):
            x, y = args
            if y.is_empty:
                return args
            if x.is_empty or x.lo > y.hi:
                return (x, GridInterval.empty(y.grid))
            if x.lo <= y.lo:
                return args
            return (x, GridInterval(y.grid, x.lo, y.hi))

        return ReductionFunction("a_up", Scheme((1, 2)), apply, idempotent=True,
                                 reads=reads)

    @pytest.mark.parametrize("mode", MODES)
    def test_false_reads_declaration_rejected(self, mode):
        # a_up declares that it reads y only; "up" raises x.lo to 3.  Run
        # unprobed, the false declaration leaves a_up unstable at the end
        up = ReductionFunction(
            "up", Scheme((1,)),
            lambda args: args if args[0].is_empty or args[0].lo >= 3
            else (GridInterval(args[0].grid, 3, args[0].hi),),
            idempotent=True)
        start = domain_bottom(CSP((IntDomain(0, 10), IntDomain(0, 10)), ()))
        with pytest.raises(ProbeRejectionError,
                           match=r"'a_up' rejected: declares reads=\(2,\)"):
            run([up, self.a_up((2,))], start, mode=mode)
        res = run([up, self.a_up((2,))], start, mode=mode, validate=False)
        assert res.converged and res.value.component(2).lo == 0
        res = run([up, self.a_up(None)], start, mode=mode)
        assert res.value.component(2).lo == 3

    def test_catalogue_reads_declarations_pass(self):
        # pi1/pi2 read the other side, path@ and a rel@ whose target is not
        # a member read their members only
        rng = random.Random(97)
        names = ["pi1@c13", "pi2@c12", "path@1,2,3", "path@3,1,2",
                 "rel@2,3;c12,c13", "rel@1,2;c13,c32"]
        probed = set()
        for _ in range(12):
            domains = [frozenset(range(rng.randint(2, 3))) for _ in range(3)]
            cs = tuple(random_binary_constraint(
                rng, domains[i - 1], domains[j - 1], f"c{i}{j}", (i, j))
                for i, j in ((1, 2), (1, 3), (3, 2), (2, 3)))
            space, fns = build_named_reducers(
                CSP(tuple(SetDomain(d) for d in domains), cs), names)
            for f in fns:
                assert f.idempotent and f.reads is not None, f.fid
                probe_function(f, space.bottom(), samples=20)
                probed.add(f.fid)
        assert probed == set(names)

    def test_shared_draws_do_not_raise_the_peak(self):
        # a 200-equality chain: each component's draws are freed once its
        # last reader is probed, so the probes' peak stays near the run's
        rng = random.Random(5)
        d = IntDomain(0, 10**6)
        fns = []
        for k in range(1, 201):
            a = rng.randint(1, 9)
            fns.append(self.equation(f"e{k}", (k, k + 1), (a, -a), a * rng.randint(-4, 4)))
        start = domain_bottom(CSP((d,) * 201, ()))
        peaks = []
        for validate in (False, True):
            tracemalloc.start()
            try:
                run(fns, start, step_cap=0, validate=validate)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 64 * 1024, peaks


class TestClosureStar:
    def test_idempotent_function_unchanged(self):
        rng = random.Random(4)
        c = random_binary_constraint(rng, {0, 1, 2}, {0, 1, 2})
        csp = CSP((SetDomain(frozenset({0, 1, 2})),) * 2, (c,))
        f = make_full_projection(c)
        star = closure_star(f)
        for _ in range(40):
            x = tuple(pv({0, 1, 2}, {a for a in (0, 1, 2) if rng.random() < 0.6})
                      for _ in range(2))
            assert star.apply(x) == tuple(f.apply(x))

    def test_equality_narrowing_closure(self):
        c = Constraint("e", Scheme((1, 2)), LinearEqBody((3, -5), 4))
        csp = CSP((IntDomain(0, 9), IntDomain(1, 8)), (c,))
        star = closure_star(make_linear_eq_narrowing(c))
        out = star.apply(tuple(domain_bottom(csp).components))
        assert [(v.lo, v.hi) for v in out] == [(3, 8), (1, 4)]
        assert tuple(star.apply(out)) == tuple(out)

    def test_identity(self):
        f = ReductionFunction("id", Scheme((1,)), lambda args: args)
        star = closure_star(f)
        x = (pv({1, 2}, {1}),)
        assert star.apply(x) == x

    def test_cap_exceeded_names_function(self):
        c = Constraint("e", Scheme((1, 2)), LinearEqBody((3, -5), 4))
        csp = CSP((IntDomain(0, 9), IntDomain(1, 8)), (c,))
        star = closure_star(make_linear_eq_narrowing(c), step_cap=1)
        with pytest.raises(ResourceLimitError, match="lineq@e"):
            star.apply(tuple(domain_bottom(csp).components))


class TestCompareLimits:
    def test_full_projection_equals_projection_pair(self):
        rng = random.Random(6)
        for _ in range(25):
            c = random_binary_constraint(rng, {0, 1, 2}, {0, 1})
            csp = CSP((SetDomain(frozenset({0, 1, 2})),
                       SetDomain(frozenset({0, 1}))), (c,))
            report = compare_limits([make_full_projection(c)],
                                    list(make_binary_projections(c)),
                                    domain_bottom(csp), validate=False)
            assert report.relation == "equal"

    def test_noop_addition_changes_nothing(self):
        c = Constraint("c", Scheme((1, 2)),
                       ExtensionalBody(frozenset({(1, 1), (2, 2)})))
        csp = CSP((SetDomain(frozenset({1, 2, 3})), SetDomain(frozenset({1, 2}))), (c,))
        fns = list(make_binary_projections(c))
        noop = ReductionFunction("noop", Scheme((1,)), lambda args: args)
        report = compare_limits(fns, fns + [noop], domain_bottom(csp), validate=False)
        assert report.relation == "equal"

    def test_single_projection_reduces_less(self):
        c = Constraint("c", Scheme((1, 2)), ExtensionalBody(frozenset({(1, 1)})))
        csp = CSP((SetDomain(frozenset({1, 2})), SetDomain(frozenset({1, 2}))), (c,))
        pi1, pi2 = make_binary_projections(c)
        report = compare_limits([pi1], [pi1, pi2], domain_bottom(csp), validate=False)
        assert report.relation == "less"
        assert report.left.component(2).elements == frozenset({1, 2})
        assert report.right.component(2).elements == frozenset({1})


    # c keeps 1 on each side: pi1 alone shrinks the first variable, pi2
    # alone the second
    ONE_PAIR = Constraint("c", Scheme((1, 2)), ExtensionalBody(frozenset({(1, 1)})))
    ONE_PAIR_START = domain_bottom(CSP((SetDomain(frozenset({1, 2})),) * 2, (ONE_PAIR,)))

    def test_more_projections_reduce_more(self):
        pi1, pi2 = make_binary_projections(self.ONE_PAIR)
        report = compare_limits([pi1, pi2], [pi1], self.ONE_PAIR_START, validate=False)
        assert report.relation == "greater"

    def test_projections_on_different_sides_are_incomparable(self):
        pi1, pi2 = make_binary_projections(self.ONE_PAIR)
        report = compare_limits([pi1], [pi2], self.ONE_PAIR_START, validate=False)
        assert report.relation == "incomparable"

    def test_a_capped_run_is_inconclusive(self):
        # no step is allowed, so neither run converges and no limit is known
        fns = list(make_binary_projections(self.ONE_PAIR))
        report = compare_limits(fns, fns, self.ONE_PAIR_START, step_cap=0,
                                validate=False)
        assert (report.relation, report.left, report.right) == ("inconclusive", None, None)


class TestLeastFixpoint:
    def test_exhaustive_two_variable_oracle(self):
        base1, base2 = frozenset({0, 1}), frozenset({0, 1})
        pairs = list(itertools.product((0, 1), repeat=2))
        for r in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                c = Constraint("c", Scheme((1, 2)),
                               ExtensionalBody(frozenset(chosen)))
                csp = CSP((SetDomain(base1), SetDomain(base2)), (c,))
                start = domain_bottom(csp)
                for fns in ([make_full_projection(c)],
                            list(make_binary_projections(c))):
                    res = run(fns, start, validate=False)
                    oracle = brute_force_least_fixpoint(
                        fns, powerset_states([base1, base2]), start)
                    assert res.value == oracle


class TestOrderIndependence:
    def test_modes_and_strategies_agree(self):
        # Apt's chaotic iteration theorem: every fair run from the same start
        # reaches the same least common fixpoint
        rng = random.Random(13)
        inputs = []
        for _ in range(20):
            csp = random_set_csp(rng)
            inputs.append(([make_full_projection(c) for c in csp.constraints],
                           domain_bottom(csp)))
        inputs += lineq_lists(random.Random(17), 20)
        inputs += projection_lists(random.Random(19), 15)
        inputs += named_lists(random.Random(23), 10)
        for fns, start in inputs:
            results = {res.value for _, _, res in runs_everywhere(fns, start)}
            assert len(results) == 1, [f.fid for f in fns]

    def test_queue_modes_terminate_under_random_strategies(self):
        rng = random.Random(99)
        csp = random_set_csp(rng, max_vars=3, max_atoms=3, max_constraints=4)
        fns = [make_full_projection(c) for c in csp.constraints]
        for seed in range(100):
            for mode in ("ciq", "ciiq"):
                res = run(fns, domain_bottom(csp), mode=mode,
                          strategy=make_strategy("seeded", seed), validate=False)
                assert res.converged
