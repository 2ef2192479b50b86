"""Consistency predicates and the drivers that achieve them.

``achieve`` turns a consistency goal into a set of reduction functions, runs
them on the generic engine and returns the problem determined by the
fixpoint.  A directional goal is the same run under a schedule that follows
its variable order: each of its functions wakes only functions later in the
pass, so the run applies every function once.

The path goals and ``rel:<m>`` take their constraint components from the
rule a named ``rel@`` target follows too, ``reducers.constraint_components``:
the constraints sharing a listed scheme merged (``a&b``), a universal
constraint ``u(i,j,...)`` (primed, ``u(i,j,...)'``, while an input constraint
has that id) for a listed scheme that none has.  ``path`` lists every ordered
pair, and its reducers, one per triple of distinct indices (336 on eight
variables), come from ``reducers.make_path_reducers`` with one shared
``apply``; ``rel:<m>`` (Dechter and van Beek) the input schemes, then each
nonempty variable set that no input constraint covers, in sorted order.
Under ``rel:<m>`` each m-subset S of the components gets one reducer,
``rel(<member ids>)`` (a comma or backslash in an id is escaped with a
backslash): every component whose variables lie inside S's scopes is
intersected with the projection of the join of S.  With k components that
is C(k, m) functions: 15 for ``rel:1`` and 105 for ``rel:2`` on four
variables whose constraints cover distinct variable sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .csp import (
    CSP, DEFAULT_ENUM_CAP, Relation, Scheme, SetDomain, join_constraints, reselect,
)
from .engine import (
    DEFAULT_STEP_CAP, RunTrace, Strategy, TraceStep, position_key, run,
)
from .errors import ConfigError, ResourceLimitError
from .reducers import (
    ConstraintSpace, RunSetup, constraint_components, domain_space, join_projection,
    make_binary_projections, make_full_projection, make_path_reducers,
)
# not called here: the benchmark's tracer (bench/tracing.py) patches these names
from .engine import apply_step  # noqa: F401
from .reducers import csp_from_domain_state  # noqa: F401

DEFAULT_FN_CAP = 20_000


@dataclass(frozen=True)
class ConsistencyGoal:
    """What to enforce: ``arc``, ``path``, ``rel`` (with ``m``), or the
    directional variants carrying a total order over the domain indices."""

    kind: str
    order: tuple[int, ...] | None = None
    m: int | None = None


def parse_goal(text: str) -> ConsistencyGoal:
    if text == "arc":
        return ConsistencyGoal("arc")
    if text == "path":
        return ConsistencyGoal("path")
    if text.startswith("dir-arc:") or text.startswith("dir-path:"):
        kind, _, rest = text.partition(":")
        try:
            order = tuple(int(x) for x in rest.split(","))
        except ValueError:
            raise ConfigError(f"bad index order in goal {text!r}")
        return ConsistencyGoal(kind, order=order)
    if text.startswith("rel:"):
        try:
            m = int(text.partition(":")[2])
        except ValueError:
            raise ConfigError(f"bad arity in goal {text!r}")
        return ConsistencyGoal("rel", m=m)
    raise ConfigError(f"unknown goal {text!r}")


# ---------------------------------------------------------------------------
# Predicates


def is_arc_consistent(csp: CSP) -> bool:
    """Every value of every domain a constraint touches participates in some
    tuple of that constraint."""
    for c in csp.constraints:
        if not c.is_extensional:
            raise ConfigError(f"constraint {c.cid!r} is not extensional; unsupported")
        for k, i in enumerate(c.scheme):
            seen = {t[k] for t in c.tuples}
            if any(a not in seen for a in csp.domain_members(i)):
                return False
    return True


def is_relationally_m_consistent(csp: CSP, m: int, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Dechter and van Beek's relational m-consistency, checked exhaustively:
    for any ``m`` distinct constraints and any set ``x`` of variables in their
    scopes, every instantiation of ``x`` that satisfies each constraint whose
    scope lies inside ``x`` extends to a joint solution of the ``m``.
    Constraints sharing a scheme count as their intersection; orientation
    does not matter."""
    if m < 1:
        raise ConfigError("relational consistency needs m >= 1")
    tuples_on: dict[Scheme, frozenset] = {}
    for c in csp.constraints:
        if not c.is_extensional:
            raise ConfigError(f"constraint {c.cid!r} is not extensional; unsupported")
        tuples_on[c.scheme] = tuples_on.get(c.scheme, c.tuples) & c.tuples
    merged = [Relation(s, t) for s, t in tuples_on.items()]
    scopes = [frozenset(c.scheme) for c in merged]
    work = 0
    for chosen in itertools.combinations(merged, m):
        joined = join_constraints(chosen, cap=cap)
        u = joined.scheme
        for x in itertools.chain.from_iterable(
                itertools.combinations(u, r) for r in range(1, len(u) + 1)):
            proj = reselect(joined.scheme, joined.tuples, x)
            inside = set(x)
            filters = [(tuple(x.index(i) for i in c.scheme), c.tuples)
                       for c, scope in zip(merged, scopes) if scope <= inside]
            size = 1
            for i in x:
                size *= len(csp.domain_members(i))
            work += size
            if work > cap:
                raise ResourceLimitError(
                    f"relational consistency check exceeds the {cap}-tuple cap")
            for d in itertools.product(*(csp.domain_members(i) for i in x)):
                consistent = all(tuple(d[p] for p in pos) in tuples
                                 for pos, tuples in filters)
                if consistent and d not in proj:
                    return False
    return True


# ---------------------------------------------------------------------------
# Achieve drivers


def achieve(csp: CSP, goal: ConsistencyGoal, mode: str = "ci",
            strategy: Strategy | None = None, step_cap: int = DEFAULT_STEP_CAP,
            early_exit: bool = False,
            observer: Callable[[TraceStep], object] | None = None,
            ) -> tuple[CSP, RunTrace]:
    """Enforce ``goal`` on ``csp``; returns the reduced, equivalent problem
    and the run's summary.  ``observer`` is passed to ``engine.run``, which
    calls it once per step.  A directional goal lists its functions in
    pass order and runs them in that order, whatever ``strategy`` says."""
    if goal.kind == "arc":
        setup = RunSetup(domain_space(csp),
                         [make_full_projection(c) for c in csp.constraints])
    elif goal.kind == "path":
        setup = _path_setup(csp)
    elif goal.kind == "rel":
        setup = _relational_setup(csp, goal.m)
    elif goal.kind == "dir-arc":
        setup, strategy = _directional_arc_setup(csp, goal.order), _PassOrder()
    elif goal.kind == "dir-path":
        setup, strategy = _path_setup(csp, _check_order(csp, goal.order)), _PassOrder()
    else:
        raise ConfigError(f"unknown goal kind {goal.kind!r}")
    result = run(setup.functions, setup.start, mode=mode, strategy=strategy,
                 step_cap=step_cap, early_exit=early_exit, validate=False,
                 observer=observer)
    return setup.rebuild(result.value), result.trace


def _check_binary(csp: CSP) -> None:
    """Every constraint must be binary extensional."""
    for c in csp.constraints:
        if not c.is_extensional or len(c.scheme) != 2:
            raise ConfigError(
                f"constraint {c.cid!r} is not binary extensional; incompatible goal")


def _path_setup(csp, rank=None):
    """``path@k,l,m`` for every triple of distinct indices, on one component
    per ordered pair.  Given ``rank`` (a directional goal's checked order),
    only the triples whose ``m`` comes after ``k`` and ``l``: the latest
    ``m`` first, by fid within one ``m``, so one pass suffices."""
    _check_binary(csp)
    indices = range(1, csp.arity + 1)
    space = ConstraintSpace(*constraint_components(csp, itertools.permutations(indices, 2)))
    triples = [(k, l, m) for k, l, m in itertools.permutations(indices, 3)
               if rank is None or (rank[k] < rank[m] and rank[l] < rank[m])]
    fns = make_path_reducers(space, triples)
    if rank is not None:
        fns = [f for _, f in sorted(zip(triples, fns),
                                    key=lambda tf: (-rank[tf[0][2]], tf[1].fid))]
    return RunSetup(space, fns)


def _relational_setup(csp, m):
    if m is None or m < 1:
        raise ConfigError("relational goal needs an arity m >= 1")
    n = csp.arity
    # k components: the merged constraints (one per ordered scheme) and a
    # universal one per variable set that none of them covers
    schemes = list(dict.fromkeys(c.scheme for c in csp.constraints))
    covered = {frozenset(s) for s in schemes}
    sets = 2 ** n - 1
    k = len(schemes) + sets - len(covered)
    if sets > DEFAULT_FN_CAP or math.comb(k, m) > DEFAULT_FN_CAP:
        raise ResourceLimitError(
            f"relational goal over {n} variables ({sets} variable sets) needs "
            f"C({k},{m}) functions; the cap is {DEFAULT_FN_CAP}")
    for c in csp.constraints:
        if not c.is_extensional:
            raise ConfigError(f"constraint {c.cid!r} is not extensional; unsupported")
    space = ConstraintSpace(*constraint_components(csp, schemes + [
        s for r in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), r)
        if frozenset(s) not in covered]))
    comps = space.components
    scopes = [frozenset(c.scheme) for c in comps]
    # escaped, so that ids with commas in them cannot make two function ids equal
    names = [c.key.replace("\\", "\\\\").replace(",", "\\,") for c in comps]
    fns = []
    for subset in itertools.combinations(range(1, len(comps) + 1), m):
        union = frozenset().union(*(scopes[p - 1] for p in subset))
        targets = [p for p, scope in enumerate(scopes, start=1) if scope <= union]
        fid = "rel(" + ",".join(names[p - 1] for p in subset) + ")"
        fns.append(join_projection(space, targets, subset, fid, fid))
    return RunSetup(space, fns)


class _PassOrder(Strategy):
    """A directional goal's schedule: each function's position in the pass,
    whose functions wake only later ones."""

    def reset(self, functions):
        self.key = position_key(functions)


def _check_order(csp: CSP, order) -> dict[int, int]:
    n = csp.arity
    if order is None or sorted(order) != list(range(1, n + 1)):
        raise ConfigError(f"directional goals need a permutation of 1..{n}, got {order}")
    return {idx: pos for pos, idx in enumerate(order)}


def _directional_arc_setup(csp, order):
    rank = _check_order(csp, order)
    _check_binary(csp)
    chosen = []
    for c in csp.constraints:
        i, j = c.scheme
        # the support projections apply to set domains only: fail at set-up
        if not all(isinstance(csp.domains[k - 1], SetDomain) for k in (i, j)):
            raise ConfigError(
                f"constraint {c.cid!r} is not over finite set domains; incompatible goal")
        # prune the earlier variable against the later one, in either orientation
        later, k = (j, 0) if rank[i] < rank[j] else (i, 1)
        chosen.append((-rank[later], c.cid, make_binary_projections(c)[k]))
    # later variables first, so one pass suffices
    chosen.sort(key=lambda entry: entry[:2])
    return RunSetup(domain_space(csp), [f for _, _, f in chosen])
