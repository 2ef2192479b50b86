"""Consistency predicates and the drivers that achieve them.

``achieve`` turns a consistency goal into a set of reduction functions, runs
them on the generic engine and returns the problem determined by the
fixpoint.  Every goal but ``rel:<m>`` is a reducer list: ``goal_records``
lists its functions as records, which ``reducers.build_reducers`` builds as
it builds a named list.  ``arc`` is ``piC@c`` for every constraint; ``path``
is ``path@k,l,m`` for every triple of distinct indices, over every ordered
pair's constraint by ``reducers.constraint_components``: those on one scheme
merged (``a&b``), a universal ``u(i,j)`` where there is none.  A directional
goal lists its functions in pass order, and its run is Apt's simple
iteration in every mode: one application of each, in that order.

``rel:<m>`` (Dechter and van Beek) takes its components by the same rule,
for the input schemes, then each nonempty variable set that no input
constraint covers, in sorted order.  Each m-subset S of them gets one
reducer, which no name form lists: ``rel(<member ids>)`` (a comma or
backslash in an id escaped with a backslash) intersects every component
whose variables lie inside S's scopes with the projection of the join of S.
With k components that is C(k, m) functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .csp import (
    CSP, DEFAULT_ENUM_CAP, Relation, Scheme, SetDomain, join_constraints, reselect,
)
from .engine import (
    DEFAULT_STEP_CAP, RunTrace, Strategy, TraceStep, position_key, run,
)
from .errors import ConfigError, ResourceLimitError
from .reducers import (
    ConstraintSpace, build_reducers, constraint_components, join_projection,
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
    and the run's summary.  Every goal but ``rel:<m>`` is its records
    (``goal_records``), built by ``reducers.build_reducers`` as a named
    list is.  ``observer`` is passed to ``engine.run``, which calls it once
    per step.  A directional goal is one pass, whatever ``mode`` and
    ``strategy`` say: mode ``ci``, keyed by list position.  A function of
    the pass reads none of what it writes, and only later ones read that,
    so it wakes only pending functions: each is applied once, in order."""
    space, functions = (_relational_setup(csp, goal.m) if goal.kind == "rel"
                        else build_reducers(csp, *goal_records(csp, goal)))
    if goal.kind.startswith("dir-"):
        mode, strategy = "ci", Strategy()
        strategy.key = position_key(functions)
    result = run(functions, space.bottom(), mode=mode, strategy=strategy,
                 step_cap=step_cap, early_exit=early_exit, validate=False,
                 observer=observer)
    return space.rebuild(result.value), result.trace


def goal_records(csp: CSP, goal: ConsistencyGoal) -> tuple[list, Iterable[tuple]]:
    """The records ``reducers.build_reducers`` builds ``goal``'s functions
    from (any kind but ``rel``), and the schemes its space holds besides
    theirs: every ordered pair for ``path`` and ``dir-path``, triples or not.
    A directional goal's records are in pass order, latest variable first
    (then by constraint id or fid), so one pass suffices."""
    if goal.kind == "arc":
        return [("piC", [c.cid for c in csp.constraints])], ()
    if goal.kind not in ("path", "dir-arc", "dir-path"):
        raise ConfigError(f"unknown goal kind {goal.kind!r}")
    n, rank = csp.arity, {}
    if goal.kind != "path":
        if goal.order is None or sorted(goal.order) != list(range(1, n + 1)):
            raise ConfigError(
                f"directional goals need a permutation of 1..{n}, got {goal.order}")
        rank = {idx: pos for pos, idx in enumerate(goal.order)}
    for c in csp.constraints:
        if not c.is_extensional or len(c.scheme) != 2:
            raise ConfigError(
                f"constraint {c.cid!r} is not binary extensional; incompatible goal")
    if goal.kind == "dir-arc":
        passes = []
        for c in csp.constraints:
            i, j = c.scheme
            # the support projections apply to set domains only
            if not all(isinstance(csp.domains[k - 1], SetDomain) for k in (i, j)):
                raise ConfigError(
                    f"constraint {c.cid!r} is not over finite set domains; incompatible goal")
            # prune the earlier variable against the later one, in either orientation
            later, kind = (j, "pi1") if rank[i] < rank[j] else (i, "pi2")
            passes.append((-rank[later], c.cid, kind))
        return [(kind, (cid,)) for _, cid, kind in sorted(passes, key=lambda e: e[:2])], ()
    triples = itertools.permutations(range(1, n + 1), 3)
    if goal.kind == "dir-path":
        triples = sorted((t for t in triples if rank[t[0]] < rank[t[2]] > rank[t[1]]),
                         key=lambda t: (-rank[t[2]], "path@%d,%d,%d" % t))
    return [("path", list(triples))], itertools.permutations(range(1, n + 1), 2)


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
    return space, fns
