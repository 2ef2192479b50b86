"""The reduction-function catalogue and the state space it acts on.

Every run acts on one product, a ``ConstraintSpace``.  A run with domain
reducers has the variables as its components ``1..n``, each holding its
domain in the declared family: a powerset of the declared atoms for a set
domain, a grid interval for an integer range.  Domain reducers (projections,
linear-equality narrowing) shrink those, and their schemes name them as they
are.  One projection body fits each coordinate it writes of the tuples in the
box into its family, so ``hull`` is ``piC`` on intervals.  The other
components hold a constraint's current tuple set (or a growing set of linear
inequalities for cutting planes); constraint reducers shrink those.
``rho``, path and relational reduction share one body: intersect each target
with the projection of the join of the members.  With one target, the join
is a witness search (``join_constraints(..., within=...)``): it keeps the
target's tuples that extend to a tuple of the join, so path reduction keeps
a pair of ``C_kl`` when some value of ``m`` supports it and never builds
``C_km ∘ C_ml``; such a reducer resolves the search's plan when it is built,
so an application is one ``join_constraints`` call.  That plan is the same
for every path triple, so it is resolved at import, and every path reducer
has the one ``apply``, ``_path_apply``, over its own components.  With
several targets, the projection onto the union of their schemes is fused
into the join (``join_constraints(..., onto=...)``), and each target is
intersected with its part.  Either way an application that removes nothing
returns its ``args`` tuple itself, as every reducer of the catalogue does
when it changes nothing, so the engine sees the no-change case in one
identity test.
A variable over a set domain also joins as a unary constraint (``~domN``);
only ``join_projection`` knows how, and wires it when the reducer is built.
A reached state folds back into a problem: variables into the declared
families, extensional constraints restricted to them.

One builder, ``build_reducers``, resolves every reducer list into its space
and its functions: the records that names ``kind@head[;tail]`` parse into
(``build_named_reducers``) and those the ``arc``, ``path`` and directional
goals list.  The constraint on a scheme is decided in one place,
``constraint_components``, for the path and ``rel:m`` goals and a named
``rel@`` target or ``path@`` triple alike: the constraints on it merged
(``a&b``), or a universal one when there is none.  A target or triple with
an index repeated or outside ``1..n`` names no scheme, and fails in list
order, as every item that cannot be built does.

Linear-equality narrowing (``lineq``) is Apt's bounds narrowing as one
more reduction function: one pass checks the arguments' kinds, then
``_narrow_bounds``, the one bound formula, reads the intervals as they are.

Every constructor returns an engine ``ReductionFunction``; all of them
preserve the solution set of the problem they were built from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import contains, is_
from typing import Iterable, NamedTuple, Sequence

from .csp import (
    CSP, Constraint, DEFAULT_ENUM_CAP, Domain, ExtensionalBody, IntDomain,
    LinearEqBody, LinearIneqBody, Relation, Scheme, SetDomain,
    join_constraints, reselect, scheme_union, witness_plan,
)
from .engine import ReductionFunction
from .errors import ConfigError, DataError, ResourceLimitError
from .lattice import GridInterval, GrowSetValue, IntGrid, PowersetValue, ProductValue


# ---------------------------------------------------------------------------
# Folding a reached state back into a problem


def _fold_domain(value) -> Domain:
    """The domain a variable's component denotes, in its declared family."""
    if isinstance(value, GridInterval):
        return IntDomain(1, 0) if value.is_empty else IntDomain(value.lo, value.hi)
    if isinstance(value, PowersetValue):
        return SetDomain(value.elements)
    raise ConfigError(f"unexpected component kind {type(value).__name__}")


def _restrict(scheme: Scheme, tuples, domains: Sequence[Domain]) -> frozenset:
    """The tuples over ``scheme`` whose every coordinate lies in its domain."""
    allowed = [domains[i - 1].values for i in scheme]
    return frozenset(t for t in tuples if all(map(contains, allowed, t)))


# ---------------------------------------------------------------------------
# Domain reduction functions


_FITTING_KINDS = (PowersetValue, GridInterval)
_POWERSET_KINDS = (PowersetValue,)


def _projection(c: Constraint, fid: str, writes, kinds: tuple, reads=None) -> ReductionFunction:
    """Fit the coordinates ``writes`` to the tuples that survive the box."""
    if not c.is_extensional:
        raise ConfigError(f"constraint {c.cid!r} is not extensional")
    tuples = c.tuples

    def apply(args):
        live = tuples
        for k, v in enumerate(args):
            if not isinstance(v, kinds):
                raise ConfigError(f"cannot project onto component kind {type(v).__name__}")
            # the membership test: a powerset's frozenset, an interval itself
            within = v.elements if isinstance(v, PowersetValue) else v
            live = [t for t in live if t[k] in within]
        out = list(args)
        for k in writes:
            out[k] = args[k].fit({t[k] for t in live})
        return args if all(map(is_, out, args)) else tuple(out)

    return ReductionFunction(fid, c.scheme, apply, idempotent=True, group=c.cid, reads=reads)


def make_binary_projections(c: Constraint) -> tuple[ReductionFunction, ReductionFunction]:
    """The two support projections of a binary constraint: each keeps, on one
    side, only the values that some pair of the constraint supports.  They
    accept powersets only: each declares that it reads the other side alone,
    which holds where fitting is intersection (``x := x ∩ S(y)``), but a
    hull of ``x ∩ S(y)`` is not of the form ``x := x ∩ h(y)``."""
    if not c.is_extensional or len(c.scheme) != 2:
        raise ConfigError(f"constraint {c.cid!r} is not a binary extensional constraint")
    return tuple(_projection(c, f"pi{k + 1}@{c.cid}", (k,), _POWERSET_KINDS,
                             reads=(c.scheme[1 - k],))
                 for k in (0, 1))


def make_full_projection(c: Constraint) -> ReductionFunction:
    """Shrink every component of the constraint's scheme to the projection of
    the tuples that survive the current box (hulled on interval components)."""
    return _projection(c, f"piC@{c.cid}", range(len(c.scheme)), _FITTING_KINDS)


def make_interval_hull_projection(c: Constraint) -> ReductionFunction:
    """Projection followed by the smallest enclosing grid interval, per
    coordinate: ``make_full_projection`` under its own name."""
    return replace(make_full_projection(c), fid=f"hull@{c.cid}")


class _Bounds(NamedTuple):
    lo: int
    hi: int


def linear_eq_narrow(eq: LinearEqBody, box: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """One bound-tightening application for an integer linear equality over
    integer interval bounds, given as ``(lo, hi)`` pairs.

    Returns one ``(lo, hi)`` pair per position; a pair with ``hi < lo``
    denotes an emptied interval.  The formula is ``_narrow_bounds``, which
    the ``lineq`` reducer applies to its intervals as they are.  The function
    is deliberately a single application: iterating it can tighten further.
    """
    return _narrow_bounds(eq.coeffs, eq.constant, [_Bounds(l, h) for l, h in box])


def _narrow_bounds(coeffs: tuple[int, ...], b: int, box: Sequence) -> list[tuple[int, int]]:
    """The narrowing of ``sum_k a_k x_k = b`` over ``box``: one interval per
    coefficient, anything with integer ``lo`` and ``hi``.

    Each term ``a_k x_k`` ranges over ``[min_k, max_k]`` on the box, and
    ``lo`` and ``hi`` are the sums of those ends over all terms.  The other
    terms then leave ``least = b - (hi - max_k) <= a_k x_k <= b - (lo - min_k)
    = most``.  For ``a_k > 0``, ``x_k`` lies between the exact integer
    ceiling ``-(-least // a_k)`` and floor ``most // a_k``; for ``a_k < 0``
    the division turns the order round, so the ceiling is taken of
    ``most / a_k`` and the floor of ``least / a_k``.  Two passes over the
    terms, for both signs.
    """
    if len(box) != len(coeffs):
        raise ConfigError("one interval per coefficient is required")
    if 0 in coeffs:
        raise ConfigError("zero coefficient in linear equality")
    lo = hi = 0
    ends = []
    for a, v in zip(coeffs, box):
        if a > 0:
            t_min, t_max = a * v.lo, a * v.hi
        else:
            t_min, t_max = a * v.hi, a * v.lo
        lo += t_min
        hi += t_max
        ends.append((t_min, t_max))
    out = []
    for a, v, (t_min, t_max) in zip(coeffs, box, ends):
        if a > 0:
            new_lo, new_hi = -((hi - t_max - b) // a), (b - lo + t_min) // a
        else:
            new_lo, new_hi = -((lo - t_min - b) // a), (b - hi + t_max) // a
        # max(l, new_lo) and min(h, new_hi) without the builtin calls
        l, h = v.lo, v.hi
        out.append((new_lo if new_lo > l else l, new_hi if new_hi < h else h))
    return out


def make_linear_eq_narrowing(c: Constraint) -> ReductionFunction:
    """Package the equality narrowing as a (non-idempotent) reduction function
    over integer grid intervals.  One application checks every argument's
    kind, then hands the intervals themselves to ``_narrow_bounds``; a
    coordinate whose bounds do not move comes back as the argument object
    itself."""
    if not isinstance(c.body, LinearEqBody):
        raise ConfigError(f"constraint {c.cid!r} is not a linear equality")
    coeffs, b = c.body.coeffs, c.body.constant

    def apply(args):
        emptied = False
        for v in args:
            if not (isinstance(v, GridInterval) and isinstance(v.grid, IntGrid)):
                raise ConfigError("equality narrowing needs integer interval components")
            if v.lo is None:
                emptied = True
        if emptied:
            # an emptied coordinate means the whole box denotes no points
            out = [v if v.is_empty else GridInterval.empty(v.grid) for v in args]
        else:
            out = [v if lo == v.lo and hi == v.hi
                   else GridInterval(v.grid, lo, hi) if lo <= hi
                   else GridInterval.empty(v.grid)
                   for v, (lo, hi) in zip(args, _narrow_bounds(coeffs, b, args))]
        return args if all(map(is_, out, args)) else tuple(out)

    return ReductionFunction(f"lineq@{c.cid}", c.scheme, apply,
                             idempotent=False, group=c.cid)


# ---------------------------------------------------------------------------
# Constraint space


@dataclass(frozen=True)
class ExtComponent:
    """A component holding an extensional constraint's current tuple set."""

    constraint: Constraint

    @property
    def key(self) -> str:
        return self.constraint.cid

    @property
    def scheme(self) -> Scheme:
        return self.constraint.scheme


@dataclass(frozen=True, slots=True)
class DomainComponent:
    """A variable's domain, at position ``var`` of the space, in its declared
    family; over a set domain it also joins as a unary constraint."""

    var: int

    @property
    def key(self) -> str:
        return f"~dom{self.var}"


@dataclass(frozen=True)
class IneqComponent:
    """A group of integer linear inequalities treated as one constraint whose
    value is the growing set of inequalities derived for it."""

    gid: str
    members: tuple[Constraint, ...]

    @property
    def key(self) -> str:
        return self.gid


def _ineq_record(c: Constraint) -> tuple:
    """Normalize an inequality constraint to a hashable, scheme-free record."""
    if not isinstance(c.body, LinearIneqBody):
        raise ConfigError(f"constraint {c.cid!r} is not a linear inequality")
    pairs = sorted((i, a) for i, a in zip(c.scheme, c.body.coeffs) if a != 0)
    return (tuple(i for i, _ in pairs), tuple(a for _, a in pairs), c.body.constant)


def _record_constraint(record: tuple, cid: str) -> Constraint:
    variables, coeffs, bound = record
    if not variables:
        raise ConfigError("cannot rebuild a constraint from a variable-free record")
    return Constraint(cid, Scheme(variables), LinearIneqBody(coeffs, bound))


class ConstraintSpace:
    """The state space of a run: its variables first, as positions ``1..k``
    when it has any, then one component per constraint or inequality group;
    builds the start state and rebuilds a problem from any reached state.
    It holds the layout only: how a reducer reads its components (a
    variable's atoms as 1-tuples in a join) is the reducer's own."""

    def __init__(self, csp: CSP, components: Sequence):
        self.csp = csp
        self.components = tuple(components)
        self._by_key: dict[str, int] = {}
        self._by_scheme: dict[tuple, list[int]] = {}
        self._variables = 0
        arity = csp.arity
        for pos, comp in enumerate(self.components, start=1):
            key = comp.key
            if key in self._by_key:
                raise ConfigError(f"duplicate constraint-space component {key!r}")
            self._by_key[key] = pos
            if isinstance(comp, ExtComponent):
                self._by_scheme.setdefault(comp.scheme, []).append(pos)
            elif isinstance(comp, DomainComponent):
                if comp.var != pos or pos > arity:
                    raise ConfigError(
                        f"component {key!r} at position {pos}: the variables "
                        f"take positions 1..{arity}, in order")
                self._variables = pos
        # each scheme exactly one extensional component has, to its position
        self._position_of: dict[tuple, int] = {
            s: hits[0] for s, hits in self._by_scheme.items() if len(hits) == 1}

    def position(self, key: str) -> int:
        if key not in self._by_key:
            raise ConfigError(f"no constraint-space component {key!r}")
        return self._by_key[key]

    def position_of_scheme(self, scheme: tuple) -> int:
        pos = self._position_of.get(scheme)
        if pos is None:
            if scheme in self._by_scheme:
                raise ConfigError(
                    f"several constraints share scheme {scheme}; normalize first")
            raise ConfigError(f"no constraint with scheme {scheme}")
        return pos

    def bottom(self) -> ProductValue:
        # the variables' declared domains, then the constraints'
        vals = [PowersetValue.bottom(d.values) if isinstance(d, SetDomain)
                else GridInterval.empty(IntGrid(0, 0)) if d.is_empty
                else GridInterval.full(IntGrid(d.lo, d.hi))
                for d in self.csp.domains[:self._variables]]
        for comp in self.components[self._variables:]:
            if isinstance(comp, ExtComponent):
                vals.append(PowersetValue.bottom(comp.constraint.tuples))
            else:
                vals.append(GrowSetValue.bottom(
                    _ineq_record(m) for m in comp.members))
        return ProductValue(tuple(vals))

    def rebuild(self, state: ProductValue) -> CSP:
        """The problem determined by the base problem and ``state``: domains
        folded back from the variables, reduced constraints (synthetic ones,
        whose ids the base problem lacks, only while they say something),
        every extensional constraint restricted to the domains."""
        if len(state) != len(self.components):
            raise ConfigError("state arity does not match the space")
        n = self._variables
        domains = (tuple(map(_fold_domain, state.components[:n]))
                   + self.csp.domains[n:])
        # (base position, constraint): constraints that never became
        # components pass through, extensional ones restricted to the
        # domains; new constraints follow the base ones
        base = {c.cid: k for k, c in enumerate(self.csp.constraints)}
        last = len(base)
        out = [(k, Constraint(c.cid, c.scheme, ExtensionalBody(
                    _restrict(c.scheme, c.tuples, domains)))
                if c.is_extensional else c)
               for k, c in enumerate(self.csp.constraints) if c.cid not in self._by_key]
        for pos, comp in enumerate(self.components, start=1):
            value = state.component(pos)
            if isinstance(comp, ExtComponent):
                kept = _restrict(comp.scheme, value.elements, domains)
                if comp.key not in base and kept == _restrict(
                        comp.scheme, comp.constraint.tuples, domains):
                    continue
                out.append((base.get(comp.key, last), Constraint(
                    comp.key, comp.scheme, ExtensionalBody(kept))))
            elif isinstance(comp, IneqComponent):
                members = {_ineq_record(m) for m in comp.members}
                extras = sorted(value.items - members)
                for k, rec in enumerate(extras, start=1):
                    # primed while the base problem or an earlier cut uses
                    # it, as a rerun's input holds its cuts; ``base`` takes
                    # it in, which the components after the groups cannot
                    # meet: they are universals, named u(...)
                    cid = f"{comp.gid}/cut{k}"
                    while cid in base:
                        cid += "'"
                    base[cid] = last
                    if rec[0]:
                        cut = _record_constraint(rec, cid)
                    else:
                        # a variable-free infeasible cut: no tuple satisfies it
                        v = comp.members[0].scheme[0]
                        cut = Constraint(cid, Scheme((v,)), ExtensionalBody(frozenset()))
                    out.append((last, cut))
        out.sort(key=lambda kc: kc[0])
        return CSP(domains, tuple(c for _, c in out))


def domain_space(csp: CSP) -> ConstraintSpace:
    """The space of a run with domain reducers only: the variables."""
    return ConstraintSpace(csp, map(DomainComponent, range(1, csp.arity + 1)))


def domain_bottom(csp: CSP) -> ProductValue:
    """The least element of ``domain_space(csp)``: the declared domains."""
    return domain_space(csp).bottom()


def csp_from_domain_state(csp: CSP, state: ProductValue) -> CSP:
    """The problem determined by ``csp`` and a reached domain state."""
    return domain_space(csp).rebuild(state)


def universal_constraint(csp: CSP, scheme: Scheme) -> Constraint:
    """The full product of the domains along ``scheme``, as a constraint
    named by the first of ``u(i,j,...)``, ``u(i,j,...)'``, ... that no
    constraint of ``csp`` uses."""
    members = []
    for i in scheme:
        members.append(csp.domain_members(i))
        if math.prod(map(len, members)) > DEFAULT_ENUM_CAP:
            raise ResourceLimitError(
                f"universal constraint over {scheme} exceeds {DEFAULT_ENUM_CAP} tuples")
    tuples = frozenset(itertools.product(*members))
    cid = "u(" + ",".join(map(str, scheme)) + ")"
    while cid in csp.cids:
        cid += "'"
    return Constraint(cid, scheme, ExtensionalBody(tuples))


def _well_formed(t: tuple, n: int) -> bool:
    """Whether ``t``'s indices are distinct and in ``1..n``."""
    return len(set(t)) == len(t) and all(0 < i <= n for i in t)


def constraint_components(csp: CSP, schemes) -> tuple[CSP, list[ExtComponent]]:
    """The problem a constraint space rebuilds from, and its extensional
    components: the extensional constraints of ``csp`` in input order, those
    sharing one of ``schemes`` merged, at the first one's place, into their
    intersection, named by the first of ``a&b``, ``a&b'``, ... that no
    constraint of ``csp`` and no earlier intersection uses; then a universal
    constraint for each of ``schemes`` that none has, by length, then
    indices, whatever order ``schemes`` come in."""
    schemes = list(dict.fromkeys(map(Scheme, schemes)))
    for s in schemes:
        if not _well_formed(s, csp.arity):
            raise ConfigError(f"scheme {s} has an index outside 1..{csp.arity}")
    groups: dict[Scheme, list[Constraint]] = {s: [] for s in schemes}
    for c in csp.constraints:
        if c.is_extensional and c.scheme in groups:
            groups[c.scheme].append(c)
    base: list[Constraint] = []
    made: dict[Scheme, str] = {}    # each merged scheme, to its intersection's id
    for c in csp.constraints:
        group = groups.get(c.scheme, ()) if c.is_extensional else ()
        if len(group) < 2:
            base.append(c)
        elif c.scheme not in made:
            cid = "&".join(m.cid for m in group)
            while cid in csp.cids or cid in made.values():
                cid += "'"
            made[c.scheme] = cid
            base.append(Constraint(cid, c.scheme, ExtensionalBody(
                frozenset.intersection(*(m.tuples for m in group)))))
    comps = [ExtComponent(c) for c in base if c.is_extensional]
    comps.extend(ExtComponent(universal_constraint(csp, s))
                 for s in sorted((s for s in schemes if not groups[s]),
                                 key=lambda s: (len(s), s)))
    return CSP(csp.domains, tuple(base)), comps


# ---------------------------------------------------------------------------
# Constraint reduction functions


def join_projection(space: ConstraintSpace, targets: Sequence[int],
                    members: Sequence[int], fid: str, group: str) -> ReductionFunction:
    """Intersect each target component with the projection, onto its scheme,
    of the join of the member components (the one constraint-reducer shape:
    ``rho`` and relational reduction; ``_path_apply`` is its one-target
    case on a plan resolved at import).  Each member's and target's join
    scheme is resolved here, once: an extensional constraint's own, and
    ``(p,)`` for a variable at ``p`` over a set domain, whose atoms join as
    1-tuples; any other component is not joinable.  Members are checked
    before targets.  One target keeps the tuples that have a witness in the
    join: the witness plan and the members' slots are resolved here too, and
    an application is one ``join_constraints`` call with the plan as
    ``onto``.  Several targets take the join of the members' relations
    straight onto the union of their schemes, one join for all of them where
    the witness search would run once per target, and reselect it onto each
    target.  A target it removes nothing from is returned as it was.  It
    reads only its members: shrinking a target that is not a member leaves
    it stable."""
    members = tuple(members)
    schemes: dict[int, Scheme] = {}
    for ps in (members, targets):
        if len(set(ps)) != len(ps) or not ps:
            raise ConfigError("member constraints must be distinct and nonempty")
        for p in ps:
            comp = space.components[p - 1]
            if isinstance(comp, ExtComponent):
                schemes[p] = comp.scheme
            # a variable joins only over a set domain, its atoms as 1-tuples
            elif (isinstance(comp, DomainComponent)
                  and isinstance(space.csp.domains[p - 1], SetDomain)):
                schemes[p] = Scheme((p,))
            else:
                raise ConfigError(f"component {comp.key!r} is not joinable")
    member_schemes = [schemes[p] for p in members]
    target_schemes = [schemes[p] for p in targets]
    covered = set(itertools.chain.from_iterable(member_schemes))
    for s in target_schemes:
        if not covered.issuperset(s):
            raise ConfigError(f"target scheme {s} is not covered by the members' "
                              f"scheme {scheme_union(member_schemes)}")
    positions = tuple(targets) + tuple(p for p in members if p not in targets)
    slots = tuple(map(positions.index, members))
    reads = None if set(targets) <= set(members) else members
    # the slots of the variables, whose atoms join as 1-tuples
    atom_slots = tuple(k for k, p in enumerate(positions)
                       if isinstance(space.components[p - 1], DomainComponent))

    if len(targets) == 1:
        plan = witness_plan(tuple(member_schemes), target_schemes[0])

        def apply(args):
            v = args[0]
            within = frozenset((a,) for a in v.elements) if 0 in atom_slots else v.elements
            kept = join_constraints(
                [frozenset((a,) for a in args[k].elements) if k in atom_slots
                 else args[k].elements for k in slots],
                onto=plan, within=within).tuples
            if kept is within:
                return args
            if 0 in atom_slots:
                kept = {a for (a,) in kept}
            return (v.with_elements(kept),) + args[1:]

        return ReductionFunction(fid, Scheme(positions), apply,
                                 idempotent=True, group=group, reads=reads)

    onto = scheme_union(target_schemes)
    # each target's scheme, or None where the join already has it
    picks = [None if s == onto else s for s in target_schemes]

    def apply(args):
        joined = join_constraints(
            [Relation(s, frozenset((a,) for a in args[k].elements) if k in atom_slots
                      else args[k].elements) for k, s in zip(slots, member_schemes)],
            onto=onto).tuples
        out = None
        for k, s in enumerate(picks):
            v = args[k]
            proj = joined if s is None else reselect(onto, joined, s)
            if k in atom_slots:
                proj = frozenset(a for (a,) in proj)
            if not v.elements <= proj:
                if out is None:
                    out = list(args)
                out[k] = v.with_elements(v.elements & proj)
        return args if out is None else tuple(out)

    return ReductionFunction(fid, Scheme(positions), apply,
                             idempotent=True, group=group, reads=reads)


def make_solution_projection(space: ConstraintSpace,
                             member_keys: Sequence[str]) -> ReductionFunction:
    """Replace every member constraint by the projection, onto its scheme, of
    the joint solutions of all the members (the strongest constraint reducer
    over those components)."""
    positions = tuple(space.position(k) for k in member_keys)
    name = "rho@" + ",".join(member_keys)
    f = join_projection(space, positions, positions, name, name)
    if any(d.is_empty for d in space.csp.domains):
        # the problem has no solutions, so neither have the members jointly
        f = replace(f, apply=lambda args: tuple(v.with_elements(()) for v in args)
                    if any(v.elements for v in args) else args)
    return f


# the witness plan of ((k,m),(m,l)) onto (k,l), whatever k, l and m are: bind
# (k,m) on the target's first coordinate, test (m,l) on coordinates 3 and 1
_PATH_PLAN = witness_plan(((1, 3), (3, 2)), (1, 2))


def _path_apply(args):
    """Every path reducer's one ``apply``, on ``(C_kl, C_km, C_ml)``: keep
    the pairs ``(a,b)`` of ``C_kl`` for which the witness search finds a
    ``c`` with ``(a,c)`` in ``C_km`` and ``(c,b)`` in ``C_ml``."""
    v = args[0]
    kept = join_constraints([args[1].elements, args[2].elements],
                            onto=_PATH_PLAN, within=v.elements).tuples
    return args if kept is v.elements else (v.with_elements(kept),) + args[1:]


def make_path_reducer(space: ConstraintSpace, triple) -> ReductionFunction:
    """The path reducer of ``(k,l,m)``: ``_path_apply`` over the
    extensional constraints on ``(k,l)``, ``(k,m)`` and ``(m,l)``, found by
    scheme, reading the last two."""
    k, l, m = triple
    n, at = space.csp.arity, space._position_of
    if k == l or k == m or l == m:
        raise ConfigError("path reduction needs three distinct indices")
    if not (0 < k <= n and 0 < l <= n and 0 < m <= n):
        raise ConfigError(f"path@{k},{l},{m} has an index outside 1..{n}")
    try:
        t, a, b = at[k, l], at[k, m], at[m, l]
    except KeyError:    # none or several on a scheme: the method says which
        t, a, b = map(space.position_of_scheme, ((k, l), (k, m), (m, l)))
    # three distinct schemes' positions: a Scheme without the repeat check
    return ReductionFunction(f"path@{k},{l},{m}", tuple.__new__(Scheme, (t, a, b)),
                             _path_apply, idempotent=True,
                             group=space.components[t - 1].key, reads=(a, b))


def make_relational_reducer(space: ConstraintSpace, t: Scheme,
                            member_keys: Sequence[str]) -> ReductionFunction:
    """Intersect the constraint with scheme ``t`` with the projection of the
    join of the named member constraints."""
    if not _well_formed(t, space.csp.arity):
        raise ConfigError(f"scheme {t} has an index outside 1..{space.csp.arity}")
    target = space.position_of_scheme(t)
    members = [space.position(k) for k in member_keys]
    name = "rel@" + ",".join(map(str, t)) + ";" + ",".join(member_keys)
    return join_projection(space, (target,), members, name,
                           space.components[target - 1].key)


# ---------------------------------------------------------------------------
# Cutting planes


def cutting_plane(ineqs: Sequence[Constraint],
                  multipliers: Sequence[Fraction | int]) -> Constraint:
    """Combine integer linear inequalities with nonnegative rational
    multipliers and floor the right-hand side.

    Every combined coefficient must come out integral; otherwise the
    combination is rejected naming the offending variable.
    """
    if len(ineqs) != len(multipliers):
        raise ConfigError("one multiplier per inequality is required")
    if not ineqs:
        raise ConfigError("at least one inequality is required")
    mults = [Fraction(m) for m in multipliers]
    if any(m < 0 for m in mults):
        raise ConfigError("multipliers must be nonnegative")
    combined: dict[int, Fraction] = {}
    rhs = Fraction(0)
    for c, m in zip(ineqs, mults):
        if not isinstance(c.body, LinearIneqBody):
            raise ConfigError(f"constraint {c.cid!r} is not a linear inequality")
        for i, a in zip(c.scheme, c.body.coeffs):
            combined[i] = combined.get(i, Fraction(0)) + m * a
        rhs += m * c.body.constant
    for i in sorted(combined):
        if combined[i].denominator != 1:
            raise DataError(
                f"combined coefficient of x{i} is {combined[i]}, not an integer")
    variables = tuple(i for i in sorted(combined) if combined[i] != 0)
    coeffs = tuple(int(combined[i]) for i in variables)
    cid = "cut(" + ",".join(c.cid for c in ineqs) + ")"
    return Constraint(cid, Scheme(variables), LinearIneqBody(coeffs, math.floor(rhs)))


def make_cut_reducer(space: ConstraintSpace, gid: str,
                     multipliers: Sequence[Fraction | int]) -> ReductionFunction:
    """Append the cutting plane derived from the group's inequalities to the
    group's inequality set (trivial ``0 <= b`` cuts are discarded)."""
    pos = space.position(gid)
    comp = space.components[pos - 1]
    if not isinstance(comp, IneqComponent):
        raise ConfigError(f"component {gid!r} is not an inequality group")
    cut = cutting_plane(comp.members, multipliers)
    record = _ineq_record(cut)
    trivial = not record[0] and record[2] >= 0

    def apply(args):
        (v,) = args
        if trivial or record in v.items:
            return args
        return (v.with_items(v.items | {record}),)

    mult_txt = ",".join(str(Fraction(m)) for m in multipliers)
    return ReductionFunction(f"cut@{gid};{mult_txt}", Scheme((pos,)), apply,
                             idempotent=False, group=gid)


# ---------------------------------------------------------------------------
# Named reducer registry (the CLI addressing scheme)

_DOMAIN_KINDS = ("pi1", "pi2", "piC", "hull", "lineq")
_CONSTRAINT_KINDS = ("rho", "path", "rel", "cut")


def _parse_name(text: str) -> tuple[str, tuple]:
    """Split a name ``kind@head[;tail]`` once into a record of one item: a
    domain reducer's constraint id, or the head comma list (with the tail
    one for ``rel`` and ``cut``), empty items dropped, converted to what the
    kind takes: indices for ``path`` and the ``rel`` target, multipliers for
    ``cut``."""
    kind, at, rest = text.partition("@")
    if not at:
        raise ConfigError(f"malformed reducer name {text!r} (expected kind@args)")
    if kind not in _DOMAIN_KINDS + _CONSTRAINT_KINDS:
        raise ConfigError(f"unknown reducer kind {kind!r}")
    if kind in _DOMAIN_KINDS:
        return kind, (rest,)
    head, _, tail = rest.partition(";") if kind in ("rel", "cut") else (rest, "", "")
    head = tuple(x.strip() for x in head.split(",") if x.strip())
    tail = tuple(x.strip() for x in tail.split(",") if x.strip())
    try:
        if kind in ("path", "rel"):
            head = tuple(int(x) for x in head)
        if kind == "cut":
            tail = tuple(Fraction(x) for x in tail)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"malformed reducer name {text!r}") from None
    if kind == "path" and len(head) != 3:
        raise ConfigError(f"malformed reducer name {text!r} (expected path@k,l,m)")
    if kind == "rel" and not head:
        raise ConfigError(f"malformed reducer name {text!r} (expected rel@t;c1,...)")
    if kind == "cut" and (not head or len(head) != len(tail)):
        raise ConfigError(f"cut@{rest}: need the same number of ids and multipliers")
    return kind, (head if kind in ("rho", "path") else (head, tail),)


def _domain_function(kind: str, c: Constraint, csp: CSP) -> ReductionFunction:
    if kind in ("pi1", "pi2"):
        if not all(isinstance(csp.domains[i - 1], SetDomain) for i in c.scheme):
            raise ConfigError(f"{kind}@{c.cid} needs finite set domains")
        return make_binary_projections(c)[0 if kind == "pi1" else 1]
    if kind == "piC":
        return make_full_projection(c)
    if not all(isinstance(csp.domains[i - 1], IntDomain) for i in c.scheme):
        raise ConfigError(f"{kind}@{c.cid} needs integer interval domains")
    return (make_interval_hull_projection if kind == "hull" else make_linear_eq_narrowing)(c)


def build_reducers(csp: CSP, records: Sequence[tuple[str, Sequence]],
                   schemes: Iterable[tuple] = ()
                   ) -> tuple[ConstraintSpace, list[ReductionFunction]]:
    """Resolve records, each a kind and its items, into the space they act
    on and one function per item, in order: constraint ids for a domain
    kind, member ids for ``rho``, ``(k,l,m)`` for ``path``, ``(target,
    member ids)`` for ``rel``, ``(ids, multipliers)`` for ``cut``.  The
    constraints are ``constraint_components(csp, ...)`` of ``schemes``, each
    ``rel`` target and each triple's ``(k,l)``, ``(k,m)`` and ``(m,l)``.
    Each item is built in its place, so an item that cannot be built fails
    in list order.  A run starts at ``space.bottom()`` and folds back by
    ``space.rebuild``."""
    # the first of an id wins; csp.constraint raises for an id that none has
    by_id = {c.cid: c for c in reversed(csp.constraints)}
    cut_groups = list(dict.fromkeys(ids for kind, items in records if kind == "cut"
                                    for ids, _ in items))
    grouped_cids: set[str] = set()
    for cids in cut_groups:
        for cid in dict.fromkeys(cids):
            if cid in grouped_cids:
                raise ConfigError(f"constraint {cid!r} appears in two cut groups")
            grouped_cids.add(cid)

    # the variables come first when a domain reducer or a join (``~domN``) names them
    kinds = {kind for kind, _ in records}
    components: list = []
    if not kinds.isdisjoint(_DOMAIN_KINDS) or any(
            m.startswith("~dom") for kind, items in records if kind in ("rho", "rel")
            for item in items for m in (item if kind == "rho" else item[1])):
        components.extend(map(DomainComponent, range(1, csp.arity + 1)))
    base, extensional, given = csp, [], 0
    if not kinds.isdisjoint(_CONSTRAINT_KINDS):
        # each scheme once, a given one as the Scheme the space keeps; a rel
        # target or a triple that fails when built (an index repeated or
        # outside 1..n) names none, so its error comes in list order
        named, n = dict.fromkeys(map(Scheme, schemes)), csp.arity
        for kind, items in records:
            if kind == "rel":
                named.update((t, None) for t, _ in items if _well_formed(t, n))
            elif kind == "path":
                for k, l, m in (t for t in items if _well_formed(t, n)):
                    named[k, l] = named[k, m] = named[m, l] = None
        base, extensional = constraint_components(csp, named)
        given = sum(c.is_extensional for c in base.constraints)
    # traces number the components: the inequality groups keep their place
    # between the constraints and the universal ones
    components.extend(extensional[:given])
    for cids in sorted(cut_groups):
        components.append(IneqComponent("cutset(" + ",".join(cids) + ")",
                                        tuple(map(csp.constraint, cids))))
    components.extend(extensional[given:])

    space = ConstraintSpace(base, components)
    return space, [
        make_path_reducer(space, item) if kind == "path"
        else _domain_function(kind, by_id.get(item) or csp.constraint(item), csp)
        if kind in _DOMAIN_KINDS
        else make_solution_projection(space, item) if kind == "rho"
        else make_relational_reducer(space, Scheme(item[0]), item[1]) if kind == "rel"
        else make_cut_reducer(space, "cutset(" + ",".join(item[0]) + ")", item[1])
        for kind, items in records for item in items]


def build_named_reducers(csp: CSP, names: Sequence[str]
                         ) -> tuple[ConstraintSpace, list[ReductionFunction]]:
    """Resolve reducer names like ``pi1@c1``, ``rho@c1,c2``, ``path@1,2,3``,
    ``rel@1,3;c1,c2`` or ``cut@c3,c4;1/2,1/2``: records of one item each."""
    records = [_parse_name(s) for s in names]
    if not records:
        raise ConfigError("no reducers given")
    return build_reducers(csp, records)
