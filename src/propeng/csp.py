"""Constraint satisfaction problems: schemes, constraints, joins, projections,
brute-force solution enumeration (the testing oracle) and equivalence.

Domain indices are 1-based everywhere, matching the on-disk format.  A
scheme is a tuple of distinct indices (``Scheme`` only checks that when it
is built), and ``d[s]`` selects the coordinates of ``d`` along it.  Joins
and ``reselect`` select coordinates one way: an ``itemgetter`` over the
positions of the target indices (``_tuple_getter``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import contains, itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError, DataError, ResourceLimitError
from .lattice import atom_key

DEFAULT_ENUM_CAP = 10**6


class Scheme(tuple):
    """A sequence of distinct domain indices naming the coordinates a
    constraint or function touches: a tuple of ``int``s, checked once when
    built, and used wherever a tuple is."""

    __slots__ = ()

    def __new__(cls, indices):
        if type(indices) is cls:    # checked when it was built
            return indices
        self = super().__new__(cls, map(int, indices))
        if len(set(self)) != len(self):
            raise ConfigError(f"scheme {self} repeats an index")
        return self


def scheme_union(schemes: Sequence[Scheme]) -> Scheme:
    """Concatenate schemes left to right, dropping indices already seen."""
    if len(schemes) == 1:
        return schemes[0]
    return Scheme(dict.fromkeys(itertools.chain.from_iterable(schemes)))


# ---------------------------------------------------------------------------
# Constraint bodies


@dataclass(frozen=True)
class ExtensionalBody:
    """An explicit finite set of tuples, each of the constraint's arity."""

    tuples: frozenset

    def __post_init__(self):
        # a frozenset of plain tuples (what the parser builds) is kept as it is
        tuples = self.tuples
        if type(tuples) is not frozenset or not set(map(type, tuples)) <= {tuple}:
            object.__setattr__(self, "tuples", frozenset(map(tuple, tuples)))


def _integral(x) -> int:
    """``x`` as an ``int``; ``DataError`` unless its value is an integer."""
    if type(x) is int:
        return x
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{x!r} is not an integer") from None
    if n != x:
        raise DataError(f"{x!r} is not an integer")
    return n


def _store_integral(body) -> None:
    """Store a linear body's coefficients and constant as ``int``s, rejecting
    a non-integral one rather than truncating it."""
    object.__setattr__(body, "coeffs", tuple(map(_integral, body.coeffs)))
    object.__setattr__(body, "constant", _integral(body.constant))


@dataclass(frozen=True)
class LinearEqBody:
    """``sum coeffs[k] * x_{scheme[k]} = constant`` with integer coefficients."""

    coeffs: tuple[int, ...]
    constant: int

    def __post_init__(self):
        _store_integral(self)


@dataclass(frozen=True)
class LinearIneqBody:
    """``sum coeffs[k] * x_{scheme[k]} <= constant`` with integer coefficients."""

    coeffs: tuple[int, ...]
    constant: int

    def __post_init__(self):
        _store_integral(self)


Body = ExtensionalBody | LinearEqBody | LinearIneqBody


@dataclass(frozen=True)
class Constraint:
    cid: str
    scheme: Scheme
    body: Body

    @property
    def is_extensional(self) -> bool:
        return isinstance(self.body, ExtensionalBody)

    @property
    def tuples(self) -> frozenset:
        if not self.is_extensional:
            raise ConfigError(f"constraint {self.cid!r} has no explicit tuple set")
        return self.body.tuples

    def satisfied_by(self, local: tuple) -> bool:
        """Whether a tuple given in scheme order satisfies this constraint."""
        if isinstance(self.body, ExtensionalBody):
            return local in self.body.tuples
        total = sum(a * v for a, v in zip(self.body.coeffs, local))
        if isinstance(self.body, LinearEqBody):
            return total == self.body.constant
        return total <= self.body.constant


# ---------------------------------------------------------------------------
# Domains and problems


@dataclass(frozen=True)
class SetDomain:
    values: frozenset

    def __post_init__(self):
        object.__setattr__(self, "values", frozenset(self.values))

    def members(self) -> list:
        return sorted(self.values, key=atom_key)

    @property
    def is_empty(self) -> bool:
        return not self.values


@dataclass(frozen=True)
class IntDomain:
    """All integers in ``[lo..hi]``; an empty range normalizes to ``[1..0]``."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            object.__setattr__(self, "lo", 1)
            object.__setattr__(self, "hi", 0)

    @property
    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    def members(self) -> list:
        return list(self.values)

    @property
    def is_empty(self) -> bool:
        return self.hi < self.lo


Domain = SetDomain | IntDomain


@dataclass(frozen=True)
class CSP:
    domains: tuple[Domain, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @property
    def arity(self) -> int:
        return len(self.domains)

    @cached_property
    def cids(self) -> frozenset[str]:
        """The ids its constraints use, collected once."""
        return frozenset(c.cid for c in self.constraints)

    def constraint(self, cid: str) -> Constraint:
        for c in self.constraints:
            if c.cid == cid:
                return c
        raise ConfigError(f"no constraint with id {cid!r}")

    def domain_members(self, i: int) -> list:
        """Members of domain ``i`` (1-based), in canonical order."""
        return self.domains[i - 1].members()


def validate(csp: CSP) -> list[str]:
    """Collect every well-formedness violation; empty list means valid."""
    problems: list[str] = []
    n = csp.arity
    seen_ids: set[str] = set()
    for c in csp.constraints:
        where = f"constraint {c.cid!r}"
        if c.cid in seen_ids:
            problems.append(f"{where}: duplicate constraint id")
        seen_ids.add(c.cid)
        if len(c.scheme) == 0:
            problems.append(f"{where}: empty scheme")
            continue
        if any(i < 1 or i > n for i in c.scheme):
            problems.append(f"{where}: scheme {c.scheme} outside domains 1..{n}")
            continue
        if isinstance(c.body, ExtensionalBody):
            members = [csp.domains[i - 1].values for i in c.scheme]
            bad = [t for t in c.body.tuples
                   if len(t) != len(c.scheme) or not all(map(contains, members, t))]
            for t in sorted(bad, key=atom_key):
                if len(t) != len(c.scheme):
                    problems.append(f"{where}: tuple {t} has arity {len(t)}, scheme needs {len(c.scheme)}")
                    continue
                for v, m, i in zip(t, members, c.scheme):
                    if v not in m:
                        problems.append(f"{where}: tuple {t} coordinate {v!r} outside domain {i}")
        else:
            if len(c.body.coeffs) != len(c.scheme):
                problems.append(f"{where}: {len(c.body.coeffs)} coefficients for a {len(c.scheme)}-ary scheme")
            if any(a == 0 for a in c.body.coeffs):
                problems.append(f"{where}: zero coefficient in linear form")
            for i in c.scheme:
                if not isinstance(csp.domains[i - 1], IntDomain):
                    problems.append(f"{where}: linear form over non-integer domain {i}")
    return problems


# ---------------------------------------------------------------------------
# Joins, projections, solutions


def tuple_restrict(d: tuple, scheme: Scheme) -> tuple:
    """``d[s]``: select the 1-based coordinates of ``d`` named by ``scheme``."""
    return tuple(d[i - 1] for i in scheme)


class Relation(NamedTuple):
    """A plain relation: a scheme and the set of tuples over it."""

    scheme: Scheme
    tuples: frozenset


def _key_getter(positions: list[int]):
    """The join key of a tuple: its coordinates at ``positions`` (one bare
    value for one position; both sides of a join use the same shape)."""
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _tuple_getter(positions: list[int]):
    """The coordinates of a tuple at ``positions``, always as a tuple."""
    if len(positions) == 1:
        (k,) = positions
        return itemgetter(slice(k, k + 1))
    return _key_getter(positions)


@lru_cache(maxsize=4096)
def _join_plan(schemes: tuple[tuple[int, ...], ...], onto: tuple[int, ...] | None):
    """How to join relations over ``schemes``, left to right: per step the
    left key getter, the right key getter and the getter of the right side's
    new coordinates; then the pick onto ``onto`` (``None`` when the joined
    tuples are kept whole) and the scheme of the result."""
    union = list(schemes[0])
    steps = []
    for s in schemes[1:]:
        shared = [i for i in s if i in union]
        steps.append((_key_getter([union.index(i) for i in shared]),
                      _key_getter([s.index(i) for i in shared]),
                      _tuple_getter([k for k, i in enumerate(s) if i not in union])))
        union += [i for i in s if i not in union]
    if onto is None or onto == tuple(union):
        return tuple(steps), None, Scheme(tuple(union))
    if not all(i in union for i in onto):
        raise ConfigError(f"indices {onto} not all present in {tuple(union)}")
    return tuple(steps), _tuple_getter([union.index(i) for i in onto]), Scheme(onto)


class WitnessPlan(NamedTuple):
    """How ``join_constraints(..., within=...)`` searches witnesses among
    members of fixed schemes (``witness_plan``)."""

    first: tuple
    levels: tuple
    scheme: Scheme


@lru_cache(maxsize=4096)
def witness_plan(schemes: tuple[tuple[int, ...], ...], onto: tuple[int, ...]) -> WitnessPlan:
    """How to search, for a tuple over ``onto``, a tuple of the join of
    relations over ``schemes`` that it is the restriction of: the
    membership tests on the tuple itself (member, getter of the member's
    coordinates), then the levels, then the scheme ``onto``.  A level
    appends a whole tuple of one member to the tuple built so far, so the
    member's bound coordinates key its index.  It holds the member, the key
    getter on the tuple so far, the member's key getter, and the membership
    tests that become possible once the member is bound.  The next level's
    member shares a bound index when some member does."""
    joined = dict.fromkeys(itertools.chain.from_iterable(schemes))
    if not all(i in joined for i in onto):
        raise ConfigError(f"indices {onto} not all present in {tuple(joined)}")
    # each bound index -> its first position in the tuple built so far
    bound = {i: k for k, i in enumerate(onto)}
    width = len(onto)
    pending = list(range(len(schemes)))

    def tests():
        ready = [j for j in pending if all(i in bound for i in schemes[j])]
        for j in ready:
            pending.remove(j)
        return tuple((j, _tuple_getter([bound[i] for i in schemes[j]])) for j in ready)

    first = tests()
    levels = []
    while pending:
        j = next((j for j in pending if any(i in bound for i in schemes[j])), pending[0])
        pending.remove(j)
        s = schemes[j]
        shared = [i for i in s if i in bound]
        level = (j, _key_getter([bound[i] for i in shared]),
                 _key_getter([s.index(i) for i in shared]))
        for k, i in enumerate(s, width):
            bound.setdefault(i, k)
        width += len(s)
        levels.append(level + (tests(),))
    return WitnessPlan(first, tuple(levels), Scheme(onto))


def _extends(t: tuple, levels: list) -> bool:
    """Whether ``t`` extends through ``levels`` (each: the key getter, the
    lookup of the member's tuples by key, the membership tests), depth
    first, stopping at the first witness.  The search keeps its own stack
    of the candidates left at each bound level, so a plan of any length
    runs within Python's recursion limit."""
    key, get, _ = levels[0]
    stack = [(t, iter(get(key(t), ())))]
    while stack:
        u, candidates = stack[-1]
        tests = levels[len(stack) - 1][2]
        for v in candidates:
            w = u + v
            if all(pick(w) in tuples for pick, tuples in tests):
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(levels):
            return True
        key, get, _ = levels[len(stack)]
        stack.append((w, iter(get(key(w), ()))))
    return False


def _witnessed(sets: Sequence[frozenset], plan: WitnessPlan, within: frozenset) -> Relation:
    """The tuples of ``within`` (over ``plan.scheme``) that have a witness
    in the join of the members, whose tuple sets ``sets`` holds in the
    plan's order; ``within`` itself when all have one.  Each member with a
    free coordinate is indexed on its bound ones, for this call only."""
    first, levels, scheme = plan
    kept = within
    for j, pick in first:
        tuples = sets[j]
        kept = [t for t in kept if pick(t) in tuples]
    index = []
    for j, key, member_key, tests in levels:
        buckets: dict = {}
        for u in sets[j]:
            k = member_key(u)
            if k in buckets:
                buckets[k].append(u)
            else:
                buckets[k] = [u]
        index.append((key, buckets.get, [(pick, sets[i]) for i, pick in tests]))
    if len(index) == 1 and len(index[0][2]) == 1:
        # one member to bind, then one test (path reduction's shape)
        ((key, get, ((pick, tuples),)),) = index
        out = []
        for t in kept:
            for v in get(key(t), ()):
                if pick(t + v) in tuples:
                    out.append(t)
                    break
        kept = out
    elif index:
        kept = [t for t in kept if _extends(t, index)]
    return Relation(scheme, within if len(kept) == len(within) else frozenset(kept))


def join_constraints(cs: Sequence, cap: int | None = DEFAULT_ENUM_CAP,
                     onto: Scheme | WitnessPlan | None = None,
                     within: frozenset | None = None) -> Relation:
    """Relational join of relations or extensional constraints (anything with
    ``.scheme`` and ``.tuples``): a tuple belongs iff its restriction to every
    member scheme belongs to that member.

    With ``onto``, the result is the join reselected onto ``onto``: the last
    join step emits only those coordinates, so the joined tuples are never
    held.  ``cap`` bounds the tuples each step holds (the projected ones at
    the last step).

    With ``within`` too, a set of tuples over ``onto``, the result is the
    tuples of ``within`` that the join, reselected onto ``onto``, holds, and
    the join is never built: for each tuple the search looks for one witness
    (``witness_plan``).  A member whose coordinates are all bound is a
    membership test; a member with a free coordinate is indexed on its bound
    ones for the call; the search stops at the first witness.  Nothing grows
    with the join, so ``cap`` does not apply.  When every tuple has a
    witness, the result holds ``within`` itself.  A caller that searches
    among members of the same schemes on every call resolves their plan once
    and passes it as ``onto``, with ``cs`` the members' tuple sets in the
    order of the schemes it was resolved for."""
    if not cs:
        raise ConfigError("cannot join an empty sequence of constraints")
    if within is not None:
        if onto is None:
            raise ConfigError("a join within a tuple set needs its scheme (onto)")
        if type(onto) is WitnessPlan:
            return _witnessed(cs, onto, within)
        return _witnessed([c.tuples for c in cs],
                          witness_plan(tuple([c.scheme for c in cs]), onto), within)
    steps, pick, scheme = _join_plan(tuple(c.scheme for c in cs), onto)
    tuples = cs[0].tuples
    if not steps:
        return Relation(scheme, tuples if pick is None else frozenset(map(pick, tuples)))
    last = len(steps) - 1
    for n, ((left_key, right_key, new), c) in enumerate(zip(steps, cs[1:])):
        buckets: dict = {}
        for u in c.tuples:
            buckets.setdefault(right_key(u), []).append(new(u))
        get = buckets.get
        out: set = set()
        add = out.add
        emit = pick if n == last else None
        for t in tuples:
            if emit is None:
                for v in get(left_key(t), ()):
                    add(t + v)
            else:
                for v in get(left_key(t), ()):
                    add(emit(t + v))
            if cap is not None and len(out) > cap:
                raise ResourceLimitError(f"join exceeds {cap} tuples")
        tuples = out
    return Relation(scheme, frozenset(tuples))


def reselect(scheme_from: Scheme, tuples: Iterable[tuple], scheme_to: Scheme) -> frozenset:
    """Select coordinates by domain index, in any target order."""
    try:
        pick = _tuple_getter([scheme_from.index(i) for i in scheme_to])
    except ValueError:
        raise ConfigError(f"indices {scheme_to} not all present in {scheme_from}")
    return frozenset(map(pick, tuples))


def solutions(csp: CSP, cap: int = DEFAULT_ENUM_CAP) -> frozenset:
    """All full-arity tuples satisfying every constraint, by enumeration.

    This is the desk-scale testing oracle; it refuses products larger than
    ``cap`` candidate tuples.
    """
    size = 1
    for d in csp.domains:
        size *= len(d.members())
        if size > cap:
            raise ResourceLimitError(
                f"domain product exceeds the {cap}-tuple enumeration cap")
    checks = [(c, c.scheme) for c in csp.constraints]
    out = []
    for d in itertools.product(*(dom.members() for dom in csp.domains)):
        if all(c.satisfied_by(tuple_restrict(d, s)) for c, s in checks):
            out.append(d)
    return frozenset(out)


def equivalent(p: CSP, q: CSP, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Whether two problems over the same tuple space have equal solutions."""
    if p.arity != q.arity:
        raise ValueError(f"arity mismatch: {p.arity} vs {q.arity}")
    return solutions(p, cap) == solutions(q, cap)
