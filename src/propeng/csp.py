"""Constraint satisfaction problems: schemes, constraints, joins, projections,
brute-force solution enumeration (the testing oracle) and equivalence.

Domain indices are 1-based everywhere, matching the on-disk format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError, ResourceLimitError
from .lattice import atom_key

DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class Scheme:
    """A sequence of distinct domain indices naming the coordinates a
    constraint or function touches."""

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(set(self.indices)) != len(self.indices):
            raise ConfigError(f"scheme {self.indices} repeats an index")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices

    def position_of(self, i: int) -> int:
        """0-based position of domain index ``i`` within this scheme."""
        return self.indices.index(i)

    def is_subsequence_of(self, other: "Scheme") -> bool:
        it = iter(other.indices)
        return all(i in it for i in self.indices)


def scheme_union(schemes: Sequence[Scheme]) -> Scheme:
    """Concatenate schemes left to right, dropping indices already seen."""
    out: list[int] = []
    seen: set[int] = set()
    for s in schemes:
        for i in s.indices:
            if i not in seen:
                seen.add(i)
                out.append(i)
    return Scheme(tuple(out))


# ---------------------------------------------------------------------------
# Constraint bodies


@dataclass(frozen=True)
class ExtensionalBody:
    """An explicit finite set of tuples, each of the constraint's arity."""

    tuples: frozenset

    def __post_init__(self):
        object.__setattr__(self, "tuples", frozenset(tuple(t) for t in self.tuples))


@dataclass(frozen=True)
class LinearEqBody:
    """``sum coeffs[k] * x_{scheme[k]} = constant`` with integer coefficients."""

    coeffs: tuple[int, ...]
    constant: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(a) for a in self.coeffs))


@dataclass(frozen=True)
class LinearIneqBody:
    """``sum coeffs[k] * x_{scheme[k]} <= constant`` with integer coefficients."""

    coeffs: tuple[int, ...]
    constant: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(a) for a in self.coeffs))


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
            problems.append(f"{where}: scheme {c.scheme.indices} outside domains 1..{n}")
            continue
        if isinstance(c.body, ExtensionalBody):
            members = [csp.domains[i - 1].values for i in c.scheme]
            bad = [t for t in c.body.tuples
                   if len(t) != len(c.scheme) or any(v not in m for v, m in zip(t, members))]
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


def _join2(sa: Scheme, ta: frozenset, sb: Scheme, tb: frozenset, cap: int | None):
    shared = [i for i in sb if i in sa]
    pos_b = {i: k for k, i in enumerate(sb.indices)}
    extra_b = [k for k, i in enumerate(sb.indices) if i not in sa]
    buckets: dict[tuple, list] = {}
    for u in tb:
        buckets.setdefault(tuple(u[pos_b[i]] for i in shared), []).append(u)
    pos_a = {i: k for k, i in enumerate(sa.indices)}
    out = set()
    for t in ta:
        key = tuple(t[pos_a[i]] for i in shared)
        for u in buckets.get(key, ()):
            out.add(t + tuple(u[k] for k in extra_b))
            if cap is not None and len(out) > cap:
                raise ResourceLimitError(f"join exceeds {cap} tuples")
    return scheme_union([sa, sb]), frozenset(out)


class Relation(NamedTuple):
    """A plain relation: a scheme and the set of tuples over it."""

    scheme: Scheme
    tuples: frozenset


def join_constraints(cs: Sequence, cap: int | None = DEFAULT_ENUM_CAP) -> Relation:
    """Relational join of relations or extensional constraints (anything with
    ``.scheme`` and ``.tuples``): a tuple belongs iff its restriction to every
    member scheme belongs to that member."""
    if not cs:
        raise ConfigError("cannot join an empty sequence of constraints")
    s, ts = cs[0].scheme, cs[0].tuples
    for c in cs[1:]:
        s, ts = _join2(s, ts, c.scheme, c.tuples, cap)
    return Relation(s, ts)


def reselect(scheme_from: Scheme, tuples: Iterable[tuple], scheme_to: Scheme) -> frozenset:
    """Select coordinates by domain index, in any target order."""
    try:
        positions = [scheme_from.position_of(i) for i in scheme_to]
    except ValueError:
        raise ConfigError(
            f"indices {scheme_to.indices} not all present in {scheme_from.indices}")
    return frozenset(tuple(t[p] for p in positions) for t in tuples)


def project(c: Constraint, s: Scheme) -> Constraint:
    """The image of ``c`` under coordinate selection ``d[s]``."""
    if not c.is_extensional:
        raise ConfigError(f"constraint {c.cid!r} is not extensional; cannot project")
    if not s.is_subsequence_of(c.scheme):
        raise ValueError(f"{s.indices} is not a subsequence of scheme {c.scheme.indices}")
    return Constraint(f"proj({c.cid})", s,
                      ExtensionalBody(reselect(c.scheme, c.tuples, s)))


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
