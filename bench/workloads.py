"""Seeded problem generators for the four workloads.

Every workload is a fixed list of ``Call``s: one problem file plus the
``propeng run`` arguments that reduce it.  The problems are generated here
from ``(workload, seed)`` alone, written in the problem-file format by this
module's own serializer, and carry what the independent checks in
``checks.py`` need (the generated model and, where there is one, a planted
solution).  The sizes keep each call short so that a run holds many passes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from checks import check_arc, check_narrow, check_path, check_rel

WORKLOADS = ("arc", "path", "narrow", "rel")


@dataclass
class Model:
    """A generated problem: ``domains[i]`` is a sorted list of ints (set
    domains) or an ``(lo, hi)`` pair (int domains), 1-based like the file
    format; constraints are ``(cid, scheme, tuples)`` or, for linear
    equalities, ``(cid, scheme, (coeffs, constant))``.  ``planted`` maps
    variables to the values of a known solution (of the part of the problem
    they belong to); ``empty`` names the variables of unsatisfiable parts."""

    domains: dict[int, object]
    constraints: list[tuple]
    planted: dict[int, int] = field(default_factory=dict)
    empty: frozenset = frozenset()    # variables whose domain must end empty

    def text(self) -> str:
        lines = []
        for i in sorted(self.domains):
            d = self.domains[i]
            if isinstance(d, tuple):
                lines.append(f"domain {i} int [{d[0]}..{d[1]}]")
            else:
                lines.append(f"domain {i} set {{{','.join(map(str, d))}}}")
        for cid, scheme, body in self.constraints:
            sch = "(" + ",".join(map(str, scheme)) + ")"
            if isinstance(body, tuple):
                coeffs, const = body
                terms = []
                for k, (i, a) in enumerate(zip(scheme, coeffs)):
                    sign = "-" if a < 0 else ("+" if k else "")
                    terms.append(f"{sign} {abs(a)}*x{i}".strip())
                lines.append(f"constraint {cid} scheme {sch} lineq "
                             f"{' '.join(terms)} = {const}")
            else:
                tup = ",".join("(" + ",".join(map(str, t)) + ")" for t in sorted(body))
                lines.append(f"constraint {cid} scheme {sch} tuples {{{tup}}}")
        return "\n".join(lines) + "\n"


@dataclass
class Call:
    """One ``propeng run`` invocation of a workload pass."""

    name: str
    model: Model
    args: list[str]                       # argv after the problem file
    check: Callable[[Model, dict], str | None]
    reducers: list[str] | None = None     # names, for reducer-list calls
    text: str = field(init=False)

    def __post_init__(self):
        self.text = self.model.text()


# ---------------------------------------------------------------------------
# Binary CSPs with a planted solution (arc, path)


def _planted(rng: random.Random, variables, d: int) -> dict[int, int]:
    return {i: rng.randrange(d) for i in variables}


def _tuples(rng: random.Random, planted: tuple, d: int, density: float) -> frozenset:
    """The planted tuple and ``round(density * d**arity) - 1`` others."""
    others = [t for t in itertools.product(range(d), repeat=len(planted)) if t != planted]
    k = max(0, round(density * d ** len(planted)) - 1)
    return frozenset(rng.sample(others, k) + [planted])


def _binary_csp(rng: random.Random, n: int, d: int, n_cons: int,
                density: float) -> Model:
    """``n_cons`` distinct constraints on pairs ``i < j``; each allows the
    planted pair and ``round(density * d * d) - 1`` other pairs.  Fixed
    tuple counts keep the work of one instance close to that of the next."""
    planted = _planted(rng, range(1, n + 1), d)
    pairs = rng.sample(list(itertools.combinations(range(1, n + 1), 2)), n_cons)
    cons = []
    for k, (i, j) in enumerate(sorted(pairs), start=1):
        cons.append((f"c{k}", (i, j), _tuples(rng, (planted[i], planted[j]), d, density)))
    return Model({i: list(range(d)) for i in range(1, n + 1)}, cons, planted)


def _regular_pairs(rng: random.Random, planted: tuple, d: int) -> frozenset:
    """Two disjoint random matchings of ``range(d)``, the first through the
    planted pair: every value has exactly two supports on either side."""
    a, b = planted
    perms: list[list[int]] = []
    while len(perms) < 2:
        p = list(range(d))
        rng.shuffle(p)
        if (not perms and p[a] != b) or (perms and any(x == y for x, y in zip(p, perms[0]))):
            continue
        perms.append(p)
    return frozenset((x, p[x]) for p in perms for x in range(d))


def _complete_csp(rng: random.Random, n: int, d: int) -> Model:
    """A constraint on every pair ``i < j``, each ``_regular_pairs``.  Fixed
    degrees keep the sizes of path compositions, and so the work, nearly
    the same from one seed to the next."""
    planted = _planted(rng, range(1, n + 1), d)
    cons = [(f"c{k}", (i, j), _regular_pairs(rng, (planted[i], planted[j]), d))
            for k, (i, j) in enumerate(itertools.combinations(range(1, n + 1), 2), start=1)]
    return Model({i: list(range(d)) for i in range(1, n + 1)}, cons, planted)


# ---------------------------------------------------------------------------
# Linear equality systems (narrow)


def _cycles(rng: random.Random, n_cycles: int, length: int, top: int) -> Model:
    """Disjoint equality cycles ``x_a - x_b = c`` over ``[0..top]``.  Every
    other cycle has constants that sum to 1, which no integers satisfy, so
    narrowing moves a bound by one per round until an interval empties;
    the rest go through a planted solution and settle in a few rounds.  The
    planted values of a cycle lie within 10 of each other, so the number of
    rounds depends on ``top``, hardly on the seed."""
    domains, cons, planted, empty = {}, [], {}, set()
    for c in range(n_cycles):
        idx = list(range(c * length + 1, (c + 1) * length + 1))
        base = rng.randrange(top - 9)
        vals = {i: base + rng.randrange(10) for i in idx}
        consts = [vals[idx[k]] - vals[idx[(k + 1) % length]] for k in range(length)]
        if c % 2 == 0:
            consts[rng.randrange(length)] += 1
            empty.update(idx)
        else:
            planted.update(vals)
        for k in range(length):
            domains[idx[k]] = (0, top)
            cons.append((f"e{len(cons) + 1}", (idx[k], idx[(k + 1) % length]),
                         ((1, -1), consts[k])))
    return Model(domains, cons, planted, frozenset(empty))


def _chain(rng: random.Random, n_eqs: int, top: int) -> Model:
    """A satisfiable chain ``a_k x_k - a_k x_{k+1} = c_k`` over ``[0..top]``
    through a planted integer solution whose values lie within 5 of each
    other; so close a band keeps the number of narrowing steps nearly the
    same from one seed to the next."""
    base = rng.randrange(top - 4)
    planted = {i: base + rng.randrange(5) for i in range(1, n_eqs + 2)}
    cons = []
    for k in range(1, n_eqs + 1):
        a = rng.randint(1, 3)
        cons.append((f"q{k}", (k, k + 1),
                     ((a, -a), a * (planted[k] - planted[k + 1]))))
    return Model({i: (0, top) for i in range(1, n_eqs + 2)}, cons, planted)


# ---------------------------------------------------------------------------
# Small mixed-arity problems (rel)


def _small_csp(rng: random.Random, n: int, d: int, arities: list[int],
               density: float) -> Model:
    """One constraint per arity, on distinct random schemes, each holding the
    planted tuple and a fixed number of others."""
    planted = _planted(rng, range(1, n + 1), d)
    schemes: list[tuple] = []
    while len(schemes) < len(arities):
        s = tuple(rng.sample(range(1, n + 1), arities[len(schemes)]))
        if s not in schemes:
            schemes.append(s)
    cons = [(f"r{k}", s, _tuples(rng, tuple(planted[i] for i in s), d, density))
            for k, s in enumerate(schemes, start=1)]
    return Model({i: list(range(d)) for i in range(1, n + 1)}, cons, planted)


# ---------------------------------------------------------------------------
# Workload call lists


def make_calls(workload: str, seed: int) -> list[Call]:
    def rng(k: int) -> random.Random:
        return random.Random(f"{workload}:{seed}:{k}")

    if workload == "arc":
        return [Call(f"arc{k}", _binary_csp(rng(k), 120, 6, 300, 0.3),
                     ["--goal", "arc"], check_arc) for k in range(2)]
    if workload == "path":
        return [Call(f"path{k}", _complete_csp(rng(k), 8, 5),
                     ["--goal", "path"], check_path) for k in range(3)]
    if workload == "narrow":
        calls = []
        for name, m in (("cycles", _cycles(rng(0), 4, 3, 1000)),
                        ("chain", _chain(rng(1), 200, 1000))):
            names = [f"lineq@{cid}" for cid, _, _ in m.constraints]
            calls.append(Call(name, m, ["--reducers", ",".join(names), "--mode", "ciq"],
                              check_narrow, reducers=names))
        return calls
    if workload == "rel":
        calls = [Call(f"rel1_{k}", _small_csp(rng(k), 4, 3, [2, 2, 3], 0.6),
                      ["--goal", "rel:1"], partial(check_rel, m=1)) for k in range(2)]
        calls.append(Call("rel2", _small_csp(rng(2), 3, 3, [2, 3], 0.6),
                          ["--goal", "rel:2"], partial(check_rel, m=2)))
        return calls
    raise ValueError(f"unknown workload {workload!r}")
