"""Shared helpers: random problem generation, brute-force oracles, and the
divergent three-function fixture used by the non-termination tests."""

import itertools
import random

import pytest

from propeng.csp import (
    CSP, Constraint, ExtensionalBody, IntDomain, LinearEqBody, LinearIneqBody,
    Scheme, SetDomain,
)
from propeng.engine import ReductionFunction, Strategy
from propeng.lattice import GridInterval, IntGrid, PowersetValue, ProductValue


def random_set_csp(rng: random.Random, max_vars=4, max_atoms=3, max_constraints=4,
                   min_vars=2) -> CSP:
    """A random extensional problem over small finite set domains."""
    n = rng.randint(min_vars, max_vars)
    domains = tuple(
        SetDomain(frozenset(range(rng.randint(1, max_atoms)))) for _ in range(n))
    constraints = []
    for ci in range(rng.randint(1, max_constraints)):
        arity = rng.randint(1, min(3, n))
        scheme = Scheme(tuple(rng.sample(range(1, n + 1), arity)))
        space = list(itertools.product(*(domains[i - 1].members() for i in scheme)))
        tuples = frozenset(t for t in space if rng.random() < 0.6)
        constraints.append(Constraint(f"c{ci + 1}", scheme, ExtensionalBody(tuples)))
    return CSP(domains, tuple(constraints))


def random_lineq_csp(rng: random.Random, max_vars=4, max_width=6,
                     max_constraints=3) -> CSP:
    """A random system of linear equalities over 2..max_vars small integer
    intervals, each equality over at least two of the variables with
    nonzero coefficients in -3..3.  Every equality holds at one random point
    of the box, except that one in ten is moved off it by one."""
    n = rng.randint(2, max_vars)
    domains = []
    for _ in range(n):
        lo = rng.randint(-3, 3)
        domains.append(IntDomain(lo, lo + rng.randint(0, max_width)))
    point = [rng.randint(d.lo, d.hi) for d in domains]
    constraints = []
    for ci in range(rng.randint(1, max_constraints)):
        scheme = tuple(rng.sample(range(1, n + 1), rng.randint(2, n)))
        coeffs = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in scheme)
        constant = sum(a * point[i - 1] for a, i in zip(coeffs, scheme))
        constant += rng.random() < 0.1
        constraints.append(
            Constraint(f"e{ci + 1}", Scheme(scheme), LinearEqBody(coeffs, constant)))
    return CSP(tuple(domains), tuple(constraints))


def random_binary_constraint(rng: random.Random, left, right, cid="c1",
                             scheme=(1, 2)) -> Constraint:
    space = list(itertools.product(sorted(left), sorted(right)))
    tuples = frozenset(t for t in space if rng.random() < 0.6)
    return Constraint(cid, Scheme(scheme), ExtensionalBody(tuples))


NAME_ATOMS = ("a", "b", "red", "x1", "_z", "Q9")


def random_text_csp(rng: random.Random, max_vars=4, max_constraints=4) -> CSP:
    """A random problem for the file format: set domains mixing negative
    ints and name atoms, integer ranges (some empty), and tuple, ``lineq``
    and ``leq`` constraints.  Tuples need not lie in the domains."""
    n = rng.randint(1, max_vars)
    domains = []
    for _ in range(n):
        if rng.random() < 0.6:
            atoms = (rng.sample(range(-12, 13), rng.randint(0, 3))
                     + rng.sample(NAME_ATOMS, rng.randint(0, 3)))
            domains.append(SetDomain(frozenset(atoms)))
        else:
            lo = rng.randint(-9, 9)
            domains.append(IntDomain(lo, lo + rng.randint(-1, 5)))
    pool = (-10, -3, 0, 7, "a", "red", "_z")
    constraints = []
    for k in range(rng.randint(0, max_constraints)):
        scheme = Scheme(tuple(rng.sample(range(1, n + 1), rng.randint(1, n))))
        kind = rng.choice(("tuples", "tuples", "lineq", "leq"))
        if kind == "tuples":
            body = ExtensionalBody(frozenset(
                tuple(rng.choice(pool) for _ in scheme) for _ in range(rng.randint(0, 5))))
        else:
            coeffs = tuple(rng.choice((-1, 1)) * rng.randint(1, 12) for _ in scheme)
            const = rng.randint(-20, 20)
            body = (LinearEqBody if kind == "lineq" else LinearIneqBody)(coeffs, const)
        constraints.append(Constraint(f"c{k + 1}", scheme, body))
    return CSP(tuple(domains), tuple(constraints))


def spaced_text(csp: CSP, rng: random.Random) -> str:
    """``csp`` in the problem-file format, written independently of
    ``serialize_csp``: domain lines, atoms and tuples in random order, random
    blanks wherever the format allows them, a coefficient of 1 sometimes left
    out, and comments and empty lines in between."""
    def ws():        # optional blanks
        return rng.choice(("", "", " ", "  ", "\t", " \t "))

    def gap():       # required blanks between the leading words of a line
        return rng.choice((" ", "  ", "\t", " \t"))

    def listed(items, show):
        items = list(items)
        rng.shuffle(items)
        return ws() + f"{ws()},{ws()}".join(map(show, items)) + ws()

    def atom(x):
        return ws() + str(x) + ws()

    def tup(t):
        return "(" + ",".join(map(atom, t)) + ")"

    lines = []
    for i, d in enumerate(csp.domains, start=1):
        head = f"{ws()}domain{gap()}{i}{gap()}"
        if isinstance(d, SetDomain):
            lines.append(f"{head}set {ws()}{{{listed(d.values, str)}}}{ws()}")
        else:
            lines.append(f"{head}int {ws()}[{ws()}{d.lo}{ws()}..{ws()}{d.hi}{ws()}]{ws()}")
    rng.shuffle(lines)
    for c in csp.constraints:
        scheme = ",".join(ws() + str(i) + ws() for i in c.scheme)
        head = f"{ws()}constraint{gap()}{c.cid}{gap()}scheme{ws()}({scheme}){ws()}"
        if isinstance(c.body, ExtensionalBody):
            lines.append(f"{head}tuples{ws()}{{{listed(c.body.tuples, tup)}}}{ws()}")
            continue
        terms = []
        for k, (a, i) in enumerate(zip(c.body.coeffs, c.scheme)):
            sign = "-" if a < 0 else ("+" if k or rng.random() < 0.3 else "")
            mag = "" if abs(a) == 1 and rng.random() < 0.5 else f"{abs(a)}{ws()}*{ws()}"
            terms.append(f"{ws()}{sign}{ws()}{mag}x{i}{ws()}")
        kind, op = (("lineq", "=") if isinstance(c.body, LinearEqBody)
                    else ("leq", "<="))
        lines.append(f"{head}{kind}{gap()}{''.join(terms)}{op}{ws()}{c.body.constant}{ws()}")
    out = []
    for line in lines:
        if rng.random() < 0.2:
            out.append(rng.choice(("", ws(), "# a comment", ws() + "#")))
        out.append(line + (ws() + "# trailing" if rng.random() < 0.2 else ""))
    return "\n".join(out) + rng.choice(("", "\n"))


def brute_force_join(csp: CSP, members) -> frozenset:
    """Tuples over the union scheme whose restrictions lie in every member,
    by plain enumeration over the declared domains."""
    from propeng.csp import scheme_union
    union = scheme_union([c.scheme for c in members])
    out = set()
    for combo in itertools.product(*(csp.domain_members(i) for i in union)):
        at = dict(zip(union, combo))
        if all(tuple(at[i] for i in c.scheme) in c.tuples for c in members):
            out.add(combo)
    return frozenset(out)


def brute_force_relationally_consistent(csp: CSP, m: int) -> bool:
    """Dechter and van Beek's relational m-consistency by plain search: for
    any m distinct constraints and any set x of variables in their scopes,
    every assignment to x that satisfies each constraint whose scope lies
    inside x agrees with some assignment to the whole union of the scopes
    that satisfies the m."""
    def satisfies(a, c):
        return tuple(a[i] for i in c.scheme) in c.tuples

    def assignments(variables):
        for combo in itertools.product(*(csp.domain_members(i) for i in variables)):
            yield dict(zip(variables, combo))

    for chosen in itertools.combinations(csp.constraints, m):
        union = sorted(set().union(*(c.scheme for c in chosen)))
        for r in range(1, len(union) + 1):
            for x in itertools.combinations(union, r):
                inside = [c for c in csp.constraints if set(c.scheme) <= set(x)]
                for a in assignments(x):
                    if all(satisfies(a, c) for c in inside) and not any(
                            all(b[i] == a[i] for i in x)
                            and all(satisfies(b, c) for c in chosen)
                            for b in assignments(union)):
                        return False
    return True


def all_subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def powerset_states(bases):
    """Every product state over powerset components with the given bases."""
    per = [[PowersetValue(b, s) for s in all_subsets(b)] for b in bases]
    for combo in itertools.product(*per):
        yield ProductValue(tuple(combo))


def brute_force_least_fixpoint(functions, states, start):
    """The unique minimal common fixpoint above nothing in particular,
    located by scanning every state of a (small) product lattice."""
    from propeng import engine, lattice
    fixpoints = []
    for s in states:
        if all(engine.apply_step(f, s)[1] == () for f in functions):
            fixpoints.append(s)
    least = [s for s in fixpoints
             if all(lattice.leq(s, other) for other in fixpoints)]
    assert len(least) == 1, "expected a unique least common fixpoint"
    return least[0]


def union_of_arc_consistent_boxes(csp: CSP):
    """Componentwise union of every arc-consistent sub-box of the domains."""
    n = csp.arity
    bases = [frozenset(csp.domain_members(i)) for i in range(1, n + 1)]
    best = [set() for _ in range(n)]
    for box in itertools.product(*(list(all_subsets(b)) for b in bases)):
        ok = True
        for c in csp.constraints:
            live = [t for t in c.tuples
                    if all(x in box[i - 1] for i, x in zip(c.scheme, t))]
            for k, i in enumerate(c.scheme):
                if box[i - 1] - {t[k] for t in live}:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for k in range(n):
                best[k] |= box[k]
    return [frozenset(b) for b in best]


# ---------------------------------------------------------------------------
# The divergent counter fixture: a counter that two functions keep bumping
# and a third sends straight to the top sentinel value.

OMEGA = 2000


class AlternatingStrategy(Strategy):
    """Always picks f1, f2, f1, f2, ... ignoring the third function."""

    name = "alternating"

    def order(self, functions):
        self._next = "f1"
        return super().order(functions)

    def choose(self, pending, recent):
        pick = recent[self._next]
        self._next = "f2" if self._next == "f1" else "f1"
        return pick


@pytest.fixture
def counter_fixture():
    """(functions, start): f1 bumps even counters, f2 bumps odd ones, f0
    jumps to the sentinel; alternating f1,f2 never converges.  Only the
    constant f0 is idempotent."""
    grid = IntGrid(0, OMEGA)

    def bump(parity):
        def apply(args):
            (v,) = args
            if not v.is_empty and v.lo % 2 == parity and v.lo < OMEGA:
                return (GridInterval(grid, v.lo + 1, OMEGA),)
            return (v,)
        return apply

    def jump(args):
        return (GridInterval(grid, OMEGA, OMEGA),)

    fns = [
        ReductionFunction("f0", Scheme((1,)), jump, idempotent=True),
        ReductionFunction("f1", Scheme((1,)), bump(0)),
        ReductionFunction("f2", Scheme((1,)), bump(1)),
    ]
    start = ProductValue((GridInterval.full(grid),))
    return fns, start


# ---------------------------------------------------------------------------
# Recurring example problems


@pytest.fixture
def eq_ne_csp():
    """Equality and inequality over the 0-1 domain: arc consistent but has
    no solutions."""
    d = SetDomain(frozenset({0, 1}))
    eq = Constraint("eq", Scheme((1, 2)), ExtensionalBody(frozenset({(0, 0), (1, 1)})))
    ne = Constraint("ne", Scheme((1, 2)), ExtensionalBody(frozenset({(0, 1), (1, 0)})))
    return CSP((d, d), (eq, ne))


@pytest.fixture
def chain_csp():
    """Two overlapping constraints over {0,1}^3 whose joint solutions prune
    one tuple of the first."""
    d = SetDomain(frozenset({0, 1}))
    c1 = Constraint("c1", Scheme((1, 2)), ExtensionalBody(frozenset({(0, 0), (1, 1)})))
    c2 = Constraint("c2", Scheme((2, 3)), ExtensionalBody(frozenset({(0, 1)})))
    return CSP((d, d, d), (c1, c2))
