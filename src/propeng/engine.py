"""Generic fixpoint iteration over products of ordered components.

A ``ReductionFunction`` is an inflationary, monotonic transformer on the
components named by its scheme.  ``run`` drives a set of such functions to a
common fixpoint with one worklist loop and Apt's one update rule: the
applied function leaves the worklist when it is picked, and on a change the
functions that *read* a changed component are woken up.  The mode fixes two
things: whether the worklist is a set (a function is pending at most once,
and the strategy chooses the next one) or a FIFO queue with duplicates, and
whether an idempotent applied function is left out of its own wake-up:

* ``ci``, ``ciq``   -- set, queue; every reader is woken, the applied
                       function too;
* ``cii``, ``ciiq`` -- set, queue; an idempotent applied function is not
                       woken by its own change (it is stable there).

The run ranks its functions once, right after the strategy's ``reset``:
a function's rank is its position in ``key`` order, and that sort is the
only place the run evaluates the key.  From then on its bookkeeping works on
ranks, and the woken functions enter the worklist in rank order, which is
key order: a component -> readers index, built before the loop, holds each
component's readers as an ascending list of ranks, a change of one
component wakes its list as it is, and a change of several merges their
lists once per distinct changed-component tuple.  So a strategy is a key
and a ``choose``, and an order of its own is a key by position
(``position_key``), set in ``reset``: ``lifo`` keys by descending fid, and
``seeded`` by a seeded random order, drawn once per run, with a seeded
random pick in set modes.
An application that changes nothing returns its argument tuple itself, and
``apply_step`` takes that as no change after one identity test: as in Apt's
update rule, only a change costs bookkeeping.
A function reads its whole scheme unless it declares ``reads``.  An
intersection ``x := x & h(y)`` stays stable when only ``x`` shrinks, so it
may leave ``x`` out and still keep the invariant of generic iteration: every
function outside the worklist is stable at the current state.  A set mode
keeps its pending functions in a ``Pending`` list sorted by rank, which is
key order, beside the list of their ranks; it finds where to insert or
delete a function by bisecting those integers, and hands the function list
to the strategy's ``choose``.  So one step costs O(log F + wake degree)
integer comparisons for F functions, and no key evaluation (``roundrobin``'s
``choose`` bisects by key, O(log F)).  The pick deletes ``pending[0]``
without a search when that is the chosen function, as it always is under
``det`` and ``block``.  Beside the list, ``Pending.recent``
keeps the wake order: a function woken again while pending moves to the
back of it, so ``lifo``, which takes the back, runs the most recently woken
function first.

The engine is generic over the component orders: it knows no value family.
It compares components with ``lattice.leq`` and tests them with
``lattice.is_empty_value``, and the registration probes draw their inputs
through each component's own ``sample`` and ``sample_above``.

Before the loop, ``run(validate=True)`` probes every function on a few
drawn inputs: it must be inflationary and monotonic there, and, if it
declares ``idempotent``, idempotent too.  A component's draws come from its
own seed (its position), so they are the same for every function that reads
it; ``run`` draws each component once and shares the draws among its
readers, and drops them once the last reader has been probed, so the probes
hold the draws of the components still to be read, not of all of them.

Termination is guaranteed on finite-chain components; a step cap guards
against the general case, where infinite executions exist.

The state of a run is the current product and the worklist; the history of
applications is not part of it.  A run keeps no per-step record: its
``RunTrace`` holds the number of applications and the outcome.  A caller
that wants the steps passes ``observer``, which ``run`` calls once per
application with a ``TraceStep``; ``observer=steps.append`` collects them
in a list.  Without an observer the memory of a run does not grow with its
step count, apart from a queue mode's duplicates.
"""

from __future__ import annotations

import bisect
import enum
import operator
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .csp import Scheme
from .errors import ConfigError, ProbeRejectionError, ResourceLimitError
from . import lattice
from .lattice import ProductValue

DEFAULT_STEP_CAP = 10**6

MODES = ("ci", "cii", "ciq", "ciiq")


@dataclass(frozen=True)
class ReductionFunction:
    """A named, scheme-tagged transformer on the product of its components.

    ``apply`` takes and returns one value per scheme position.  ``idempotent``
    is a declared property: the ``cii``/``ciiq`` disciplines trust it to
    leave a function out of its own wake-up, and every other discipline
    ignores it.  The registration probes test it on their samples only, so
    it defaults to ``False``: a function declares it only when
    ``f(f(d)) = f(d)`` holds.  ``group`` keys block scheduling.
    ``reads`` names the components of the scheme whose change can make the
    function unstable again (``None``: the whole scheme).

    For a component it leaves unchanged, ``apply`` returns the argument
    object itself: ``apply_step`` takes an identical object as unchanged
    without comparing it, and compares only a new object structurally (a new
    but equal object costs that comparison, not a wrong result).  When it
    changes no component, ``apply`` returns the ``args`` tuple itself, and
    ``apply_step`` returns at once on that identity test; a new tuple of the
    same objects is also no change, found by the per-coordinate test.
    """

    fid: str
    scheme: Scheme
    apply: Callable[[tuple], tuple]
    idempotent: bool = False
    group: str | None = None
    reads: tuple[int, ...] | None = None


class Outcome(enum.Enum):
    CONVERGED = "converged"
    STEP_LIMIT = "step-limit"
    EMPTY_COMPONENT = "empty-component"


class TraceStep(NamedTuple):
    fid: str
    changed_components: tuple[int, ...]

    @property
    def changed(self) -> bool:
        return bool(self.changed_components)


@dataclass
class RunTrace:
    """What a run reports about itself: how many applications it made and
    how it ended.  The steps themselves go to ``run``'s observer, if any."""

    total_applications: int = 0
    outcome: Outcome = Outcome.CONVERGED


@dataclass
class FixpointResult:
    value: ProductValue
    trace: RunTrace

    @property
    def converged(self) -> bool:
        return self.trace.outcome is Outcome.CONVERGED


# ---------------------------------------------------------------------------
# Scheduling strategies


class Pending(list):
    """A set mode's pending functions, sorted by the strategy's ``key``: the
    run keeps them in rank order, their position in key order.

    ``recent`` maps the fid of each of them to the function, in wake order:
    the most recently woken one is last.
    """

    def __init__(self):
        super().__init__()
        self.recent: dict[str, ReductionFunction] = {}


def position_key(order: Iterable[ReductionFunction]) -> Callable[[ReductionFunction], int]:
    """The key that ranks each function by its position in ``order``."""
    position = {f.fid: k for k, f in enumerate(order)}
    return lambda f: position[f.fid]


class Strategy:
    """Resolves the nondeterminism left open by the iteration loop: which
    pending function a set mode picks next.  Its ``key`` also orders the
    functions a change wakes as they enter the worklist, so a strategy is a
    key and a ``choose``; a subclass customises ``key``, ``reset`` and
    ``choose``.

    The base class is the deterministic policy: lowest ``key`` first.
    ``key`` must give distinct functions distinct, comparable values.
    ``run`` evaluates it once per function, right after ``reset``, to rank
    the functions, and schedules by rank from then on; a strategy's own
    methods may still call it (``roundrobin``'s ``choose`` does).  A
    ``reset`` may set the key for the run, as ``position_key`` of an order
    it draws from the functions.  A set mode passes ``choose`` its pending
    functions as a ``Pending`` list, already sorted by ``key``, which
    ``choose`` must not modify.  Every strategy is built from the run's
    seed; only ``seeded`` draws from it.
    """

    key = operator.attrgetter("fid")

    def __init__(self, seed: int = 0):
        self.seed = seed

    def reset(self, functions: Sequence[ReductionFunction]) -> None:
        pass

    def choose(self, pending: Pending) -> ReductionFunction:
        return pending[0]


class SeededStrategy(Strategy):
    """A seeded random order, drawn once per run, and a seeded random pick
    in set modes; reproducible across runs."""

    def reset(self, functions):
        self._rng = random.Random(self.seed)
        order = sorted(functions, key=Strategy.key)
        self._rng.shuffle(order)
        self.key = position_key(order)

    def choose(self, pending):
        return self._rng.choice(pending)


class LifoStrategy(Strategy):
    """Most recently woken function first: the key is descending fid order,
    a set mode moves a function that is woken again to the back of the wake
    order, and this picks the back."""

    def reset(self, functions):
        self.key = position_key(sorted(functions, key=Strategy.key, reverse=True))

    def choose(self, pending):
        return next(reversed(pending.recent.values()))


class RoundRobinStrategy(Strategy):
    """Cycles through the registered ids, taking the next one pending."""

    def reset(self, functions):
        self._last = None

    def choose(self, pending):
        # the first pending id after the last chosen one, else wrap around
        i = 0 if self._last is None else bisect.bisect_right(
            pending, self._last, key=self.key)
        g = pending[i] if i < len(pending) else pending[0]
        self._last = self.key(g)
        return g


class BlockStrategy(Strategy):
    """Keeps the functions of one group (typically one constraint) together."""

    @staticmethod
    def key(f):
        return (f.group or f.fid, f.fid)


STRATEGIES = {
    "det": Strategy,
    "seeded": SeededStrategy,
    "lifo": LifoStrategy,
    "roundrobin": RoundRobinStrategy,
    "block": BlockStrategy,
}


def make_strategy(name: str, seed: int = 0) -> Strategy:
    if name not in STRATEGIES:
        raise ConfigError(f"unknown strategy {name!r}")
    return STRATEGIES[name](seed)


# ---------------------------------------------------------------------------
# Canonical extension and application


def _check_scheme(f: ReductionFunction, arity: int) -> None:
    if f.scheme and (min(f.scheme) < 1 or max(f.scheme) > arity):
        raise ConfigError(
            f"function {f.fid!r} has scheme {f.scheme} outside 1..{arity}")
    if f.reads is not None and not set(f.scheme).issuperset(f.reads):
        raise ConfigError(
            f"function {f.fid!r} reads {f.reads} outside its scheme {f.scheme}")


def extend(f: ReductionFunction, arity: int) -> Callable[[ProductValue], ProductValue]:
    """Lift ``f`` to the full product: apply it to its scheme's components
    and copy every other component unchanged."""
    _check_scheme(f, arity)

    def extended(d: ProductValue) -> ProductValue:
        if len(d) != arity:
            raise ConfigError(f"expected a product of {arity} components")
        out = f.apply(tuple(d.component(i) for i in f.scheme))
        return d.replace(dict(zip(f.scheme, out)))

    return extended


def apply_step(f: ReductionFunction, d: ProductValue):
    """Apply ``f`` in place of its scheme; returns (new product, changed idxs).
    An ``apply`` that returns its argument tuple itself changed nothing:
    the result is ``(d, ())``, without a per-coordinate test."""
    comps = d.components
    args = tuple([comps[i - 1] for i in f.scheme])
    out = f.apply(args)
    if out is args:
        return d, ()
    out = tuple(out)
    if len(out) != len(args):
        raise ConfigError(f"function {f.fid!r} returned {len(out)} components "
                          f"for a {len(args)}-ary scheme")
    changed = []
    updates = {}
    for i, old, new in zip(f.scheme, args, out):
        if new is not old and new != old:
            if not lattice.leq(old, new):
                raise ProbeRejectionError(f.fid, "produced a non-inflationary step")
            changed.append(i)
            updates[i] = new
    return (d.replace(updates) if updates else d), tuple(changed)


# ---------------------------------------------------------------------------
# Registration probes


def _probe_draws(b, position: int, samples: int):
    """Component ``position``'s probe inputs, as ``probe_function`` draws
    them: the tuple of its ``x_c`` and the tuple of its ``x_c'``."""
    if not hasattr(b, "sample"):
        raise ConfigError(f"cannot sample values of kind {type(b).__name__}")
    rng = random.Random(position)
    xs, above = [], []
    for _ in range(samples):
        x = b.sample(rng)
        xs.append(x)
        above.append(x.sample_above(rng))
    return tuple(xs), tuple(above)


def probe_function(f: ReductionFunction, start: ProductValue,
                   samples: int = 6, draws: dict | None = None) -> None:
    """Spot-check that ``f`` is inflationary and monotonic, and idempotent
    if it declares so, on inputs its components draw; raises
    ``ProbeRejectionError``.

    Each component of the scheme draws ``samples`` pairs ``(x_c, x_c')``
    from ``random.Random(position)``: ``x_c`` by its ``sample`` and
    ``x_c'`` by ``x_c.sample_above``.  Sample ``k`` of ``f`` is ``x``, the
    components' ``k``-th ``x_c``, and ``y``, their ``k``-th ``x_c'``; it
    checks ``x <= f(x)``, then ``f(f(x)) == f(x)`` if ``f`` declares
    ``idempotent``, then ``f(x) <= f(y)``.  So the draws depend only on the
    start component, its position and ``samples``, and a probe called alone
    sees what it sees inside ``run``.  ``draws`` maps a position to its drawn
    pairs; ``run`` passes one such memo, for its ``start`` and the default
    ``samples``, to every probe, so a component is drawn once per run, not
    once per function reading it.

    A function that declares both ``idempotent`` and ``reads`` is stable at
    ``z = f(x)``, and its ``reads`` says it stays so while only unread
    components change.  So each sample also moves every unread coordinate
    of ``z`` up, by ``sample_above`` on a stream of its own seeded by the
    component's position (the shared draws stay as they are), and checks
    that ``f`` is stable at the moved point.  A function that declares
    ``reads`` but not ``idempotent`` is not checked against its ``reads``.
    """
    if draws is None:
        draws = {}
    xcols, ycols = [], []
    for i in f.scheme:
        col = draws.get(i)
        if col is None:
            col = draws[i] = _probe_draws(start.component(i), i, samples)
        xcols.append(col[0])
        ycols.append(col[1])
    rows = zip(zip(*xcols), zip(*ycols)) if xcols else [((), ())] * samples
    # the unread coordinates, each with its own stream of upward moves
    unread = {k: random.Random(i) for k, i in enumerate(f.scheme)
              if f.idempotent and f.reads is not None and i not in f.reads}
    for x, y in rows:
        fx = tuple(f.apply(x))
        if len(fx) != len(x):
            raise ProbeRejectionError(f.fid, "wrong output arity")
        if not all(map(lattice.leq, x, fx)):
            raise ProbeRejectionError(f.fid, "failed the inflation probe")
        if f.idempotent and tuple(f.apply(fx)) != fx:
            raise ProbeRejectionError(
                f.fid, "declares idempotent=True but failed the idempotence probe")
        if unread:
            z = list(fx)
            for k, rng in unread.items():
                z[k] = z[k].sample_above(rng)
            z = tuple(z)
            if tuple(f.apply(z)) != z:
                raise ProbeRejectionError(
                    f.fid, f"declares reads={f.reads} but failed the reads probe")
        fy = tuple(f.apply(y))
        if not all(map(lattice.leq, fx, fy)):
            raise ProbeRejectionError(f.fid, "failed the monotonicity probe")


# ---------------------------------------------------------------------------
# The iteration loop


def run(functions: Iterable[ReductionFunction], start: ProductValue,
        mode: str = "ci", strategy: Strategy | None = None,
        step_cap: int = DEFAULT_STEP_CAP, early_exit: bool = False,
        validate: bool = True,
        observer: Callable[[TraceStep], object] | None = None) -> FixpointResult:
    """Iterate ``functions`` from ``start`` until no application changes the
    state (a common fixpoint) or a limit is hit.

    Started from the bottom product, a converged run yields the least common
    fixpoint of the extended functions, independent of the mode (any of the
    four, for any mix of idempotent and other functions) and the strategy.

    ``observer``, if given, is called once per application, right after
    it, with ``TraceStep(fid, changed components)``.  The run holds no
    per-step record of its own, so without an observer none is built.
    Observing does not change the run: the same value, outcome and
    application count come back either way.

    The readers of a change of several components are memoised per
    changed-component tuple in a dict local to the run; it grows with the
    number of distinct changed-component sets, never with the step count.
    """
    functions = tuple(functions)
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if step_cap < 0:
        raise ConfigError(f"step cap must be at least 0, got {step_cap}")
    n = len(start)
    rank: dict[str, int] = {}   # fid -> rank, once the functions are ranked
    for f in functions:
        if f.fid in rank:
            raise ConfigError(f"function {f.fid!r} listed twice in one run")
        rank[f.fid] = -1
    for f in functions:
        _check_scheme(f, n)
    if validate:
        # one draw per component, shared by its readers and dropped once
        # the last of them has been probed
        draws: dict[int, tuple] = {}
        last = {i: k for k, f in enumerate(functions) for i in f.scheme}
        for k, f in enumerate(functions):
            probe_function(f, start, draws=draws)
            for i in f.scheme:
                if last[i] == k:
                    draws.pop(i, None)

    strategy = strategy or Strategy()
    strategy.reset(functions)
    applications = 0
    d = start

    def emptied(idxs) -> int | None:
        for i in idxs:
            if lattice.is_empty_value(d.component(i)):
                return i
        return None

    if early_exit and emptied(range(1, n + 1)) is not None:
        return FixpointResult(d, RunTrace(0, Outcome.EMPTY_COMPONENT))

    # the ranks: each function's position in key order, the only place the
    # run evaluates the key; from here on it schedules ranks
    ranked = sorted(functions, key=strategy.key)
    for r, f in enumerate(ranked):
        rank[f.fid] = r

    # component -> the ranks of the functions reading it, ascending, built once
    readers: list[list[int]] = [[] for _ in range(n + 1)]
    for r, f in enumerate(ranked):
        for i in set(f.scheme if f.reads is None else f.reads):
            readers[i].append(r)

    # changed-component tuple -> the ranks it wakes, for a change of several
    # components; it grows with the number of distinct changes, never with
    # the step count
    wake_lists: dict[tuple[int, ...], list[int]] = {}

    def woken(changed) -> Sequence[int]:
        if len(changed) == 1:
            return readers[changed[0]]
        wake = wake_lists.get(changed)
        if wake is None:
            wake = wake_lists[changed] = sorted({r for i in changed for r in readers[i]})
        return wake

    queue = mode in ("ciq", "ciiq")
    keep_out = mode in ("cii", "ciiq")
    if queue:
        pending = deque(range(len(ranked)))
    else:
        # every function is pending, in key order in the list and in
        # ``recent``; ``ranks`` runs beside ``pending`` and is what the
        # bisections search
        pending = Pending()
        pending.extend(ranked)
        pending.recent.update((f.fid, f) for f in ranked)
        ranks = list(range(len(ranked)))
        recent = pending.recent
        choose = strategy.choose

    def push(wake: Sequence[int]) -> None:
        if queue:
            pending.extend(wake)
            return
        for r in wake:
            f = ranked[r]
            if recent.pop(f.fid, None) is None:
                i = bisect.bisect_left(ranks, r)
                ranks.insert(i, r)
                pending.insert(i, f)
            recent[f.fid] = f    # a re-woken function moves to the back

    while pending:
        if applications >= step_cap:
            return FixpointResult(d, RunTrace(applications, Outcome.STEP_LIMIT))
        if queue:
            gr = pending.popleft()
            g = ranked[gr]
        else:
            g = choose(pending)
            del recent[g.fid]
            if pending[0] is g:     # always so under det and block
                i = 0
            else:
                i = bisect.bisect_left(ranks, rank[g.fid])
            gr = ranks.pop(i)
            del pending[i]
        d2, changed = apply_step(g, d)
        applications += 1
        if observer is not None:
            observer(TraceStep(g.fid, changed))
        if changed:
            wake = woken(changed)
            # an idempotent g is stable at d2: cii/ciiq need not wake it
            push([r for r in wake if r != gr] if keep_out and g.idempotent
                 else wake)
            d = d2
        if early_exit and changed and emptied(changed) is not None:
            return FixpointResult(d, RunTrace(applications, Outcome.EMPTY_COMPONENT))

    return FixpointResult(d, RunTrace(applications, Outcome.CONVERGED))


# ---------------------------------------------------------------------------
# Idempotent closure and limit comparison


def closure_star(f: ReductionFunction, step_cap: int = DEFAULT_STEP_CAP) -> ReductionFunction:
    """The function iterating ``f`` on its own components to a local fixpoint.

    On finite-chain components the result is idempotent; if the cap is hit
    before a local fixpoint is reached, the application fails loudly.
    """

    def star(args: tuple) -> tuple:
        cur = tuple(args)
        for _ in range(step_cap):
            nxt = tuple(f.apply(cur))
            if nxt == cur:
                return cur
            cur = nxt
        raise ResourceLimitError(
            f"closure of {f.fid!r} did not reach a fixpoint within {step_cap} steps")

    return ReductionFunction(
        fid=f.fid + "*", scheme=f.scheme, apply=star, idempotent=True, group=f.group)


@dataclass(frozen=True)
class LimitComparison:
    """Componentwise order between two fixpoints: ``relation`` is one of
    ``less`` (the first carries less information), ``equal``, ``greater``,
    ``incomparable`` or ``inconclusive`` (some run hit its cap)."""

    relation: str
    left: ProductValue | None
    right: ProductValue | None


def compare_limits(fs: Iterable[ReductionFunction], gs: Iterable[ReductionFunction],
                   start: ProductValue, mode: str = "ci",
                   strategy: Strategy | None = None,
                   step_cap: int = DEFAULT_STEP_CAP,
                   validate: bool = True) -> LimitComparison:
    """Run both function sets from the same start and compare the limits."""
    a = run(fs, start, mode=mode, strategy=strategy,
            step_cap=step_cap, validate=validate)
    b = run(gs, start, mode=mode, strategy=strategy,
            step_cap=step_cap, validate=validate)
    if not (a.converged and b.converged):
        return LimitComparison("inconclusive",
                               a.value if a.converged else None,
                               b.value if b.converged else None)
    below = lattice.leq(a.value, b.value)
    above = lattice.leq(b.value, a.value)
    if below and above:
        rel = "equal"
    elif below:
        rel = "less"
    elif above:
        rel = "greater"
    else:
        rel = "incomparable"
    return LimitComparison(rel, a.value, b.value)
