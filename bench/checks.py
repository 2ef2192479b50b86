"""Independent checks of ``propeng run --format json`` outputs.

Nothing here imports ``propeng``: each check recomputes what the goal must
produce (AC-3, the path-consistency fixpoint, a bounds loop) or tests a property
the result must have (relational m-consistency, an unchanged solution set)
from the generated model.  A check returns ``None`` when the output is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import itertools


def _domain_values(entry: dict):
    if entry["kind"] == "set":
        return set(entry["values"])
    return set(range(entry["lo"], entry["hi"] + 1))


def _out_domains(out: dict) -> dict[int, set]:
    return {e["index"]: _domain_values(e) for e in out["csp"]["domains"]}


def _out_relations(out: dict) -> list[tuple[str, tuple, set]]:
    return [(c["id"], tuple(c["scheme"]), {tuple(t) for t in c["tuples"]})
            for c in out["csp"]["constraints"]]


def _same_ids(model, rels) -> str | None:
    ids = [cid for cid, _, _ in rels]
    want = [cid for cid, _, _ in model.constraints]
    if ids[:len(want)] != want:
        return f"constraint ids {ids[:len(want)]} differ from the input's {want}"
    return None


# ---------------------------------------------------------------------------
# arc


def ac3(model) -> dict[int, set]:
    """Arc consistency by the AC-3 revise loop over the model's binary
    extensional constraints."""
    dom = {i: set(d) for i, d in model.domains.items()}
    arcs = []                       # (revised var, supporting var, tuples, side)
    for _, (i, j), tuples in model.constraints:
        arcs.append((i, j, tuples, 0))
        arcs.append((j, i, tuples, 1))
    supported_by: dict[int, list[int]] = {}
    for k, (_, y, _, _) in enumerate(arcs):
        supported_by.setdefault(y, []).append(k)
    queue = list(range(len(arcs)))
    queued = set(queue)
    while queue:
        k = queue.pop()
        queued.discard(k)
        x, y, tuples, side = arcs[k]
        kept = {t[side] for t in tuples if t[side] in dom[x] and t[1 - side] in dom[y]}
        if kept != dom[x]:
            dom[x] = kept
            for k2 in supported_by.get(x, ()):
                if k2 not in queued:
                    queue.append(k2)
                    queued.add(k2)
    return dom


def check_arc(model, out: dict) -> str | None:
    want = ac3(model)
    got = _out_domains(out)
    for i, values in want.items():
        if got.get(i) != values:
            return f"domain {i} is {sorted(got.get(i, ()))}, AC-3 gives {sorted(values)}"
    rels = _out_relations(out)
    reason = _same_ids(model, rels)
    if reason or len(rels) != len(model.constraints):
        return reason or "the output has extra constraints"
    for (cid, scheme, tuples), (_, (i, j), orig) in zip(rels, model.constraints):
        if scheme != (i, j):
            return f"{cid} has scheme {scheme}, not {(i, j)}"
        if tuples != {t for t in orig if t[0] in want[i] and t[1] in want[j]}:
            return f"{cid} is not its input restricted to the AC-3 domains"
    return None


# ---------------------------------------------------------------------------
# path


def _compose_supports(rij: set, rik: set, rkj: set) -> set:
    """The pairs of ``rij`` that have a support ``c`` with ``(a, c)`` in
    ``rik`` and ``(c, b)`` in ``rkj``: ``rij`` intersected with
    ``rik`` composed with ``rkj``."""
    via: dict = {}
    for a, c in rik:
        via.setdefault(a, set()).add(c)
    return {(a, b) for a, b in rij if any((c, b) in rkj for c in via.get(a, ()))}


def path_closure(model) -> dict[tuple, set]:
    """Path consistency over ordered pairs: a pair with no input constraint
    starts as the product of its domains, and ``R_ij &= R_ik o R_kj`` is
    repeated over every triple of distinct indices until nothing changes.
    As in the path goal, ``R_ij`` and ``R_ji`` are separate relations."""
    dom = model.domains
    n = len(dom)
    rel = {(i, j): {(a, b) for a in dom[i] for b in dom[j]}
           for i, j in itertools.permutations(range(1, n + 1), 2)}
    for _, scheme, tuples in model.constraints:
        rel[scheme] &= set(tuples)
    changed = True
    while changed:
        changed = False
        for i, j, k in itertools.permutations(range(1, n + 1), 3):
            kept = _compose_supports(rel[(i, j)], rel[(i, k)], rel[(k, j)])
            if kept != rel[(i, j)]:
                rel[(i, j)] = kept
                changed = True
    return rel


def check_path(model, out: dict) -> str | None:
    dom = _out_domains(out)
    for i, values in model.domains.items():
        if dom.get(i) != set(values):
            return f"domain {i} changed under the path goal"
    rels = _out_relations(out)
    reason = _same_ids(model, rels)
    if reason:
        return reason
    rel: dict[tuple, set] = {}
    for cid, scheme, tuples in rels:
        if len(scheme) != 2 or scheme[0] == scheme[1] or scheme in rel:
            return f"{cid} has scheme {scheme}; expected one binary relation per pair"
        rel[scheme] = tuples
    for _, scheme, orig in model.constraints:
        if not rel[scheme] <= orig:
            return f"the relation on {scheme} grew"
    for cid, (i, j), tuples in rels:
        if any(a not in dom[i] or b not in dom[j] for a, b in tuples):
            return f"{cid} holds values outside the domains"
        if (model.planted[i], model.planted[j]) not in tuples:
            return f"{cid} lost the planted solution"

    def relation(i, j):
        r = rel.get((i, j))
        return r if r is not None else {(a, b) for a in dom[i] for b in dom[j]}

    n = len(model.domains)
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        rij = relation(i, j)
        unsupported = rij - _compose_supports(rij, relation(i, k), relation(k, j))
        if unsupported:
            a, b = min(unsupported)
            return f"({a},{b}) on {(i, j)} has no support through {k}"
    # A pair left out of the output stands for the product of its domains.
    for scheme, want in path_closure(model).items():
        if relation(*scheme) != want:
            return (f"the relation on {scheme} has {len(relation(*scheme))} pairs,"
                    f" the path-consistency fixpoint {len(want)}")
    return None


# ---------------------------------------------------------------------------
# narrow


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def bounds_loop(model) -> dict[int, tuple[int, int] | None]:
    """Integer bounds propagation over the model's linear equalities, run
    round-robin until nothing changes; ``None`` marks an emptied interval."""
    box: dict[int, tuple[int, int] | None] = dict(model.domains)
    changed = True
    while changed:
        changed = False
        for _, scheme, (coeffs, const) in model.constraints:
            if any(box[i] is None for i in scheme):
                for i in scheme:
                    if box[i] is not None:
                        box[i] = None
                        changed = True
                continue
            lows = [a * box[i][0] if a > 0 else a * box[i][1] for i, a in zip(scheme, coeffs)]
            highs = [a * box[i][1] if a > 0 else a * box[i][0] for i, a in zip(scheme, coeffs)]
            lo_sum, hi_sum = sum(lows), sum(highs)
            for k, (i, a) in enumerate(zip(scheme, coeffs)):
                # a * x_i = const - (the other terms), whose range is:
                rest_lo = const - (hi_sum - highs[k])
                rest_hi = const - (lo_sum - lows[k])
                if a > 0:
                    lo, hi = _ceil_div(rest_lo, a), rest_hi // a
                else:
                    lo, hi = _ceil_div(rest_hi, a), rest_lo // a
                old = box[i]
                lo, hi = max(lo, old[0]), min(hi, old[1])
                new = (lo, hi) if lo <= hi else None
                if new != old:
                    box[i] = new
                    changed = True
                    break     # the sums are stale; the next round retakes it
    return box


def check_narrow(model, out: dict) -> str | None:
    want = bounds_loop(model)
    for e in out["csp"]["domains"]:
        i = e["index"]
        if e["kind"] != "int":
            return f"domain {i} is not an integer interval"
        got = (e["lo"], e["hi"]) if e["lo"] <= e["hi"] else None
        if got != want[i]:
            return f"domain {i} is {got}, the bounds loop gives {want[i]}"
        if i in model.empty and got is not None:
            return f"domain {i} of an unsatisfiable cycle is not empty"
        if i in model.planted and (got is None or not got[0] <= model.planted[i] <= got[1]):
            return f"domain {i} lost the planted value {model.planted[i]}"
    if len(out["csp"]["domains"]) != len(model.domains):
        return "the output has a different number of domains"
    cons = [(c["id"], tuple(c["scheme"]), (tuple(c["coeffs"]), c["constant"]))
            for c in out["csp"]["constraints"]]
    if cons != [(cid, s, (tuple(b[0]), b[1])) for cid, s, b in model.constraints]:
        return "the linear equalities changed"
    return None


# ---------------------------------------------------------------------------
# rel


def _solutions(dom: dict[int, set], rels) -> set[tuple]:
    n = len(dom)
    out = set()
    for d in itertools.product(*(sorted(dom[i]) for i in range(1, n + 1))):
        if all(tuple(d[i - 1] for i in s) in ts for _, s, ts in rels):
            out.add(d)
    return out


def is_relationally_consistent(dom: dict[int, set], rels, m: int) -> str | None:
    """Dechter and van Beek's relational m-consistency: for any m distinct
    relations and any subset x of the variables in their scopes, every
    instantiation of x that satisfies each relation whose scope lies inside
    x extends to an instantiation of the whole union that satisfies all m.
    Returns the first violation found, or ``None``."""
    scopes = [frozenset(s) for _, s, _ in rels]
    for chosen in itertools.combinations(range(len(rels)), m):
        union = sorted(frozenset().union(*(scopes[c] for c in chosen)))
        joined = []
        for vals in itertools.product(*(sorted(dom[v]) for v in union)):
            a = dict(zip(union, vals))
            if all(tuple(a[i] for i in rels[c][1]) in rels[c][2] for c in chosen):
                joined.append(a)
        for r in range(1, len(union) + 1):
            for x in itertools.combinations(union, r):
                xs = frozenset(x)
                proj = {tuple(a[v] for v in x) for a in joined}
                inside = [rels[c] for c in range(len(rels)) if scopes[c] <= xs]
                for vals in itertools.product(*(sorted(dom[v]) for v in x)):
                    a = dict(zip(x, vals))
                    if (all(tuple(a[i] for i in s) in ts for _, s, ts in inside)
                            and vals not in proj):
                        names = ",".join(rels[c][0] for c in chosen)
                        return f"{a} does not extend into {names}"
    return None


def check_rel(model, out: dict, m: int) -> str | None:
    dom = _out_domains(out)
    rels = _out_relations(out)
    reason = _same_ids(model, rels)
    if reason:
        return reason
    before = _solutions({i: set(d) for i, d in model.domains.items()},
                        model.constraints)
    if _solutions(dom, rels) != before:
        return "the solution set changed"
    return is_relationally_consistent(dom, rels, m)
