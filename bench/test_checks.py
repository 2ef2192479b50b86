"""The output checks accept what ``propeng run`` produces and reject
corrupted copies of it.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Runner, invoke, load_propeng  # noqa: E402


def _outputs(workload: str, tmp_path: Path):
    cli = load_propeng()[0]
    for call in workloads.make_calls(workload, 1):
        path = tmp_path / f"{call.name}.csp"
        path.write_text(call.text, encoding="utf-8")
        _, code, stdout = invoke(cli.main, ["run", str(path), *call.args, "--format", "json"])
        assert code == 0
        yield call, json.loads(stdout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_outputs_pass(workload, tmp_path):
    for call, out in _outputs(workload, tmp_path):
        assert call.check(call.model, out) is None, call.name


def _constraint(out, scheme):
    for c in out["csp"]["constraints"]:
        if tuple(c["scheme"]) == tuple(scheme):
            return c
    return None


def test_arc_rejects_corruption(tmp_path):
    call, out = next(_outputs("arc", tmp_path))
    bad = copy.deepcopy(out)
    dom = bad["csp"]["domains"][0]
    dom["values"] = dom["values"][1:]
    assert call.check(call.model, bad)
    bad = copy.deepcopy(out)
    c = next(c for c in bad["csp"]["constraints"] if len(c["tuples"]) > 1)
    c["tuples"].pop()
    assert call.check(call.model, bad)


def test_path_rejects_corruption(tmp_path):
    call, out = next(_outputs("path", tmp_path))
    planted = call.model.planted
    # the planted pair removed from a relation
    bad = copy.deepcopy(out)
    c = bad["csp"]["constraints"][0]
    i, j = c["scheme"]
    c["tuples"].remove([planted[i], planted[j]])
    assert "planted" in call.check(call.model, bad)
    # a pair the input never allowed
    bad = copy.deepcopy(out)
    cid, (i, j), orig = call.model.constraints[0]
    missing = next([a, b] for a in range(5) for b in range(5) if (a, b) not in orig)
    _constraint(bad, (i, j))["tuples"].append(missing)
    assert "grew" in call.check(call.model, bad)
    # a value of x_i left without support through a third index k
    bad = copy.deepcopy(out)
    n = len(call.model.domains)
    for c in bad["csp"]["constraints"]:
        i, j = c["scheme"]
        a = next((t[0] for t in c["tuples"] if t[0] != planted[i]), None)
        k = next(k for k in range(1, n + 1) if k not in (i, j))
        rik = _constraint(bad, (i, k))
        if a is not None and rik is not None:
            rik["tuples"] = [t for t in rik["tuples"] if t[0] != a]
            break
    assert "no support" in call.check(call.model, bad)
    # every relation cut down to its planted pair: closed under composition
    # and keeps the planted solution, but prunes past the fixpoint
    bad = copy.deepcopy(out)
    cons = bad["csp"]["constraints"]
    have = {tuple(c["scheme"]) for c in cons}
    cons += [{"id": f"u{i},{j}", "scheme": [i, j]}
             for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j and (i, j) not in have]
    for c in cons:
        i, j = c["scheme"]
        c["tuples"] = [[planted[i], planted[j]]]
    assert "fixpoint" in call.check(call.model, bad)


def test_narrow_rejects_corruption(tmp_path):
    for call, out in _outputs("narrow", tmp_path):
        bad = copy.deepcopy(out)
        dom = next(d for d in bad["csp"]["domains"] if d["lo"] <= d["hi"])
        dom["hi"] += 1
        assert call.check(call.model, bad)
        if call.model.empty:
            bad = copy.deepcopy(out)
            i = min(call.model.empty)
            bad["csp"]["domains"][i - 1].update(lo=0, hi=1000)
            assert call.check(call.model, bad)


def test_rel_rejects_corruption(tmp_path):
    call, out = next(_outputs("rel", tmp_path))
    bad = copy.deepcopy(out)
    c = bad["csp"]["constraints"][0]
    planted = tuple(call.model.planted[i] for i in c["scheme"])
    c["tuples"].remove(list(planted))
    assert "solution set" in call.check(call.model, bad)


def test_relational_consistency_definition():
    dom = {1: {0, 1}, 2: {0, 1}, 3: {0, 1}}
    r1 = ("r1", (1, 2), {(0, 0), (1, 1)})
    r2 = ("r2", (2, 3), {(0, 0)})
    # r1 alone extends every value of x1 and of x2; x2=1 does not extend into r2
    assert checks.is_relationally_consistent(dom, [r1], 1) is None
    assert checks.is_relationally_consistent(dom, [r1, r2], 1) is not None
    # x1=1 breaks no relation inside {1} but does not extend into r1 and r2 jointly
    assert checks.is_relationally_consistent({1: {0, 1}, 2: {0}, 3: {0}},
                                             [r1, r2], 2) is not None
    narrowed = {1: {0}, 2: {0}, 3: {0}}
    assert checks.is_relationally_consistent(narrowed, [r1, r2], 2) is None


def test_runner_counts_failures(tmp_path):
    (call, out), = list(_outputs("narrow", tmp_path))[:1]
    runner = Runner(None, [call], [None])
    assert runner._failure(0, 0, json.dumps(out)) is None
    assert runner._failure(0, 2, "") == ("exit code 2", False)
    capped = dict(out, outcome="step-limit")
    assert runner._failure(0, 0, json.dumps(capped)) == ("outcome step-limit", False)
    bad = copy.deepcopy(out)
    bad["csp"]["domains"][0]["hi"] += 1
    reason, wrong = runner._failure(0, 0, json.dumps(bad))
    assert wrong and "bounds loop" in reason
    # output that is not JSON, or lacks a key the check reads
    assert runner._failure(0, 0, "not json")[1]
    assert runner._failure(0, 0, json.dumps({"outcome": "converged"}))[1]
    assert runner._failure(0, 0, json.dumps({"csp": {}}))[1]
