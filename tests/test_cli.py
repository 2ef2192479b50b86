"""File format round-trips and the command-line surface."""

import contextlib
import gc
import io
import itertools
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from propeng import consistency
from propeng.cli import main
from propeng.consistency import is_relationally_m_consistent
from propeng.csp import (
    CSP, Constraint, IntDomain, LinearEqBody, LinearIneqBody, Scheme, validate,
)
from propeng.engine import MODES, STRATEGIES, TraceStep
from propeng.errors import DataError, PropagationError
from propeng.textio import csp_to_obj, parse_csp, serialize_csp

EQ_NE = """\
# equality and inequality over the 0-1 domain
domain 1 set {0,1}
domain 2 set {0,1}
constraint eq scheme (1,2) tuples {(0,0),(1,1)}
constraint ne scheme (1,2) tuples {(0,1),(1,0)}
"""

LINEQ = """\
domain 1 int [0..9]
domain 2 int [1..8]
constraint c1 scheme (1,2) lineq 3*x1 - 5*x2 = 4
"""

# one narrowing step is not enough: the first gives x1 in [4..9] and x2 in
# [1..12]; only the second, from x1 <= 9, raises x2's lower bound to 2
E1 = """\
domain 1 int [4..23]
domain 2 int [1..17]
constraint e1 scheme (1,2) lineq 2*x1 + 1*x2 = 20
"""

# x1 - x2 = 1 and x1 - x2 = 0: every step moves one bound by one
DIVERGENT_PAIR = """\
domain 1 int [0..1000000000]
domain 2 int [0..1000000000]
constraint e1 scheme (1,2) lineq 1*x1 - 1*x2 = 1
constraint e0 scheme (1,2) lineq 1*x1 - 1*x2 = 0
"""


# a quoted, escaped, non-ASCII id, names and a negative int in one domain,
# an empty domain, an empty tuple set and an inequality
EDGE = """\
domain 1 set {a,b,-3}
domain 2 set {a,b,-3}
domain 3 set {}
domain 4 int [0..3]
domain 5 int [0..3]
constraint "q\\\u00e9 scheme (1,2) tuples {(a,b),(b,-3),(-3,-3)}
constraint n scheme (2,1) tuples {(b,a),(-3,b),(a,a)}
constraint e scheme (3) tuples {}
constraint i scheme (4,5) leq 2*x4 + 2*x5 <= 3
"""
EDGE_ID = '"q\\\u00e9'
EDGE_REDUCERS = f"pi1@{EDGE_ID},pi2@{EDGE_ID},piC@n,rho@e,cut@i;1/2"


class TestParsing:
    def test_parse_domains_and_bodies(self):
        csp = parse_csp(EQ_NE + "constraint s scheme (1,2) leq 1*x1 + 2*x2 <= 3\n")
        assert csp.arity == 2
        assert csp.constraint("eq").tuples == frozenset({(0, 0), (1, 1)})
        assert csp.constraint("s").body == LinearIneqBody((1, 2), 3)

    def test_round_trip_is_identity(self):
        for text in (EQ_NE, LINEQ):
            csp = parse_csp(text)
            canon = serialize_csp(csp)
            assert parse_csp(canon) == csp
            assert serialize_csp(parse_csp(canon)) == canon

    def test_atoms_may_be_names(self):
        csp = parse_csp("domain 1 set {red,green}\n"
                        "constraint c scheme (1) tuples {(red)}\n")
        assert csp.domains[0].values == frozenset({"red", "green"})
        assert parse_csp(serialize_csp(csp)) == csp

    def test_empty_interval_round_trips(self):
        csp = CSP((IntDomain(1, 0),), ())
        assert parse_csp(serialize_csp(csp)) == csp

    def test_missing_domain_reported(self):
        with pytest.raises(DataError, match="missing domain"):
            parse_csp("domain 2 set {0}\n")

    def test_bad_line_reports_location(self):
        with pytest.raises(DataError, match="line 2"):
            parse_csp("domain 1 set {0}\nconstraint c scheme 1,2 tuples {}\n")

    def test_canonical_text(self):
        csp = parse_csp(
            "domain 3 int [5..2]\n"
            "domain 1 set {b, -2, a, 10, -10}\n"
            "domain 2 int [0..3]\n"
            "constraint t scheme (2,1) tuples {(3,a), (0,-2), (3,-10), (0,b)}\n"
            "constraint e scheme (2,3) lineq -2*x2 + 3*x3 = -4\n"
            "constraint l scheme (3,2) leq x3 - 1*x2 <= 0\n")
        assert serialize_csp(csp) == (
            "domain 1 set {-10,-2,10,a,b}\n"
            "domain 2 int [0..3]\n"
            "domain 3 int [1..0]\n"
            "constraint t scheme (2,1) tuples {(0,-2),(0,b),(3,-10),(3,a)}\n"
            "constraint e scheme (2,3) lineq -2*x2 + 3*x3 = -4\n"
            "constraint l scheme (3,2) leq 1*x3 - 1*x2 <= 0\n")

    def test_json_mirror(self):
        obj = csp_to_obj(parse_csp(LINEQ))
        assert obj["domains"][0] == {"index": 1, "kind": "int", "lo": 0, "hi": 9}
        assert obj["constraints"][0]["kind"] == "lineq"
        assert obj["constraints"][0]["coeffs"] == [3, -5]


@pytest.fixture
def eq_ne_file(tmp_path):
    path = tmp_path / "eqne.csp"
    path.write_text(EQ_NE)
    return str(path)


@pytest.fixture
def lineq_file(tmp_path):
    path = tmp_path / "lineq.csp"
    path.write_text(LINEQ)
    return str(path)


class TestValidateCommand:
    def test_ok(self, eq_ne_file, capsys):
        assert main(["validate", eq_ne_file]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_tuple_outside_domain(self, tmp_path, capsys):
        p = tmp_path / "bad.csp"
        p.write_text("domain 1 set {0}\nconstraint c scheme (1) tuples {(7)}\n")
        assert main(["validate", str(p)]) == 1
        assert "c" in capsys.readouterr().err

    def test_duplicate_scheme_index(self, tmp_path, capsys):
        p = tmp_path / "bad.csp"
        p.write_text("domain 1 set {0}\nconstraint c scheme (1,1) tuples {}\n")
        assert main(["validate", str(p)]) == 1
        assert "repeats" in capsys.readouterr().err

    # the parser takes a repeated id and a tuple of the wrong arity; validate
    # reports each on its own line
    INVALID = ("domain 1 set {0,1}\ndomain 2 set {0,1}\n"
               "constraint c scheme (1,2) tuples {(0,1)}\n"
               "constraint c scheme (1) tuples {(0,1),(1)}\n")
    INVALID_ISSUES = ["constraint 'c': duplicate constraint id",
                      "constraint 'c': tuple (0, 1) has arity 2, scheme needs 1"]

    def test_duplicate_id_and_tuple_arity(self, tmp_path, capsys):
        p = tmp_path / "bad.csp"
        p.write_text(self.INVALID)
        assert main(["validate", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == self.INVALID_ISSUES
        assert captured.out == ""

    def test_coefficient_count(self):
        # a linear form the parser cannot write: three coefficients, two variables
        csp = CSP((IntDomain(0, 3), IntDomain(0, 3)), (Constraint(
            "e", Scheme((1, 2)), LinearEqBody((1, 2, 3), 4)),))
        assert validate(csp) == ["constraint 'e': 3 coefficients for a 2-ary scheme"]

    def test_run_rejects_an_invalid_problem(self, tmp_path, capsys):
        p = tmp_path / "bad.csp"
        p.write_text(self.INVALID)
        assert main(["run", str(p), "--goal", "arc"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: invalid problem:\n" + "".join(
            f"  {issue}\n" for issue in self.INVALID_ISSUES)
        assert captured.out == ""


class TestRunCommand:
    def test_arc_on_consistent_file_is_identity(self, eq_ne_file, capsys):
        code = main(["run", eq_ne_file, "--goal", "arc", "--check-equivalence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# equivalence: PASS" in out
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        assert parse_csp(body) == parse_csp(EQ_NE)

    def test_capped_narrowing_shows_both_iterates_and_exits_2(
            self, lineq_file, capsys):
        code = main(["run", lineq_file, "--reducers", "lineq@c1",
                     "--trace", "--max-steps", "2"])
        out = capsys.readouterr().out
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "step=1 fn=lineq@c1 changed=1 comps=1,2"
        assert lines[1] == "step=2 fn=lineq@c1 changed=1 comps=1"
        assert "domain 1 int [3..8]" in out
        assert "# outcome: step-limit" in out

    def test_divergent_pair_prints_one_line_per_capped_step(self, tmp_path, capsys):
        # x1 - x2 = 1 and x1 - x2 = 0 never reach a common fixpoint short of
        # 10^9 steps: the cap ends the run, and the trace has one line per step
        path = tmp_path / "pair.csp"
        path.write_text(DIVERGENT_PAIR)
        code = main(["run", str(path), "--reducers", "lineq@e1,lineq@e0",
                     "--trace", "--max-steps", "3"])
        out = capsys.readouterr().out
        assert code == 2
        assert [line.split()[0] for line in out.splitlines()
                if line.startswith("step=")] == ["step=1", "step=2", "step=3"]
        assert "# outcome: step-limit applications=3" in out

    def test_uncapped_narrowing_converges(self, lineq_file, capsys):
        code = main(["run", lineq_file, "--reducers", "lineq@c1",
                     "--check-equivalence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "domain 1 int [3..8]" in out
        assert "domain 2 int [1..4]" in out

    def test_narrowing_mixes_with_rho(self, tmp_path, capsys):
        path = tmp_path / "mix.csp"
        path.write_text(LINEQ + "constraint b scheme (1,2) tuples {(3,1),(5,2),(8,4)}\n")
        code = main(["run", str(path), "--reducers", "lineq@c1,rho@b",
                     "--check-equivalence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "domain 1 int [3..8]\ndomain 2 int [1..4]\n" in out
        assert "# equivalence: PASS" in out

    def test_mixed_list_trace_names_the_variables(self, tmp_path, capsys):
        # the variables are components 1..3, the constraints 4 and 5
        path = tmp_path / "chain.csp"
        path.write_text(
            "domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
            "constraint c1 scheme (1,2) tuples {(0,0),(1,1)}\n"
            "constraint c2 scheme (2,3) tuples {(0,1)}\n")
        code = main(["run", str(path), "--reducers", "rho@c1,c2,pi1@c1,pi2@c2",
                     "--trace"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[:4] == [
            "step=1 fn=pi1@c1 changed=0 comps=",
            "step=2 fn=pi2@c2 changed=1 comps=3",
            "step=3 fn=rho@c1,c2 changed=1 comps=4",
            "step=4 fn=rho@c1,c2 changed=0 comps="]

    def test_trace_lines_are_printed_while_the_run_goes(
            self, eq_ne_file, capsys, monkeypatch):
        # a run that fails after two steps has already printed them
        def failing(problem, goal, *, observer, **kwargs):
            observer(TraceStep("pi1@eq", (1,)))
            observer(TraceStep("pi2@eq", ()))
            raise PropagationError("the run broke off")

        monkeypatch.setattr(consistency, "achieve", failing)
        code = main(["run", eq_ne_file, "--goal", "arc", "--trace"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == [
            "step=1 fn=pi1@eq changed=1 comps=1",
            "step=2 fn=pi2@eq changed=0 comps="]
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("mode", ["ci", "cii", "ciq", "ciiq"])
    def test_narrowing_converges_in_every_mode(self, tmp_path, capsys, mode):
        # lineq is not idempotent, so cii re-applies it after a change too
        path = tmp_path / "e1.csp"
        path.write_text(E1)
        code = main(["run", str(path), "--reducers", "lineq@e1", "--mode", mode])
        out = capsys.readouterr().out
        assert code == 0
        assert "domain 2 int [2..12]" in out
        if mode == "cii":
            assert "# outcome: converged applications=3" in out

    def test_single_step_shows_first_iterate(self, lineq_file, capsys):
        main(["run", lineq_file, "--reducers", "lineq@c1", "--max-steps", "1"])
        out = capsys.readouterr().out
        assert "domain 1 int [3..9]" in out
        assert "domain 2 int [1..4]" in out

    def test_negative_step_cap_is_input_error(self, eq_ne_file, capsys):
        code = main(["run", eq_ne_file, "--goal", "arc", "--max-steps", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: step cap must be at least 0, got -1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        # a cap of 0 is valid: it stops before the first application
        assert main(["run", eq_ne_file, "--goal", "arc", "--max-steps", "0"]) == 2
        assert "# outcome: step-limit applications=0" in capsys.readouterr().out

    @pytest.mark.parametrize("names, message", [
        ("rho@a,a", "member constraints must be distinct and nonempty"),
        ("rel@1,2;a,a", "member constraints must be distinct and nonempty"),
        ("rel@1,2;b", "target scheme (1, 2) is not covered by the members' scheme (2, 3)"),
    ])
    def test_reducer_build_errors_are_input_errors(self, tmp_path, capsys, names, message):
        p = tmp_path / "three.csp"
        p.write_text("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                     "constraint a scheme (1,2) tuples {(0,0),(1,1)}\n"
                     "constraint b scheme (2,3) tuples {(0,1)}\n"
                     "constraint c scheme (1,3) tuples {(0,1),(1,1)}\n")
        assert main(["run", str(p), "--reducers", names]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_deterministic_trace_is_byte_identical(self, eq_ne_file, capsys):
        args = ["run", eq_ne_file, "--goal", "arc", "--trace"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_json_format(self, lineq_file, capsys):
        code = main(["run", lineq_file, "--reducers", "lineq@c1",
                     "--format", "json", "--trace", "--check-equivalence"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "converged"
        assert payload["equivalence"] == "PASS"
        assert payload["csp"]["domains"][0] == {
            "index": 1, "kind": "int", "lo": 3, "hi": 8}
        assert payload["trace"][0]["fn"] == "lineq@c1"

    @pytest.mark.parametrize("equivalence", [False, True])
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("extra,code,outcome", [
        ([], 0, "converged"),
        (["--max-steps", "1"], 2, "step-limit"),
        (["--early-exit"], 0, "empty-component")])
    def test_json_bytes_are_json_dumps(self, tmp_path, capsys, extra, code,
                                       outcome, trace, equivalence):
        path = tmp_path / "edge.csp"
        path.write_text(EDGE, encoding="utf-8")
        argv = ["run", str(path), "--reducers", EDGE_REDUCERS, "--format", "json",
                *extra, *["--trace"] * trace, *["--check-equivalence"] * equivalence]
        assert main(argv) == code
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["outcome"] == outcome
        assert ("trace" in payload) == trace
        assert payload.get("equivalence") == ("PASS" if equivalence else None)
        assert payload["csp"]["constraints"][0]["id"] == EDGE_ID

    def test_goal_and_reducers_are_exclusive(self, eq_ne_file, capsys):
        assert main(["run", eq_ne_file]) == 1
        assert main(["run", eq_ne_file, "--goal", "arc",
                     "--reducers", "piC@eq"]) == 1

    def test_unknown_reducer_is_input_error(self, eq_ne_file, capsys):
        assert main(["run", eq_ne_file, "--reducers", "nope@eq"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_constraint_space_run_with_commas_in_names(self, tmp_path, capsys):
        p = tmp_path / "chain.csp"
        p.write_text(
            "domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
            "constraint c1 scheme (1,2) tuples {(0,0),(1,1)}\n"
            "constraint c2 scheme (2,3) tuples {(0,1)}\n")
        code = main(["run", str(p), "--reducers", "rho@c1,c2",
                     "--check-equivalence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "constraint c1 scheme (1,2) tuples {(0,0)}" in out
        assert "# equivalence: PASS" in out

    def test_domain_join_member_without_domain_reducer(self, tmp_path, capsys):
        # naming ~dom2 is enough to put the variables in the space
        p = tmp_path / "chain.csp"
        p.write_text(
            "domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
            "constraint c1 scheme (1,2) tuples {(0,0),(1,1)}\n"
            "constraint c2 scheme (2,3) tuples {(0,1)}\n")
        code = main(["run", str(p), "--reducers", "rho@c2,~dom2",
                     "--check-equivalence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "domain 2 set {0}" in out.splitlines()
        assert "# equivalence: PASS" in out

    # a synthetic universal constraint never takes an input constraint's id
    SYNTHETIC_ID_TAKEN = {
        "rel": ("domain 1 int [0..1]\ndomain 2 int [0..1]\ndomain 3 int [0..1]\n"
                "constraint a scheme (1,2) tuples {(0,0),(1,1)}\n"
                "constraint b scheme (2,3) tuples {(0,0),(1,1)}\n"
                "constraint u(1,3) scheme (1,3) lineq 1*x1 + 1*x3 = 1\n",
                ["--reducers", "rel@1,3;a,b"]),
        "path": ("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                 "constraint u(3,1) scheme (1,2) tuples {(0,0),(1,1)}\n"
                 "constraint b scheme (2,3) tuples {(0,0),(1,1)}\n",
                 ["--goal", "path"]),
        "rel:1": ("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                  "constraint u(1,3) scheme (1,2) tuples {(0,0),(1,1)}\n"
                  "constraint b scheme (2,3) tuples {(0,0),(1,1)}\n",
                  ["--goal", "rel:1"]),
    }

    @pytest.mark.parametrize("case", sorted(SYNTHETIC_ID_TAKEN))
    def test_synthetic_id_taken_by_an_input_constraint(self, tmp_path, capsys, case):
        text, args = self.SYNTHETIC_ID_TAKEN[case]
        p = tmp_path / "taken.csp"
        p.write_text(text)
        code = main(["run", str(p), *args, "--check-equivalence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# equivalence: PASS" in out
        # every input constraint is printed under its own id, as it was given
        lines = out.splitlines()
        assert all(line in lines for line in text.splitlines()
                   if line.startswith("constraint"))
        if case == "rel":
            assert "constraint u(1,3)' scheme (1,3) tuples {(0,0),(1,1)}" in lines

    # a and b share a scheme and merge; an input constraint already has the
    # id a&b, so the intersection takes the next free one
    MERGED_ID_TAKEN = ("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                       "constraint a scheme (1,2) tuples {(0,0),(1,1)}\n"
                       "constraint b scheme (1,2) tuples {(0,0),(0,1),(1,1)}\n"
                       "constraint a&b scheme (2,3) tuples {(0,0),(1,1)}\n")

    @pytest.mark.parametrize("goal", ["rel:1", "path"])
    def test_merged_id_taken_by_an_input_constraint(self, tmp_path, capsys, goal):
        p = tmp_path / "merged.csp"
        p.write_text(self.MERGED_ID_TAKEN)
        code = main(["run", str(p), "--goal", goal, "--check-equivalence"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "# equivalence: PASS" in lines
        assert "constraint a&b' scheme (1,2) tuples {(0,0),(1,1)}" in lines
        assert "constraint a&b scheme (2,3) tuples {(0,0),(1,1)}" in lines

    # a relational target's indices are checked against 1..n before
    # anything is built
    @pytest.mark.parametrize("target", ["1,9", "0,1"])
    def test_relational_target_outside_the_domains(self, tmp_path, capsys, target):
        p = tmp_path / "chain.csp"
        p.write_text("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                     "constraint a scheme (1,2) tuples {(0,0),(1,1)}\n"
                     "constraint b scheme (2,3) tuples {(0,1)}\n")
        assert main(["run", str(p), "--reducers", f"rel@{target};a"]) == 1
        captured = capsys.readouterr()
        scheme = "(" + target.replace(",", ", ") + ")"
        assert captured.err == f"error: scheme {scheme} has an index outside 1..3\n"
        assert captured.out == ""

    # so are a named path reducer's, whichever of its three is outside
    @pytest.mark.parametrize("triple", ["1,2,9", "0,1,2", "1,4,2"])
    def test_path_index_outside_the_domains(self, tmp_path, capsys, triple):
        p = tmp_path / "chain.csp"
        p.write_text("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                     "constraint a scheme (1,2) tuples {(0,0),(1,1)}\n"
                     "constraint b scheme (2,3) tuples {(0,1)}\n")
        assert main(["run", str(p), "--reducers", f"path@{triple}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: path@{triple} has an index outside 1..3\n"
        assert captured.out == ""

    def test_relational_target_on_a_shared_scheme_is_merged(self, tmp_path, capsys):
        # a and b share the target's scheme: they become one constraint, a&b,
        # as the goals merge them
        p = tmp_path / "shared.csp"
        p.write_text("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                     "constraint a scheme (1,2) tuples {(0,0),(1,1)}\n"
                     "constraint b scheme (1,2) tuples {(0,0),(0,1),(1,1)}\n"
                     "constraint c scheme (2,3) tuples {(0,1)}\n")
        code = main(["run", str(p), "--reducers", "rel@1,2;c,~dom1",
                     "--check-equivalence"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line for line in lines if line.startswith("constraint")] == [
            "constraint a&b scheme (1,2) tuples {(0,0)}",
            "constraint c scheme (2,3) tuples {(0,1)}"]
        assert "# equivalence: PASS" in lines

    def test_early_exit_flag(self, tmp_path, capsys):
        p = tmp_path / "wipe.csp"
        p.write_text(
            "domain 1 set {0,1}\ndomain 2 set {0,1}\n"
            "constraint c1 scheme (1,2) tuples {(0,0)}\n"
            "constraint c2 scheme (1) tuples {(1)}\n")
        code = main(["run", str(p), "--goal", "arc", "--early-exit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# outcome: empty-component" in out

    def test_relational_goal(self, tmp_path, capsys):
        p = tmp_path / "chain.csp"
        p.write_text(
            "domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
            "constraint c1 scheme (1,2) tuples {(0,0),(1,1)}\n"
            "constraint c2 scheme (2,3) tuples {(0,1)}\n")
        code = main(["run", str(p), "--goal", "rel:2", "--check-equivalence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "constraint c1 scheme (1,2) tuples {(0,0)}" in out
        assert "# equivalence: PASS" in out

    def test_relational_goal_on_four_variables(self, tmp_path, capsys):
        # 15 variable sets, C(15,2) = 105 functions
        p = tmp_path / "four.csp"
        p.write_text(
            "".join(f"domain {i} set {{0,1}}\n" for i in range(1, 5))
            + "constraint c1 scheme (1,2) tuples {(0,0),(1,1)}\n"
            "constraint c2 scheme (3,2) tuples {(0,1),(1,0),(1,1)}\n"
            "constraint c3 scheme (4,2,3) tuples {(0,1,0),(1,0,1),(1,1,1)}\n")
        code = main(["run", str(p), "--goal", "rel:2", "--check-equivalence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# equivalence: PASS" in out
        assert is_relationally_m_consistent(parse_csp(out), 2)

    def test_relational_reducer_over_a_long_chain(self, tmp_path, capsys):
        # x1 = x2 = ... = x1101: the witness search binds 1099 members one
        # level each, deeper than Python's recursion limit
        n = 1101
        p = tmp_path / "chain.csp"
        p.write_text("".join(f"domain {i} set {{0,1}}\n" for i in range(1, n + 1))
                     + "".join(f"constraint c{k} scheme ({k},{k + 1}) tuples {{(0,0),(1,1)}}\n"
                               for k in range(1, n)))
        members = ",".join(f"c{k}" for k in range(1, n))
        t0 = time.perf_counter()
        assert main(["run", str(p), "--reducers", f"rel@1,{n};{members}"]) == 0
        assert time.perf_counter() - t0 < 2
        out = capsys.readouterr().out.splitlines()
        assert f"constraint u(1,{n}) scheme (1,{n}) tuples {{(0,0),(1,1)}}" in out
        assert out[-1] == "# outcome: converged applications=1"

    def test_relational_goal_with_commas_in_ids(self, tmp_path, capsys):
        # joined with plain commas, {a, "b,c"} and {"a,b", c} would share an id
        p = tmp_path / "commas.csp"
        p.write_text(
            "domain 1 set {0,1}\ndomain 2 set {0,1}\n"
            "constraint a scheme (1) tuples {(0),(1)}\n"
            "constraint b,c scheme (2) tuples {(0),(1)}\n"
            "constraint a,b scheme (1,2) tuples {(0,0),(0,1),(1,1)}\n"
            "constraint c scheme (2,1) tuples {(0,0),(1,1)}\n")
        code = main(["run", str(p), "--goal", "rel:2", "--trace", "--check-equivalence"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fn=rel(a,b\\,c) " in out and "fn=rel(a\\,b,c) " in out
        assert "# equivalence: PASS" in out
        text = "".join(line for line in out.splitlines(True) if not line.startswith("step="))
        assert is_relationally_m_consistent(parse_csp(text), 2)

    def test_directional_arc_goal(self, tmp_path, capsys):
        p = tmp_path / "dir.csp"
        p.write_text(
            "domain 1 set {1,2,3}\ndomain 2 set {1,2}\n"
            "constraint c scheme (1,2) tuples {(1,1),(2,2)}\n")
        code = main(["run", str(p), "--goal", "dir-arc:1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "domain 1 set {1,2}" in out

    @pytest.mark.parametrize("goal,text", [
        ("dir-arc:1,2", "domain 1 set {1,2,3}\ndomain 2 set {1,2}\n"
                        "constraint c scheme (1,2) tuples {(1,1),(2,2)}\n"),
        ("dir-path:1,2,3", "domain 1 set {0,1}\ndomain 2 set {0,1}\n"
                           "domain 3 set {0,1}\n"
                           "constraint c1 scheme (1,3) tuples {(0,0),(1,0)}\n"
                           "constraint c2 scheme (2,3) tuples {(0,0)}\n"),
    ])
    def test_directional_goals_honour_the_step_cap(self, tmp_path, capsys, goal, text):
        p = tmp_path / "dir.csp"
        p.write_text(text)
        assert main(["run", str(p), "--goal", goal, "--max-steps", "-1"]) == 1
        captured = capsys.readouterr()
        assert "error: step cap must be at least 0, got -1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert main(["run", str(p), "--goal", goal, "--max-steps", "0"]) == 2
        assert "# outcome: step-limit applications=0" in capsys.readouterr().out
        assert main(["run", str(p), "--goal", goal]) == 0
        assert "# outcome: converged" in capsys.readouterr().out

    def test_directional_arc_early_exit(self, tmp_path, capsys):
        p = tmp_path / "wipe.csp"
        p.write_text(
            "domain 1 set {0,1}\ndomain 2 set {0,1}\n"
            "constraint c1 scheme (1,2) tuples {}\n"
            "constraint c2 scheme (1,2) tuples {(0,0)}\n")
        code = main(["run", str(p), "--goal", "dir-arc:1,2", "--early-exit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# outcome: empty-component applications=1" in out
        assert main(["run", str(p), "--goal", "dir-arc:1,2"]) == 0
        assert "# outcome: converged applications=2" in capsys.readouterr().out

    def test_directional_arc_needs_set_domains(self, tmp_path, capsys):
        p = tmp_path / "int.csp"
        p.write_text(
            "domain 1 set {0,1}\ndomain 2 int [0..1]\ndomain 3 set {0,1}\n"
            "constraint c scheme (1,2) tuples {(0,0)}\n")
        for cap in ("0", "1000"):
            code = main(["run", str(p), "--goal", "dir-arc:1,2,3", "--max-steps", cap])
            captured = capsys.readouterr()
            assert code == 1, cap
            assert "error: constraint 'c' is not over finite set domains" in captured.err
            assert "Traceback" not in captured.err
            assert captured.out == ""

    def test_inequality_group_join_member_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "ineq.csp"
        p.write_text(
            "domain 1 int [0..3]\ndomain 2 int [0..3]\n"
            "constraint c scheme (1,2) tuples {(0,0)}\n"
            "constraint i1 scheme (1,2) leq 1*x1 + 1*x2 <= 3\n")
        for names in ("cut@i1;1,rel@1,2;cutset(i1)", "cut@i1;1,rho@c,cutset(i1)"):
            assert main(["run", str(p), "--reducers", names]) == 1
            err = capsys.readouterr().err
            assert "error: component 'cutset(i1)' is not joinable" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("names, err", [
        ("rho@c,~dom1", "error: component '~dom1' is not joinable\n"),
        ("piC@c,rho@c,~dom1", "error: component '~dom1' is not joinable\n")])
    def test_int_range_variable_join_member_is_input_error(
            self, tmp_path, capsys, names, err):
        p = tmp_path / "int.csp"
        p.write_text("domain 1 int [0..3]\ndomain 2 int [0..3]\n"
                     "constraint c scheme (1,2) tuples {(0,0),(1,2)}\n")
        assert main(["run", str(p), "--reducers", names]) == 1
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (err, "")

    @pytest.mark.parametrize("names, fid", [
        ("pi1@c,pi1@c", "pi1@c"), ("rho@c,pi1@c,rho@c", "rho@c")])
    def test_reducer_listed_twice_is_input_error(self, tmp_path, capsys, names, fid):
        p = tmp_path / "c.csp"
        p.write_text("domain 1 set {0,1}\ndomain 2 set {0,1}\n"
                     "constraint c scheme (1,2) tuples {(0,1)}\n")
        assert main(["run", str(p), "--reducers", names]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert repr(fid) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("names", [
        "cut@i1;abc", "cut@i1;1/0", "path@1,2", "path@a,b,c", "rel@x;c",
        "cut@i1;1,", "rel@;c"])
    def test_malformed_reducer_argument(self, tmp_path, capsys, names):
        p = tmp_path / "ineq.csp"
        p.write_text(
            "domain 1 int [0..3]\ndomain 2 int [0..3]\n"
            "constraint c scheme (1,2) tuples {(0,0)}\n"
            "constraint i1 scheme (1,2) leq 1*x1 + 1*x2 <= 3\n")
        code = main(["run", str(p), "--reducers", names])
        captured = capsys.readouterr()
        if names.endswith(","):
            # a trailing comma is ignored, as in every comma list
            assert code == 0
            assert main(["run", str(p), "--reducers", names[:-1]]) == 0
            assert capsys.readouterr().out == captured.out
        else:
            assert code == 1
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert captured.out == ""

    def test_cut_only_run_over_huge_int_domain(self, tmp_path, capsys):
        # rebuilding a space with no extensional component must not
        # enumerate the int domains
        p = tmp_path / "huge.csp"
        p.write_text(
            "domain 1 int [0..1000000000]\ndomain 2 int [0..1000000000]\n"
            "constraint i1 scheme (1,2) leq 1*x1 + 1*x2 <= 3\n")
        assert main(["run", str(p), "--reducers", "cut@i1;1"]) == 0
        out = capsys.readouterr().out
        assert "domain 1 int [0..1000000000]" in out
        assert "# outcome: converged" in out

    def test_cut_run_output_parses_back(self, tmp_path, capsys):
        p = tmp_path / "cut.csp"
        p.write_text("domain 1 int [0..3]\ndomain 2 int [0..3]\n"
                     "constraint i1 scheme (1,2) leq 2*x1 + 2*x2 <= 3\n")
        assert main(["run", str(p), "--reducers", "cut@i1;1/2"]) == 0
        text = "".join(line for line in capsys.readouterr().out.splitlines(True)
                       if not line.startswith("#"))
        out = parse_csp(text)
        assert [c.cid for c in out.constraints] == ["i1", "cutset(i1)/cut1"]
        assert serialize_csp(out) == text

    def test_variable_free_infeasible_cut_is_an_empty_constraint(self, tmp_path, capsys):
        # x1 <= 0 and -x1 <= -1 add up to 0 <= -1: no variable is left to
        # carry the cut, so it prints as an empty relation on the group's first
        p = tmp_path / "infeasible.csp"
        p.write_text("domain 1 int [0..3]\n"
                     "constraint a scheme (1) leq 1*x1 <= 0\n"
                     "constraint b scheme (1) leq -1*x1 <= -1\n")
        assert main(["run", str(p), "--reducers", "cut@a,b;1,1",
                     "--check-equivalence"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[3:] == ["constraint cutset(a,b)/cut1 scheme (1) tuples {}",
                           "# outcome: converged applications=2",
                           "# equivalence: PASS"]

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.csp", "--goal", "arc"]) == 1

    @pytest.mark.parametrize("command", [["run", "--goal", "arc"], ["validate"]])
    @pytest.mark.parametrize("index", [0, -1])
    def test_domain_index_below_one_is_input_error(self, tmp_path, capsys,
                                                   command, index):
        p = tmp_path / "low.csp"
        p.write_text(f"domain {index} set {{a,b}}\ndomain 1 set {{1,2}}\n")
        assert main([command[0], str(p), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: line 1: domain index {index} is below 1\n"
        assert captured.out == ""


# well-formed but odd problems, goals, reducer lists and output modes: every
# run ends in an exit status, never in an uncaught exception
SWEEP_PROBLEMS = {
    "sets": ("domain 1 set {0,1,2}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
             "constraint c1 scheme (1,2) tuples {(0,0),(1,1),(2,1)}\n"
             "constraint c2 scheme (2,3) tuples {(0,1),(1,0)}\n"
             "constraint c3 scheme (1,2) tuples {(0,0),(2,1)}\n"),
    "ints": ("domain 1 int [0..3]\ndomain 2 int [0..3]\ndomain 3 int [0..3]\n"
             "constraint c1 scheme (1,2) lineq 1*x1 + 1*x2 = 3\n"
             "constraint c2 scheme (2,3) leq 1*x2 + 1*x3 <= 2\n"
             "constraint c3 scheme (1,3) tuples {(0,0),(1,2),(3,1)}\n"),
    "empty-set": ("domain 1 set {}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                  "constraint c1 scheme (1,2) tuples {}\n"
                  "constraint c2 scheme (2,3) tuples {(0,0),(1,1)}\n"),
    "unary": ("domain 1 set {0,1,2}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
              "constraint c1 scheme (1) tuples {(0),(2)}\n"
              "constraint c2 scheme (1,3) tuples {(0,1),(1,1)}\n"),
    "none": "domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {a}\n",
    "empty-int": ("domain 1 int [1..0]\ndomain 2 int [0..2]\ndomain 3 int [0..2]\n"
                  "constraint c1 scheme (1,2) lineq 1*x1 - 1*x2 = 0\n"
                  "constraint c2 scheme (2,3) tuples {(0,0),(2,1)}\n"),
}
SWEEP_RUNS = [
    *(["--goal", g] for g in ["arc", "path", "rel:0", "rel:1", "rel:2", "dir-arc:2,1",
                              "dir-arc:3,1,2", "dir-path:1", "dir-path:3,2,1"]),
    *(["--reducers", r] for r in [
        "rel@1,9;c1", "rel@0,1;c1", "rel@4;c1,c2", "rel@1,2;c2,~dom1",
        "rel@2,1;c1,~dom9", "rel@1,3;c1,c2", "path@1,2,9", "path@1,1,2", "path@0,1,2",
        "path@1,2,3", "rho@c1,~dom0", "rho@c2,~dom9", "rho@c1,c2", "cut@c1;1",
        "cut@c2;1/2", "piC@c1,pi1@c2", "lineq@c1,hull@c3",
        "piC@c2,rel@1,2,3;c1,c2,~dom2"]),
]
SWEEP_OUTPUTS = [[], ["--format", "json", "--trace", "--check-equivalence"],
                 ["--mode", "ciq", "--early-exit"]]


@pytest.mark.parametrize("problem", sorted(SWEEP_PROBLEMS))
def test_odd_runs_end_in_an_exit_status(tmp_path, capsys, problem):
    p = tmp_path / "sweep.csp"
    p.write_text(SWEEP_PROBLEMS[problem])
    for run in SWEEP_RUNS:
        for output in SWEEP_OUTPUTS:
            code = main(["run", str(p), *run, *output])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (run, output)
            assert "Traceback" not in err
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, (run, output)


@pytest.mark.parametrize("command", [["run", "--goal", "arc"], ["validate"]])
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    p = tmp_path / "latin1.csp"
    p.write_bytes(b"domain 1 set {\xff}\n")
    assert main([command[0], str(p), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {p}: byte 14 is not UTF-8 (invalid start byte)\n"
    assert captured.out == ""


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as under ``propeng run ... | head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["run", "--goal", "arc"],
                                  ["run", "--goal", "arc", "--format", "json"],
                                  ["validate"]])
def test_an_output_that_cannot_be_written_is_an_input_error(
        eq_ne_file, capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main([argv[0], str(eq_ne_file), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err == "error: [Errno 32] Broken pipe\n"


def test_repeated_main_calls_keep_no_memory(tmp_path):
    # main called in a loop, as the benchmark calls it: after the first
    # calls, 60 more keep (almost) nothing more
    p = tmp_path / "chain.csp"
    p.write_text(TestGoalsAreNamedLists.CHAIN)
    argv = ["run", str(p), "--goal", "path", "--format", "json"]

    def traced_after(calls):
        for _ in range(calls):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    traced_after(5)
    tracemalloc.start()
    try:
        before = traced_after(3)
        kept = traced_after(60) - before
    finally:
        tracemalloc.stop()
    assert kept < 12 * 1024, kept


def _tuple_set(pairs) -> str:
    return "{" + ",".join(f"({a},{b})" for a, b in sorted(pairs)) + "}"


def _random_binary_text(rng: random.Random) -> str:
    """Binary constraints over 3-6 variables, each pair constrained at random
    in either orientation, now and then twice, some pairs not at all."""
    n = rng.randint(3, 6)
    lines = [f"domain {i} set {{0,1,2}}" for i in range(1, n + 1)]
    pairs = list(itertools.product(range(3), repeat=2))
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for _ in range(rng.choice((0, 1, 1, 2))):
            scheme = rng.choice(((i, j), (j, i)))
            tuples = [t for t in pairs if rng.random() < 0.6]
            lines.append(f"constraint c{len(lines)} scheme ({scheme[0]},{scheme[1]}) "
                         f"tuples {_tuple_set(tuples)}")
    return "\n".join(lines) + "\n"


class TestNamedPathReducers:
    """``path@k,l,m`` takes the constraints on its three schemes by the rule
    the path goal and ``rel@`` targets follow: those on one scheme merged, a
    universal one where there is none."""

    @staticmethod
    def run(tmp_path, capsys, text, *args):
        p = tmp_path / "model.csp"
        p.write_text(text)
        code = main(["run", str(p), *args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_every_triple_is_the_path_goal(self, tmp_path, capsys, monkeypatch):
        # the path goal is its reducers listed by name: the same bytes, step
        # by step, synthetic constraints and their trace numbers included
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads
        texts = [call.text for call in workloads.make_calls("path", 1)]
        rng = random.Random(29)
        texts += [_random_binary_text(rng) for _ in range(12)]
        for text in texts:
            n = parse_csp(text).arity
            names = ",".join(f"path@{k},{l},{m}"
                             for k, l, m in itertools.permutations(range(1, n + 1), 3))
            goal = self.run(tmp_path, capsys, text, "--goal", "path",
                            "--trace", "--format", "json")
            named = self.run(tmp_path, capsys, text, "--reducers", names,
                             "--trace", "--format", "json")
            assert goal == named
            assert goal[0] == 0 and json.loads(goal[1])["outcome"] == "converged"

    def test_named_universals_take_sorted_positions(self, tmp_path, capsys):
        # named last to first, the universals still print, and are numbered
        # in traces, in scheme order: (1,3), (2,1), (3,1), (3,2) after c1, c2
        text = ("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                "constraint c1 scheme (1,2) tuples {(0,0),(1,1)}\n"
                "constraint c2 scheme (2,3) tuples {(0,1)}\n")
        names = ",".join(f"path@{k},{l},{m}"
                         for k, l, m in reversed(list(itertools.permutations((1, 2, 3)))))
        code, out, _ = self.run(tmp_path, capsys, text, "--reducers", names, "--trace")
        goal = self.run(tmp_path, capsys, text, "--goal", "path")[1]
        assert code == 0
        position = {(1, 2): "1", (2, 3): "2", (1, 3): "3", (2, 1): "4", (3, 1): "5",
                    (3, 2): "6"}
        steps = [line.split() for line in out.splitlines() if line.startswith("step=")]
        assert sum(changed == "changed=1" for _, _, changed, _ in steps) >= 3
        for _, fn, changed, comps in steps:
            k, l, _ = map(int, fn.removeprefix("fn=path@").split(","))
            assert comps == "comps=" + (position[k, l] if changed == "changed=1" else "")
        assert [line for line in out.splitlines() if line.startswith("constraint")] == [
            line for line in goal.splitlines() if line.startswith("constraint")]

    def test_unconstrained_triple_runs_on_universals(self, tmp_path, capsys):
        # nothing is on (3,1), (3,2) or (2,1): path@3,1,2 shrinks a universal
        # by the composition of two universals, and c on (1,3) stays as it is
        text = ("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
                "constraint a scheme (1,2) tuples {(0,0),(1,1)}\n"
                "constraint b scheme (2,3) tuples {(0,1)}\n"
                "constraint c scheme (1,3) tuples {(0,1),(1,1)}\n")
        code, out, err = self.run(tmp_path, capsys, text, "--reducers", "path@3,1,2")
        assert (code, err) == (0, "")
        assert out == text + "# outcome: converged applications=1\n"

    def test_induced_constraint_is_the_composition(self, tmp_path, capsys):
        # c1 on (1,2) and c2 on (2,3): path@1,3,2 derives u(1,3) = c1 o c2,
        # printed when it is not the full product
        rng = random.Random(17)
        pairs = list(itertools.product(range(3), repeat=2))
        cases = [({(0, 0), (1, 1)}, {(0, 1)})]
        cases += [tuple({t for t in pairs if rng.random() < 0.4} for _ in "12")
                  for _ in range(30)]
        derived = 0
        for c1, c2 in cases:
            text = ("domain 1 set {0,1,2}\ndomain 2 set {0,1,2}\ndomain 3 set {0,1,2}\n"
                    f"constraint c1 scheme (1,2) tuples {_tuple_set(c1)}\n"
                    f"constraint c2 scheme (2,3) tuples {_tuple_set(c2)}\n")
            code, out, _ = self.run(tmp_path, capsys, text, "--reducers", "path@1,3,2")
            assert code == 0
            composed = {(a, c) for a, b in c1 for b2, c in c2 if b == b2}
            want = ([] if len(composed) == len(pairs)
                    else [f"constraint u(1,3) scheme (1,3) tuples {_tuple_set(composed)}"])
            assert [line for line in out.splitlines() if "u(1,3)" in line] == want
            derived += bool(want)
        assert derived > 20

    def test_merged_target_is_the_rel_target(self, tmp_path, capsys):
        # a and b share (1,2): path@1,2,3 merges them into a&b, as the rel@
        # target on (1,2) with c and d as members does
        text = ("domain 1 set {0,1,2}\ndomain 2 set {0,1,2}\ndomain 3 set {0,1,2}\n"
                "constraint a scheme (1,2) tuples {(0,0),(0,1),(1,1),(2,2)}\n"
                "constraint b scheme (1,2) tuples {(0,0),(1,1),(2,0),(2,2)}\n"
                "constraint c scheme (1,3) tuples {(0,0),(1,1)}\n"
                "constraint d scheme (3,2) tuples {(0,0),(1,2)}\n")
        path = self.run(tmp_path, capsys, text, "--reducers", "path@1,2,3")
        rel = self.run(tmp_path, capsys, text, "--reducers", "rel@1,2;c,d")
        assert path == rel
        assert path[0] == 0
        assert "constraint a&b scheme (1,2) tuples {(0,0)}" in path[1].splitlines()

    def test_merged_id_taken_by_an_input_constraint(self, tmp_path, capsys):
        code, out, _ = self.run(tmp_path, capsys, TestRunCommand.MERGED_ID_TAKEN,
                                "--reducers", "path@1,2,3", "--check-equivalence")
        lines = out.splitlines()
        assert code == 0
        assert "constraint a&b' scheme (1,2) tuples {(0,0),(1,1)}" in lines
        assert "# equivalence: PASS" in lines

    def test_rho_on_a_constraint_merged_away(self, tmp_path, capsys):
        # path@1,2,3 merges a and b: no component is named a any more
        code, out, err = self.run(tmp_path, capsys, TestRunCommand.MERGED_ID_TAKEN,
                                  "--reducers", "path@1,2,3,rho@a")
        assert (code, out) == (1, "")
        assert err == "error: no constraint-space component 'a'\n"


class TestGoalsAreNamedLists:
    """The ``arc``, ``path`` and directional goals are reducer lists, built by
    the builder that serves ``--reducers``."""

    run = staticmethod(TestNamedPathReducers.run)
    TWO_ON_ONE_SCHEME = ("domain 1 set {0,1}\ndomain 2 set {0,1}\n"
                         "constraint a scheme (1,2) tuples {(0,0),(1,1)}\n"
                         "constraint b scheme (1,2) tuples {(0,0),(0,1)}\n")
    CHAIN = ("domain 1 set {0,1}\ndomain 2 set {0,1}\ndomain 3 set {0,1}\n"
             "constraint c1 scheme (1,2) tuples {(0,0),(1,1)}\n"
             "constraint c2 scheme (2,3) tuples {(0,1)}\n")

    @staticmethod
    def texts():
        rng = random.Random(31)
        return [_random_binary_text(rng) for _ in range(8)]

    def test_arc_is_its_full_projections(self, tmp_path, capsys):
        for text in self.texts():
            names = ",".join(f"piC@{c.cid}" for c in parse_csp(text).constraints)
            for mode, strategy in itertools.product(MODES, STRATEGIES):
                args = ("--mode", mode, "--strategy", strategy, "--seed", "3",
                        "--trace", "--format", "json")
                goal = self.run(tmp_path, capsys, text, "--goal", "arc", *args)
                assert goal == self.run(tmp_path, capsys, text, "--reducers", names, *args)
                assert goal[0] == 0, (mode, strategy)

    def test_directional_goals_reach_their_listed_reducers(self, tmp_path, capsys):
        # under det, the pass order aside: dir-arc prunes each constraint's
        # earlier variable, dir-path runs the triples whose m comes last
        rng = random.Random(37)
        for text in self.texts():
            problem = parse_csp(text)
            order = rng.sample(range(1, problem.arity + 1), problem.arity)
            rank = {v: p for p, v in enumerate(order)}
            arc = [f"pi{1 if rank[i] < rank[j] else 2}@{c.cid}"
                   for c in problem.constraints for i, j in [c.scheme]]
            path = [f"path@{k},{l},{m}" for k, l, m in itertools.permutations(order, 3)
                    if rank[m] > max(rank[k], rank[l])]
            order = ",".join(map(str, order))
            for goal, names in ((f"dir-arc:{order}", arc), (f"dir-path:{order}", path)):
                for mode in MODES:
                    out = [self.run(tmp_path, capsys, text, *args, "--mode", mode,
                                    "--format", "json")
                           for args in (("--goal", goal), ("--reducers", ",".join(names)))]
                    assert out[0][0] == out[1][0] == 0, out
                    assert json.loads(out[0][1])["csp"] == json.loads(out[1][1])["csp"]

    @pytest.mark.parametrize("goal", ["path", "dir-path:2,1"])
    def test_a_goal_without_triples_still_merges(self, tmp_path, capsys, goal):
        # two variables have no triple, yet every ordered pair has its one
        # constraint: a and b become a&b
        code, out, err = self.run(tmp_path, capsys, self.TWO_ON_ONE_SCHEME, "--goal", goal)
        assert (code, err) == (0, "")
        assert out == ("domain 1 set {0,1}\ndomain 2 set {0,1}\n"
                       "constraint a&b scheme (1,2) tuples {(0,0)}\n"
                       "# outcome: converged applications=0\n")

    def test_arc_without_constraints_runs_no_function(self, tmp_path, capsys):
        code, out, err = self.run(tmp_path, capsys, "domain 1 set {0,1}\n", "--goal", "arc")
        assert (code, err) == (0, "")
        assert out == "domain 1 set {0,1}\n# outcome: converged applications=0\n"

    @pytest.mark.parametrize("names, message", [
        ("rho@zz,path@1,1,2", "no constraint-space component 'zz'"),
        ("pi1@nope,path@1,2,9", "no constraint with id 'nope'"),
        ("path@1,2,3,rho@zz,path@1,1,2", "no constraint-space component 'zz'"),
        ("path@1,2,3,path@1,1,2,rho@zz", "path reduction needs three distinct indices"),
        ("path@2,1,3,path@1,2,9,pi1@nope", "path@1,2,9 has an index outside 1..3"),
        ("rho@zz,rel@1,9;c1", "no constraint-space component 'zz'"),
        ("rel@1,9;c1,rho@zz", "scheme (1, 9) has an index outside 1..3"),
        ("rho@zz,rel@2,2;c1", "no constraint-space component 'zz'"),
        ("rel@2,2;c1,rho@zz", "scheme (2, 2) repeats an index"),
    ])
    def test_the_first_bad_name_reports(self, tmp_path, capsys, names, message):
        # the path triples are built together, and the space is built before
        # any reducer, but the names fail in list order
        assert self.run(tmp_path, capsys, self.CHAIN, "--reducers", names) == (
            1, "", f"error: {message}\n")


class TestUsage:
    # 2 means the step cap was exceeded, so a usage error is an input error
    @pytest.mark.parametrize("argv,message", [
        (["--mode", "foo"], "argument --mode: invalid choice: 'foo'"),
        (["--max-steps", "x"], "argument --max-steps: invalid int value: 'x'"),
        (["--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["bad-mode", "bad-max-steps", "unknown-option"])
    def test_run_usage_error_exits_1(self, eq_ne_file, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main(["run", eq_ne_file, "--goal", "arc", *argv])
        assert exit_.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: propeng ")
        assert message in captured.err
        assert captured.out == ""

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([])
        assert exit_.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: propeng ")
        assert "the following arguments are required: command" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: propeng")
        assert captured.err == ""
