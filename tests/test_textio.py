"""The problem-file parser: its error messages, the tuple-set grammar,
round trips over random problems written with random blanks, and the JSON
writer."""

import json
import random
import time

import pytest

from conftest import random_text_csp, spaced_text
from propeng.csp import validate
from propeng.errors import DataError
from propeng.textio import csp_json, csp_to_obj, parse_csp, serialize_csp

TWO = "domain 1 set {1,2}\ndomain 2 set {1,2}\n"


def error_of(text: str) -> str:
    with pytest.raises(DataError) as err:
        parse_csp(text)
    return str(err.value)


class TestErrorMessages:
    @pytest.mark.parametrize("text,message", [
        ("domain 1 set {0, 1-2}\n", "line 1: bad atom '1-2'"),
        ("domain 1 set {0,1}\nconstraint c scheme (1) tuples {(0),(a b)}\n",
         "line 2: bad atom 'a b'"),
        ("domain 1 set {0}\nconstraint c scheme (1) tuples {(0), (0,,0)}\n",
         "line 2: bad atom ''"),
        ("domain 1 set {1,,2}\n", "line 1: bad atom ''"),
        ("domain 1 set {1,2,}\n", "line 1: bad atom ''"),
        ("domain 1 set 0,1\n", "line 1: expected a {...} set"),
        ("domain 1 set {0}\nconstraint c scheme (1) tuples (0)\n",
         "line 2: expected a {(..),(..)} set"),
        ("domain 1 set {0}\nconstraint c scheme (1) tuples {(0) junk (0)}\n",
         "line 2: unexpected text 'junk' in tuple set"),
        ("domain 1 set {0}\nconstraint c scheme (1) tuples {((0))}\n",
         "line 2: unexpected text '()' in tuple set"),
        ("domain 1 set {0}\nconstraint c scheme (1,a) tuples {(0)}\n",
         "line 2: bad scheme '(1,a)'"),
        ("domain 1 set {0}\nconstraint c scheme (1,1) tuples {(0,0)}\n",
         "line 2: scheme (1, 1) repeats an index"),
        ("domain 1 set {0}\ndomain 2 set {0}\nconstraint c scheme (1,,2) tuples {(0,0)}\n",
         "line 3: bad scheme '(1,,2)'"),
        ("domain 1 set {0}\ndomain 2 set {0}\nconstraint c scheme (,2,) tuples {(0)}\n",
         "line 3: bad scheme '(,2,)'"),
        ("domain 1 set {0}\nconstraint c scheme (1,) tuples {(0)}\n",
         "line 2: bad scheme '(1,)'"),
        ("domain 1 set {0}\nconstraint c scheme ( , ) tuples {(0)}\n",
         "line 2: bad scheme '( , )'"),
        ("domain 1 int [0..x]\n", "line 1: expected int [l..h]"),
        ("domain 1 int 0..3\n", "line 1: expected int [l..h]"),
        ("domain 1 int [0..3]\ndomain 2 int [0..3]\n"
         "constraint e scheme (1,2) lineq 1*x1 + 2*x1 = 3\n",
         "line 3: variable x1 appears twice"),
        ("domain 1\n", "line 1: malformed domain line"),
        ("domain a set {0}\n", "line 1: bad domain index 'a'"),
        ("domain 1 set {0}\ndomain 1 set {1}\n", "line 2: domain 1 declared twice"),
        ("domain 1 real [0..1]\n", "line 1: unknown domain kind 'real'"),
        ("domain 1 set {0}\nconstraint c\n", "line 2: malformed constraint line"),
        ("domain 1 set {0}\nconstraint c scheme (1) table {(0)}\n",
         "line 2: unknown constraint kind 'table'"),
        ("domain 1 set {0}\nvariable 2\n", "line 2: unknown declaration 'variable'"),
        ("# no declaration\n", "no domains declared"),
        ("domain 2 set {0}\ndomain 6 set {1}\ndomain 9 set {1}\n",
         "missing domain declarations for index 1, 3..5, 7, 8"),
        ("domain 1 int [0..3]\ndomain 2 int [0..3]\n"
         "constraint e scheme (1,2) lineq 1*x1 + 1*x2 3\n",
         "line 3: expected '=' in lineq form"),
        ("domain 1 int [0..3]\ndomain 2 int [0..3]\n"
         "constraint e scheme (1,2) leq 1*x1 + 1*x2 = 3\n",
         "line 3: expected '<=' in leq form"),
        ("domain 1 int [0..3]\ndomain 2 int [0..3]\n"
         "constraint e scheme (1,2) lineq 1*x1 + 1*x2 = y\n",
         "line 3: bad constant 'y'"),
        ("domain 1 int [0..3]\ndomain 2 int [0..3]\n"
         "constraint e scheme (1,2) lineq 1*x1 + y = 3\n",
         "line 3: cannot read linear term at '+ y'"),
        ("domain 1 int [0..3]\ndomain 2 int [0..3]\n"
         "constraint e scheme (1,2) lineq 1*x1 2*x2 = 3\n",
         "line 3: missing sign before '2*x2'"),
        ("domain 1 int [0..3]\ndomain 2 int [0..3]\n"
         "constraint e scheme (1,2) lineq 1*x1 = 3\n",
         "line 3: linear form must mention exactly the scheme variables"),
    ])
    def test_message_text(self, text, message):
        assert error_of(text) == message

    def test_missing_indices_cost_what_their_runs_do(self):
        # one declaration far out: the check and its message do not grow
        # with the index
        t0 = time.perf_counter()
        message = error_of("domain 2000000 set {a}\n")
        assert time.perf_counter() - t0 < 0.1
        assert message == "missing domain declarations for index 1..1999999"
        assert len(message) < 200
        # a run of one or two is still written out
        assert error_of("domain 3 set {0}\n") == "missing domain declarations for index 1, 2"

    @pytest.mark.parametrize("scheme", ["()", "( )"])
    def test_empty_scheme_is_left_to_validate(self, scheme):
        csp = parse_csp(f"domain 1 set {{0}}\nconstraint c scheme {scheme} tuples {{()}}\n")
        assert csp.constraint("c").scheme == ()
        assert validate(csp) == ["constraint 'c': empty scheme"]

    def test_first_bad_atom_reported(self):
        # each distinct atom text is parsed once, but in order of appearance
        text = TWO + "constraint c scheme (1,2) tuples {(1,2),(1,b-c),(a-b,2)}\n"
        assert error_of(text) == "line 3: bad atom 'b-c'"

    def test_bad_atom_reported_on_its_own_line(self):
        # the atom memo lives for one file, not one line: a text seen on a
        # good line is not taken for the bad one
        text = TWO + "constraint c scheme (1,2) tuples {(1,2)}\n" + \
            "constraint d scheme (1,2) tuples {(1,2),(2,1-)}\n"
        assert error_of(text) == "line 4: bad atom '1-'"


class TestTupleSetSeparators:
    @pytest.mark.parametrize("tuples,bad", [
        ("{(1,2)(2,1)}", "(2,1)"),
        ("{(1,2) (2,1)}", "(2,1)"),
        ("{(1,2),,(2,1)}", ",,"),
        ("{(1,2), ,(2,1)}", ", ,"),
        ("{(1,2),}", ","),
        ("{,(1,2)}", ","),
        ("{ , }", ","),
    ])
    def test_exactly_one_comma_between_tuples(self, tuples, bad):
        text = TWO + f"constraint c scheme (1,2) tuples {tuples}\n"
        assert error_of(text) == f"line 3: unexpected text {bad!r} in tuple set"

    @pytest.mark.parametrize("tuples,want", [
        ("{}", set()),
        ("{ }", set()),
        ("{(1,2)}", {(1, 2)}),
        ("{ ( 1 , 2 ) , ( 2 , 1 ) }", {(1, 2), (2, 1)}),
        ("{(1,2),\t(2,1)}", {(1, 2), (2, 1)}),
    ])
    def test_accepted(self, tuples, want):
        csp = parse_csp(TWO + f"constraint c scheme (1,2) tuples {tuples}\n")
        assert csp.constraint("c").tuples == frozenset(want)

    def test_blank_group_is_the_empty_tuple(self):
        csp = parse_csp("domain 1 set {0}\nconstraint c scheme (1) tuples {( ), (0)}\n")
        assert csp.constraint("c").tuples == frozenset({(), (0,)})


class TestRoundTrip:
    def test_spaced_text_parses_like_the_canonical_text(self):
        rng = random.Random(14)
        for _ in range(400):
            p = random_text_csp(rng)
            canon = serialize_csp(p)
            assert parse_csp(canon) == p
            assert serialize_csp(parse_csp(canon)) == canon
            spaced = spaced_text(p, rng)
            assert parse_csp(spaced) == parse_csp(canon), (spaced, canon)

    def test_atoms_keep_their_kind(self):
        csp = parse_csp("domain 1 set {-0, 07, -12, x1, _a}\n"
                        "constraint c scheme (1) tuples {(07),(x1),(-0)}\n")
        assert csp.domains[0].values == frozenset({0, 7, -12, "x1", "_a"})
        assert csp.constraint("c").tuples == frozenset({(7,), ("x1",), (0,)})


class TestJsonWriter:
    @pytest.mark.parametrize("text", [
        "domain 1 set {}\n",
        "domain 1 set {0}\nconstraint c scheme () tuples {()}\n",
        "domain 1 set {0}\nconstraint c scheme (1) tuples {( ), (0)}\n",
        # equal sets share one text
        "domain 1 set {0,a}\ndomain 2 set {a,0}\n"
        "constraint c scheme (1) tuples {(0),(a)}\nconstraint d scheme (2) tuples {(a),(0)}\n",
        # atom_key ties on the float and falls back to repr, which orders
        # these ints otherwise than their values do
        "domain 1 set {-9007199254740993, -9007199254740992, 10, b, -3}\n"
        "constraint c scheme (1) tuples {(99999999999999999),(100000000000000000)}\n",
    ])
    def test_bytes_are_json_dumps(self, text):
        p = parse_csp(text)
        expected = json.dumps(csp_to_obj(p), indent=2, sort_keys=True)
        assert csp_json(p) == expected
        assert csp_json(p, "  ") == expected.replace("\n", "\n  ")
