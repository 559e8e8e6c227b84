import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nsatop import bqf, cli, fintop, germs, hull, hyperreal, poly
from nsatop.cli import main
from test_golden import CASES, fixture_paths  # noqa: F401 (a fixture)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def sierp(tmp_path):
    path = tmp_path / "sierp.json"
    path.write_text(json.dumps({"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}))
    return str(path)


@pytest.fixture
def disc3(tmp_path):
    opens = [[], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]]
    path = tmp_path / "disc3.json"
    path.write_text(json.dumps({"points": ["a", "b", "c"], "opens": opens}))
    return str(path)


@pytest.fixture
def fan3(tmp_path):
    opens = [[], ["0"], ["0", "1"], ["0", "2"], ["0", "1", "2"]]
    path = tmp_path / "fan3.json"
    path.write_text(json.dumps({"points": ["0", "1", "2"], "opens": opens}))
    return str(path)


class TestHyper:
    def test_eval_report(self, capsys):
        code, got = run_json(capsys, "hyper", "eval", "(2+e)/(1+3*e)")
        assert code == 0
        assert got["classification"] == "appreciable"
        assert got["st"] == "2"
        assert got["decomposition"]["real_part"] == "2"

    # caught mutant: the infinitesimal part printed afresh, which formats
    # every term but the constant a second time
    @pytest.mark.parametrize("expr", ["(-7/3+5/4*e)^140", "2 - e^(1/2) + e", "e + e^2", "5"])
    def test_each_term_is_formatted_once(self, capsys, monkeypatch, expr):
        formatted, to_str = [], poly.Poly.to_str
        monkeypatch.setattr(
            poly.Poly, "to_str", lambda p, *args: formatted.extend(filter(None, p.ints)) or to_str(p, *args)
        )
        code, got = run_json(capsys, "hyper", "eval", expr)
        assert code == 0 and "decomposition" in got
        assert len(formatted) == got["canonical"].count(" ") // 2 + 1  # terms are joined by " + " or " - "

    # the report reads a polynomial's infinitesimal part off its canonical
    # terms; on seeded elements it must print as x - st(x) does
    def test_infinitesimal_part_prints_as_the_difference(self):
        rng = random.Random(28)
        powers = ["", "*e", "*e^2", "*e^(1/2)", "*e^(3/2)", "*e^(1/3)", "*e^-1"]

        def poly_text():
            return " + ".join(f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}{rng.choice(powers)}" for _ in range(rng.randint(1, 4)))

        finite = 0
        for _ in range(400):
            text = poly_text() if rng.random() < 0.7 else f"({poly_text()})/({poly_text()})"
            try:
                x = hyperreal.parse_hyperreal(text)
            except hyperreal.HyperrealError:  # a zero denominator
                continue
            if x.is_finite():
                real, infinitesimal = x.decompose()
                got = cli._hyper_report(x)["decomposition"]
                assert got == {"real_part": poly._frac_str(real), "infinitesimal_part": str(infinitesimal)}, text
                finite += 1
        assert finite > 200

    def test_eval_infinite(self, capsys):
        code, got = run_json(capsys, "hyper", "eval", "1/e")
        assert code == 0
        assert got["classification"] == "infinite" and got["st"] == "+infinity"
        assert "decomposition" not in got

    def test_zero_denominator_exits_2(self, capsys):
        code, got = run_json(capsys, "hyper", "eval", "(1)/(0)")
        assert code == 2
        assert got["error"]["type"] == "ZeroDenominator"

    def test_parse_error_exits_2(self, capsys):
        code, got = run_json(capsys, "hyper", "st", "2 +")
        assert code == 2
        assert got["error"]["type"] == "ExprSyntaxError"

    def test_syntax_error_reports_position(self, capsys):
        code, got = run_json(capsys, "hyper", "eval", "2 + * e")
        assert code == 2 and got["error"]["type"] == "ExprSyntaxError"
        assert got["error"]["position"] == 4

    def test_root(self, capsys):
        code, got = run_json(capsys, "hyper", "root", "4*e^2", "2")
        assert code == 0 and got["root"] == "2*e"

    def test_root_degree_below_one_exits_2(self, capsys):
        for degree in ("0", "-2"):
            code, got = run_json(capsys, "hyper", "root", "e", degree)
            assert code == 2 and got["error"]["type"] == "BadRootDegree"

    def test_nesting_limit_exits_2(self, capsys):
        for depth in (200, 10**4):
            code, got = run_json(capsys, "hyper", "eval", "(" * depth + "e" + ")" * depth)
            assert code == 2 and got["error"]["type"] == "NestingTooDeep"

    def test_huge_power_of_e_is_quick(self, capsys):
        start = time.perf_counter()
        code, got = run_json(capsys, "hyper", "eval", "e^10000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and got["order"] == "10000000"

    def test_cancelled_factor_of_huge_power_is_quick(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "hyper", "eval", "e^10000000*(1+e)/(1+e)")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == run(capsys, "hyper", "eval", "e^10000000")

    def test_unrepresentable_root_exits_1(self, capsys):
        code, got = run_json(capsys, "hyper", "root", "1+e", "2")
        assert code == 1 and got["root_exists"] is False

    def test_missing_odd_root_of_negative_names_it(self, capsys):
        code, got = run_json(capsys, "hyper", "root", "--", "-2", "3")
        assert code == 1 and got["root_exists"] is False
        assert got["witness"]["message"] == "-2 has no root of degree 3 in the ramified field"
        code, got = run_json(capsys, "hyper", "root", "--", "-8*e^3", "3")
        assert code == 0 and got["root"] == "-2*e"

    def test_root_degree_past_bit_length_is_quick(self, capsys):
        # 2**n > 4 for n >= 3, so no root is sought and no power is formed
        start = time.perf_counter()
        code, got = run_json(capsys, "hyper", "root", "4", "1000000000000")
        assert code == 1 and got["root_exists"] is False
        code, got = run_json(capsys, "hyper", "eval", "4^(1/1000000000000)")
        assert code == 2 and got["error"]["type"] == "NotRepresentable"
        assert time.perf_counter() - start < 1.0


class TestGerm:
    def test_compare_lt(self, capsys):
        code, got = run_json(capsys, "germ", "compare", "rf(1/n)", "ep([];[0])", "lt")
        assert code == 1
        assert got["verdict"] == "false-ae"

    def test_compare_dependent(self, capsys):
        code, got = run_json(capsys, "germ", "compare", "ep([];[0,1])", "ep([];[0])", "eq")
        assert code == 1 and got["verdict"] == "ultrafilter-dependent"

    def test_compare_true(self, capsys):
        code, got = run_json(capsys, "germ", "compare", "rf(1/n)", "1/1000000", "lt")
        assert code == 0 and got["verdict"] == "true-ae"

    def test_mixed_classes_exit_2(self, capsys):
        code, got = run_json(capsys, "germ", "compare", "rf(n)", "ep([];[0,1])", "eq")
        assert code == 2 and got["error"]["type"] == "MixedClasses"

    def test_los_mixed_classes_names_first_variable_class(self, capsys):
        # the message follows the sorted variable names, not set order
        names = "abcdefgh"
        formula = " and ".join(f"{v} < {v}+1" for v in names)
        for first, rest, want in (
            ("ep([];[0,1])", "rf(n)", "cannot mix PeriodicGerm with RationalGerm"),
            ("rf(n)", "ep([];[0,1])", "cannot mix RationalGerm with PeriodicGerm"),
        ):
            binds = [f"a={first}"] + [f"{v}={rest}" for v in names[1:]]
            argv = ["germ", "los", formula] + [x for b in binds for x in ("--bind", b)]
            code, got = run_json(capsys, *argv)
            assert code == 2 and got["error"] == {"type": "MixedClasses", "message": want}

    def test_zero_denominator_exits_2(self, capsys):
        code, got = run_json(capsys, "germ", "los", "x < 1/0", "--bind", "x=rf(n)")
        assert code == 2 and got["error"]["type"] == "AlmostEverywhereZeroDivisor"

    def test_syntax_error_reports_position(self, capsys):
        code, got = run_json(capsys, "germ", "los", "x < (1", "--bind", "x=rf(n)")
        assert code == 2 and got["error"]["type"] == "GermSyntaxError"
        assert got["error"]["position"] == 6
        # a germ constant is an integer or a quotient of two; '.' is not part of it
        code, got = run_json(capsys, "germ", "classify", "0.5")
        assert code == 2 and got["error"]["type"] == "GermSyntaxError"
        assert got["error"]["position"] == 1

    def test_spacing_never_changes_meaning(self, capsys):
        code, got = run_json(capsys, "germ", "los", "x/1/2 = x / 1 / 2", "--bind", "x=rf(n)")
        assert code == 0 and got["verdict"] == "true-ae"

    def test_zero_divisor_at_a_residue_exits_2(self, capsys):
        x = "x=ep([];[0,1])"
        code, got = run_json(capsys, "germ", "los", "1/x > 2", "--bind", x)
        assert code == 2 and got["error"]["type"] == "UltrafilterDependentZeroDivisor"
        code, got = run_json(capsys, "germ", "los", "1/(x - x) > 2", "--bind", x)
        assert code == 2 and got["error"]["type"] == "AlmostEverywhereZeroDivisor"
        # the guard settles the zero residue, so the division never sees it
        code, got = run_json(capsys, "germ", "los", "x = 0 or 1/x > 2", "--bind", x)
        assert code == 1 and got["verdict"] == "ultrafilter-dependent"

    def test_window_past_budget_exits_2(self, capsys):
        # periods 1024 and 1025: a window of 1,049,600 > MAX_WINDOW
        a = "ep([];[" + ",".join(["0"] * 1023 + ["1"]) + "])"
        b = "ep([];[" + ",".join(["1"] * 1024 + ["0"]) + "])"
        for argv in (("compare", a, b, "lt"), ("los", "x = y", "--bind", f"x={a}", "--bind", f"y={b}")):
            code, got = run_json(capsys, "germ", *argv)
            assert code == 2 and got["error"]["type"] == "WindowTooLarge", argv[0]

    def test_classify(self, capsys):
        code, got = run_json(capsys, "germ", "classify", "rf((2*n+1)/(n+3))")
        assert code == 0
        assert got["classification"] == "appreciable" and got["st"] == "2"

    def test_classify_residues(self, capsys):
        code, got = run_json(capsys, "germ", "classify", "ep([];[0,1])")
        assert code == 0
        assert got["classification"] == "per-residue-class"
        assert got["residues"] == {"0": "zero", "1": "appreciable"}

    def test_los(self, capsys):
        code, got = run_json(capsys, "germ", "los", "x < x*x", "--bind", "x=rf(n)")
        assert code == 0 and got["verdict"] == "true-ae"

    def test_nesting_limit_exits_2(self, capsys):
        def argvs(depth):
            wrap = "(" * depth + "{}" + ")" * depth
            return (
                ("los", wrap.format("x < x*x"), "--bind", "x=rf(n)"),
                ("los", wrap.format("x") + " < x*x", "--bind", "x=rf(n)"),
                ("los", "not " * depth + "x < x*x", "--bind", "x=rf(n)"),
                ("classify", "rf(" + wrap.format("n") + ")"),
                ("classify", "rf(" + "-" * depth + "n)"),
            )

        for argv in argvs(99):
            code, got = run_json(capsys, "germ", *argv)
            assert code in (0, 1) and "error" not in got, argv
        for depth in (329, 10**4):
            for argv in argvs(depth):
                code, got = run_json(capsys, "germ", *argv)
                assert code == 2 and got["error"]["type"] == "NestingTooDeep", argv

    def test_long_flat_chain_exits_2(self, capsys):
        # chains nest no parentheses, so only their length can be too much
        def argvs(terms):
            chain = "+".join(["n"] * terms)
            return (
                ("classify", f"rf({chain})"),
                ("compare", f"rf({chain})", "1", "lt"),
                ("los", " and ".join(["x < 1"] * terms), "--bind", "x=rf(1/n)"),
                ("los", "+".join(["x"] * terms) + " < 1", "--bind", "x=rf(1/n)"),
                ("los", " or ".join(["x < 1"] * terms), "--bind", "x=ep([];[0,2])"),
            )

        reports = [run_json(capsys, "germ", *argv)[1] for argv in argvs(500)]
        verdicts = [r.get("verdict", r.get("classification")) for r in reports]
        assert verdicts == ["infinite", "false-ae", "true-ae", "true-ae", "ultrafilter-dependent"]
        for terms in (1000, 10**4):
            for argv in argvs(terms):
                code, got = run_json(capsys, "germ", *argv)
                assert code == 2 and got["error"]["type"] == "NestingTooDeep", argv[:2]


class TestBqf:
    def test_eval_true(self, capsys):
        code, got = run_json(
            capsys, "bqf", "eval", "(forall x in A)(x in B)",
            "--bind", 'A=["a"]', "--bind", 'B=["a","b"]',
        )
        assert code == 0 and got["value"] is True and got["transfer_holds"] is True

    def test_eval_false_exits_1(self, capsys):
        code, got = run_json(
            capsys, "bqf", "eval", "(forall x in A)(x in B)",
            "--bind", 'A=["a","b"]', "--bind", 'B=["a"]',
        )
        assert code == 1 and got["value"] is False

    def test_unbounded_exits_2(self, capsys):
        code, got = run_json(capsys, "bqf", "eval", "(forall x)(x = x)")
        assert code == 2 and got["error"]["type"] == "UnboundedQuantifier"

    def test_binding_of_no_entity_shape_exits_2(self, capsys):
        code, got = run_json(capsys, "bqf", "eval", "x = x", "--bind", "x=1")
        assert code == 2
        assert got["error"] == {"type": "NotAnEntity", "message": "cannot decode entity from 1"}

    def test_atom_bound_exits_2(self, capsys):
        code, got = run_json(capsys, "bqf", "define", "x = x", "--bound", '"a"')
        assert code == 2
        assert got["error"] == {
            "type": "QuantifierOverAtom", "message": "comprehension bound must be a finite set",
        }

    def test_unbound_name_exits_2(self, capsys):
        cases = (
            ("eval", "(exists x in A) y = x", "--bind", "A=[]"),
            ("define", "(x = a or x = zz)", "--bound", "[]", "--bind", 'a="a"', "--var", "x"),
        )
        for argv in cases:
            code, got = run_json(capsys, "bqf", *argv)
            assert code == 2 and got["error"]["type"] == "UnboundConstant"

    def test_syntax_error_reports_position(self, capsys):
        code, got = run_json(capsys, "bqf", "eval", "a =    = b", "--bind", 'a="a"')
        assert code == 2 and got["error"]["type"] == "FormulaSyntaxError"
        assert got["error"]["position"] == 7

    def test_nesting_limit_exits_2(self, capsys):
        deep_formula = "not " * 3000 + "a = a"
        for argv in (
            ("eval", deep_formula, "--bind", 'a="a"'),
            ("eval", "a = a", "--bind", "a=" + "[" * 1000 + "]" * 1000),
            ("eval", "a = a", "--bind", "a=" + "[" * 10**5 + "]" * 10**5),
            ("define", "x = x", "--bound", "[" * 1000 + "]" * 1000),
        ):
            code, got = run_json(capsys, "bqf", *argv)
            assert code == 2 and got["error"]["type"] == "NestingTooDeep"
            # the formula's error is at its 101st 'not'; a JSON entity's has no position
            assert got["error"].get("position") == (400 if argv[1] == deep_formula else None)

    def test_define(self, capsys):
        code, got = run_json(
            capsys, "bqf", "define", "(x = a or x = b)",
            "--bound", '["a","b","c"]', "--bind", 'a="a"', "--bind", 'b="b"',
        )
        assert code == 0 and sorted(got["subset"]) == ["a", "b"]


class TestTopo:
    def test_check_single_property(self, capsys, sierp):
        code, got = run_json(capsys, "topo", "check", sierp, "--property", "regular")
        assert code == 1
        verdict = got["properties"]["regular"]
        assert verdict["holds"] is False and verdict["agree"] is True
        assert verdict["witness"] == ["a", ["b"]]

    def test_check_all_discrete(self, capsys, disc3):
        code, got = run_json(capsys, "topo", "check", disc3)
        assert code == 0
        assert all(v["holds"] for v in got["properties"].values())

    def test_malformed_space_exits_2(self, capsys, tmp_path):
        cases = [
            ({"points": ["a", "b"], "opens": [[], ["a"]]}, "MissingEmptyOrFull"),
            # an unhashable label, and strings where lists belong
            ({"points": [["a"], "b"], "opens": [[], [["a"], "b"]]}, "SpaceError"),
            ({"points": "ab", "opens": [[], ["a", "b"]]}, "SpaceError"),
            ({"points": ["a", "b"], "opens": [[], "ab"]}, "SpaceError"),
            # integer masks outside 0..full
            ({"points": ["a"], "opens": [0, 1, 2, 3]}, "SpaceError"),
            ({"points": ["a"], "opens": [-1, 0, 1]}, "SpaceError"),
        ]
        bad = tmp_path / "bad.json"
        for body, kind in cases:
            bad.write_text(json.dumps(body))
            for argv in (("check", str(bad)), ("hull", str(bad), "--stone-cech")):
                code, got = run_json(capsys, "topo", *argv)
                assert code == 2 and got["error"]["type"] == kind, (body, argv)

    def test_deep_json_exits_2(self, capsys, sierp, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10**5 + "]" * 10**5)
        utf16 = tmp_path / "utf16.json"  # a byte-order mark that is not UTF-8
        utf16.write_bytes(b"\xff\xfe" + '{"points": [], "opens": [[]]}'.encode("utf-16-le"))
        for bad in (str(deep), str(utf16)):
            for argv in (("check", bad), ("hull", sierp, bad)):
                code, got = run_json(capsys, "topo", *argv)
                assert code == 2 and got["error"]["type"] == "SpaceError", argv
                assert got["error"]["message"].startswith(bad), argv

    def test_missing_space_file_exits_2(self, capsys, tmp_path):
        code, got = run_json(capsys, "topo", "check", str(tmp_path / "absent.json"))
        assert code == 2 and got["error"]["type"] == "FileNotFoundError"

    def test_hull_stone_cech(self, capsys, fan3):
        code, got = run_json(capsys, "topo", "hull", fan3, "--stone-cech")
        assert code == 0
        assert got["hull"]["classes"] == [["0", "1", "2"]]

    def test_hull_with_family(self, capsys, disc3, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"f": {"a": "0", "b": "0", "c": "1"}}))
        code, got = run_json(capsys, "topo", "hull", disc3, str(fam))
        assert code == 0
        assert got["hull"]["classes"] == [["a", "b"], ["c"]]

    def test_discontinuous_family_exits_2(self, capsys, sierp, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"f": {"a": "0", "b": "1"}}))
        code, got = run_json(capsys, "topo", "hull", sierp, str(fam))
        assert code == 2
        assert got["error"]["type"] == "DiscontinuousFamilyMember"
        assert got["error"]["witness"]["monad"] == ["a", "b"]
        # malformed families: a member that is not a table, values that are not
        # rationals, and a missing value, which is found before the continuity of
        # any member (here the discontinuous "a") is checked
        malformed = ({"f": 3}, {"a": {"a": "0", "b": "1"}, "b": {"a": "0"}})
        for body in (*malformed, *({"f": {"a": v, "b": v}} for v in ("x", None, "1/0"))):
            fam.write_text(json.dumps(body))
            code, got = run_json(capsys, "topo", "hull", sierp, str(fam))
            assert code == 2 and got["error"]["type"] == "SpaceError", body

    def test_hull_takes_one_input(self, capsys, disc3, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"f": {"a": "0", "b": "0", "c": "1"}}))
        code, got = run_json(capsys, "topo", "hull", disc3, str(fam), "--stone-cech")
        assert code == 2 and got["error"] == {
            "type": "ConflictingInputs",
            "message": "topo hull takes a family file or --stone-cech, not both",
        }

    def test_reflect(self, capsys, sierp):
        code, got = run_json(capsys, "topo", "reflect", sierp)
        assert code == 0
        assert got["checks"]["weakly_hausdorff_iff_reflection_hausdorff"] is True

    # reports key points and hull classes by their printed labels, so labels
    # that print alike are refused with a message naming them
    def test_labels_printing_alike_exit_2(self, capsys, tmp_path):
        path = tmp_path / "alike.json"
        path.write_text(json.dumps({"points": [1, "1"], "opens": [[], [1], [1, "1"]]}))
        code, got = run_json(capsys, "topo", "reflect", str(path))
        assert code == 2
        assert got["error"] == {
            "type": "SpaceError",
            "message": "point labels 1 and '1' both print as '1'",
        }

    # a lone surrogate has no UTF-8 encoding, so print would fail on it
    def test_unprintable_label_or_member_name_exits_2(self, capsys, sierp, tmp_path):
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps({"points": ["\ud800"], "opens": [[], ["\ud800"]]}))
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"\ud800": {"a": "0", "b": "0"}}))
        for argv, message in (
            (("topo", "dot", str(path)), "point label '\\ud800' has no UTF-8 encoding to print"),
            (("topo", "hull", str(path)), "point label '\\ud800' has no UTF-8 encoding to print"),
            (("topo", "hull", sierp, str(fam)), "family member name '\\ud800' has no UTF-8 encoding to print"),
        ):
            code, out = run(capsys, "--format", "table", *argv)
            assert (code, out) == (2, f"error.message: {message}\nerror.type: SpaceError\n"), argv
            code, got = run_json(capsys, *argv)
            assert code == 2 and got["error"] == {"type": "SpaceError", "message": message}, argv

    def test_class_labels_printing_alike_exit_2(self, capsys, tmp_path):
        path = tmp_path / "joined.json"
        opens = [[], ["a", "b"], ["a|b"], ["a|b", "a", "b"]]
        path.write_text(json.dumps({"points": ["a|b", "a", "b"], "opens": opens}))
        code, got = run_json(capsys, "topo", "hull", str(path))
        assert code == 2
        assert got["error"] == {
            "type": "SpaceError",
            "message": "hull classes [['a|b'], ['a', 'b']] are both labelled 'a|b'",
        }

    def test_dot(self, capsys, fan3):
        code, out = run(capsys, "topo", "dot", fan3)
        assert code == 0
        assert out.startswith("digraph") and '"0" -> "1";' in out


class TestDigitLimit:
    # the interpreter converts int and str only up to a digit limit (4,300 by
    # default); a number past it, read from JSON or printed in an exact
    # answer, is an input error, not a traceback
    BIG = "7" * 5000

    def test_hyper_answer_too_long_to_print_exits_2(self, capsys):
        for argv in (
            ("eval", "10^5000"),
            ("st", "10^5000"),
            ("root", "10^10000", "2"),
            ("eval", "(1+e)^20000"),
            ("eval", "10^-199999999999"),  # refused before 10 to that power is built
        ):
            code, got = run_json(capsys, "hyper", *argv)
            assert code == 2 and got["error"]["type"] == "NumberTooLarge", argv

    def test_power_that_a_later_step_shortens_still_answers(self, capsys):
        # only a power past four times the printable length is refused
        # unbuilt; shorter ones are built, and only the answer must print
        ten_3000 = "1" + "0" * 3000
        for argv, key, want in (
            (("root", "10^3000*10^3000", "2"), "root", ten_3000),  # the root is checked by squaring it
            (("root", "10^6000", "2"), "root", ten_3000),
            (("eval", "(10*e)^5000/(10*e)^5000"), "canonical", "1"),
            (("eval", "10^17000/10^16999"), "canonical", "10"),
        ):
            code, got = run_json(capsys, "hyper", *argv)
            assert code == 0 and got[key] == want, argv

    def test_bqf_binding_integer_exits_2(self, capsys):
        code, got = run_json(capsys, "bqf", "eval", "x = x", "--bind", f"x={self.BIG}")
        assert code == 2 and got["error"]["type"] == "NumberTooLarge"

    def test_family_file_integer_exits_2(self, capsys, sierp, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(f'{{"f": {{"a": {self.BIG}, "b": {self.BIG}}}}}')
        code, got = run_json(capsys, "topo", "hull", sierp, str(fam))
        assert code == 2 and got["error"]["type"] == "NumberTooLarge"

    def test_family_value_overflowing_to_infinity_exits_2(self, capsys, sierp, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text('{"f": {"a": 1e400, "b": 1e400}}')
        code, got = run_json(capsys, "topo", "hull", sierp, str(fam))
        assert code == 2 and got["error"]["type"] == "SpaceError"


class TestUsage:
    def test_usage_error_uses_error_schema(self, capsys, sierp):
        for argv in (
            ("topo", "hull", sierp, "--bogus"),
            ("hyper", "root", "e", "two"),
            ("germ", "compare", "1", "2", "gt"),
            (),
            # spellings that repeat another: `topo dot` prints DOT under any
            # format, `topo reflect` builds the T0 reflection and --seed is global
            ("--format", "dot", "topo", "dot", sierp),
            ("topo", "hull", sierp, "--t0-reflect"),
            ("audit", "--max-points", "1", "--seed", "3"),
        ):
            code, got = run_json(capsys, *argv)
            assert code == 2 and got["error"]["type"] == "UsageError", argv
            assert got["error"]["message"].startswith("nsatop"), argv

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["topo", "hull", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nsatop topo hull")


class TestErrorBoundary:
    """`_dispatch` maps the typed errors of every module to exit 2 in one place."""

    def raise_from_audit(self, monkeypatch, exc):
        def cmd_audit(args, fmt):
            raise exc

        monkeypatch.setattr(cli, "cmd_audit", cmd_audit)

    def test_every_library_error_exits_2(self, capsys, monkeypatch):
        # the three a command reports otherwise (NotRepresentable in `hyper
        # root`, DiscontinuousFamilyMember and AuditFailure in `topo`) are
        # among them, so raised anywhere else they exit 2 as well
        errors = [
            obj
            for mod in (poly, hyperreal, germs, bqf, fintop, hull)
            for obj in vars(mod).values()
            if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == mod.__name__
        ]
        assert len(errors) > 30
        for cls in errors:
            self.raise_from_audit(monkeypatch, cls.__new__(cls, "raised"))
            code, got = run_json(capsys, "audit")
            assert code == 2 and got["error"] == {"type": cls.__name__, "message": "raised"}, cls

    def test_other_errors_are_not_typed(self, monkeypatch):
        # a TypeError is a bug and must show as one
        for exc in (TypeError("bug"), ValueError("bug"), KeyError("bug")):
            self.raise_from_audit(monkeypatch, exc)
            with pytest.raises(type(exc)):
                main(["audit"])


class TestParserReuse:
    """`main` parses every request with one parser built on the first call."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_golden_calls_in_reverse(self, capsys, fixture_paths):
        for case in reversed(CASES):
            if case["argv"][0] == "audit":
                continue
            code = main([fixture_paths.get(arg, arg) for arg in case["argv"]])
            assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"]), case["argv"]

    def test_usage_error_and_help_leave_no_state(self, capsys):
        def los_with_two_binds():
            code, got = run_json(
                capsys, "germ", "los", "x < y", "--bind", "x=rf(1/n)", "--bind", "y=rf(n)"
            )
            assert (code, got) == (0, {"formula": "x < y", "verdict": "true-ae"})

        code, got = run_json(capsys, "germ", "los", "x < y", "--bind", "x=rf(n)", "--bogus")
        assert code == 2 and got["error"]["type"] == "UsageError"
        los_with_two_binds()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nsatop")
        los_with_two_binds()

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["nsatop", "hyper", "st", "1/e"])
        code = main()
        assert code == 0 and json.loads(capsys.readouterr().out)["st"] == "+infinity"


class TestAudit:
    def test_audit_three_points(self, capsys):
        code, got = run_json(capsys, "audit", "--max-points", "3")
        assert code == 0
        assert got["all_passed"] is True
        assert got["topology_counts"] == {"1": 1, "2": 4, "3": 29}

    def test_audit_too_large(self, capsys):
        code, got = run_json(capsys, "audit", "--max-points", "9")
        assert code == 2 and got["error"]["type"] == "TooLarge"

    # an audit must be able to fail: a decider that disagrees with its oracle
    # on one space, and a hull audit that raises on one space, are each
    # listed under their check and make the run exit 1
    def test_decider_disagreeing_on_one_space_fails(self, capsys, monkeypatch, fresh_facts):
        t1, flipped = fintop.PROPERTY_CHECKS["t1"], []

        def flip_on_first_two_point_space(space):
            v = t1(space)
            if space.n == 2 and not flipped:
                flipped.append(space.describe())
                return fintop.PropertyVerdict(v.name, v.holds, not v.oracle, v.forms, v.witness)
            return v

        monkeypatch.setitem(fintop.PROPERTY_CHECKS, "t1", flip_on_first_two_point_space)
        code, got = run_json(capsys, "audit", "--max-points", "2")
        assert code == 1 and got["all_passed"] is False
        asserted = got["separation_and_order"]["asserted"]
        assert asserted["monad_oracle_agreement"] == {
            "counterexamples": [f"{flipped[0]}:t1"],
            "passed": False,
        }
        assert all(v["passed"] for k, v in asserted.items() if k != "monad_oracle_agreement")
        assert got["hulls"]["all_passed"] is True

    def test_hull_audit_raising_on_one_space_fails(self, capsys, monkeypatch, fresh_facts):
        ring, failed = hull.ring_correspondence, []

        def fail_on_first_two_point_space(sc):
            if sc.source.n == 2 and not failed:
                failed.append(sc.source.describe())
                raise fintop.AuditFailure("ring correspondence broken")
            return ring(sc)

        monkeypatch.setattr(hull, "ring_correspondence", fail_on_first_two_point_space)
        code, got = run_json(capsys, "audit", "--max-points", "2")
        assert code == 1 and got["all_passed"] is False
        asserted = got["hulls"]["asserted"]
        assert asserted["ring_correspondence"] == {
            "counterexamples": [f"{failed[0]}: ring correspondence broken"],
            "passed": False,
        }
        assert all(v["passed"] for k, v in asserted.items() if k != "ring_correspondence")
        assert got["separation_and_order"]["all_passed"] is True


class TestClosedPipe:
    def test_no_traceback_when_reader_stops_after_one_line(self):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("pipe buffer size cannot be set here")
        read_fd, write_fd = os.pipe()
        # a pipe smaller than the report keeps the writer busy until we close
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "nsatop", "audit", "--max-points", "4"],
            stdout=write_fd,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_fd)
        assert os.read(read_fd, 2) == b"{\n"
        os.close(read_fd)
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 141
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()


class TestDeterminism:
    def test_byte_identical_output(self, capsys, fan3):
        _, first = run(capsys, "topo", "check", fan3)
        _, second = run(capsys, "topo", "check", fan3)
        assert first == second
        # no audit stage reads the seed, so --seed changes no byte
        a1 = run(capsys, "--seed", "7", "audit", "--max-points", "2")
        a2 = run(capsys, "--seed", "8", "audit", "--max-points", "2")
        a3 = run(capsys, "audit", "--max-points", "2")
        assert a1 == a2 == a3 and a1[0] == 0 and "seed" not in json.loads(a1[1])

    def test_table_format(self, capsys):
        code, out = run(capsys, "--format", "table", "hyper", "eval", "e")
        assert code == 0
        assert "classification: infinitesimal" in out
