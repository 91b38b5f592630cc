import json
import math

import pytest

from revlang.cli import encode_value, main, parse_value, split_args
from revlang.parser import MAX_EXPR_NESTING, MAX_STMT_NESTING, parse_program
from revlang.reverser import invert_function
from revlang.values import Array, Complex, Fixed, ULog

from lowered import keep_calls


@pytest.fixture
def asset(tmp_path):
    def write(name):
        from revlang.stdlib import CATALOG, asset_text
        f = tmp_path / CATALOG[name][0]
        f.write_text(asset_text(CATALOG[name][0]))
        return str(f)
    return write


class TestLiterals:
    def test_kind_suffixes(self):
        assert parse_value("5") == 5
        assert parse_value("2.0") == 2.0
        assert parse_value("3fx") == Fixed.from_real(3)
        assert parse_value("true") is True
        assert parse_value("2.5ul") == ULog.from_real(2.5)
        assert parse_value("1+2im") == Complex(1.0, 2.0)
        assert parse_value("2.0im") == Complex(0.0, 2.0)
        assert parse_value("1.5-0.5im") == Complex(1.5, -0.5)

    def test_arrays(self):
        assert parse_value("[1,2,3]") == Array.vector([1, 2, 3])
        assert parse_value("[[1.0,2.0],[3.0,4.0]]").shape == (2, 2)

    def test_array_cells_read_as_value_literals(self, tmp_path, capsys):
        # a cell reads as `-a nan` does, but holds only an Int, Float or Bool
        a = parse_value("[1.0,nan]")
        assert a.data[0] == 1.0 and math.isnan(a.data[1])
        assert parse_value("[[true, 2], [inf, -0.5]]").data == [
            True, 2, math.inf, -0.5]
        for literal in ("[1,1fx]", "[1,1+2im]", "[1,null]", "[1,,2]",
                        "[1,[2]]"):
            with pytest.raises(ValueError, match="array literals hold "
                                                 "numbers"):
                parse_value(literal)
        f = tmp_path / "a.rnl"
        f.write_text("fn f(y, a)\ny += a[2]\nend\n")
        assert main(["run", str(f), "-f", "f", "-a", "0.0,[1.0,nan]"]) == 0
        assert capsys.readouterr().out == \
            '{"args": ["nan", [1.0, "nan"]]}\n'

    def test_split_honors_brackets(self):
        assert split_args("[1,2],3,[4,5]") == ["[1,2]", "3", "[4,5]"]

    @pytest.mark.parametrize("text", ["2,,3,5", "2,3,5,", ",2,3,5",
                                      "2, ,3,5", "[1,2],,3"])
    def test_an_empty_argument_is_a_usage_error(self, asset, capsys, text):
        # as an empty array cell is: a stray comma is not dropped
        assert main(["run", asset("multiplier"), "-f", "multiplier",
                     "-a", text]) == 1
        assert capsys.readouterr().err == \
            f"empty argument in {text!r}\n"

    @pytest.mark.parametrize("text", ["", " "])
    def test_a_blank_argument_string_is_no_argument(self, tmp_path, capsys,
                                                    text):
        assert split_args(text) == []
        f = tmp_path / "g.rnl"
        f.write_text("fn g()\nend\n")
        assert main(["run", str(f), "-f", "g", "-a", text]) == 0
        assert json.loads(capsys.readouterr().out) == {"args": []}

    @pytest.mark.parametrize("text", [
        "\u0663", "1\u0663", "\u0663.5", "\u0663fx", "\u0663ul",
        "\u0663+2im", "[\u0663]", "\u00b2"])
    def test_non_ascii_digits_rejected(self, text):
        # int() and float() take any Unicode decimal digit; literals do not
        with pytest.raises(ValueError):
            parse_value(text)

    def test_encode_roundtrip_kinds(self):
        assert encode_value(Fixed.from_real(1.5)) == {"kind": "fixed",
                                                      "value": "1.5"}
        assert encode_value(Complex(1.0, -2.0)) == {
            "kind": "complex", "re": 1.0, "im": -2.0}
        assert encode_value(Array.vector([1, 2])) == [1, 2]


class TestCommands:
    def test_run_multiplier(self, asset, capsys):
        rc = main(["run", asset("multiplier"), "-f", "multiplier",
                   "-a", "2,3,5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"args": [17, 3, 5]}

    def test_invert_prints_minus(self, asset, capsys):
        rc = main(["invert", asset("multiplier"), "-f", "multiplier"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "y! -= a * b" in out
        assert "~multiplier" in out

    def test_grad_json(self, asset, capsys):
        rc = main(["grad", asset("multiplier"), "-f", "multiplier",
                   "-a", "0.0,3.0,5.0"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["grads"] == {"a": 5.0, "b": 3.0, "y!": 1.0}
        assert d["primal"] == [15.0, 3.0, 5.0]

    def test_grad_seed_selectors(self, asset, capsys):
        rc = main(["grad", asset("multiplier"), "-f", "multiplier",
                   "-a", "0.0,3.0,5.0", "--seed", "y!=2.0"])
        assert rc == 0
        grads = json.loads(capsys.readouterr().out)["grads"]
        assert grads == {"a": 10.0, "b": 6.0, "y!": 2.0}
        rc = main(["grad", asset("complex_log"), "-f", "complex_log",
                   "-a", "0.0+0.0im,1.0+2.0im", "--seed", "y!.im"])
        assert rc == 0
        grads = json.loads(capsys.readouterr().out)["grads"]
        # the imaginary part is angle(x): d/dre = -im/|x|^2, d/dim = re/|x|^2
        assert grads["x"]["re"] == pytest.approx(-0.4)
        assert grads["x"]["im"] == pytest.approx(0.2)

    @pytest.mark.parametrize("name, seed", [
        ("multiplier", "y![2]"), ("multiplier", "y!.re"),
        ("complex_log", "y!.foo"), ("complex_log", "y![1]")])
    def test_grad_seed_mismatch_exit_code(self, asset, capsys, name, seed):
        args = "0.0,3.0,5.0" if name == "multiplier" else "0.0+0.0im,1.0+2.0im"
        rc = main(["grad", asset(name), "-f", name, "-a", args, "--seed", seed])
        assert rc == 3
        err = capsys.readouterr().err
        assert "KindError" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "-a", "\u0663,2,1"],
        ["grad", "-a", "0.0,3.0,5.0", "--seed", "y![\u0663]"],
        ["grad", "-a", "0.0,3.0,5.0", "--seed", "y!=\u0663.0"],
        ["grad", "-a", "0.0,3.0,5.0", "--seed", "y!.r\u00e9"]])
    def test_non_ascii_cli_literals_exit_code(self, asset, capsys, argv):
        rc = main([argv[0], asset("multiplier"), "-f", "multiplier",
                   *argv[1:]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["run", "-a", "1_000,2,3"],
        ["run", "-a", "1_0.5,2.0,3.0"],
        ["run", "-a", "1_0fx,2,3"],
        ["grad", "-a", "0.0,3.0,5.0", "--seed", "y!=1_0"]])
    def test_digit_separators_exit_code(self, asset, capsys, argv):
        # int() and float() take '_' between digits; .rnl literals do not
        rc = main([argv[0], asset("multiplier"), "-f", "multiplier",
                   *argv[1:]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    def test_invert_keeps_power_parentheses(self, tmp_path, capsys):
        f = tmp_path / "pow.rnl"
        f.write_text("fn f(y)\nn <- (2 ^ 3) ^ 2\ny += n\nn -> (2 ^ 3) ^ 2\nend\n")
        assert main(["invert", str(f)]) == 0
        inverse = tmp_path / "inv.rnl"
        inverse.write_text(capsys.readouterr().out)
        assert "n <- (2 ^ 3) ^ 2" in inverse.read_text()
        assert parse_program(inverse.read_text()).get("~f") == \
            invert_function(parse_program(f.read_text()).get("f"))
        assert main(["run", str(inverse), "-f", "~f", "-a", "64"]) == 0
        assert json.loads(capsys.readouterr().out) == {"args": [0]}

    @pytest.mark.parametrize("matrix", ["[[1,2],3]", "[[1],[2,3]]"])
    def test_malformed_matrix_literal_exit_code(self, asset, capsys, matrix):
        # mixed rows, ragged rows: the literal is at fault, not the program
        rc = main(["run", asset("multiplier"), "-f", "multiplier",
                   "-a", f"{matrix},3,5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "matrix literal" in captured.err

    def test_consecutive_calls_share_no_state(self, asset, capsys):
        # the argument parser is built once per process: a parse fills a
        # new namespace, so an option given once does not stay
        path = asset("multiplier")
        grad = ["grad", path, "-f", "multiplier", "-a", "0.0,3.0,5.0"]
        outputs = []
        for argv in (grad, [*grad, "--seed", "y!=2.0"], grad,
                     ["check", path, "-f", "multiplier", "-a", "1.0,2.0,3.0",
                      "--trials", "3", "--json"],
                     ["run", path, "-f", "multiplier", "-a", "2,3,5"],
                     ["check", path, "-f", "multiplier", "-a", "1.0,2.0,3.0",
                      "--json"],
                     ["invert", path], grad):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        default, seeded, again, trials, ran, check, inverted, last = outputs
        assert json.loads(default)["grads"] == {"a": 5.0, "b": 3.0,
                                                "y!": 1.0}
        assert json.loads(seeded)["grads"]["y!"] == 2.0
        assert again == default == last
        assert len(json.loads(trials)["trials"]) == 3
        assert json.loads(ran) == {"args": [17, 3, 5]}
        assert len(json.loads(check)["trials"]) == 1
        assert "~multiplier" in inverted

    def test_grad_deterministic_key_order(self, asset, capsys):
        main(["grad", asset("multiplier"), "-f", "multiplier",
              "-a", "0.0,3.0,5.0"])
        first = capsys.readouterr().out
        main(["grad", asset("multiplier"), "-f", "multiplier",
              "-a", "0.0,3.0,5.0"])
        assert capsys.readouterr().out == first

    def test_hessian_json(self, asset, capsys):
        rc = main(["hessian", asset("multiplier"), "-f", "multiplier",
                   "-a", "0.0,3.0,5.0"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["hessian"][1][2] == pytest.approx(1.0)
        assert d["symmetry_error"] <= 1e-9

    def test_check_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.rnl"
        bad.write_text("""fn f(n)
c <- 0
while (c < n, c > -1)
    c += 1
end
c -= n
c -> 0
end
""")
        rc = main(["check", str(bad), "-f", "f", "-a", "3"])
        assert rc == 3
        assert "PostconditionMismatch" in capsys.readouterr().out

    @pytest.mark.parametrize("args", ["1.0,nan", "nan,1.0"])
    def test_check_names_an_unrestored_nan(self, tmp_path, capsys, args):
        f = tmp_path / "nan.rnl"
        f.write_text("fn f(a, b)\na += 1.0\nend\n")
        rc = main(["check", str(f), "-f", "f", "-a", args])
        assert rc == 3
        assert capsys.readouterr().out == "trial 0: FAILED (not restored " \
            "within tolerance), max deviation nan\n"

    def test_check_trials_json(self, asset, capsys):
        rc = main(["check", asset("multiplier"), "-f", "multiplier",
                   "-a", "1.0,2.0,3.0", "--trials", "4", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["ok"] is True and len(d["trials"]) == 4

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "syntax.rnl"
        bad.write_text("fn f(\n")
        rc = main(["run", str(bad), "-f", "f", "-a", "1"])
        assert rc == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["\u00b2", "\u0663"])
    def test_non_ascii_digit_exit_code(self, tmp_path, capsys, literal):
        bad = tmp_path / "digit.rnl"
        bad.write_text(f"fn f(y)\ny += {literal}\nend\n", encoding="utf-8")
        rc = main(["run", str(bad), "-f", "f", "-a", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unexpected character" in err and "Traceback" not in err

    def test_allocation_in_compute_loop_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "loop.rnl"
        bad.write_text("fn f(y)\n@routine begin\nfor i = 1:2\nn <- 0.0\n"
                       "end\nend\n~@routine\nend\n")
        rc = main(["run", str(bad), "-f", "f", "-a", "1.0"])
        assert rc == 2
        assert "UnbalancedAncilla" in capsys.readouterr().err

    def test_invcheckoff_routine_commands_agree(self, tmp_path, capsys):
        f = tmp_path / "ico.rnl"
        f.write_text("fn f(y!, x)\n@invcheckoff @routine begin\nn <- 0.0\n"
                     "n += abs(x)\nend\ny! += n\n~@routine\nend\n")
        assert main(["run", str(f), "-f", "f", "-a", "1.0,-2.0"]) == 0
        assert json.loads(capsys.readouterr().out)["args"] == [3.0, -2.0]
        assert main(["check", str(f), "-f", "f", "-a", "1.0,-2.0"]) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["invert", str(f)]) == 0
        assert "y! -= n" in capsys.readouterr().out

    def test_instruction_arity_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "arity.rnl"
        bad.write_text("fn f(x, a, b)\nx += sin(a, b)\nend\n")
        rc = main(["run", str(bad), "-f", "f", "-a", "0.0,1.0,2.0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ArityMismatch" in err and "Traceback" not in err

    def test_expression_arity_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "arity.rnl"
        bad.write_text("fn f(y, a, b)\nn <- sqrt(a, b)\nn -> 0.0\nend\n")
        rc = main(["check", str(bad), "-f", "f", "-a", "0.0,4.0,1.0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ArityMismatch" in err and "Traceback" not in err

    @pytest.mark.parametrize("body, args, error", [
        ("y += mod(a, b)", "0.0,5,0", "RevDomainError"),
        ("y += sqrt(a)", "0.0,1+2im,0", "KindError"),
        ("y += identity(a)", "0.0,1+2im,0", "KindError"),
        ("n <- a ^ b\nn -> a ^ b", "0.0,-8.0,0.5", "RevDomainError"),
        ("y += exp(a)", "0.0,1000.0,0", "RevDomainError"),
        ("n <- 0\nn -> false", "0,0,0", "DirtyAncilla"),
    ])
    def test_value_errors_exit_code(self, tmp_path, capsys, body, args,
                                    error):
        bad = tmp_path / "bad.rnl"
        bad.write_text(f"fn f(y, a, b)\n{body}\nend\n")
        rc = main(["run", str(bad), "-f", "f", f"--args={args}"])
        assert rc == 3
        err = capsys.readouterr().err
        assert error in err and "Traceback" not in err
        rc = main(["check", str(bad), "-f", "f", f"--args={args}"])
        assert rc == 3
        assert error in capsys.readouterr().out

    def test_mul_assign_arity_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "mul.rnl"
        bad.write_text("fn f(y, a, b)\ny *= mul(a, b)\nend\n")
        rc = main(["run", str(bad), "-f", "f", "-a", "1.0ul,2.0,3.0"])
        assert rc == 2
        assert "ArityMismatch" in capsys.readouterr().err

    def test_invert_unknown_function_exit_code(self, asset, capsys):
        rc = main(["invert", asset("multiplier"), "-f", "nope"])
        assert rc == 3
        assert "UnknownFunction" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "dirty.rnl"
        bad.write_text("fn f(x)\nn <- 0.0\nn += x\nn -> 0.0\nend\n")
        rc = main(["run", str(bad), "-f", "f", "-a", "1.0"])
        assert rc == 3
        assert "DirtyAncilla" in capsys.readouterr().err

    def test_nan_ancilla_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "nan.rnl"
        bad.write_text("fn f(y, x)\nn <- 0.0\nn += sqrt(x)\ny += n\n"
                       "n -= sqrt(x)\nn -> 0.0\nend\n")
        rc = main(["run", str(bad), "-f", "f", "-a", "0.0,inf"])
        assert rc == 3
        assert "DirtyAncilla" in capsys.readouterr().err

    def test_infinite_ancilla_releases(self, tmp_path, capsys):
        f = tmp_path / "inf.rnl"
        f.write_text("fn f(y, x)\nn <- x\nn -> x\nend\n")
        for value in ("inf", "-inf"):
            rc = main(["run", str(f), "-f", "f", f"--args=0.0,{value}"])
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["args"][0] == 0.0
            rc = main(["check", str(f), "-f", "f", f"--args=0.0,{value}",
                       "--json"])
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["ok"] is True
        rc = main(["run", str(f), "-f", "f", "--args=0.0,nan"])
        assert rc == 3
        assert "DirtyAncilla" in capsys.readouterr().err

    def test_complex_min_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "min.rnl"
        bad.write_text("fn f(y, a, b)\nif (min(a, b) == a, ~)\ny += 1.0\n"
                       "end\nend\n")
        rc = main(["run", str(bad), "-f", "f", "--args=0.0,1+2im,3+1im"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "KindError" in err and "Traceback" not in err

    def test_hessian_without_partials_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "mod.rnl"
        bad.write_text("fn f(y, a, b)\ny += mod(a, b)\nend\n")
        rc = main(["hessian", str(bad), "-f", "f", "--args=0.0,5.0,3.0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "MissingAdjoint" in err and "Traceback" not in err

    def test_fixed_ancilla_kind_mismatch_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "fixed.rnl"
        bad.write_text("fn f(x)\nn <- fixed(0.0)\nn -> 0.0\nend\n")
        rc = main(["run", str(bad), "-f", "f", "-a", "1.0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "DirtyAncilla" in err and "Traceback" not in err

    def test_deep_recursion_exit_code(self, tmp_path, capsys):
        deep = tmp_path / "deep.rnl"
        deep.write_text("fn down(n, k)\nif (k > 0, ~)\nn += 1\n"
                        "down(n, k |> addconst(-1))\nend\nend\n")
        rc = main(["run", str(deep), "-f", "down", "-a", "0,3000"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "FuelExhausted" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "-f", "f", "--args=0.0,1.5"],
         "KindError: f takes 3 arguments, got 2"),
        (["hessian", "-f", "f", "--args=0.0,1.5"],
         "KindError: f takes 3 arguments, got 2"),
        (["run", "-f", "zz", "--args=0.0,1.5,2.0"],
         "UnknownFunction: no function named 'zz'"),
        (["grad", "-f", "f", "--args=0.0,1.5,2.0", "--seed", "q"],
         "KindError: seed names unknown parameter 'q'"),
    ])
    def test_error_without_a_location_prints_none(self, tmp_path, capsys,
                                                  argv, message):
        f = tmp_path / "a.rnl"
        f.write_text("fn f(y, a, b)\ny += a * b\nend\n")
        rc = main([argv[0], str(f), *argv[1:]])
        assert rc == 3
        assert capsys.readouterr().err == message + "\n"

    def test_restore_failure_names_function_and_parameter(self, tmp_path,
                                                          capsys):
        f = tmp_path / "a.rnl"
        f.write_text("fn g(x)\nx += 1.0\nend\n\nfn f(y, a, b)\n"
                     "y += a * b\nend\n")
        rc = main(["grad", str(f), "-f", "f", "--args=0.0,nan,2.0"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"RevError at {f}:5:1: backward pass failed to restore the "
            f"primal value of 'y'\n")

    def test_no_invcheck_flag(self, tmp_path, capsys):
        bad = tmp_path / "dirty.rnl"
        bad.write_text("fn f(x)\nn <- 0.0\nn += x\nn -> 0.0\nend\n")
        rc = main(["run", str(bad), "-f", "f", "-a", "1.0", "--no-invcheck"])
        assert rc == 0

    def test_bench_bennett_golden(self, capsys):
        rc = main(["bench", "bennett", "-k", "4", "-n", "4"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["measured"]["total_steps"] == 2401
        assert d["measured"]["peak_states"] == 14
        assert d["analytic"] == {"total_steps": 2401, "peak_states": 14}

    def test_bench_treeverse_golden(self, capsys):
        rc = main(["bench", "treeverse", "-T", "20", "-d", "3"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["measured"]["snapshots_peak"] <= 3
        assert d["measured"]["forward_steps"] <= d["analytic"]["forward_bound"]

    def test_roundoff_csv_header(self, capsys):
        rc = main(["roundoff", "--steps", "10", "--precision", "64"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "steps,error_clean,error_cumulative,precision"
        assert lines[1].startswith("10,")

    def test_roundoff_negative_steps_prints_nothing(self, capsys):
        """The rows are computed before the header is printed, so a
        rejected step count leaves stdout empty."""
        rc = main(["roundoff", "--steps", "-5"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "steps must be non-negative\n"

    @pytest.mark.parametrize("k, n, message", [
        ("2", "-1", "ScheduleError: need n >= 0, got -1\n"),
        ("3", "-2", "ScheduleError: need n >= 0, got -2\n"),
        ("1", "-1", "InvalidPartition: need k >= 2, got 1\n"),
    ], ids=["n=-1", "n=-2", "k=1"])
    def test_bench_bennett_rejects_its_parameters(self, capsys, k, n,
                                                  message):
        """A negative n is rejected by name (it made the chain length
        k ** n a fraction), as a k below 2 is: exit 3, nothing on
        stdout."""
        rc = main(["bench", "bennett", "-k", k, "-n", n])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == "" and captured.err == message


def _strict(out):
    """`out` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise AssertionError(f"non-strict JSON token {token} in {out!r}")
    return json.loads(out, parse_constant=reject)


class TestStrictJson:
    """A non-finite float prints as the literal `parse_value` reads back,
    so every JSON output parses strictly; finite floats keep their text."""

    CASES = [
        (["run", "fn f(y, a)\ny += a[2]\nend\n", "-a", "0.0,[1.0,nan]"], 0,
         {"args": ["nan", [1.0, "nan"]]}),
        (["run", "fn f(y, a)\ny += a[2]\nend\n", "-a", "0.0,[-inf,1.5]"],
         0, {"args": [1.5, ["-inf", 1.5]]}),
        (["grad", "fn f(y, a, b)\ny += a * b\nend\n", "-a", "0.0,1.0,2.0",
          "--seed", "y=inf"], 0,
         {"grads": {"a": "inf", "b": "inf", "y": "inf"},
          "primal": [2.0, 1.0, 2.0]}),
        (["grad", "fn f(y, a, b)\ny += a * b\nend\n", "-a", "0.0,1.0,2.0",
          "--seed", "y=nan"], 0,
         {"grads": {"a": "nan", "b": "nan", "y": "nan"},
          "primal": [2.0, 1.0, 2.0]}),
        # sqrt's second derivative overflows at a subnormal x
        (["hessian", "fn f(y, x)\ny += sqrt(x)\nend\n", "-a", "0.0,1e-320"],
         0, {"hessian": [[0.0, 0.0], [0.0, "-inf"]],
             "symmetry_error": "nan"}),
        (["check", "fn f(a, b)\na += 1.0\nend\n", "-a", "1.0,nan",
          "--json"], 3, {"max_deviation": "nan",
                         "per_arg_deviation": [0.0, "nan"]}),
        # a trial that raises reports an infinite deviation
        (["check", "fn f(x)\nn <- 0.0\nn += x\nn -> 0.0\nend\n", "-a",
          "1.0", "--json"], 3, {"max_deviation": "inf",
                                "per_arg_deviation": None}),
    ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv, rc, want", CASES)
    def test_non_finite_floats_print_as_literals(self, tmp_path, capsys,
                                                 argv, rc, want):
        f = tmp_path / "a.rnl"
        f.write_text(argv[1])
        assert main([argv[0], str(f), "-f", "f", *argv[2:]]) == rc
        got = _strict(capsys.readouterr().out)
        if argv[0] == "check":
            got = got["trials"][0]
            want = {**want, "ok": False}
            got = {k: got[k] for k in want}
        assert got == want

    def test_the_literals_read_back(self):
        for text in ("nan", "inf", "-inf"):
            assert parse_value(text) == float(text) or \
                math.isnan(parse_value(text))

    def test_finite_outputs_keep_their_text(self, asset, capsys):
        for argv in (["run", asset("multiplier"), "-f", "multiplier", "-a",
                      "0.1,3.0,5.0"],
                     ["hessian", asset("r_norm"), "-f", "r_norm", "-a",
                      "0.0,0.0,[0.3,-0.4]"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert json.dumps(_strict(out), sort_keys=True) + "\n" == out


class TestLiteralsTheirKindCannotHold:
    """A literal that its kind cannot hold is a typed error: a usage error
    on the command line, a syntax error in a program, a RevDomainError at
    run time."""

    @pytest.mark.parametrize("literal, message", [
        ("inffx", "fixed point cannot hold inf"),
        ("1e400fx", "fixed point cannot hold inf"),
        ("0ul", "logarithmic numbers are positive; got 0.0"),
        ("-1ul", "logarithmic numbers are positive; got -1.0"),
    ])
    def test_cli_literal_is_a_usage_error(self, tmp_path, capsys, literal,
                                          message):
        with pytest.raises(ValueError, match="bad value literal"):
            parse_value(literal)
        f = tmp_path / "a.rnl"
        f.write_text("fn f(y, x)\ny += x\nend\n")
        rc = main(["run", str(f), "-f", "f", f"--args={literal},1"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"bad value literal {literal!r}: {message}\n"

    def test_program_literal_is_a_syntax_error(self, tmp_path, capsys):
        f = tmp_path / "a.rnl"
        f.write_text("fn f(y)\ny += 1e400fx\nend\n")
        rc = main(["run", str(f), "-f", "f", "-a", "0fx"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"RnlSyntaxError at {f}:2:6: fixed-point literal '1e400fx' is "
            f"out of range\n")

    def test_infinite_seed_of_a_fixed_output(self, tmp_path, capsys):
        f = tmp_path / "a.rnl"
        f.write_text("fn f(y, x)\ny += x\nend\n")
        rc = main(["grad", str(f), "-f", "f", "-a", "0fx,1.5fx",
                   "--seed", "y=inf"])
        assert rc == 3
        assert capsys.readouterr().err == \
            "RevDomainError: fixed point cannot hold inf\n"

    @pytest.mark.parametrize("x", ["1e400", "nan"])
    def test_runtime_fixed_keeps_its_domain_error(self, tmp_path, capsys, x):
        f = tmp_path / "a.rnl"
        f.write_text("fn f(y, x)\nt <- fixed(x)\ny += t\ny -= t\n"
                     "t -> fixed(x)\nend\n")
        rc = main(["run", str(f), "-f", "f", f"--args=0fx,{x}"])
        assert rc == 3
        expected = "inf" if x == "1e400" else "nan"
        assert capsys.readouterr().err == (
            f"RevDomainError at {f}:2:1: fixed point cannot hold "
            f"{expected}\n")


@pytest.mark.parametrize("cmd", ["grad", "hessian"])
@pytest.mark.parametrize("bij", ["neg", "addconst(1.5)", "mulconst(2)"])
@pytest.mark.parametrize("stmt", ["y += x |> {}", "x |> {} += y"])
def test_bijector_view_in_a_gradient_pass(tmp_path, capsys, cmd, bij, stmt):
    """A bijector has no gradient rule: a gradient or Hessian pass that
    reaches one, read or written, ends in MissingAdjoint (exit 3)."""
    f = tmp_path / "a.rnl"
    f.write_text(f"fn f(y, x)\n{stmt.format(bij)}\nend\n")
    rc = main([cmd, str(f), "-f", "f", "-a", "0.5,1.5"])
    assert rc == 3
    name = bij.split("(")[0]
    assert capsys.readouterr().err == (
        f"MissingAdjoint at {f}:2:1: no gradient rule for bijector "
        f"{name!r}\n")


@pytest.mark.parametrize("cmd", ["run", "grad", "check"])
@pytest.mark.parametrize("bij", ["neg", "addconst(1.5)", "mulconst(2)"])
@pytest.mark.parametrize("stmt", ["y += x |> {}", "x |> {} += y"])
@pytest.mark.parametrize("x, kind", [("true", "bool"), ("2.0ul", "ulog"),
                                     ("1+2im", "complex"),
                                     ("[1.0,2.0]", "array")])
def test_bijector_view_of_a_kind_it_cannot_hold(tmp_path, capsys, cmd, bij,
                                                 stmt, x, kind):
    """A bijector views Int, Float and fixed-point values only: any other
    kind, read or written, ends in KindError (exit 3), never in a
    traceback."""
    f = tmp_path / "a.rnl"
    f.write_text(f"fn f(y, x)\n{stmt.format(bij)}\nend\n")
    rc = main([cmd, str(f), "-f", "f", f"--args=0.5,{x}"])
    assert rc == 3
    out = capsys.readouterr()
    error = (f"KindError at {f}:2:1: bijector {bij.split('(')[0]!r} "
             f"cannot view {kind}")
    if cmd == "check":
        assert out.out == f"trial 0: FAILED ({error}), max deviation inf\n"
    else:
        assert out.err == error + "\n"


@pytest.mark.parametrize("cmd", ["run", "check", "grad"])
@pytest.mark.parametrize("prim", ["ROT", "IROT"])
@pytest.mark.parametrize("cells, kind", [
    ("1,2", "int"), ("true,false", "bool"), ("1fx,2fx", "fixed"),
    ("1ul,2ul", "ulog")])
def test_rotation_of_a_cell_that_is_not_float(tmp_path, capsys, cmd, prim,
                                              cells, kind):
    """ROT and IROT turn Float cells only: an Int, Bool, fixed-point or
    logarithmic cell ends in KindError (exit 3), never in a silent change
    of kind or a traceback."""
    f = tmp_path / "rot.rnl"
    f.write_text(f"fn f(a, b, t)\n{prim}(a, b, t)\nend\n")
    rc = main([cmd, str(f), "-f", "f", "-a", f"{cells},0.5"])
    assert rc == 3
    out = capsys.readouterr()
    error = f"KindError at {f}:2:1: {prim} on {kind}"
    if cmd == "check":
        assert out.out == f"trial 0: FAILED ({error}), max deviation inf\n"
    else:
        assert out.err == error + "\n"
    assert "Traceback" not in out.out + out.err


def test_a_bijector_write_back_keeps_an_int_cell(tmp_path, capsys):
    """An Int cell under a bijector stays an Int: an integral write-back
    is an Int, any other a KindError (exit 3)."""
    f = tmp_path / "g.rnl"
    f.write_text("fn g(x, y)\nx |> addconst(1.5) += identity(y)\nend\n")
    assert main(["run", str(f), "-f", "g", "--args=1,1"]) == 0
    assert capsys.readouterr().out == '{"args": [2, 1]}\n'
    assert main(["run", str(f), "-f", "g", "--args=1,1.5"]) == 3
    assert capsys.readouterr().err == \
        f"KindError at {f}:2:1: Int target updated with non-integer 2.5\n"


def test_a_release_gap_beyond_the_float_range_is_dirty(tmp_path, capsys):
    """An Int ancilla too large for a float, released against a Float,
    has an inf residual (it was a RevDomainError from the overflow)."""
    f = tmp_path / "f.rnl"
    f.write_text("fn f(y, x)\nn <- x\ny += n\nn -> 0.5\nend\n")
    assert main(["run", str(f), "-f", "f", f"--args=0,{10**400}"]) == 3
    assert capsys.readouterr().err == \
        f"DirtyAncilla at {f}:4:1: 'n' released with residual inf\n"


class TestNestingLimit:
    """A statement may nest MAX_STMT_NESTING levels deep and an expression
    MAX_EXPR_NESTING; one level more is a syntax error at the token that
    passes the limit."""

    EXPRS = {"parentheses": lambda n: "(" * (n - 1) + "x" + ")" * (n - 1),
             "unary minus": lambda n: "-" * (n - 1) + "x",
             "sum": lambda n: "x" + " + x" * (n - 1),
             "power": lambda n: "x ^ " * (n - 1) + "1.0",
             "call": lambda n: "abs(" * (n - 1) + "x" + ")" * (n - 1),
             # two parentheses a level as lowered
             "and": lambda n: "true" + " && true" * (n - 1),
             "or": lambda n: "false" + " || false" * (n - 1)}
    BLOCKS = {"if": ("if (x > 0.0, ~)", "end"),
              "for": ("for i{k} = 1:1", "end"),
              "while": ("while (y < 0.0, y < 0.0)", "end"),
              "begin": ("begin", "end")}

    def program(self, tmp_path, depth, block, expr):
        # `depth` statements deep, the innermost ones holding `expr`
        head, tail = self.BLOCKS[block]
        lines = ["fn f(y, x)", *[head.format(k=k) for k in range(depth - 1)],
                 f"n <- {expr}",
                 "y += x", f"n -> {expr}", *[tail] * (depth - 1), "end"]
        f = tmp_path / "deep.rnl"
        f.write_text("\n".join(lines) + "\n")
        return str(f)

    @pytest.mark.parametrize("block", sorted(BLOCKS))
    @pytest.mark.parametrize("expr", sorted(EXPRS))
    def test_a_program_at_the_limit_runs(self, tmp_path, capsys, block, expr):
        path = self.program(tmp_path, MAX_STMT_NESTING, block,
                            self.EXPRS[expr](MAX_EXPR_NESTING))
        for argv in (["run", path, "-f", "f", "-a", "0.0,1.0"],
                     ["check", path, "-f", "f", "-a", "0.0,1.0"],
                     ["invert", path]):
            assert main(argv) == 0, capsys.readouterr().err
        capsys.readouterr()

    @pytest.mark.parametrize("block", sorted(BLOCKS))
    def test_a_statement_past_the_limit_is_a_syntax_error(
            self, tmp_path, capsys, block):
        path = self.program(tmp_path, MAX_STMT_NESTING + 1, block, "x")
        for cmd in ("run", "check", "invert"):
            argv = [cmd, path] + (["-f", "f", "-a", "0.0,1.0"]
                                  if cmd != "invert" else [])
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"deep.rnl:{MAX_STMT_NESTING + 2}:1: statement nested " \
                   f"deeper than {MAX_STMT_NESTING} levels" in err

    @pytest.mark.parametrize("expr, col", [
        ("parentheses", MAX_EXPR_NESTING + 6),
        ("unary minus", MAX_EXPR_NESTING + 6),
        ("sum", 4 * MAX_EXPR_NESTING + 4), ("power", 4 * MAX_EXPR_NESTING + 6),
        ("call", 4 * MAX_EXPR_NESTING + 6), ("and", 8 * MAX_EXPR_NESTING + 3),
        ("or", 9 * MAX_EXPR_NESTING + 3)])
    def test_an_expression_past_the_limit_is_a_syntax_error(
            self, tmp_path, capsys, expr, col):
        path = self.program(tmp_path, 1, "if",
                            self.EXPRS[expr](MAX_EXPR_NESTING + 1))
        for cmd in ("run", "check", "invert"):
            argv = [cmd, path] + (["-f", "f", "-a", "0.0,1.0"]
                                  if cmd != "invert" else [])
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"deep.rnl:2:{col}: expression nested deeper than " \
                   f"{MAX_EXPR_NESTING} levels" in err

    def test_nested_index_reads_at_the_limit(self, tmp_path, capsys):
        # an index inside an index fails validation; an index of an index
        # lowers (two parentheses a level with Float indices) and fails on
        # its Float index when run
        f, n = tmp_path / "deep.rnl", MAX_EXPR_NESTING
        for read, code, msg in (
                ("a[" * (n - 1) + "1" + "]" * (n - 1), 2, "[NonAffineIndex]"),
                ("a" + "[x]" * (n - 1), 3, "array index must be an Int")):
            f.write_text(f"fn f(y, x, a)\nn <- {read}\ny += x\nn -> {read}\n"
                         f"end\n")
            for cmd in ("run", "check", "grad"):
                assert main([cmd, str(f), "-f", "f", "-a",
                             "0.0,1.0,[1.0]"]) == code
                out = capsys.readouterr()
                assert msg in out.out + out.err

    def test_a_macro_opens_a_level(self, tmp_path, capsys):
        f = tmp_path / "deep.rnl"
        for depth, code in ((MAX_STMT_NESTING, 0), (MAX_STMT_NESTING + 1, 2)):
            f.write_text("fn f(y, x)\n" + "@invcheckoff " * (depth - 1)
                         + "y += x\nend\n")
            assert main(["check", str(f), "-f", "f", "-a", "0.0,1.0"]) == code
        col = len("@invcheckoff ") * MAX_STMT_NESTING + 1
        assert f"deep.rnl:2:{col}: statement nested deeper" in \
            capsys.readouterr().err

    def test_thousands_of_levels_are_a_syntax_error(self, tmp_path, capsys):
        for expr in self.EXPRS.values():
            path = self.program(tmp_path, 1, "if", expr(3000))
            assert main(["invert", path]) == 2
        path = self.program(tmp_path, 300, "if", "x")
        assert main(["invert", path]) == 2
        assert "nested deeper" in capsys.readouterr().err


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    # a file saved with a UTF-8 BOM runs as the same file without one, and
    # every span is the same
    text = "fn f(y, x)\n    y += x\nend\nfn g(y, x)\n    y += q\nend\n"
    outputs = []
    for name, data in (("plain", text.encode()),
                       ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).mkdir()
        f = tmp_path / name / "p.rnl"
        f.write_bytes(data)
        runs = [main(["run", str(f), "-f", "f", "-a", "1.0,2.0"]),
                main(["run", str(f), "-f", "g", "-a", "1.0,2.0"]),
                main(["invert", str(f)])]
        out = capsys.readouterr()
        outputs.append((runs, out.out, out.err.replace(str(f), "p.rnl")))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == [0, 3, 0]
    assert "p.rnl:5:" in outputs[0][2]


class TestMaxSteps:
    """`--max-steps N` sets the statement budget (`ExecOptions.max_steps`)
    of `run`, `check`, `grad` and `hessian`."""

    LEAPFROG = "[[0.0,0.0,0.0],[1.0,0.0,0.0]],[[0.0,0.0,0.0],[0.0,1.0,0.0]]," \
               "[1.0,1.0],1.0,0.01,2"

    @staticmethod
    def output(capsys):
        captured = capsys.readouterr()
        return captured.out + captured.err

    @pytest.mark.parametrize("command", ["run", "check", "grad"])
    def test_a_budget_stops_a_long_loop(self, asset, capsys, command):
        """`mypower` at n = 10^20 takes 10^20 loop trips, far past the
        default budget; 1,000 steps stop it in its loop."""
        assert main([command, asset("mypower_log"), "-f", "mypower", "-a",
                     "0.0fx,2.0fx,100000000000000000000",
                     "--max-steps", "1000"]) == 3
        assert "FuelExhausted at " in self.output(capsys)

    @pytest.mark.parametrize("command", ["run", "check", "grad", "hessian"])
    def test_a_budget_runs_out_inside_an_inlined_callee(
            self, asset, capsys, monkeypatch, command):
        """`kick_pair_clean`, called at one site, runs inlined in
        `kick_clean`: the budget runs out at its statement (`d +=
        abs2(r3)`) as it does when the call stays a call."""
        argv = [command, asset("leapfrog_clean"), "-f", "leapfrog_clean",
                "-a", self.LEAPFROG, "--max-steps", "40"]
        assert main(argv) == 3
        out = self.output(capsys)
        assert "FuelExhausted at " in out and \
            "leapfrog.rnl:34:9: exceeded 40 statement executions" in out
        keep_calls(monkeypatch)
        assert main(argv) == 3 and self.output(capsys) == out

    @pytest.mark.parametrize("command", ["run", "check", "grad", "hessian"])
    @pytest.mark.parametrize("budget", ["0", "-5", "x", "1.5"])
    def test_a_bad_budget_is_a_usage_error(self, asset, capsys, command,
                                           budget):
        assert main([command, asset("multiplier"), "-f", "multiplier", "-a",
                     "2.0,3.0,5.0", f"--max-steps={budget}"]) == 1
        assert "Traceback" not in self.output(capsys)
