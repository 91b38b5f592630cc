import json

import pytest

from revlang.cli import encode_value, main, parse_value, split_args
from revlang.parser import parse_program
from revlang.reverser import invert_function
from revlang.values import Array, Complex, Fixed, ULog


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

    def test_split_honors_brackets(self):
        assert split_args("[1,2],3,[4,5]") == ["[1,2]", "3", "[4,5]"]

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
