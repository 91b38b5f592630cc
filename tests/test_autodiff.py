import math
import random
import zlib

import numpy as np
import pytest

from revlang.autodiff import (GradRequest, finite_difference, get_leaf,
                              gradient, hessian, jacobian, leaf_paths,
                              set_leaf)
from revlang import interpreter
from revlang.errors import (AliasedArguments, KindError, MissingAdjoint,
                            RevDomainError, RevError)
from revlang.interpreter import ExecOptions, Interpreter
from revlang.parser import parse_program
from revlang.stdlib import (CATALOG, asset_text, entry_function, load_example,
                            sample_args)
from revlang.values import (Array, Complex, Dual, Fixed, deep_copy,
                            deviation, to_real)

from hessian_oracle import hessian_by_columns, outcome, same_outcome


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-12)


class TestGradient:
    def test_multiplier_product_rule(self):
        p = load_example("multiplier")
        primal, g = gradient(p, GradRequest("multiplier", [0.0, 3.0, 5.0]))
        assert primal == [15.0, 3.0, 5.0]
        assert g["a"] == 5.0 and g["b"] == 3.0 and g["y!"] == 1.0

    def test_r_norm_analytic(self):
        rng = random.Random(2)
        p = load_example("r_norm")
        x = Array.vector([rng.uniform(-1, 1) for _ in range(1000)])
        _, g = gradient(p, GradRequest("r_norm", [0.0, 0.0, x]))
        nrm = math.sqrt(sum(v * v for v in x.data))
        worst = max(abs(gv - xv / nrm) for gv, xv in zip(g["x"].data, x.data))
        assert worst <= 1e-9

    def test_complex_log_vs_finite_differences(self):
        p = load_example("complex_log")
        args = [Complex(0.0, 0.0), Complex(1.0, 1.2)]
        for comp in ("re", "im"):
            seeds = [("y!", (("field", comp),), 1.0)]
            _, g = gradient(p, GradRequest("complex_log", args, seeds=seeds))
            fd = finite_difference(p, "complex_log", args, 1e-6, seeds=seeds)
            assert rel_err(to_real(g["x"].re), to_real(fd["x"].re)) < 1e-5
            assert rel_err(to_real(g["x"].im), to_real(fd["x"].im)) < 1e-5

    def test_integer_components_have_no_gradient(self):
        p = load_example("mypower_log")
        args = [Fixed.from_real(0), Fixed.from_real(1.5), 4]
        _, g = gradient(p, GradRequest("mypower", args))
        assert g["n"] is None

    def test_gradient_mode_rejects_shared_reads(self):
        p = parse_program("fn f(y, x)\ny += x * x\nend")
        with pytest.raises(AliasedArguments):
            gradient(p, GradRequest("f", [0.0, 3.0]))
        p2 = parse_program("fn f(y, x)\ny += x ^ 2\nend")
        _, g = gradient(p2, GradRequest("f", [0.0, 3.0]))
        assert g["x"] == 6.0

    def test_int_arguments_run_a_plain_pass(self):
        # no argument carries a GVar leaf, so nothing can reach a gradient:
        # the backward pass is a plain uncall and accepts the shared read
        p = parse_program("fn f(y, x)\ny += x * x\nend")
        out, g = gradient(p, GradRequest("f", [0, 3], seeds=[]))
        assert out == [9, 3] and g == {"y": None, "x": None}

    def test_primal_restoration_enforced(self):
        p = load_example("i_affine")
        args = sample_args("i_affine", random.Random(3))
        primal, g = gradient(p, GradRequest("i_affine", args,
                                            seeds=[("y!", (("idx", (1,)),), 1.0)]))
        # args untouched by the call
        assert args[1].data == sample_args("i_affine", random.Random(3))[1].data

    def test_explicit_wrt(self):
        p = load_example("multiplier")
        _, g = gradient(p, GradRequest("multiplier", [0.0, 3.0, 5.0],
                                       wrt=["a"]))
        assert list(g) == ["a"]

    def test_an_ancilla_carries_its_cotangent_to_its_initialiser(self):
        """A release in the backward pass undoes an allocation, so the
        ancilla's cotangent reaches the variables its initial value read,
        through nested operands too: `gradient` equals finite differences
        here, and the Hessian of `y + 2 p(x)` is 2 p''(x). (Found by
        `called_programs` once its entry bodies opened with two updates:
        `p <- x` gave 0.0 in `x` while the ancilla's cotangent was dropped
        at its release.)"""
        x = 1.5
        for init, d1, d2 in (
                ("x", 2.0, 0.0), ("x * x", 4 * x, 4.0),
                ("sin(x) * 2.0", 4 * math.cos(x), -4 * math.sin(x)),
                ("sin(x * x)", 4 * x * math.cos(x * x),
                 4 * math.cos(x * x) - 8 * x * x * math.sin(x * x))):
            p = parse_program(f"fn f(y, x)\np <- {init}\ny += p * 2.0\n"
                              f"p -> {init}\nend")
            _, g = gradient(p, GradRequest("f", [0.5, x]))
            assert g["y"] == 1.0 and g["x"] == pytest.approx(d1, rel=1e-12)
            fd = finite_difference(p, "f", [0.5, x], 1e-6)
            assert fd["x"] == pytest.approx(d1, rel=1e-6)
            H = hessian(p, "f", [0.5, x]).matrix
            assert H[1, 1] == pytest.approx(d2, rel=1e-12)
            assert H[0].tolist() == [0.0, 0.0]

    def test_an_ancilla_cotangent_without_a_rule_raises(self):
        """An expression-only function has no gradient rule, so a release
        whose cotangent would pass through one raises MissingAdjoint
        rather than drop it; an Int initialiser carries none."""
        p = parse_program("fn f(y, x)\np <- max(x, 0.0)\ny += p\n"
                          "p -> max(x, 0.0)\nend")
        with pytest.raises(MissingAdjoint):
            gradient(p, GradRequest("f", [0.5, 1.5]))
        p = parse_program("fn f(y, x, n)\nk <- n + 1\ny += x * 2.0\n"
                          "k -> n + 1\nend")
        assert gradient(p, GradRequest("f", [0.5, 1.5, 2]))[1] == {
            "y": 1.0, "x": 2.0, "n": None}


class TestJacobian:
    def test_multiplier_rows(self):
        p = load_example("multiplier")
        J = jacobian(p, "multiplier", [0.0, 3.0, 5.0])
        assert np.allclose(J, [[1, 5, 3], [0, 1, 0], [0, 0, 1]])

    def test_swap_permutation(self):
        p = parse_program("fn f(a, b)\nSWAP(a, b)\nend")
        J = jacobian(p, "f", [1.0, 2.0])
        assert np.array_equal(J, [[0, 1], [1, 0]])

    def test_i_affine_blocks_vs_fd(self):
        rng = random.Random(4)
        p = load_example("i_affine")
        args = sample_args("i_affine", rng)
        n = args[0].shape[0]
        J = jacobian(p, "i_affine", args)
        # finite differences over every output row
        names = ["y!", "w", "b", "x"]
        for row, (pname, path) in enumerate(
                (pn, pth) for pn, arg in zip(names, args)
                for pth in leaf_paths(arg)):
            if pname != "y!":
                break
            fd = finite_difference(p, "i_affine", args, 1e-6,
                                   seeds=[(pname, path, 1.0)])
            flat = []
            for nm, arg in zip(names, args):
                g = fd[nm]
                for pth in leaf_paths(arg):
                    flat.append(float(to_real(get_leaf(g, pth))))
            assert np.allclose(J[row], flat, rtol=1e-5, atol=1e-7)


    @pytest.mark.parametrize("seed", [3, 11])
    def test_a_jacobian_reaches_the_typed_body_in_either_order(self, seed):
        """One Program serves a Jacobian, whose gradient passes carry
        binary64 GVars that pass the gradient guard, and a Hessian, whose
        GVars hold Duals and fail it. A failed guard fixes no body: in
        either order the Jacobian's passes reach the specialised (typed)
        body, which only a passing call lowers here, and both results are
        the same bits."""
        args = sample_args("r_norm", random.Random(seed))

        def run(order):
            p, out = load_example("r_norm"), {}
            for kind in order:
                out[kind] = (jacobian(p, "r_norm", deep_copy(args))
                             if kind == "jacobian" else
                             hessian(p, "r_norm", deep_copy(args)).matrix)
            unit = Interpreter(p).unit.gradient
            assert "G" in unit.want("~r_norm")
            assert "~r_norm" in unit.bodies and "~r_norm" in unit.generic
            return {k: v.tobytes() for k, v in out.items()}
        assert run(["jacobian", "hessian"]) == run(["hessian", "jacobian"])


# a NaN or inf that numpy makes quietly, where a float's division raises,
# fails these tests
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHessian:
    def test_bilinear(self):
        p = parse_program("fn f(y, a, b)\ny += a * b\nend")
        res = hessian(p, "f", [0.0, 3.0, 5.0])
        want = np.zeros((3, 3))
        want[1, 2] = want[2, 1] = 1.0
        assert np.allclose(res.matrix, want, atol=1e-9)
        assert res.symmetry_error <= 1e-9

    def test_square(self):
        p = parse_program("fn f(y, x)\ny += x ^ 2\nend")
        res = hessian(p, "f", [0.0, 2.0])
        assert res.matrix[1, 1] == pytest.approx(2.0)

    def test_norm_hessian_analytic(self):
        rng = random.Random(5)
        p = load_example("r_norm")
        x = Array.vector([rng.uniform(-1, 1) for _ in range(10)])
        res = hessian(p, "r_norm", [0.0, 0.0, x])
        xs = np.array(x.data)
        nrm = float(np.linalg.norm(xs))
        xh = xs / nrm
        want = (np.eye(10) - np.outer(xh, xh)) / nrm
        assert np.max(np.abs(res.matrix[2:, 2:] - want)) <= 1e-6
        assert res.symmetry_error <= 1e-6

    @pytest.mark.parametrize("name", CATALOG)
    def test_one_pass_equals_the_per_column_oracle(self, name):
        """Bit for bit (NaN as NaN), or the same error at the same span
        (an entry with Complex or ULog inputs has no Hessian)."""
        p, fname = load_example(name), entry_function(name)
        for seed in range(3):
            args = sample_args(name, random.Random(seed))
            assert same_outcome(outcome(hessian, p, fname, args),
                                outcome(hessian_by_columns, p, fname, args))

    def test_r_norm_at_the_origin_raises_at_its_sqrt(self):
        """With the error, and so the CLI's message, of the first column."""
        p = load_example("r_norm")
        args = [0.0, 0.0, Array.vector([0.0, 0.0, 0.0])]
        errors = []
        for f in (hessian, hessian_by_columns):
            with pytest.raises(RevDomainError) as err:
                f(p, "r_norm", args)
            errors.append(str(err.value))
        assert errors == ["RevDomainError at r_norm.rnl:7:5: float "
                          "division by zero"] * 2

    def test_a_zero_primal_with_a_zero_tangent_raises(self):
        """sqrt's tangent divides by 2 sqrt(0): every column's tangent is
        0.0 here, and 0.0 / 0.0 raises, never a NaN."""
        p = parse_program("fn f(y, x)\nt <- 0.0\nt += x - x\n"
                          "y += sqrt(t)\nt -= x - x\nt -> 0.0\nend")
        for f in (hessian, hessian_by_columns):
            with pytest.raises(RevDomainError) as err:
                f(p, "f", [0.0, 1.5])
            assert err.value.span.line == 4

    def test_no_float_leaf_runs_no_pass(self, pass_counter):
        q = parse_program("fn f(i)\nINC(i)\nend")
        res = hessian(q, "f", [3])
        assert res.matrix.shape == (0, 0) and res.symmetry_error == 0.0
        assert pass_counter == {"interpreters": 1, "forward": 0,
                                "backward": 0}


def _param_names(program, fname):
    return next(f for f in program if f.name == fname).param_names()


@pytest.fixture
def pass_counter(monkeypatch):
    """Counts Interpreter constructions and forward/backward passes."""
    counts = {"interpreters": 0, "forward": 0, "backward": 0}
    init, run_function = Interpreter.__init__, Interpreter.run_function

    def counting_init(self, *a, **kw):
        counts["interpreters"] += 1
        init(self, *a, **kw)

    def counting_run(self, fname, args):
        counts["backward" if fname.startswith("~") else "forward"] += 1
        return run_function(self, fname, args)

    monkeypatch.setattr(Interpreter, "__init__", counting_init)
    monkeypatch.setattr(Interpreter, "run_function", counting_run)
    return counts


class TestSharedForwardPass:
    """jacobian runs one forward pass and one backward pass per row, and
    hessian one of each for all its columns, on one Interpreter per call.
    The results equal those of standalone gradient calls bit for bit."""

    @pytest.mark.parametrize("name", ["i_affine", "i_umm", "r_norm",
                                      "leapfrog_clean"])
    def test_jacobian_rows_equal_standalone_gradients(self, name):
        p = load_example(name)
        fname = entry_function(name)
        args = sample_args(name, random.Random(zlib.crc32(name.encode())))
        names = _param_names(p, fname)
        J = jacobian(p, fname, args)
        rows = [(pname, path) for pname, arg in zip(names, args)
                for path in leaf_paths(arg)]
        assert J.shape == (len(rows), len(rows))
        for row, (pname, path) in zip(J, rows):
            _, g = gradient(p, GradRequest(fname, args,
                                           seeds=[(pname, path, 1.0)]))
            flat = [get_leaf(g[pn], pth) for pn, pth in rows]
            assert row.tobytes() == np.array(
                [0.0 if x is None else float(to_real(x)) for x in flat],
                dtype=float).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hessian_columns_equal_standalone_gradients(self):
        p = load_example("r_norm")
        args = sample_args("r_norm", random.Random(6))
        names = _param_names(p, "r_norm")
        leaves = [(pi, path) for pi, arg in enumerate(args)
                  for path in leaf_paths(arg)]
        res = hessian(p, "r_norm", args)
        for j in range(len(leaves)):
            dargs = [deep_copy(a) for a in args]
            for k, (pi, path) in enumerate(leaves):
                dual = Dual(float(get_leaf(dargs[pi], path)),
                            1.0 if k == j else 0.0)
                dargs[pi] = set_leaf(dargs[pi], path, dual)
            _, g = gradient(p, GradRequest("r_norm", dargs))
            for k, (pi, path) in enumerate(leaves):
                leaf = get_leaf(g[names[pi]], path)
                want = float(leaf.tangent) if isinstance(leaf, Dual) else 0.0
                assert res.matrix[k, j] == want

    def test_pass_counts(self, pass_counter):
        p = load_example("i_affine")
        args = sample_args("i_affine", random.Random(7))
        n_leaves = sum(len(list(leaf_paths(a))) for a in args)
        jacobian(p, "i_affine", args)
        assert pass_counter == {"interpreters": 1, "forward": 1,
                                "backward": n_leaves}

        pass_counter.update(interpreters=0, forward=0, backward=0)
        q = parse_program("fn f(y, a, b)\ny += a * b\nend")
        hessian(q, "f", [0.0, 3.0, 5.0])
        assert pass_counter == {"interpreters": 1, "forward": 1,
                                "backward": 1}

        pass_counter.update(interpreters=0, forward=0, backward=0)
        finite_difference(q, "f", [0.0, 3.0, 5.0], 1e-6)
        assert pass_counter == {"interpreters": 1, "forward": 1 + 2 * 3,
                                "backward": 0}

    def test_jacobian_raises_when_restore_fails(self):
        # x += 1e20 absorbs x, so the backward pass cannot restore it
        p = parse_program("fn f(y, x)\ny += x\nx += 1e20\nend")
        with pytest.raises(RevError, match="restore"):
            jacobian(p, "f", [0.0, 1.0])


@pytest.fixture
def orchestration(pass_counter, monkeypatch):
    """`pass_counter`, which also counts the runs of `ir.validate` that
    Interpreters make (through the binding `interpreter` calls)."""
    validate = interpreter.validate

    def counting(program):
        pass_counter["validations"] += 1
        return validate(program)

    monkeypatch.setattr(interpreter, "validate", counting)
    pass_counter["validations"] = 0
    return pass_counter


class TestOrchestrationCounts:
    """Per call: one Interpreter; one validation of a fresh Program and
    none once its front end has run; `jacobian` over L leaves one forward
    and L backward passes, `gradient` and `hessian` one of each.
    (`perfbench/selftest.py` still expects the counts of an earlier
    orchestration.)"""

    @pytest.mark.parametrize("req, name", [
        ("gradient", "multiplier"), ("jacobian", "i_affine"),
        ("jacobian", "r_norm"), ("jacobian", "leapfrog_clean"),
        ("hessian", "r_norm")])
    def test_counts_per_call(self, orchestration, req, name):
        program = parse_program(asset_text(CATALOG[name][0]))
        fname = entry_function(name)
        args = sample_args(name, random.Random(0))
        n_leaves = sum(len(leaf_paths(a)) for a in args)
        call = {
            "gradient": lambda: gradient(program, GradRequest(fname, args)),
            "jacobian": lambda: jacobian(program, fname, args),
            "hessian": lambda: hessian(program, fname, args),
        }[req]
        for validations in (1, 0):   # a fresh Program, then the same one
            orchestration.update(interpreters=0, validations=0, forward=0,
                                 backward=0)
            call()
            assert orchestration == {
                "interpreters": 1, "validations": validations, "forward": 1,
                "backward": n_leaves if req == "jacobian" else 1}


class TestLeafTable:
    """`jacobian`, `hessian` and `finite_difference` address an argument's
    differentiable leaves by their positions among its leaves, and seed a
    Jacobian row at the leaf's path. These pin the kinds where positions
    and paths part, and the errors the calls raise."""

    MIXED = "fn f(y, a)\ny += a[2] * 2.0\ny += a[1]\nend"

    @pytest.mark.parametrize("name", ["complex_log", "complex_log_ccu"])
    def test_complex_arguments(self, name):
        p, fname = load_example(name), entry_function(name)
        args = sample_args(name, random.Random(2))
        names = _param_names(p, fname)
        rows = [(n, path) for n, a in zip(names, args)
                for path in leaf_paths(a)]
        assert rows[:2] == [(names[0], (("field", "re"),)),
                            (names[0], (("field", "im"),))]
        J = jacobian(p, fname, args)
        for row, (n, path) in zip(J, rows):
            _, g = gradient(p, GradRequest(fname, args,
                                           seeds=[(n, path, 1.0)]))
            assert row.tolist() == [float(to_real(get_leaf(g[m], q)))
                                    for m, q in rows]
        fd = finite_difference(p, fname, args, 1e-6)
        assert [type(fd[n]) for n in names] == [Complex] * len(names)

    def test_an_array_mixing_int_and_float_cells(self):
        """The Int cell is a leaf of the array but no column: the Float
        cell is the array's one column, at position 1."""
        p = parse_program(self.MIXED)
        args = [0.5, Array.vector([1, 2.0])]
        assert leaf_paths(args[1]) == [(("idx", (2,)),)]
        assert jacobian(p, "f", args).tolist() == [[1.0, 2.0], [0.0, 1.0]]
        assert hessian(p, "f", args).matrix.tolist() == [[0.0, 0.0],
                                                         [0.0, 0.0]]
        fd = finite_difference(p, "f", args, 1e-6)
        assert fd["a"].data[0] == 1 and type(fd["a"].data[0]) is int
        assert fd["a"].data[1] == pytest.approx(2.0, rel=1e-9)
        assert args[1].data == [1, 2.0]   # the arguments are not touched

    def test_fixed_leaves_in_finite_differences(self):
        p = parse_program("fn f(y, a, n)\ny += a[2]\ny += a[1]\nend")
        args = [Fixed.from_real(0.5),
                Array.vector([Fixed.from_real(1.25), Fixed.from_real(2.0)]),
                3]
        fd = finite_difference(p, "f", args, 1e-6)
        assert fd == {"y": 1.0, "a": Array.vector([1.0, 1.0]), "n": None}
        assert jacobian(p, "f", args).tolist() == [
            [1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("seeds, wrt, message", [
        ([("a", (("idx", (1,)),), 1.0)], None,
         "seed target is not a differentiable leaf"),
        ([("q", (), 1.0)], None, "seed names unknown parameter 'q'"),
        (None, ["q"], "wrt names unknown parameter 'q'"),
    ])
    def test_seed_and_wrt_errors(self, seeds, wrt, message):
        p = parse_program(self.MIXED)
        with pytest.raises(KindError) as err:
            gradient(p, GradRequest("f", [0.5, Array.vector([1, 2.0])],
                                    seeds=seeds, wrt=wrt))
        assert str(err.value) == "KindError: " + message

    @pytest.mark.parametrize("call", [
        lambda p, a, o: gradient(p, GradRequest("f", a), o),
        lambda p, a, o: jacobian(p, "f", a, o),
        lambda p, a, o: hessian(p, "f", a, o),
    ])
    def test_the_restore_error(self, call):
        """(0.1 + x^2) - x^2 is not 0.1 in binary64 at x = sqrt(0.7), and
        a zero tolerance takes no round-off."""
        p = parse_program("fn f(y, x)\ny += x ^ 2\nend", "f.rnl")
        with pytest.raises(RevError) as err:
            call(p, [0.1, math.sqrt(0.7)], ExecOptions(float_tolerance=0.0))
        assert str(err.value) == ("RevError at f.rnl:1:1: backward pass "
                                  "failed to restore the primal value of "
                                  "'y'")


class TestFiniteDifference:
    def test_multilinear_is_exact(self):
        p = load_example("multiplier")
        fd = finite_difference(p, "multiplier", [0.0, 3.0, 5.0], 1e-6)
        assert fd["y!"] == pytest.approx(1.0, rel=1e-9)
        assert fd["a"] == pytest.approx(5.0, rel=1e-7)
        assert fd["b"] == pytest.approx(3.0, rel=1e-7)

    def test_h_must_be_positive(self):
        p = load_example("multiplier")
        with pytest.raises(KindError):
            finite_difference(p, "multiplier", [0.0, 3.0, 5.0], 0.0)

    def test_fixed_inputs_use_measured_step(self):
        p = load_example("mypower_log")
        args = [Fixed.from_real(0), Fixed.from_real(1.25), 6]
        fd = finite_difference(p, "mypower", args, 1e-6)
        assert rel_err(to_real(fd["out!"]), 1.0) < 1e-6
        assert rel_err(to_real(fd["x"]), 6 * 1.25**5) < 1e-5


class TestAdjointInverseIdentity:
    @pytest.mark.parametrize("name,fname", [
        ("multiplier", "multiplier"), ("complex_log", "complex_log"),
        ("i_affine", "i_affine"), ("i_umm", "i_umm"),
        ("mypower_log", "mypower"), ("r_norm", "r_norm"),
    ])
    def test_adjoint_then_inverse_adjoint_is_identity(self, name, fname):
        from revlang.autodiff import _apply_seed
        from revlang.interpreter import Interpreter
        from revlang.numerics import wrap_gvar
        from revlang.values import deep_copy

        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        p = load_example(name)
        args = sample_args(name, rng)
        interp = Interpreter(p)
        outs = interp.run_function(fname, [deep_copy(a) for a in args])
        wrapped = [wrap_gvar(deep_copy(v)) for v in outs]
        # seed the first differentiable leaf of the first output
        first_path = next(iter(leaf_paths(outs[0])))
        _apply_seed(wrapped[0], first_path, 1.0)
        start = [deep_copy(v) for v in wrapped]

        mid = interp.uncall_function(fname, wrapped)
        back = interp.run_function(fname, mid)
        for s, b in zip(start, back):
            assert deviation(s, b) <= 1e-9
