import math
import random
import zlib

import numpy as np
import pytest

from revlang.autodiff import (GradRequest, _flatten, finite_difference,
                              get_leaf, gradient, hessian, jacobian,
                              leaf_paths, set_leaf)
from revlang.errors import AliasedArguments, KindError, RevError
from revlang.interpreter import Interpreter
from revlang.parser import parse_program
from revlang.stdlib import entry_function, load_example, sample_args
from revlang.values import (Array, Complex, Dual, Fixed, deep_copy,
                            deviation, to_real)


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
                    from revlang.autodiff import get_leaf
                    leaf = get_leaf(g, pth) if pth else g
                    flat.append(float(to_real(leaf)))
            assert np.allclose(J[row], flat, rtol=1e-5, atol=1e-7)


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
    hessian one of each per column, over two Interpreters per call. The
    results equal those of standalone gradient calls bit for bit."""

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
            assert row.tobytes() == np.array(
                _flatten(g, names, args), dtype=float).tobytes()

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
                dual = Dual(float(get_leaf(dargs[pi], path) if path
                                  else dargs[pi]), 1.0 if k == j else 0.0)
                if path:
                    set_leaf(dargs[pi], path, dual)
                else:
                    dargs[pi] = dual
            _, g = gradient(p, GradRequest("r_norm", dargs))
            for k, (pi, path) in enumerate(leaves):
                leaf = get_leaf(g[names[pi]], path) if path else g[names[pi]]
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
        assert pass_counter == {"interpreters": 1, "forward": 3,
                                "backward": 3}

        pass_counter.update(interpreters=0, forward=0, backward=0)
        finite_difference(q, "f", [0.0, 3.0, 5.0], 1e-6)
        assert pass_counter == {"interpreters": 1, "forward": 1 + 2 * 3,
                                "backward": 0}

    def test_jacobian_raises_when_restore_fails(self):
        # x += 1e20 absorbs x, so the backward pass cannot restore it
        p = parse_program("fn f(y, x)\ny += x\nx += 1e20\nend")
        with pytest.raises(RevError, match="restore"):
            jacobian(p, "f", [0.0, 1.0])


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
