"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Criteria 1-4 also assert their stated wall-clock budgets.
"""

import math
import random
import time
import zlib

import numpy as np
import pytest

from revlang.autodiff import (GradRequest, finite_difference, get_leaf,
                              gradient, hessian, leaf_paths)
from revlang.errors import (AliasedArguments, DirtyAncilla,
                            LoopIteratorMutated, PostconditionMismatch)
from revlang.interpreter import (ExecOptions, Interpreter,
                                 check_reversibility, run)
from revlang.numerics import wrap_gvar
from revlang.parser import parse_program, pretty_print
from revlang.reverser import invert_function
from revlang.stdlib import (CATALOG, _leapfrog_args, entry_function,
                            leapfrog_simulate, load_example, sample_args,
                            two_body_config)
from revlang.tradeoff import (StepProgram, bennett_counts, bennett_run, eta,
                              treeverse_run)
from revlang.values import (Array, deep_copy, deviation, to_real,
                            values_close)


def _ok(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS  {text}")


def _ulp(x):
    return math.ulp(x)


def test_criterion_01_bennett_exact_counts():
    t0 = time.perf_counter()
    prog = StepProgram(length=256, step=lambda i, s: 2.0 * s, initial=1.0)
    final, c = bennett_run(prog, k=4)
    assert c.total_steps == 2401 == (2 * 4 - 1) ** 4
    assert c.peak_states == 14 == 4 * (4 - 1) + 2
    assert abs(final - 2.0 ** 256) <= 10 * _ulp(2.0 ** 256)

    for k in range(2, 6):
        for n in range(0, 5):
            L = k ** n
            p = StepProgram(length=L, step=lambda i, s: s + i, initial=0)
            f, cc = bennett_run(p, k=k)
            steps, peak = bennett_counts(k, n)
            assert (cc.total_steps, cc.peak_states) == (steps, peak)
            assert f == L * (L + 1) // 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"bennett counts exact for k=2..5, n=0..4; 2401/14 at (4,4); "
           f"{elapsed:.2f}s")


def test_criterion_02_treeverse_bounds():
    t0 = time.perf_counter()
    d = 3
    for t in range(1, 6):
        T = eta(t, d)
        prog = StepProgram(length=T, step=lambda i, s: s + (i * i,),
                           initial=(), copy=lambda s: s)
        visits = []
        _, c = treeverse_run(prog, d,
                             lambda i, s, acc: visits.append((i, s)) or acc)
        # full-caching reference
        states = {0: ()}
        for i in range(1, T + 1):
            states[i] = states[i - 1] + (i * i,)
        assert visits == [(i, states[i]) for i in range(T, 0, -1)]
        assert c.snapshots_peak <= d
        assert c.forward_steps <= t * T
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(2, f"treeverse: order T..1, values bit-exact, snapshots<=3, "
           f"forward<=t*T for T=eta(1..5,3); {elapsed:.2f}s")


def test_criterion_03_round_trip_reversibility():
    t0 = time.perf_counter()
    exact_kinds = ("mypower_log", "rrfib_corrected")
    for name in CATALOG:
        program = load_example(name)
        fname = entry_function(name)
        for trial in range(20):
            rng = random.Random(7919 * trial + zlib.crc32(name.encode()) % 65521)
            rep = check_reversibility(program, fname, sample_args(name, rng))
            assert rep.ok, f"{name} trial {trial}: {rep.error}"
            if name in exact_kinds:
                assert rep.max_deviation == 0.0
            else:
                assert rep.max_deviation <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(3, f"uncall(run(.)) identity on 20 random inputs for all "
           f"{len(CATALOG)} programs; {elapsed:.2f}s")


GRAD_CASES = {
    "multiplier": (None, None),
    "complex_log": ([("y!", (("field", "re"),), 1.0)], None),
    "i_affine": ([("y!", (("idx", (1,)),), 1.0)], None),
    "i_umm": ([("x!", (("idx", (1, 1)),), 1.0)], ["theta"]),
    "r_norm": (None, None),
    "mypower_log": (None, None),
}


def _compare_grad_structure(got, want, args, names, wrt):
    worst = 0.0
    for pname, arg in zip(names, args):
        if wrt is not None and pname not in wrt:
            continue
        g, f = got.get(pname), want.get(pname)
        if g is None or f is None:
            continue
        for path in leaf_paths(arg):
            gv = get_leaf(g, path) if path else g
            fv = get_leaf(f, path) if path else f
            if gv is None:
                continue
            gvf, fvf = float(to_real(gv)), float(to_real(fv))
            worst = max(worst, abs(gvf - fvf) / max(abs(fvf), 1e-2))
    return worst


def test_criterion_04_gradient_oracle_agreement():
    t0 = time.perf_counter()
    for name, (seeds, wrt) in GRAD_CASES.items():
        program = load_example(name)
        fname = entry_function(name)
        worst = 0.0
        for trial in range(20):
            rng = random.Random(104729 * trial + zlib.crc32(name.encode()) % 65521)
            args = sample_args(name, rng)
            _, grads = gradient(
                program, GradRequest(fname, args, seeds=seeds, wrt=wrt))
            fd = finite_difference(program, fname, args, 1e-6, seeds=seeds)
            names = Interpreter(program).defs[fname].param_names()
            worst = max(worst, _compare_grad_structure(
                grads, fd, args, names, wrt))
        assert worst < 1e-5, f"{name}: rel err {worst}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(4, f"gradients match central differences (h=1e-6) to rel err < 1e-5 "
           f"on 20 points x {len(GRAD_CASES)} programs; {elapsed:.2f}s")


def test_criterion_05_adjoint_inverse_identity():
    from revlang.autodiff import _apply_seed

    for name in CATALOG:
        program = load_example(name)
        fname = entry_function(name)
        rng = random.Random(zlib.crc32(name.encode()) % 65521)
        args = sample_args(name, rng)
        interp = Interpreter(program)
        outs = interp.run_function(fname, [deep_copy(a) for a in args])
        wrapped = [wrap_gvar(deep_copy(v)) for v in outs]
        paths = list(leaf_paths(outs[0]))
        if paths:
            _apply_seed(wrapped[0], paths[0], 1.0)
        start = [deep_copy(v) for v in wrapped]
        mid = interp.uncall_function(fname, wrapped)
        back = interp.run_function(fname, mid)
        worst = max(deviation(s, b) for s, b in zip(start, back))
        assert worst <= 1e-9, f"{name}: {worst}"
    _ok(5, "gradient pass of f then of ~f restores values and cotangents "
           "within 1e-9 on the whole catalog")


def test_criterion_06_norm_hessian():
    rng = random.Random(31)
    program = load_example("r_norm")
    x = Array.vector([rng.uniform(-1, 1) for _ in range(10)])
    res = hessian(program, "r_norm", [0.0, 0.0, x])
    xs = np.array(x.data)
    nrm = float(np.linalg.norm(xs))
    xh = xs / nrm
    want = (np.eye(10) - np.outer(xh, xh)) / nrm
    block = res.matrix[2:, 2:]
    assert np.max(np.abs(block - want)) <= 1e-6
    assert res.symmetry_error <= 1e-6
    _ok(6, "forward-over-reverse Hessian of the n=10 norm matches "
           "(I - xx^T)/|x| within 1e-6 and is symmetric")


def test_criterion_07_primal_restoration():
    for name, (seeds, wrt) in GRAD_CASES.items():
        program = load_example(name)
        fname = entry_function(name)
        rng = random.Random(zlib.crc32(name.encode()) % 4099)
        args = sample_args(name, rng)
        before = [deep_copy(a) for a in args]
        gradient(program, GradRequest(fname, args, seeds=seeds, wrt=wrt))
        for a, b in zip(args, before):
            assert values_close(a, b, 1e-9)
    _ok(7, "argument primals equal their pre-forward values within 1e-9 "
           "after every gradient call")


def test_criterion_08_roundoff_experiment_ordering():
    cfg = two_body_config(steps=10_000)

    # clean / binary64 run with full checks, counting ancilla releases
    program = load_example("leapfrog_clean")
    opts = ExecOptions(float_tolerance=1e-9)
    interp = Interpreter(program, opts)
    x, v, m, g, dt, steps = _leapfrog_args(cfg, None)
    initial_x = [float(c) for c in x.data]
    out = interp.run_function("leapfrog_clean", [x, v, m, g, dt, steps])
    back = interp.uncall_function("leapfrog_clean", out)
    e_clean64 = max(abs(float(a) - b) for a, b in zip(back[0].data, initial_x))
    assert interp.stats.checks_passed["ancilla"] > 0

    _, e_cum64 = leapfrog_simulate(cfg, "cumulative", "binary64")
    _, e_clean32 = leapfrog_simulate(cfg, "clean", "binary32")
    _, e_cum32 = leapfrog_simulate(cfg, "cumulative", "binary32")

    assert e_cum64 > e_clean64, (e_clean64, e_cum64)
    assert e_cum32 > e_clean32, (e_clean32, e_cum32)
    _ok(8, f"10^4-step reversal error, cumulative vs clean: "
           f"binary64 {e_cum64:.2e} > {e_clean64:.2e}; "
           f"binary32 {e_cum32:.2e} > {e_clean32:.2e}; "
           f"clean releases all checked at 1e-9")


def test_criterion_09_check_semantics():
    wrong_while = parse_program("""fn f(n)
c <- 0
while (c < n, c > -1)
    c += 1
end
c -= n
c -> 0
end""")
    with pytest.raises(PostconditionMismatch):
        run(wrong_while, "f", [3])

    dirty = parse_program("fn f(x)\nn <- 0.0\nn += x\nn -> 0.0\nend")
    with pytest.raises(DirtyAncilla):
        run(dirty, "f", [1.0])

    mutated = parse_program("fn f(x!, n!)\nfor i = 1:1:n!\nn! += 1\nend\nend")
    with pytest.raises(LoopIteratorMutated):
        run(mutated, "f", [0, 3])

    aliased = parse_program(
        "fn g(a, b)\na += b\nend\nfn f(x)\ng(x, x)\nend")
    with pytest.raises(AliasedArguments):
        run(aliased, "f", [1.0])

    shared_read = parse_program("fn f(y, x)\ny += x * x\nend")
    with pytest.raises(AliasedArguments):
        run(shared_read, "f", [wrap_gvar(0.0), wrap_gvar(3.0)])
    assert run(shared_read, "f", [0.0, 3.0]) == [9.0, 3.0]

    # checks are observers: with/without invcheck bit-identical on the
    # passing corpus
    for name in CATALOG:
        program = load_example(name)
        fname = entry_function(name)
        rng1, rng2 = random.Random(zlib.crc32(name.encode()) % 997), None
        args = sample_args(name, rng1)
        a = run(program, fname, [deep_copy(v) for v in args])
        b = run(program, fname, [deep_copy(v) for v in args],
                ExecOptions(invcheck=False))
        assert all(values_close(x, y, 0.0) for x, y in zip(a, b))
    _ok(9, "every constructed violation raises its designated error; "
           "passing programs run bit-identically with checks off")


def test_criterion_10_structural_properties():
    from revlang.stdlib import asset_text
    for filename in sorted({f for f, _ in CATALOG.values()}):
        program = parse_program(asset_text(filename), filename)
        assert parse_program(pretty_print(program)) == program
        for fdef in program:
            assert invert_function(invert_function(fdef)) == fdef
    _ok(10, "parse(pretty(P)) == P and invert(invert(f)) == f over the "
            "whole shipped corpus")
