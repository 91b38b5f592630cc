"""The benchmark's tracer wraps library functions by name; every name it
lists must exist, or `perfbench/run.py --trace 1` fails, and the calls it
counts must keep their meaning. The tracer file is read as text, not
imported."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from revlang import cli, interpreter, ir, numerics
from revlang.autodiff import GradRequest, gradient, hessian
from revlang.errors import KindError
from revlang.interpreter import ExecOptions, Interpreter
from revlang.parser import parse_program
from revlang.values import Array, Complex, Fixed

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SELFTEST = TRACER.with_name("selftest.py")


def traced_layers():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_name_resolves():
    missing = []
    for layer, names in traced_layers().items():
        module = importlib.import_module(f"revlang.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"revlang.{layer}.{name}")
    assert not missing, missing


def test_every_binding_the_selftest_reads_resolves():
    """`perfbench/selftest.py` reads the bindings in its `originals` tuple
    directly, so `--selftest` stops with an AttributeError when one is
    gone. The `validate` each module calls is the one `ir` defines, which
    the tracer wraps."""
    tree = ast.parse(SELFTEST.read_text())
    names = [ast.unparse(e) for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and any(
                 getattr(t, "id", None) == "originals" for t in node.targets)
             for e in node.value.elts]
    assert {"interpreter.validate", "cli.validate",
            "interpreter.Interpreter.__init__"} <= set(names)
    for name in names:
        module, *path = name.split(".")
        obj = importlib.import_module(f"revlang.{module}")
        for part in path:
            obj = getattr(obj, part)
        assert callable(obj), name
    assert interpreter.validate is cli.validate is ir.validate


def test_generic_dispatch_counts_only_the_generic_rule(monkeypatch):
    """The benchmark counts `numerics.generic_dispatch_calls` by wrapping
    `revlang.numerics.apply_instr`: Float updates of Float-kind scalars,
    and binary64 gradient updates, stay off it; other kinds, the Float
    updates the emitted arm cannot read and the binary32, Fixed and
    Hessian (Dual) gradient passes go through it."""
    calls = []
    generic = numerics.apply_instr
    monkeypatch.setattr(numerics, "apply_instr",
                        lambda i, v: calls.append(i) or generic(i, v))
    p = parse_program("fn f(y, a, b)\ny += a * b\nend")

    def count(run):
        calls.clear()
        run()
        return len(calls)

    assert count(lambda: Interpreter(p).run_function(
        "f", [0.0, 1.5, 2.0])) == 0
    f32 = np.float32
    assert count(lambda: Interpreter(p, ExecOptions(float_dtype=f32))
                 .run_function("f", [f32(0.0), f32(1.5), f32(2.0)])) == 0
    assert count(lambda: Interpreter(p).run_function(
        "f", [Fixed.from_real(x) for x in (0.0, 1.5, 2.0)])) >= 1
    assert count(lambda: gradient(p, GradRequest("f", [0.0, 1.5, 2.0]))) == 0
    assert count(lambda: gradient(p, GradRequest(
        "f", [Fixed.from_real(x) for x in (0.0, 1.5, 2.0)]))) >= 1
    assert count(lambda: gradient(
        p, GradRequest("f", [f32(0.0), f32(1.5), f32(2.0)]),
        ExecOptions(float_dtype=f32))) >= 1
    assert count(lambda: hessian(p, "f", [0.0, 1.5, 2.0])) >= 1
    # an operand at an index expression, and one behind a field view
    q = parse_program("fn g(y, x, i)\ny += sqrt(x[i + 1])\nend\n"
                      "fn h(y, c)\ny += sqrt(c.re)\nend")
    for fname, args in (("g", [0.25, Array([1.0, 2.0], (2,)), 1]),
                        ("h", [0.25, Complex(2.0, 3.0)])):
        out = []
        assert count(lambda: out.extend(
            Interpreter(q).run_function(fname, args))) == 1
        assert type(out[0]) is float and out[0] == 0.25 + math.sqrt(2.0)
    # INC/DEC on an Int variable, forward and backward, in a gradient pass
    # too; a Bool or Fixed cell takes the generic rule and keeps its
    # result or error
    r = parse_program("fn f(y, k)\nINC(k)\nINC(k)\nDEC(k)\n"
                      "y += 1.5\nend")
    out = []
    assert count(lambda: out.extend(
        Interpreter(r).run_function("f", [0.5, 3]))) == 0
    assert out == [2.0, 4] and type(out[1]) is int
    assert count(lambda: out.extend(
        Interpreter(r).uncall_function("f", [2.0, 4]))) == 0
    assert out[2:] == [0.5, 3] and type(out[3]) is int
    assert count(lambda: gradient(r, GradRequest("f", [0.5, 3]))) == 0
    assert count(lambda: out.append(Interpreter(r).run_function(
        "f", [0.5, Fixed.from_real(1.5)]))) == 3
    assert out[-1][1] == Fixed.from_real(2.5)
    with pytest.raises(KindError, match="INC on bool$") as err:
        Interpreter(r).run_function("f", [0.5, True])
    assert (err.value.span.line, err.value.span.col) == (2, 1)
