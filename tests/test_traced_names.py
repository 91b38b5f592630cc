"""The benchmark's tracer wraps library functions by name; every name it
lists must exist, or `perfbench/run.py --trace 1` fails, and the calls it
counts must keep their meaning. The tracer file is read as text, not
imported."""

import ast
import importlib
from pathlib import Path

import numpy as np

from revlang import numerics
from revlang.autodiff import GradRequest, gradient
from revlang.interpreter import ExecOptions, Interpreter
from revlang.parser import parse_program
from revlang.values import Fixed

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_generic_dispatch_counts_only_the_generic_rule(monkeypatch):
    """The benchmark counts `numerics.generic_dispatch_calls` by wrapping
    `revlang.numerics.apply_instr`: Float updates of Float-kind scalars
    stay off it, other kinds and gradient passes go through it."""
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
    assert count(lambda: gradient(p, GradRequest("f", [0.0, 1.5, 2.0]))) >= 1
