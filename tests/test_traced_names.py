"""The benchmark's tracer wraps library functions by name; every name it
lists must exist, or `perfbench/run.py --trace 1` fails. The tracer file is
read as text, not imported."""

import ast
import importlib
from pathlib import Path

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
