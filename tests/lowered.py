"""The Python source that the interpreter's lowering emits, recorded for
the tests that read it; and the switch that keeps calls calls."""

import ast
from dataclasses import dataclass

from revlang import interpreter, reverser


@dataclass
class Lowered:
    """One compiled `_make`: the function it lowers (None for a view
    helper), whether in a gradient unit, and its lines below `_make`, as
    `_Lowering.build` takes them."""
    name: str
    grad: bool
    lines: list

    @property
    def text(self):
        return "\n".join(t for _, t, _ in self.lines)

    def nodes(self):
        """The AST nodes of the source `build` compiles."""
        src = "\n".join(" " * d + t for d, t, _ in [
            (0, "def _make():", None), *self.lines, (1, "return f", None)])
        return sum(1 for _ in ast.walk(ast.parse(src)))


def record_lowering(monkeypatch):
    """A list to which each lowering from here on appends its `Lowered`,
    by wrapping `_Lowering.build` (and `function`, for the name)."""
    found = []
    build, function = interpreter._Lowering.build, \
        interpreter._Lowering.function

    def lowering(self, fdef):
        self.fname = fdef.name
        return function(self, fdef)

    def building(self, defs):
        found.append(Lowered(getattr(self, "fname", None), self.grad,
                             list(defs)))
        return build(self, defs)
    monkeypatch.setattr(interpreter._Lowering, "function", lowering)
    monkeypatch.setattr(interpreter._Lowering, "build", building)
    return found


def keep_calls(monkeypatch):
    """Turn off the inlining of calls of one site (`reverser.Inliner`) for
    the Programs whose definitions are inlined from here on: every call
    stays a call."""
    monkeypatch.setattr(reverser.Inliner, "takes", lambda self, s: False)
