"""Generated routine-bearing programs: printing, inversion, routine
expansion, validation and execution agree with one another.

The generator writes `fn f(y, z, x)` over Int values, so every run is
exact. `x` is never written; `y` and `z` are. Routines nest in compute
blocks and bodies, next to balanced alloc/release pairs, updates, `if`
and `for` blocks and `@invcheckoff`. A routine's compute block writes only
the ancillas it allocates and reads only what its body cannot change, so
a valid program runs and uncalls cleanly. Now and then a stray
allocation or release makes the program invalid, as does an allocation
inside a block nested in a compute block (which its replay cannot
balance).
"""

from hypothesis import given, settings, strategies as st

from revlang.interpreter import run, uncall
from revlang.ir import Program, validate
from revlang.parser import parse_program, pretty_print
from revlang.reverser import expand_routines, invert_function


class _Gen:
    """Draws statement lines. A context is (stable, mutable, own): names
    readable and unchanged for the whole list, names a statement may
    update, and the list that collects a compute block's ancillas (None
    where an allocation would not be balanced by a replay)."""

    def __init__(self, draw):
        self.draw = draw
        self.count = 0

    def fresh(self, prefix):
        self.count += 1
        return f"{prefix}{self.count}"

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def block(self, ctx, depth):
        lines = []
        for _ in range(self.draw(st.integers(0, 3))):
            lines += self.stmt(ctx, depth)
        return lines

    def stmt(self, ctx, depth, kinds=None):
        stable, mutable, own = ctx
        if kinds is None:
            kinds = ["update"] * 4 + ["stray"] + ["own"] * 2 * (own is not None)
            if depth < 3:
                kinds += ["pair", "routine", "routine", "if", "for",
                          "invcheckoff"]
        kind = self.pick(kinds)
        if kind == "update" and mutable:
            t = self.pick(mutable)
            srcs = [n for n in (*stable, *mutable) if n != t] + ["2"]
            form = self.pick(["{a}", "{a} + {b}", "{a} * {b}", "{a} - {b}"])
            rhs = form.format(a=self.pick(srcs), b=self.pick(srcs))
            return [f"{t} {self.pick(['+=', '-='])} {rhs}"]
        if kind == "own":
            c = self.fresh("c")
            own.append(c)
            return [f"{c} <- {self.pick(['0', *stable])}"]
        if kind == "stray":
            return [f"{self.fresh('q')} {self.pick(['<-', '->'])} 0"]
        if kind == "pair":
            p = self.fresh("p")
            value = self.pick(["0", *stable])
            inner = self.block(((*stable, p), mutable, own), depth + 1)
            return [f"{p} <- {value}", *inner, f"{p} -> {value}"]
        if kind == "routine":
            computed = []
            compute = self.block((stable, computed, computed), depth + 1)
            body = self.block(((*stable, *computed), mutable, own), depth + 1)
            return ["@routine begin", *compute, "end", *body, "~@routine"]
        if kind == "if":
            then = self.block((stable, mutable, None), depth + 1)
            orelse = self.block((stable, mutable, None), depth + 1)
            return [f"if ({self.pick(stable)} > 0, ~)", *then,
                    *(["else", *orelse] if orelse else []), "end"]
        if kind == "for":
            i = self.fresh("i")
            body = self.block(((*stable, i), mutable, None), depth + 1)
            return [f"for {i} = 1:{self.pick([0, 1, 2])}", *body, "end"]
        if kind == "invcheckoff":
            inner = self.stmt(ctx, depth + 1,
                              ["update", "routine", "if", "for", "block"])
            return ["@invcheckoff " + inner[0], *inner[1:]] if inner else []
        if kind == "block":
            return ["begin", *self.block((stable, mutable, None), depth + 1),
                    "end"]
        return []


@st.composite
def routine_programs(draw):
    body = _Gen(draw).block((("x",), ["y", "z"], None), 0)
    return "fn f(y, z, x)\n" + "\n".join(body) + "\nend\n"


def _diags(program):
    return [(d.rule, d.message, d.span) for d in validate(program)]


@settings(max_examples=300, deadline=None, derandomize=True,
          database=None)
@given(src=routine_programs(),
       args=st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_generated_routine_programs(src, args):
    program = parse_program(src)
    f = program.get("f")
    assert parse_program(pretty_print(program)) == program
    assert invert_function(invert_function(f)) == f
    assert expand_routines(invert_function(f)) == \
        invert_function(expand_routines(f))
    diags = _diags(program)
    assert diags == _diags(Program([expand_routines(f)]))
    if not diags:
        out = run(program, "f", list(args))
        assert uncall(program, "f", out) == args


def test_generator_reaches_both_verdicts():
    verdicts = set()

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(src=routine_programs())
    def collect(src):
        verdicts.add(not validate(parse_program(src)))

    collect()
    assert verdicts == {True, False}
