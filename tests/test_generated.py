"""Generated routine-bearing programs: printing, inversion, routine
expansion, validation and execution agree with one another.

The generator writes `fn f(y, z, x)` over Int values, so every run is
exact. `x` is never written; `y` and `z` are. The body opens with two
updates, a straight-line run of two steps. Routines nest in compute
blocks and bodies, next to balanced alloc/release pairs, updates, `if`
and `for` blocks and `@invcheckoff`. A routine's compute block writes only
the ancillas it allocates and reads only what its body cannot change, so
a valid program runs and uncalls cleanly. Now and then a stray
allocation or release makes the program invalid, as does an allocation
inside a block nested in a compute block (which its replay cannot
balance).

A second generator writes valid programs of several such functions over
Int or Float values, where a function may call or uncall the ones before
it, and adds counted `while` loops; the entry point's body opens with two
updates too. Float programs add, subtract and scale by 2.0 or 0.5 values
that are multiples of 0.5, so their runs are exact too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revlang import autodiff, interpreter, reverser
from revlang.analysis import _statements
from revlang.autodiff import (GradRequest, finite_difference, get_leaf,
                              gradient, hessian, jacobian, leaf_paths)
from revlang.errors import RevLangError
from revlang.interpreter import ExecOptions, Interpreter, run, uncall
from revlang.ir import Inlined, Program, UncallFn, inverse_name, validate
from revlang.parser import parse_program, pretty_print
from revlang.reverser import expand_routines, invert_function
from revlang.values import Array, to_real

from fuel_charges import recording_fuel
from hessian_oracle import hessian_by_columns, outcome, same_outcome
from lowered import keep_calls


class _Gen:
    """Draws statement lines. A context is (stable, mutable, own): names
    readable and unchanged for the whole list, names a statement may
    update, and the list that collects a compute block's ancillas (None
    where an allocation would not be balanced by a replay)."""

    def __init__(self, draw, real=False, callees=(), valid=False,
                 int_conds=False, swaps=False):
        self.draw = draw
        self.count = 0
        self.real = real            # Float values instead of Int
        self.callees = callees      # functions a statement may (un)call
        self.valid = valid          # no stray statements; `while` loops
        self.int_conds = int_conds  # `if` reads loop variables only
        self.swaps = swaps          # SWAPs of two of the names `mutable`
                                    # and a parameter `w` nothing else reads

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
        zero = "0.0" if self.real else "0"
        if kinds is None:
            kinds = ["update"] * 4 + ["stray"] * (not self.valid) \
                + ["own"] * 2 * (own is not None) + ["call"] * 2 * bool(
                    self.callees) + ["swap"] * 2 * self.swaps
            if depth < 3:
                kinds += ["pair", "routine", "routine", "if", "for",
                          "invcheckoff"] + ["while"] * self.valid
        kind = self.pick(kinds)
        if kind == "update" and mutable:
            t = self.pick(mutable)
            srcs = [n for n in (*stable, *mutable) if n != t] + ["2"]
            forms = ["{a}", "{a} + {b}", "{a} - {b}"] + (
                ["{a} * 2.0", "{a} * 0.5"] if self.real else ["{a} * {b}"])
            rhs = self.pick(forms).format(a=self.pick(srcs),
                                          b=self.pick(srcs))
            return [f"{t} {self.pick(['+=', '-='])} {rhs}"]
        if kind == "call" and self.callees and len(mutable) >= 2:
            y, z = self.draw(st.permutations(mutable))[:2]
            callee = self.pick(list(self.callees) +
                               ["~" + c for c in self.callees])
            return [f"{callee}({y}, {z}, {self.pick(stable)}"
                    f"{', w' * self.swaps})"]
        if kind == "swap" and len(mutable) >= 2:
            names = [*mutable, *["w"] * ("y" in mutable)]
            return ["SWAP({}, {})".format(*self.draw(
                st.permutations(names))[:2])]
        if kind == "while":
            # k counts to n and back; its postcondition holds after each
            # iteration and not at entry, in both directions
            k, n = self.fresh("k"), self.pick([0, 1, 2])
            body = self.block((stable, mutable, None), depth + 1)
            return [f"{k} <- 0", f"while ({k} < {n}, {k} > 0)", f"{k} += 1",
                    *body, "end", f"{k} -= {n}", f"{k} -> 0"]
        if kind == "own":
            c = self.fresh("c")
            own.append(c)
            return [f"{c} <- {self.pick([zero, *stable])}"]
        if kind == "stray":
            return [f"{self.fresh('q')} {self.pick(['<-', '->'])} 0"]
        if kind == "pair":
            p = self.fresh("p")
            value = self.pick([zero, *stable])
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
            names = [n for n in stable if n.startswith("i")] \
                if self.int_conds else stable
            return [f"if ({self.pick(names) if names else 0} > 0, ~)", *then,
                    *(["else", *orelse] if orelse else []), "end"]
        if kind == "for":
            i = self.fresh("i")
            body = self.block(((*stable, i), mutable, None), depth + 1)
            return [f"for {i} = 1:{self.pick([0, 1, 2])}", *body, "end"]
        if kind == "invcheckoff":
            inner = self.stmt(ctx, depth + 1,
                              ["update", "routine", "if", "for", "block"]
                              + ["while"] * self.valid
                              + ["call"] * bool(self.callees))
            return ["@invcheckoff " + inner[0], *inner[1:]] if inner else []
        if kind == "block":
            return ["begin", *self.block((stable, mutable, None), depth + 1),
                    "end"]
        return []

    def entry(self, ctx):
        """An entry body: two updates, a straight-line run of two steps
        at least, then a block."""
        return [*self.stmt(ctx, 0, ["update"]), *self.stmt(ctx, 0, ["update"]),
                *self.block(ctx, 0)]


@st.composite
def routine_programs(draw):
    body = _Gen(draw).entry((("x",), ["y", "z"], None))
    return "fn f(y, z, x)\n" + "\n".join(body) + "\nend\n"


def _diags(program):
    return [(d.rule, d.message, d.span) for d in validate(program)]


# What the property tests saw of their generators, by key: a coverage test
# reads it after its property has run, instead of drawing the generator
# again (`_observed`).
_SEEN = {}


def _observed(key, prop):
    """What the property test `prop` recorded under `key`; it runs first
    when it has not run in this session (a coverage test selected
    alone)."""
    if key not in _SEEN:
        prop()
    return _SEEN[key]


@settings(max_examples=300)
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
    _SEEN.setdefault("verdicts", set()).add(not diags)
    if not diags:
        out = run(program, "f", list(args))
        assert uncall(program, "f", out) == args


def test_generator_reaches_both_verdicts():
    verdicts = _observed("verdicts", test_generated_routine_programs)
    assert verdicts == {True, False}


@st.composite
def called_programs(draw, real=None, int_conds=False, swaps=False,
                    written=False):
    """Functions g0..gn over Int or Float values (`real`, drawn when None),
    each of which may call or uncall the ones before it; gn is the entry
    point. With `int_conds` no condition reads a Float variable; with
    `swaps` each function takes a fourth argument `w`, and a statement may
    SWAP two variables. With `written` each gk but the entry point, and
    the entry point when drawn, also has a written inverse `~gk`, of a
    body drawn as gk's is (no inverse of gk's)."""
    if real is None:
        real = draw(st.booleans())
    n = draw(st.integers(0, 3))
    fns = []
    for k in range(n + 1):
        for name in ["g", "~g"][:1 + (written and (
                k < n or draw(st.booleans())))]:
            gen = _Gen(draw, real, [f"g{i}" for i in range(k)], valid=True,
                       int_conds=int_conds, swaps=swaps)
            ctx = (("x",), ["y", "z"], None)
            body = gen.entry(ctx) if k == n else gen.block(ctx, 0)
            fns.append(f"fn {name}{k}(y, z, x{', w' * swaps})\n"
                       + "\n".join(body) + "\nend\n")
    values = st.integers(-6, 6).map(lambda v: v / 2) if real \
        else st.integers(-3, 3)
    args = draw(st.lists(values, min_size=3 + swaps, max_size=3 + swaps))
    return "".join(fns), f"g{n}", args


def _run(program, fname, args, opts=None):
    interp = Interpreter(program, opts)
    out = interp.run_function(fname, list(args))
    return repr(out), interp.stats


@settings(max_examples=150)
@given(case=called_programs())
def test_generated_calls_loops_and_floats(case):
    src, entry, args = case
    _SEEN.setdefault("called", set()).update(
        w for w in ("(y, z", "(z, y", "~g", "while", "0.5", "@invcheckoff")
        if w in src)
    program = parse_program(src)
    assert not validate(program)
    interp = Interpreter(program)
    out = interp.run_function(entry, list(args))
    assert interp.uncall_function(entry, out) == args
    # checks are observers: without them the bits are the same
    text, stats = _run(program, entry, args)
    assert _run(program, entry, args, ExecOptions(invcheck=False))[0] == text
    # a second Interpreter runs the Program's cached unit: it computes
    # what a fresh parse computes, with the same steps and checks
    assert _run(parse_program(src), entry, args) == (text, stats)
    assert text == repr(interp.run_function(entry, list(args)))
    # np.int64 Ints are Ints: the same values, steps and checks
    if all(type(a) is int for a in args):
        wide = Interpreter(program)
        out = wide.run_function(entry, [np.int64(a) for a in args])
        assert out == interp.run_function(entry, list(args))
        assert wide.stats == stats


def test_called_programs_reach_calls_loops_and_floats():
    seen = _observed("called", test_generated_calls_loops_and_floats)
    assert seen == {"(y, z", "(z, y", "~g", "while", "0.5", "@invcheckoff"}


# --- calls of one site inlined against every call kept ---------------------

def _pass_outcome(run):
    """The repr of `run()`'s result, or its error's type, message and
    span."""
    try:
        return repr(run())
    except RevLangError as err:
        return type(err).__name__, err.message, err.span


def _inlining_outcome(src, entry, args):
    """On a fresh parse: `run_function` and `uncall_function` of `entry`
    on `args`, and on a Float program `gradient` at the default seed, each
    with the ExecStats of the Interpreters it ran on."""
    program, outcomes = parse_program(src), []
    for method in ("run_function", "uncall_function"):
        interp = Interpreter(program)
        outcomes.append((_pass_outcome(
            lambda: getattr(interp, method)(entry, list(args))),
            interp.stats))
    if type(args[0]) is float:
        made, make = [], autodiff._interpreter
        with pytest.MonkeyPatch.context() as m:
            m.setattr(autodiff, "_interpreter",
                      lambda *a: made.append(make(*a)) or made[-1])
            res = _pass_outcome(
                lambda: gradient(program, GradRequest(entry, list(args))))
        outcomes.append((res, [interp.stats for interp, _ in made]))
    return outcomes


def _inlining_is_an_observer(case, key="inlining"):
    """Inlining the calls of one site changes no output, error or
    ExecStats; records under `key` which calls it took and which it
    kept, and whether it took an uncall of a written inverse or a call
    within one."""
    src, entry, args = case
    seen, takes, made = set(), reverser.Inliner.takes, \
        reverser.Inliner.__missing__

    def taking(self, s):
        verdict = takes(self, s)
        seen.add("inlined" if verdict else "kept")
        if verdict and type(s) is UncallFn and any(
                f.name == inverse_name(s.fname) for f in self.written):
            seen.add("a written inverse inlined")
        return verdict

    def making(self, name):
        fdef = made(self, name)
        if name[:1] == "~" and any(f.name == name for f in self.written) \
                and any(type(s) is Inlined
                        for s in _statements(fdef.body.stmts)):
            seen.add("inlined into a written inverse")
        return fdef
    with pytest.MonkeyPatch.context() as m:
        m.setattr(reverser.Inliner, "takes", taking)
        m.setattr(reverser.Inliner, "__missing__", making)
        inlined = _inlining_outcome(src, entry, args)
    with pytest.MonkeyPatch.context() as m:
        keep_calls(m)
        assert _inlining_outcome(src, entry, args) == inlined
    _SEEN.setdefault(key, set()).update(seen)


@settings(max_examples=150)
@given(case=called_programs())
def test_inlined_calls_equal_the_calls(case):
    _inlining_is_an_observer(case)


@settings(max_examples=150)
@given(case=called_programs(swaps=True))
def test_inlined_calls_equal_the_calls_with_swaps(case):
    _inlining_is_an_observer(case)


@settings(max_examples=100)
@given(case=called_programs(written=True))
def test_inlined_calls_equal_the_calls_with_written_inverses(case):
    _inlining_is_an_observer(case, "written")


def test_called_programs_inline_some_calls_and_keep_others():
    """Some examples have a call that is inlined, and some a call of a
    function called twice, or from a routine's compute block, that stays
    a call."""
    seen = _observed("inlining", test_inlined_calls_equal_the_calls)
    assert seen == {"inlined", "kept"}


def test_written_inverses_are_inlined_and_inline_calls():
    """Some examples inline an uncall of a written inverse, and some a
    call within a written inverse."""
    seen = _observed("written",
                     test_inlined_calls_equal_the_calls_with_written_inverses)
    assert seen == {"inlined", "kept", "a written inverse inlined",
                    "inlined into a written inverse"}


def test_generated_gradients_match_finite_differences():
    """On Float programs whose conditions read no Float variable,
    `gradient` equals `finite_difference` on every float leaf, exactly.
    Such a program is linear in its arguments: its updates add, subtract
    and scale by 2.0 or 0.5, and its branches and loop counts do not
    depend on them. Its arguments are multiples of 0.5 and the step is
    h = 0.5, so every value, step and coefficient both computations meet
    is a dyadic rational far inside binary64's range, and every operation
    on them is exact: the tolerance is zero. A program may be rejected
    under differentiation (an update that reads one variable twice), but
    only by a typed RevLangError."""
    outcomes = []

    @settings(max_examples=120)
    @given(case=called_programs(real=True, int_conds=True))
    def check(case):
        src, entry, args = case
        program = parse_program(src)
        try:
            _, grads = gradient(program, GradRequest(entry, args))
        except RevLangError:
            outcomes.append("rejected")
            return
        assert grads == finite_difference(program, entry, args, 0.5)
        outcomes.append("equal")

    check()
    assert outcomes.count("equal") >= len(outcomes) // 2 \
        and "rejected" in outcomes


@st.composite
def array_programs(draw):
    """`fn f(y, a, i, j)` over a 2-by-3 Float array `a` and Int indices:
    cells read and updated at the indices, at literals and at the
    variables of loops up and down, between SWAPs of the indices and calls
    that swap them. Cells also feed square roots and divisions, whose
    negative and zero operands (cells start at multiples of 0.5 in
    [-2, 2]) fail their host calls' preconditions. An index, a loop's
    start and end and the arguments `i` and `j` are in bounds (1-based)
    but for one draw in sixteen, which is out of bounds by one, so most
    programs run past their first cell. Returns the text and the
    arguments."""
    def pick(inside, outside):
        return draw(st.sampled_from(
            inside if draw(st.integers(0, 15)) < 15 else outside))

    def index(loops, n):   # of a dimension of n cells
        return pick(["i", "j", *map(str, range(1, n + 1)), *loops * 3],
                    ["0", str(n + 1)])

    def block(depth, loops):
        lines = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(
                ["read", "read", "update", "swap", "call", "sqrt", "div"]
                + ["for", "for"] * (depth < 2)))
            cell = f"a[{index(loops, 2)}, {index(loops, 3)}]"
            if kind == "read":
                lines.append(f"y {draw(st.sampled_from(['+=', '-=']))} {cell}")
            elif kind == "sqrt":
                lines.append(f"y += sqrt({cell})")
            elif kind == "div":
                lines.append(f"y += {cell} / a[{index(loops, 2)}, "
                             f"{index(loops, 3)}]")
            elif kind == "update":
                lines.append(f"{cell} += y * 0.5")
            elif kind == "swap":
                lines.append("SWAP(i, j)")
            elif kind == "call":
                lines.append(draw(st.sampled_from(["g(i, j)", "~g(j, i)"])))
            else:
                k, lo, hi = f"k{depth}", pick([1], [0]), pick([0, 1, 2], [3])
                lines += [draw(st.sampled_from([f"for {k} = {lo}:{hi}",
                                                f"for {k} = {hi}:-1:{lo}",
                                                f"for {k} = i:{hi}"])),
                          *block(depth + 1, [*loops, k]), "end"]
        return lines

    src = "fn g(i, j)\nSWAP(i, j)\nend\nfn f(y, a, i, j)\n" + \
        "\n".join(block(0, [])) + "\nend\n"
    cells = draw(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    args = [0.5, [c / 2 for c in cells], pick([1, 2], [0, 3]),
            pick([1, 2], [0, 3])]
    return src, args


def _array_outcome(src, args, wide=False):
    """The results (the array by its cells) or the error's type, message
    and place, then the ExecStats of one run."""
    y, cells, i, j = args
    z = np.int64 if wide else int
    interp = Interpreter(parse_program(src))
    try:
        out = interp.run_function(
            "f", [y, Array(list(cells), (2, 3)), z(i), z(j)])
        res = [out[0], out[1].data, int(out[2]), int(out[3])]
    except RevLangError as err:
        res = (type(err).__name__, err.message, err.span)
    return res, interp.stats


@settings(max_examples=150)
@given(case=array_programs())
def test_guarded_cells_match_the_path_every_cell_takes(case):
    """The lowered code's bounds guards are observers: with np.int64
    indices (no guard holds) and with no cell covered at all, a program
    gives the same results, errors and ExecStats."""
    src, args = case
    outcome = _array_outcome(src, args)
    res = outcome[0]
    _SEEN.setdefault("array outcomes", set()).add(
        "list" if type(res) is list else res[0])
    assert _array_outcome(src, args, wide=True) == outcome
    with pytest.MonkeyPatch.context() as m:
        m.setattr(interpreter._Lowering, "cover", lambda self, view: None)
        assert _array_outcome(src, args) == outcome


def test_array_programs_reach_both_outcomes():
    seen = _observed("array outcomes",
                     test_guarded_cells_match_the_path_every_cell_takes)
    assert "list" in seen and "RevDomainError" in seen and len(seen) > 2


# --- the one-pass Hessian against the per-column oracle -------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generated_hessians_equal_the_per_column_oracle():
    """`hessian`'s one pass over tangent vectors gives the per-column
    oracle's matrix bit for bit (NaN as NaN) on generated Float programs:
    the linear ones of `called_programs`, and `array_programs`, whose
    square roots and divisions have second derivatives and whose
    negative, zero and out-of-bounds operands fail. Where the oracle
    raises, `hessian` raises the same type of error at the same span."""
    outcomes = []

    def check(program, entry, args):
        want = outcome(hessian_by_columns, program, entry, args)
        assert same_outcome(outcome(hessian, program, entry, args), want)
        outcomes.append(want[0] if type(want) is tuple else
                        "nonzero" if want.any() else "zero")

    @settings(max_examples=150)
    @given(case=array_programs())
    def arrays(case):
        src, (y, cells, i, j) = case
        check(parse_program(src), "f", [y, Array(list(cells), (2, 3)), i, j])

    @settings(max_examples=100)
    @given(case=called_programs(real=True, swaps=True))
    def calls(case):
        src, entry, args = case
        check(parse_program(src), entry, args)

    arrays()
    calls()
    assert {"nonzero", "zero", "RevDomainError",
            "IndexOutOfBounds"} <= set(outcomes)


# --- a Jacobian is the stack of its rows' gradients -----------------------

def _gradient_rows(program, entry, args):
    """The Jacobian as `gradient` gives it: one call per differentiable
    input leaf, seeded there with 1.0, whose cotangents are read by path
    at every such leaf (0.0 where a result carries none)."""
    names = program.get(entry).param_names()
    cols = [(n, p) for n, a in zip(names, args) for p in leaf_paths(a)]
    rows = []
    for n, p in cols:
        _, g = gradient(program,
                        GradRequest(entry, args, seeds=[(n, p, 1.0)]))
        rows.append([0.0 if (x := get_leaf(g[m], q)) is None else
                     float(to_real(x)) for m, q in cols])
    return np.array(rows, dtype=float)


def _matrix_outcome(f):
    try:
        return f()
    except RevLangError as err:
        return type(err).__name__, err.span


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generated_jacobians_are_their_gradient_rows():
    """`jacobian` reads its rows by leaf position from one forward pass;
    a `gradient` call per row, seeded by path, gives the same matrix bit
    for bit (NaN as NaN), or the same error at the same span, on
    `array_programs` (whose Int indices are leaves but no columns) and on
    Float `called_programs` with SWAPs."""
    outcomes = []

    def check(program, entry, args):
        want = _matrix_outcome(lambda: _gradient_rows(program, entry, args))
        assert same_outcome(
            _matrix_outcome(lambda: jacobian(program, entry, args)), want)
        outcomes.append(want[0] if type(want) is tuple else
                        "nan" if np.isnan(want).any() else "numbers")

    @settings(max_examples=150)
    @given(case=array_programs())
    def arrays(case):
        src, (y, cells, i, j) = case
        check(parse_program(src), "f", [y, Array(list(cells), (2, 3)), i, j])

    @settings(max_examples=100)
    @given(case=called_programs(real=True, swaps=True))
    def calls(case):
        src, entry, args = case
        check(parse_program(src), entry, args)

    arrays()
    calls()
    assert {"numbers", "RevDomainError", "IndexOutOfBounds"} <= set(outcomes)


# --- gradient bodies are observers ----------------------------------------

def _autodiff_outcome(src, entry, args, seeds):
    """What `jacobian`, `hessian` and a `gradient` seeded with `seeds`
    give on a fresh parse: each result by its bits (NaN as NaN), or the
    error's type and span, with the ExecStats of the Interpreter it ran
    on; and the functions whose gradient unit's specialised body they
    lowered, each with whether that body is typed: its guard asks a G
    fact, a binary64 GVar of scalar or cells."""
    program, made = parse_program(src), []
    make = autodiff._interpreter

    def interpreter_of(*a):
        made.append(make(*a))
        return made[-1]

    def bits(f):
        try:
            res = f()
        except RevLangError as err:
            return type(err).__name__, err.span
        return repr(res.tolist() if isinstance(res, np.ndarray) else res)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(autodiff, "_interpreter", interpreter_of)
        res = [bits(lambda: jacobian(program, entry, args())),
               bits(lambda: hessian(program, entry, args()).matrix),
               bits(lambda: gradient(program, GradRequest(entry, args(),
                                                          seeds)))]
    stats = [interp.stats for interp, _ in made]
    return res, stats, sorted({
        (f, any(w == "G" or type(w) is tuple and w[2] == "G"
                for w in interp.unit.gradient.want(f)))
        for interp, _ in made for f in interp.unit.gradient.bodies})


def _gradient_observed(src, entry, args, seeds):
    """The outcome of `_autodiff_outcome`, which must equal the outcome
    on bodies lowered at no entry facts, forward and gradient, which every
    call reaches when every guard fails and no call is direct."""
    outcome = _autodiff_outcome(src, entry, args, seeds)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(interpreter, "_holds", lambda *a: False)
        m.setattr(interpreter._Flow, "direct", lambda *a: None)
        generic = _autodiff_outcome(src, entry, args, seeds)
    assert generic[2] == [] and generic[:2] == outcome[:2]
    return outcome


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gradient_bodies_are_observers():
    """The gradient unit's specialised bodies, behind guards that ask G
    facts (binary64 GVars), Int scalars and Array ranks, and its direct
    calls give what the generic bodies give: on `array_programs` and on
    Float `called_programs` with SWAPs, `jacobian`, `hessian` and a seeded
    `gradient` give the same bits, errors and ExecStats. Most examples
    reach a typed body, whose arms take no type test."""
    outcomes = []

    def check(src, entry, args, seeds):
        res, _, lowered = _gradient_observed(src, entry, args, seeds)
        outcomes.append((bool(lowered), any(t for _, t in lowered),
                         *[r[0] if type(r) is tuple else "result"
                           for r in res]))

    @settings(max_examples=150)
    @given(case=array_programs(), cell=st.integers(0, 5))
    def arrays(case, cell):
        src, (y, cells, i, j) = case
        check(src, "f", lambda: [y, Array(list(cells), (2, 3)), i, j],
              [("y", (), 1.0), ("a", (("idx", (cell // 3 + 1,
                                                cell % 3 + 1)),), -0.5)])

    @settings(max_examples=150)
    @given(case=called_programs(real=True, swaps=True),
           name=st.sampled_from(["y", "z", "x", "w"]))
    def calls(case, name):
        src, entry, args = case
        check(src, entry, lambda: list(args),
              [("y", (), 0.5), (name, (), -1.5)])

    arrays()
    calls()
    assert len(outcomes) == 300
    # most runs lower specialised gradient bodies, and nearly all of those
    # a typed one (244 and 242 of the 300 under the derandomized profile);
    # results and errors
    assert sum(o[0] for o in outcomes) >= 200
    assert sum(o[1] for o in outcomes) >= 200
    kinds = {k for o in outcomes for k in o[2:]}
    assert {"result", "IndexOutOfBounds", "RevDomainError"} <= kinds


# --- the specialised body against the generic body -----------------------

def _typed(v):
    """A value by its type and repr, cell by cell: equal when the bits and
    types are (a NaN as NaN)."""
    if type(v) is Array:
        return "Array", v.shape, [_typed(c) for c in v.data]
    return type(v).__name__, repr(v)


def _bodies_outcome(src, entry, args):
    """The typed results (or the error's type, message and span) and the
    ExecStats of a run on a fresh parse, and the functions whose
    specialised body it lowered."""
    interp = Interpreter(parse_program(src))
    try:
        res = [_typed(v) for v in interp.run_function(entry, args())]
    except RevLangError as err:
        res = (type(err).__name__, err.message, err.span)
    return res, interp.stats, sorted(interp.unit.bodies)


def _both_bodies(src, entry, args):
    """The outcome on the specialised bodies, which must equal the outcome
    on the bodies lowered at no entry facts, which every call reaches when
    every guard fails and no call is direct: then no specialised body is
    lowered; and the outcome with the fast-path table emptied, whose
    bodies call the generic functions where they made host calls."""
    outcome = _bodies_outcome(src, entry, args)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(interpreter, "_holds", lambda *a: False)
        m.setattr(interpreter._Flow, "direct", lambda *a: None)
        generic = _bodies_outcome(src, entry, args)
    assert generic[2] == [] and generic[:2] == outcome[:2]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(interpreter, "_HOST", {})
        assert _bodies_outcome(src, entry, args) == outcome
    return outcome


@settings(max_examples=150)
@given(case=array_programs())
def test_array_programs_agree_on_both_bodies(case):
    """Specialisation is an observer: with every guard failing, a program
    gives the same bits and types, errors and ExecStats."""
    src, (y, cells, i, j) = case
    outcome = _both_bodies(
        src, "f", lambda: [y, Array(list(cells), (2, 3)), i, j])
    assert outcome[2][:1] == ["f"]


@settings(max_examples=150)
@given(case=called_programs(swaps=True),
       kind=st.sampled_from([None, int, np.float32]))
def test_called_programs_agree_on_both_bodies(case, kind):
    """Also where `w`, of another kind than the other arguments, which the
    entry guard does not test, is SWAPped into a variable the body had
    proven a float."""
    src, entry, args = case
    if kind is not None:
        args[3] = kind(args[3])
    outcome = _both_bodies(src, entry, lambda: list(args))
    _SEEN.setdefault("bodies", set()).add(entry in outcome[2])


def test_called_programs_reach_both_bodies():
    seen = _observed("bodies", test_called_programs_agree_on_both_bodies)
    assert seen == {True, False}


# --- fuel by the run against fuel by the statement -------------------------

def _budget_outcomes(src, entry, args):
    """For each `max_steps` from 1 to the steps of an unbounded run, on a
    fresh parse: the results and arguments after the run (an Array's
    cells as it left them), or the error's type, message and span; then
    `ExecStats.steps` and `checks_passed`; and the most steps that one
    charge of the unbounded run took (0: none)."""
    program = parse_program(src)
    unbounded = Interpreter(program)
    charged = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(interpreter, "_Fuel", recording_fuel(charged))
        try:
            unbounded.run_function(entry, args())
        except RevLangError:
            pass
    outcomes = []
    for budget in range(1, unbounded.stats.steps + 1):
        interp = Interpreter(program, ExecOptions(max_steps=budget))
        values = args()
        try:
            res = repr(interp.run_function(entry, values))
        except RevLangError as err:
            res = (type(err).__name__, err.message, err.span)
        outcomes.append((res, repr(values), interp.stats.steps,
                         interp.stats.checks_passed))
    return outcomes, max(charged, default=0)


def _charged_by_the_statement(src, entry, args):
    """`_budget_outcomes` with every run closed after one step, so that
    each statement charges its own step, as fuel was charged before runs;
    they must equal the outcomes of fuel charged by the run. Returns the
    longest run's steps."""
    outcomes, longest = _budget_outcomes(src, entry, args)
    tick = interpreter._Lowering.tick
    with pytest.MonkeyPatch.context() as m:
        m.setattr(interpreter._Lowering, "tick",
                  lambda self: (tick(self), self.end()))
        assert _budget_outcomes(src, entry, args)[0] == outcomes
    return longest


@settings(max_examples=150)
@given(src=routine_programs(),
       args=st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_routine_programs_spend_fuel_by_the_statement(src, args):
    if not validate(parse_program(src)):
        _SEEN.setdefault("routine", []).append(
            _charged_by_the_statement(src, "f", lambda: list(args)))


@settings(max_examples=150)
@given(case=called_programs(swaps=True))
def test_called_programs_spend_fuel_by_the_statement(case):
    src, entry, args = case
    _SEEN.setdefault("called runs", []).append(
        _charged_by_the_statement(src, entry, lambda: list(args)))


@settings(max_examples=150)
@given(case=array_programs())
def test_array_programs_spend_fuel_by_the_statement(case):
    src, (y, cells, i, j) = case
    _SEEN.setdefault("array runs", []).append(_charged_by_the_statement(
        src, "f", lambda: [y, Array(list(cells), (2, 3)), i, j]))


def test_generated_programs_run_straight_line_runs():
    """Most examples of each generator run a straight-line run of two or
    more steps, which a shortage can cut in the middle: the entry bodies
    of `routine_programs` and `called_programs` open with two updates."""
    longest = {
        "routine": _observed(
            "routine", test_routine_programs_spend_fuel_by_the_statement),
        "called": _observed(
            "called runs", test_called_programs_spend_fuel_by_the_statement),
        "array": _observed(
            "array runs", test_array_programs_spend_fuel_by_the_statement)}
    share = {k: sum(n >= 2 for n in runs) / len(runs)
             for k, runs in longest.items()}
    assert len(longest["routine"]) >= 50
    assert share["routine"] >= 0.75 and share["called"] >= 0.75
    assert share["array"] >= 0.5
