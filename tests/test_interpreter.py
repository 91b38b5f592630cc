import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revlang import interpreter
from revlang.errors import (AliasedArguments, AssertFailed, DirtyAncilla,
                            DuplicateBinding, FuelExhausted, IndexOutOfBounds,
                            KindError, LoopIteratorMutated,
                            PostconditionMismatch, RevDomainError,
                            RevLangError, UnknownFunction, ValidationFailed)
from revlang.autodiff import GradRequest, gradient
from revlang.interpreter import (ExecOptions, Frame, Interpreter,
                                 canonical_view_identity, check_reversibility,
                                 read_view, run, uncall, write_view)
from revlang.ir import Bin, IndexView, Lit, Program, VarView, ViewRef
from revlang.numerics import INSTR_FNS, expr_fn, wrap_gvar
from revlang.parser import parse_program, pretty_print
from revlang.reverser import expand_routines, invert_function
from revlang.stdlib import CATALOG, load_example
from revlang.values import (Array, Complex, Fixed, GVar, deep_copy, deviation,
                            is_int)


def prog(src):
    return parse_program(src)


class TestRunUncall:
    def test_multiplier_spec_values(self):
        p = load_example("multiplier")
        assert run(p, "multiplier", [2, 3, 5]) == [17, 3, 5]
        assert uncall(p, "multiplier", [17, 3, 5]) == [2, 3, 5]

    def test_rrfib_matches_countdown_oracle(self):
        def oracle(n):
            total, c = 1, n
            while c > 1:
                total += oracle(c - 1)
                c -= 2
            return total

        p = load_example("rrfib_corrected")
        for n in range(11):
            assert run(p, "rrfib", [0, n]) == [oracle(n), n]
        # frozen oracle values for the record
        assert [oracle(n) for n in range(9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_complex_log_identity_property(self):
        p = load_example("complex_log")
        out = run(p, "complex_log", [Complex(0.0, 0.0), Complex(1.0, 1.2)])
        back = uncall(p, "complex_log", out)
        assert deviation(back[0], Complex(0.0, 0.0)) <= 1e-9
        assert back[1] == Complex(1.0, 1.2)

    def test_wrong_arity(self):
        p = load_example("multiplier")
        with pytest.raises(Exception):
            run(p, "multiplier", [1, 2])

    def test_invalid_program_rejected(self):
        with pytest.raises(ValidationFailed):
            run(prog("fn f(y)\nx <- 0\nend"), "f", [1])

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            run(load_example("multiplier"), "nope", [])


class TestChecks:
    def test_while_postcondition_true_at_entry(self):
        p = prog("""fn f(n)
c <- 0
while (c < n, c > 0)
    c += 1
end
c -= n
c -> 0
end""")
        # at entry c == 0, postcondition c > 0 is false: fine for n >= 1
        assert run(p, "f", [3]) == [3]
        # rebind: postcondition c > -1 is true at entry
        p2 = prog("""fn f(n)
c <- 0
while (c < n, c > -1)
    c += 1
end
c -= n
c -> 0
end""")
        with pytest.raises(PostconditionMismatch):
            run(p2, "f", [3])

    def test_while_postcondition_false_after_iteration(self):
        p = prog("""fn f(n)
c <- 0
while (c < n, c > 2)
    c += 1
end
c -= n
c -> 0
end""")
        with pytest.raises(PostconditionMismatch):
            run(p, "f", [5])

    def test_if_postcondition_mismatch(self):
        p = prog("""fn f(x)
if (x > 0, x > 1)
    x += 1
end
end""")
        # branch taken with x=0.5 -> x=1.5 -> post true == pre true: passes
        assert run(p, "f", [0.5]) == [1.5]
        p2 = prog("""fn f(x)
if (x > 0, x > 2)
    x += 1
end
end""")
        with pytest.raises(PostconditionMismatch):
            run(p2, "f", [0.5])  # post 1.5 > 2 is false, branch was taken

    def test_dirty_ancilla(self):
        p = prog("""fn f(x)
n <- 0.0
n += x
n -> 0.0
end""")
        with pytest.raises(DirtyAncilla) as err:
            run(p, "f", [1.0])
        assert err.value.residual == 1.0
        assert run(p, "f", [0.0]) == [0.0]

    def test_nan_residual_is_dirty(self):
        p = prog("""fn f(y, x)
n <- 0.0
n += sqrt(x)
y += n
n -= sqrt(x)
n -> 0.0
end""")
        with pytest.raises(DirtyAncilla) as err:
            run(p, "f", [0.0, float("inf")])
        assert math.isnan(err.value.residual)
        assert run(p, "f", [0.0, 4.0]) == [2.0, 4.0]

    def test_discrete_ancilla_requires_exact(self):
        p = prog("""fn f(x)
n <- 0
n += x
n -= x
n -> 0
end""")
        assert run(p, "f", [7]) == [7]

    def test_fixed_ancilla_released_as_float_is_dirty(self):
        # either direction judges the kind mismatch dirty, clean or not
        p = prog("fn f(x)\nn <- fixed(0.0)\nn -> 0.0\nend")
        with pytest.raises(DirtyAncilla) as err:
            run(p, "f", [1.0])
        assert err.value.residual == float("inf")
        with pytest.raises(DirtyAncilla):
            uncall(p, "f", [1.0])

    def test_int_ancilla_released_as_float_passes_both_directions(self):
        # the uncall releases the Float 0.0 against the Int 0
        p = prog("fn f(y, x)\nn <- 0\nn -> 0.0\nend")
        assert run(p, "f", [0.0, 1.0]) == [0.0, 1.0]
        report = check_reversibility(p, "f", [0.0, 1.0])
        assert report.ok and report.error is None

    def test_int_ancilla_released_as_bool_is_dirty(self):
        # 0 == False in Python, but a release compares kinds too
        p = prog("fn f(x)\nn <- 0\nn -> false\nend")
        with pytest.raises(DirtyAncilla) as err:
            run(p, "f", [1])
        assert err.value.residual == float("inf")
        assert not check_reversibility(p, "f", [1]).ok
        assert run(prog("fn f(x)\nn <- false\nn -> false\nend"), "f",
                   [1]) == [1]

    def test_plain_release_does_not_unwrap(self, monkeypatch):
        calls = []

        def counting(v):
            calls.append(v)
            return unwrap(v)
        unwrap = interpreter.unwrap_gvar
        monkeypatch.setattr(interpreter, "unwrap_gvar", counting)
        p = prog("fn f(y, x)\nn <- 0.0\nn += x\ny += n * x\n"
                 "n -= x\nn -> 0.0\nend")
        assert run(p, "f", [0.0, 3.0]) == [9.0, 3.0]
        assert calls == []
        # n has cotangent 3.0 at its release in the backward pass, which
        # passes because a gradient frame compares primal values only
        _, grads = gradient(p, GradRequest("f", [0.0, 3.0]))
        assert grads["x"] == 6.0
        assert calls

    def test_primitive_alias_check_is_counted(self):
        interp = Interpreter(prog("fn f(a)\nSWAP(a[1], a[2])\nend"))
        out = interp.run_function("f", [Array.vector([1.0, 2.0])])
        assert out[0].data == [2.0, 1.0]
        assert interp.stats.checks_passed["alias"] == 1

    def test_primitive_read_error_precedes_alias_error(self):
        p = prog("fn f(a)\nSWAP(a[3], a[3])\nend")
        with pytest.raises(IndexOutOfBounds):
            run(p, "f", [Array.vector([1.0, 2.0])])

    def test_mutated_for_iterator(self):
        p = prog("""fn f(x!, n)
for i = 1:1:n
    n += 1
    x! += 1
    n -= 1
end
end""")
        assert run(p, "f", [0, 3]) == [3, 3]
        p2 = prog("""fn f(x!, n!)
for i = 1:1:n!
    n! += 1
end
end""")
        with pytest.raises(LoopIteratorMutated):
            run(p2, "f", [0, 3])

    def test_mutated_loop_variable(self):
        p = prog("""fn f(x!)
for i = 1:1:3
    INC(i)
    x! += 1
end
end""")
        with pytest.raises(LoopIteratorMutated):
            run(p, "f", [0])

    def test_aliased_instruction_target(self):
        p = prog("fn f(a)\na += a\nend")
        with pytest.raises(AliasedArguments):
            run(p, "f", [1.0])

    def test_aliased_call_arguments(self):
        p = prog("""fn g(a, b)
a += b
end
fn f(x)
g(x, x)
end""")
        with pytest.raises(AliasedArguments):
            run(p, "f", [1.0])

    def test_aliased_array_cell_vs_whole(self):
        p = prog("""fn g(a, b)
a += b[1]
end
fn f(x)
g(x[2], x)
end""")
        with pytest.raises(AliasedArguments):
            run(p, "f", [Array.vector([1.0, 2.0])])

    def test_distinct_cells_allowed(self):
        p = prog("""fn g(a, b)
a += b
end
fn f(x)
g(x[2], x[1])
end""")
        out = run(p, "f", [Array.vector([1.0, 2.0])])
        assert out[0].data == [1.0, 3.0]

    def test_shared_read_plain_ok_gradient_rejected(self):
        p = prog("fn f(y, x)\ny += x * x\nend")
        assert run(p, "f", [0.0, 3.0]) == [9.0, 3.0]
        with pytest.raises(AliasedArguments):
            run(p, "f", [wrap_gvar(0.0), wrap_gvar(3.0)])

    def test_gvar_arguments_make_a_gradient_pass(self):
        # one Interpreter: plain values run forward, GVar values backward
        interp = Interpreter(prog("""fn sq(y, x)
y += x * x
end
fn shift(y, x)
n <- 0.0
n += x
y += n
n -= x
n -> 0.0
end
fn f(y, x)
shift(y, x)
end"""))
        assert interp.run_function("sq", [0.0, 3.0]) == [9.0, 3.0]
        with pytest.raises(AliasedArguments):
            interp.uncall_function("sq", [GVar(9.0, 1.0), GVar(3.0, 0.0)])
        assert interp.run_function("f", [0.0, 3.0]) == [3.0, 3.0]
        # the callee's ancilla is a GVar, so y's cotangent reaches x
        y, x = interp.uncall_function("f", [GVar(3.0, 1.0), GVar(3.0, 0.0)])
        assert (y.x, y.g, x.x, x.g) == (0.0, 1.0, 3.0, 1.0)

    def test_safe_assert_fires_even_unchecked(self):
        p = prog("""fn f(x)
@invcheckoff @safe assert(x > 0)
end""")
        with pytest.raises(AssertFailed):
            run(p, "f", [-1.0], ExecOptions(invcheck=False))

    def test_fuel_exhausted(self):
        p = prog("""fn f(x!)
for i = 1:1:100000
    x! += 1
end
end""")
        with pytest.raises(FuelExhausted):
            run(p, "f", [0], ExecOptions(max_steps=1000))

    def test_call_depth_exceeded_is_typed(self):
        p = prog("""fn down(n, k)
if (k > 0, ~)
    n += 1
    down(n, k |> addconst(-1))
end
end""")
        with pytest.raises(FuelExhausted, match="call depth"):
            run(p, "down", [0, 3000])
        assert run(p, "down", [0, 50]) == [50, 50]

    def test_zero_step_loop(self):
        p = prog("fn f(x!)\nfor i = 1:0:3\nx! += 1\nend\nend")
        with pytest.raises(RevDomainError):
            run(p, "f", [0])

    def test_duplicate_allocation_rejected_at_runtime(self):
        p = prog("fn f(y)\nx <- 0\nx <- 0\nx -> 0\nx -> 0\nend")
        with pytest.raises(DuplicateBinding):
            run(p, "f", [1])

    def test_invcheckoff_skips_dirty_check(self):
        p = prog("""fn f(x)
n <- 0.0
n += x
@invcheckoff n -> 0.0
end""")
        assert run(p, "f", [5.0]) == [5.0]

    def test_checks_are_observers(self):
        # identical results with and without checks on a passing program
        p = load_example("i_umm")
        import random
        from revlang.stdlib import sample_args
        args = sample_args("i_umm", random.Random(5))
        a = run(p, "i_umm", [x for x in map(_dc, args)])
        b = run(p, "i_umm", [x for x in map(_dc, args)],
                ExecOptions(invcheck=False))
        assert a == b


def _dc(v):
    from revlang.values import deep_copy
    return deep_copy(v)


class TestViews:
    def _env(self, **bindings):
        env = Frame()
        env.bindings.update(bindings)
        return env

    def _view(self, text):
        p = parse_program(f"fn t(q)\nq += {text}\nend")
        return p.get("t").body.stmts[0].args[1]

    def test_bijector_read(self):
        env = self._env(x=3)
        assert read_view(env, self._view("x |> addconst(1)")) == 4

    def test_bijector_write_applies_inverse(self):
        env = self._env(x=3)
        write_view(env, self._view("x |> addconst(1)"), 7)
        assert env.bindings["x"] == 6

    def test_array_cell_write(self):
        env = self._env(a=Array.vector([1, 2, 3]))
        write_view(env, self._view("a[2]"), 9)
        assert env.bindings["a"].data == [1, 9, 3]

    def test_field_write(self):
        env = self._env(p=Complex(1.0, 2.0))
        write_view(env, self._view("p.im"), 7.0)
        assert env.bindings["p"] == Complex(1.0, 7.0)

    def test_neg_bijector_roundtrip(self):
        env = self._env(x=3.5)
        v = self._view("x |> neg")
        assert read_view(env, v) == -3.5
        write_view(env, v, read_view(env, v))
        assert env.bindings["x"] == 3.5

    # read_view runs the same compiled reader as `q += <view>` in a program
    VIEW_PARAMS = ("q", "x", "a", "m", "p", "i", "j")

    def _view_args(self):
        return [0.0, 2.5, Array.vector([1.0, 2.0, 3.0]),
                Array.matrix([[1.0, 2.0], [3.0, 4.0]]), Complex(1.5, -0.5),
                2, 1]

    @pytest.mark.parametrize("text", ["x", "p.re", "a[i]", "m[i, j]",
                                      "x |> addconst(1) |> neg"])
    def test_read_view_matches_execution(self, text):
        p = prog(f"fn t({', '.join(self.VIEW_PARAMS)})\nq += {text}\nend")
        view = p.get("t").body.stmts[0].args[1]
        env = self._env(**dict(zip(self.VIEW_PARAMS, self._view_args())))
        expected = read_view(env, view)
        assert run(p, "t", self._view_args())[0] == expected
        assert expected == {"x": 2.5, "p.re": 1.5, "a[i]": 2.0,
                            "m[i, j]": 3.0,
                            "x |> addconst(1) |> neg": -3.5}[text]

    def test_non_int_index_is_a_kind_error(self):
        p = prog("fn t(q, a, i)\nq += a[i]\nend")
        args = [0.0, Array.vector([1.0, 2.0, 3.0]), 1.5]
        env = self._env(**dict(zip(("q", "a", "i"), args)))
        with pytest.raises(KindError):
            read_view(env, p.get("t").body.stmts[0].args[1])
        with pytest.raises(KindError):
            run(p, "t", args)


class TestEnvironmentHygiene:
    def test_binding_keyset_restored(self):
        p = prog("""fn g(a)
t <- 0.0
t += a
a += t
t -= a / 2
t -> 0.0
end
fn f(x)
g(x)
end""")
        interp = Interpreter(p)
        out = interp.run_function("f", [1.5])
        assert out == [3.0]

    def test_determinism(self):
        p = load_example("complex_log")
        args = [Complex(0.0, 0.0), Complex(1.0, 1.2)]
        from revlang.values import deep_copy
        a = run(p, "complex_log", [deep_copy(v) for v in args])
        b = run(p, "complex_log", [deep_copy(v) for v in args])
        assert a == b


class TestCheckReversibility:
    def test_multiplier_exact(self):
        rep = check_reversibility(load_example("multiplier"), "multiplier",
                                  [2, 3, 5])
        assert rep.ok and rep.max_deviation == 0.0

    def test_dirty_program_reported_not_raised(self):
        p = prog("""fn f(x)
n <- 0.0
n += x
n -> 0.0
end""")
        rep = check_reversibility(p, "f", [1.0])
        assert not rep.ok
        assert "DirtyAncilla" in rep.error

    def test_report_json_stable(self):
        rep = check_reversibility(load_example("multiplier"), "multiplier",
                                  [2, 3, 5])
        import json
        d = json.loads(rep.to_json())
        assert d["ok"] is True and d["function"] == "multiplier"


class TestTrace:
    def test_trace_golden(self):
        p = prog("fn f(y, a)\ny += a\nSWAP(y, a)\nend")
        sink = []
        run(p, "f", [1.0, 2.0], ExecOptions(trace=True, trace_sink=sink))
        assert sink == [
            "2:1\tInstrCall\ty,a",
            "3:1\tFnCall\ty,a",
        ]


class TestFloat32Mode:
    def test_literals_and_arithmetic_stay_binary32(self):
        import numpy as np
        p = prog("""fn f(x)
h <- 0.0
h += x / 2
x += h * h
h -= x |> addconst(0) / 2
end""")
        # simpler: just exercise literal dtype
        p = prog("""fn f(x)
h <- 2.0
x += h
h -> 2.0
end""")
        out = run(p, "f", [np.float32(1.0)],
                  ExecOptions(float_dtype=np.float32))
        assert isinstance(out[0], np.float32)
        assert out[0] == np.float32(3.0)


class TestMiscSurface:
    def test_safe_print_goes_to_stdout(self, capsys):
        p = prog("fn f(x)\n@safe print(x)\nend")
        run(p, "f", [7])
        assert capsys.readouterr().out.strip() == "7"

    def test_invcheckoff_block_form(self):
        p = prog("""fn f(x)
@invcheckoff begin
    n <- 0.0
    n += x
    n -> 0.0
end
end""")
        assert run(p, "f", [2.5]) == [2.5]

    def test_size_needs_an_int_dimension(self):
        src = "fn f(y, a)\nn <- size(a, {d})\ny += n\nn -> size(a, {d})\nend"
        a = Array.matrix([[1.0, 2.0, 3.0]])
        assert run(prog(src.format(d="2")), "f", [0, a])[0] == 3
        for d in ("1.5", "true"):
            with pytest.raises(KindError, match="Int dimension"):
                run(prog(src.format(d=d)), "f", [0, a])

    def test_exec_options_validation(self):
        with pytest.raises(ValueError):
            ExecOptions(float_tolerance=-1.0)
        with pytest.raises(ValueError):
            ExecOptions(max_steps=0)

    def test_explicit_inverse_must_match_arity(self):
        # ~g(x, y) and the uncall of h both run the explicit ~g
        p = prog("""fn g(a, b)
a += b
end
fn ~g(a)
a -= 1
end
fn f(x, y)
~g(x, y)
end
fn h(x, y)
g(x, y)
end""")
        with pytest.raises(ValidationFailed, match="ArityMismatch"):
            run(p, "f", [5, 2])
        with pytest.raises(ValidationFailed, match="ArityMismatch"):
            uncall(p, "h", [5, 2])

    def test_call_resolves_to_generated_inverse(self):
        # only ~g is written; g is its generated inverse
        p = prog("""fn ~g(a)
a -= 1
end
fn f(x)
g(x)
end
fn h(x)
~g(x)
end""")
        assert run(p, "f", [5]) == [6]
        assert run(p, "h", [5]) == [4]
        assert uncall(p, "f", [6]) == [5]

    @pytest.mark.parametrize("name", [*sorted(CATALOG), "explicit-inverse"])
    def test_each_definition_expanded_once(self, name, monkeypatch):
        # the generated inverses are the inverted expanded definitions,
        # equal in text to the expansions of the inverted sources
        p = load_example(name) if name in CATALOG else prog("""fn f(y, x)
@routine begin
    n <- 0.0
    n += 2.0 * x
end
y += n
~@routine
end
fn ~f(y, x)
y -= 2.0 * x
end
fn g(y, x)
@routine begin
    f(y, x)
end
y += x
~@routine
end""")
        expected = {f.name: expand_routines(f) for f in p}
        for f in p:
            inv = invert_function(f)
            expected.setdefault(inv.name, expand_routines(inv))
        calls = []
        monkeypatch.setattr(interpreter, "expand_routines",
                            lambda f: calls.append(f) or expand_routines(f))
        defs = Interpreter(p).defs
        assert len(calls) == len(list(p))
        text = lambda f: pretty_print(Program([f]))
        assert list(defs) == list(expected)
        assert [text(f) for f in defs.values()] == \
            [text(f) for f in expected.values()]
        if name not in CATALOG:   # the written ~f is kept
            assert text(defs["~f"]) == "fn ~f(y, x)\n    y -= 2.0 * x\nend\n"

    def test_uncall_of_textual_inverse_name(self):
        p = prog("fn f(x)\nx += 1\nend")
        # calling the generated inverse by its name works
        assert Interpreter(p).run_function("~f", [3]) == [2]


def _bits(v):
    if isinstance(v, Complex):
        return ("Complex", _bits(v.re), _bits(v.im))
    if isinstance(v, Fixed):
        return ("Fixed", v.raw)
    if isinstance(v, (bool, int)):
        return (type(v), v)
    return (type(v), np.asarray(v).tobytes())


def _outcome(interp, fname, args):
    """The bits and type of the first result, or the error type."""
    try:
        with np.errstate(all="ignore"):
            out = interp.run_function(fname, [deep_copy(a) for a in args])
    except Exception as err:
        return type(err)
    return _bits(out[0])


_floats = st.floats()
_binary32 = st.floats(width=32).map(np.float32)
# Int operands stay small so that Int `pow` results stay small
OPERANDS = st.one_of(
    st.integers(-1000, 1000), _floats, _binary32,
    st.integers(-2**63, 2**63 - 1).map(Fixed), st.booleans(),
    st.builds(Complex, _floats, _floats),
    st.builds(Complex, _binary32, _binary32))
DIFF_FNS = sorted(f for f, spec in INSTR_FNS.items() if spec.apply)


@functools.cache
def _diff_interp(fname):
    """`direct` applies f as an instruction; `via` evaluates it as an
    ancilla initialiser and adds the ancilla. The release is unchecked:
    the property is about values, and a NaN never releases."""
    params = ", ".join("ab"[:INSTR_FNS[fname].min_arity])
    call = f"{fname}({params})"
    return Interpreter(prog(
        f"fn direct(y, {params})\ny += {call}\nend\n"
        f"fn via(y, {params})\nn <- {call}\ny += identity(n)\n"
        f"@invcheckoff n -> {call}\nend\n"))


def _via_expr(text, *args):
    """Evaluate expression `text` over args a, b as an ancilla initialiser
    and return its value (the ancilla is swapped into the target y)."""
    params = ", ".join("ab"[:len(args)])
    p = prog(f"fn f(y, {params})\nn <- {text}\nSWAP(y, n)\n"
             f"@invcheckoff n -> 0\nend")
    return run(p, "f", [0.0, *args])[0]


class TestOneArithmetic:
    """Expressions and instructions share one arithmetic: the numerics
    function table."""

    @pytest.mark.parametrize("fname", DIFF_FNS)
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_expression_matches_instruction(self, fname, data):
        n_args = INSTR_FNS[fname].min_arity
        args = [data.draw(OPERANDS, label="y")] + \
            [data.draw(OPERANDS) for _ in range(n_args)]
        interp = _diff_interp(fname)
        direct = _outcome(interp, "direct", args)
        assert _outcome(interp, "via", args) == direct
        if isinstance(direct, type):
            assert issubclass(direct, RevLangError), direct

    def test_complex_sum_with_binary32_operand(self):
        # numpy made float32 + complex a complex64 that an Int target took
        interp = _diff_interp("add")
        args = [0, np.float32(0.0), Complex(1.0, 2.0)]
        assert _outcome(interp, "direct", args) is KindError
        assert _via_expr("a + b", np.float32(0.5), Complex(1.0, 2.0)) == \
            Complex(1.5, 2.0)

    @pytest.mark.parametrize("y, fname, args", [
        (0, "exp", [710.0]),
        (0, "pow", [6, 397.0]),
        (0, "sin", [float("inf")]),
        (Fixed(0), "abs", [4.185580496821357e+298]),
    ])
    def test_host_math_errors_are_domain_errors(self, y, fname, args):
        interp = _diff_interp(fname)
        assert _outcome(interp, "direct", [y, *args]) is RevDomainError
        assert _outcome(interp, "via", [y, *args]) is RevDomainError

    def test_fixed_product_is_float(self):
        fx = Fixed.from_real
        out = _via_expr("a * b", fx(1.5), fx(2.0))
        assert type(out) is float and out == 3.0
        assert _via_expr("a / b", fx(3.0), fx(2.0)) == 1.5
        assert _via_expr("a + b", fx(1.5), fx(2.0)) == fx(3.5)
        assert _via_expr("-a", fx(1.5)) == fx(-1.5)

    def test_fixed_neg_instruction_is_exact(self):
        p = prog("fn f(y, a)\ny += neg(a)\nend")
        big = Fixed(2**62 + 1)
        assert run(p, "f", [Fixed(0), big])[0].raw == -(2**62 + 1)

    def test_mod_takes_reals_and_rejects_zero(self):
        assert _via_expr("a % b", 5.5, 2.0) == 1.5
        assert _via_expr("a % b", 7, 3) == 1
        for text in ("n <- a % b\nn -> a % b",
                     "n <- 0\nn += mod(a, b)\nn -= mod(a, b)\nn -> 0"):
            p = prog(f"fn f(a, b)\n{text}\nend")
            with pytest.raises(RevDomainError):
                run(p, "f", [5, 0])

    def test_instruction_functions_are_expression_calls(self):
        assert _via_expr("mul(a, b)", 3.0, 2.0) == 6.0
        assert _via_expr("identity(a)", 2.5) == 2.5
        assert _via_expr("atan2(a, b)", 1.0, 1.0) == math.atan2(1.0, 1.0)
        assert _via_expr("abs(a)", Complex(3.0, 4.0)) == 5.0

    def test_complex_power_expression(self):
        assert _via_expr("a ^ b", Complex(1.0, 2.0), 2) == \
            Complex(-3.0, 4.0)

    def test_real_only_function_rejects_complex(self):
        for text in ("y += sqrt(a)", "n <- sqrt(a)\nn -> sqrt(a)",
                     "y += mod(a, b)", "y += identity(a)"):
            p = prog(f"fn f(y, a, b)\n{text}\nend")
            with pytest.raises(KindError):
                run(p, "f", [0.0, Complex(1.0, 2.0), 2.0])

    def test_real_power_with_complex_result_is_domain_error(self):
        p = prog("fn f(y, a, b)\nn <- a ^ b\nn -> a ^ b\nend")
        with pytest.raises(RevDomainError):
            run(p, "f", [0.0, -8.0, 0.5])
        with pytest.raises(RevDomainError):
            run(prog("fn f(y, a, b)\ny += pow(a, b)\nend"), "f",
                [0.0, -8.0, 0.5])
        assert run(p, "f", [0.0, -8.0, 2.0]) == [0.0, -8.0, 2.0]
        # binary32 spells the complex result NaN
        f32 = ExecOptions(float_dtype=np.float32)
        with np.errstate(invalid="ignore"), pytest.raises(RevDomainError):
            run(p, "f", [np.float32(0.0), np.float32(-8.0), np.float32(0.5)],
                f32)


# --- index closures: one per rank, against the generic rule ---------------

# index kinds: in bounds, 0, n+1, negative, Bool, np.int64, Float, and
# values bound to GVars (as in a gradient frame); the literal form takes
# only the kinds a program can spell
INDEX_KINDS = ("in", "zero", "over", "neg", "bool", "np_int", "float",
               "gvar_int", "gvar_float")
LITERAL_KINDS = ("in", "zero", "over", "neg", "bool", "float")


@st.composite
def index_cases(draw):
    """(root, index expressions, bindings, index values as the rule sees
    them): a 1-D or 2-D array or a non-Array root, with one to three
    indices, so that some have the wrong rank."""
    rank = draw(st.sampled_from((1, 2)))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(rank))
    size = shape[0] * (shape[1] if rank == 2 else 1)
    root = draw(st.sampled_from((
        Array([float(k) for k in range(size)], shape),) * 4
        + (1.5, Complex(1.0, 2.0))))
    n_idx = draw(st.sampled_from((rank,) * 4 + (1, 2, 3)))
    exprs, bindings, values = [], {}, []
    for k in range(n_idx):
        n = shape[k] if k < rank else 1
        kind = draw(st.sampled_from(INDEX_KINDS))
        cell = draw(st.integers(1, n))
        v = {"in": cell, "zero": 0, "over": n + 1,
             "neg": -draw(st.integers(1, 3)), "bool": draw(st.booleans()),
             "np_int": np.int64(draw(st.integers(0, n + 1))),
             "float": float(cell), "gvar_int": GVar(cell, 0.0),
             "gvar_float": GVar(float(cell), 0.0)}[kind]
        form = draw(st.sampled_from(
            ("lit", "var", "expr") if kind in LITERAL_KINDS
            else ("var", "expr")))
        name = f"k{k}"
        primal = v.x if isinstance(v, GVar) else v
        if form == "lit":
            exprs.append(Lit(v))
        else:
            bindings[name] = v
            ref = ViewRef(VarView(name))
            if form == "var":
                exprs.append(ref)
            else:   # a computed index takes the general expression path
                exprs.append(Bin("+", ref, Lit(0)))
                primal = expr_fn("add").apply(primal, 0)
        values.append(primal)
    return root, exprs, bindings, values


def _ref_index(values):
    for v in values:
        if not is_int(v):
            raise KindError(f"array index must be an Int, got {v!r}")
    return tuple(values)


def _ref_cell(op, root, values, new=None):
    """The generic rule: the root must be an Array and every index an
    Int; then `Array.get`/`Array.set` decide, bounds and rank included."""
    if op == "id":
        return ("a", ("idx", _ref_index(values)))
    if not isinstance(root, Array):
        raise KindError("indexing into a non-array")
    idx = _ref_index(values)
    if op == "read":
        return root.get(idx)
    root.set(idx, new)
    return root


def _outcome_of(fn):
    try:
        return ("ok", fn())
    except RevLangError as err:
        return ("error", type(err))


class TestIndexClosures:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(case=index_cases(), op=st.sampled_from(("read", "write", "id")))
    def test_closures_match_generic_rule(self, case, op):
        root, exprs, bindings, values = case
        view = IndexView(VarView("a"), tuple(exprs))
        env = Frame("t", grad=any(isinstance(v, GVar)
                                  for v in bindings.values()))
        env.bindings.update(bindings, a=deep_copy(root))
        ref_root = deep_copy(root)
        if op == "read":
            got = _outcome_of(lambda: read_view(env, view))
            want = _outcome_of(lambda: _ref_cell("read", ref_root, values))
        elif op == "write":
            got = _outcome_of(lambda: write_view(env, view, -1.0)
                              .bindings["a"])
            want = _outcome_of(lambda: _ref_cell("write", ref_root, values,
                                                 -1.0))
        else:
            got = _outcome_of(lambda: canonical_view_identity(env, view))
            want = _outcome_of(lambda: _ref_cell("id", ref_root, values))
        assert got == want

    @pytest.mark.parametrize("n_idx", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(4,), (1, 3), (3, 1), (2, 3)])
    def test_every_int_cell_and_its_neighbours(self, shape, n_idx):
        """Exhaustive over small shapes and one to three indices: each
        plain Int index from -1 to n + 2, read and written."""
        size = math.prod(shape)
        dims = (shape + (2, 2))[:n_idx]
        for idx in itertools.product(*(range(-1, n + 3) for n in dims)):
            view = IndexView(VarView("a"), tuple(Lit(i) for i in idx))
            env = Frame()
            env.bindings["a"] = Array([float(k) for k in range(size)], shape)
            ref = Array([float(k) for k in range(size)], shape)
            assert _outcome_of(lambda: read_view(env, view)) == \
                _outcome_of(lambda: _ref_cell("read", ref, idx))
            assert _outcome_of(lambda: write_view(env, view, -1.0)
                               .bindings["a"]) == \
                _outcome_of(lambda: _ref_cell("write", ref, idx, -1.0))

    def test_cases_reach_every_outcome(self):
        seen = set()

        @settings(max_examples=400, deadline=None, derandomize=True,
                  database=None)
        @given(case=index_cases())
        def collect(case):
            root, _, _, values = case
            out = _outcome_of(lambda: _ref_cell("read", root, values))
            seen.add(out if out[0] == "error" else ("ok",))
        collect()
        assert seen == {("ok",), ("error", KindError),
                        ("error", IndexOutOfBounds)}


# --- alias pairs discharged at compile time -------------------------------

def _alias_program(call):
    return prog(f"fn g(a, b)\na += b\nend\nfn f(v, i, j)\n{call}\nend")


def _arg_views(text):
    return prog(f"fn f(v, x!, i, j)\n{text}\nend").get("f").body.stmts[0].args


class TestStaticAliasDischarge:
    @pytest.mark.parametrize("call", ["g(v[i, 1], v[i, 2])",
                                      "v[i, 1] += v[i, 2]"])
    def test_distinct_literal_cells_pass_and_count(self, call):
        interp = Interpreter(_alias_program(call))
        out = interp.run_function("f", [Array.matrix([[1.0, 2.0]]), 1, 1])
        assert out[0].data == [3.0, 2.0]
        assert interp.stats.checks_passed["alias"] == 1

    @pytest.mark.parametrize("call", ["g(v[i, 1], v[j, 1])", "g(v, v[1, 2])",
                                      "g(v[1, 2], v[1, 2])",
                                      "v[i, 1] += v[j, 1]"])
    def test_possible_overlaps_are_still_rejected(self, call):
        with pytest.raises(AliasedArguments):
            run(_alias_program(call), "f",
                [Array.matrix([[1.0, 2.0]]), 1, 1])

    def test_runtime_check_passes_distinct_rows(self):
        interp = Interpreter(_alias_program("g(v[i, 1], v[j, 1])"))
        out = interp.run_function("f", [Array.matrix([[1.0], [2.0]]), 1, 2])
        assert out[0].data == [3.0, 2.0]
        assert interp.stats.checks_passed["alias"] == 1

    @pytest.mark.parametrize("text, disjoint", [
        ("g(v[i, 1], v[i, 2])", True),
        ("g(x![i, 1], x![i, 3] |> neg)", True),
        ("g(v[1, i], v[2, j])", True),
        ("g(v[i, 1], v[j, 1])", False),
        ("g(v, v[1, 2])", False),
        ("g(v[1, 2], v[1, 2])", False),
        ("g(v[i, 1], v[i, j])", False),
        ("x![j, 1] -= x![i, 1]", False),    # only an `if` keeps i, j apart
    ])
    def test_disjoint_needs_distinct_literals(self, text, disjoint):
        a, b = _arg_views(text)[:2]
        assert interpreter._disjoint(a, b) is disjoint

    # ExecStats of four leapfrog steps forward and back, as recorded before
    # the static discharge: no check count may move
    LEAPFROG_STATS = {
        "clean": (1182, {"postcondition": 42, "ancilla": 182,
                         "iterator": 56, "alias": 20}),
        "cumulative": (1062, {"postcondition": 42, "ancilla": 122,
                              "iterator": 56, "alias": 140}),
    }

    @pytest.mark.parametrize("variant", ["clean", "cumulative"])
    @pytest.mark.parametrize("dtype, invcheck", [
        (None, True), (np.float32, True), (None, False)])
    def test_leapfrog_stats_unchanged(self, variant, dtype, invcheck):
        from revlang.stdlib import two_body_config
        cfg, z = two_body_config(steps=4), dtype or float
        args = [Array.matrix([[z(c) for c in x] for _, x, _ in cfg.bodies]),
                Array.matrix([[z(c) for c in v] for _, _, v in cfg.bodies]),
                Array.vector([z(m) for m, _, _ in cfg.bodies]),
                z(cfg.gravity), z(cfg.dt), cfg.steps]
        interp = Interpreter(load_example("leapfrog_clean"), ExecOptions(
            invcheck=invcheck, float_dtype=dtype,
            float_tolerance=1e-3 if dtype else 1e-9))
        out = interp.run_function(f"leapfrog_{variant}", args)
        interp.uncall_function(f"leapfrog_{variant}", out)
        steps, checks = self.LEAPFROG_STATS[variant]
        if not invcheck:    # alias checks are not reversibility checks
            checks = dict.fromkeys(checks, 0) | {"alias": checks["alias"]}
        assert interp.stats.steps == steps
        assert interp.stats.checks_passed == checks


class TestCompare:
    def test_binary32_equality_is_a_condition(self):
        p = prog("fn f(y, a, b)\nif (a == b, ~)\ny += 1.0\nend\nend")
        f32 = [np.float32(0.0), np.float32(1.5), np.float32(1.5)]
        out = run(p, "f", f32, ExecOptions(float_dtype=np.float32))
        assert out[0] == np.float32(1.0)

    @pytest.mark.parametrize("a, b", [(1, 2), (2.5, -1), (Fixed(3), 2.0),
                                      (Fixed(1), Fixed(-5)), (True, 0)])
    def test_min_max_follow_python_order(self, a, b):
        assert _via_expr("min(a, b)", a, b) == min(a, b)
        assert _via_expr("max(a, b)", a, b) == max(a, b)

    def test_complex_min_is_a_kind_error(self):
        p = prog("fn f(y, a, b)\nif (min(a, b) == a, ~)\ny += 1.0\nend\nend")
        with pytest.raises(KindError):
            run(p, "f", [0.0, Complex(1.0, 2.0), Complex(3.0, 1.0)])
