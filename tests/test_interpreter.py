import functools
import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from revlang import analysis, interpreter, reverser
from revlang.errors import (AliasedArguments, AssertFailed, DirtyAncilla,
                            DuplicateBinding, FuelExhausted, IndexOutOfBounds,
                            KindError, LoopIteratorMutated,
                            PostconditionMismatch, RevDomainError,
                            RevLangError, UnknownFunction, ValidationFailed)
from revlang.autodiff import GradRequest, gradient, jacobian
from revlang.interpreter import (ExecOptions, Frame, Interpreter,
                                 canonical_view_identity, check_reversibility,
                                 read_view, run, uncall, write_view)
from revlang.ir import (Bin, Block, FnCall, FunctionDef, IndexView, Inlined,
                        InstrCall, Lit, Param, Program, VarView, ViewRef,
                        inverse_name, validate)
from revlang.numerics import (INSTR_FNS, FnSpec, PrimitiveInstr, apply_instr,
                              expr_fn, wrap_gvar)
from revlang.parser import parse_program, pretty_print
from revlang.reverser import expand_routines, invert_function
from revlang.stdlib import CATALOG, asset_text, load_example
from revlang.values import (Array, Complex, Dual, Fixed, GVar, deep_copy,
                            deviation, is_int, kind_name)

from fuel_charges import recording_fuel
from lowered import keep_calls, record_lowering


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

    # an `if (c, ~)` whose condition compares Ints that neither branch may
    # rebind has its postcondition counted, not evaluated again
    def test_a_branch_over_ints_it_cannot_rebind_is_counted(
            self, monkeypatch):
        p = prog("fn f(y, i)\nINC(i)\nif (i == 1, ~)\ny += 1.0\nend\n"
                 "DEC(i)\nend")
        calls = []
        monkeypatch.setattr(interpreter, "_branch",
                            lambda *a: calls.append(a))
        interp = Interpreter(p)
        assert interp.run_function("f", [0.0, 0]) == [1.0, 0]
        assert calls == [] and interp.stats.checks_passed["postcondition"] == 1

    def test_a_branch_that_rebinds_its_condition_variable_is_checked(self):
        p = prog("fn f(i)\nINC(i)\nif (i == 1, ~)\nINC(i)\nend\nend")
        assert Interpreter(p).unit.want("f") == ["I"]   # `i` is an Int
        with pytest.raises(PostconditionMismatch):
            run(p, "f", [0])

    def test_a_branch_with_a_call_that_may_rebind_it_is_checked(
            self, inlining):
        p = prog("fn g(n)\nINC(n)\nend\nfn f(i)\nINC(i)\n"
                 "if (i == 1, ~)\ng(i)\nend\nend")
        with pytest.raises(PostconditionMismatch):
            run(p, "f", [0])

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
        src = "fn f(y, x)\nn <- 0.0\nn += x\ny += n * x\nn -= x\n" \
              "n -> 0.0\nend"
        p = prog(src)
        assert run(p, "f", [0.0, 3.0]) == [9.0, 3.0]
        assert calls == []
        # n has cotangent 3.0 at its release in the backward pass, which
        # passes because a gradient frame compares primal values only: the
        # specialised body decides it on `n.x`, inline, and the generic
        # body's `_release` unwraps both sides
        _, grads = gradient(p, GradRequest("f", [0.0, 3.0]))
        assert grads["x"] == 6.0 and calls == []
        monkeypatch.setattr(interpreter, "_holds", lambda *a: False)
        _, grads = gradient(prog(src), GradRequest("f", [0.0, 3.0]))
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

    @pytest.mark.parametrize("header", ["for i = n:1:3", "for i = 1:n:3",
                                        "for i = 1:1:n", "for i = 3:-n:1"])
    def test_variable_loop_bounds_are_checked_again(self, header):
        p = prog(f"fn f(x!, n)\n{header}\nn += 1\nend\nend")
        with pytest.raises(LoopIteratorMutated, match="range changed"):
            run(p, "f", [0, 1])
        assert run(p, "f", [0, 1], ExecOptions(invcheck=False))[1] > 1

    def test_literal_loop_bounds_count_one_check_per_loop(self):
        p = prog("fn f(x!)\nfor i = 1:1:3\nx! += 1\nend\n"
                 "for j = 3:-1:1\nx! -= j\nend\nend")
        interp = Interpreter(p)
        assert interp.run_function("f", [0]) == [-3]
        assert interp.stats.checks_passed["iterator"] == 2

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

    @pytest.mark.parametrize("src, cells", [
        ("fn f(i, a)\ni += a[i]\nend", [1.0, 5.0]),        # an instruction
        ("fn f(i, a)\nSWAP(i, a[i])\nend", [2, 5]),        # a primitive
        ("fn k(i, y)\nINC(i)\nend\nfn f(i, a)\nk(i, a[i])\nend",
         [10, 20]),                                          # a call
    ], ids=["instruction", "primitive", "call"])
    @pytest.mark.parametrize("body", ["specialised", "generic", "gradient"])
    @pytest.mark.parametrize("direction", ["run", "uncall"])
    def test_a_statement_may_not_rebind_an_index_of_its_arguments(
            self, src, cells, body, direction):
        """The inverse would find another cell at that index: `i += a[i]`
        on (1, [1.0, 5.0]) ran to i = 2, and its uncall gave i = -3."""
        wrap = (lambda c: GVar(float(c), 0.0)) if body == "gradient" \
            else (lambda c: c)
        with pytest.MonkeyPatch.context() as m:
            if body == "generic":
                m.setattr(interpreter, "_holds", lambda *a: False)
            interp = Interpreter(prog(src))
            with pytest.raises(AliasedArguments,
                               match="'i' indexes an argument") as err:
                getattr(interp, f"{direction}_function")(
                    "f", [1, Array.vector([wrap(c) for c in cells])])
        assert err.value.span.line == src.count("\n")
        unit = interp.unit
        lowered = {"specialised": unit.bodies, "generic": unit.generic,
                   "gradient": unit.gradient.bodies}
        assert ("f" if direction == "run" else "~f") in lowered[body]

    def test_a_call_may_take_an_index_its_callee_does_not_write(
            self, inlining):
        # as kick_clean passes `i` and `j` to kick_pair_clean
        p = prog("fn k(i, y)\ny += i\nend\nfn f(i, a)\nk(i, a[i])\nend")
        out = run(p, "f", [2, Array.vector([10, 20])])
        assert out[0] == 2 and out[1].data == [10, 22]
        assert uncall(p, "f", out)[1].data == [10, 20]

    def test_shared_read_plain_ok_gradient_rejected(self):
        p = prog("fn f(y, x)\ny += x * x\nend")
        assert run(p, "f", [0.0, 3.0]) == [9.0, 3.0]
        with pytest.raises(AliasedArguments):
            run(p, "f", [wrap_gvar(0.0), wrap_gvar(3.0)])

    def test_gvar_arguments_make_a_gradient_pass(self, inlining):
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

    def test_call_inside_invcheckoff_runs_unchecked(self, inlining):
        # the callee's release is dirty: unchecked, it neither raises nor
        # counts, and neither do the checks of a call from inside it
        p = prog("""fn h(y, x)
n <- 0.0
n += x
n -> 0.0
end
fn g(y, x)
h(y, x)
end
fn f(y, x)
@invcheckoff g(y, x)
end""")
        interp = Interpreter(p)
        assert interp.run_function("f", [0.0, 1.0]) == [0.0, 1.0]
        assert interp.stats.checks_passed["ancilla"] == 0
        with pytest.raises(DirtyAncilla):
            interp.run_function("g", [0.0, 1.0])

    @pytest.mark.parametrize("x, clean", [
        (1e-9, True), (1.0000001e-9, False), (1.9e-9, False),
        (-1.5e-9, False), (float("inf"), False)])
    def test_float_release_tolerance_boundary(self, x, clean):
        # a release is clean when the residual is at most float_tolerance
        p = prog("fn f(y, x)\nn <- 0.0\nn += x\nn -> 0.0\nend")
        if clean:
            assert run(p, "f", [0.0, x]) == [0.0, x]
        else:
            with pytest.raises(DirtyAncilla):
                run(p, "f", [0.0, x])

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

    # read_view lowers the view as `q += <view>` reads it in a program
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

    def test_unbound_index_on_a_scalar_fails_as_in_a_program(self):
        # the base is evaluated before the index, in a run and in the helper
        p = prog("fn f(y, a)\ny += a[i]\nend")
        view = p.get("f").body.stmts[0].args[1]
        with pytest.raises(KindError, match="indexing into float"):
            run(p, "f", [0.0, 1.0])
        with pytest.raises(KindError, match="indexing into float"):
            read_view(self._env(y=0.0, a=1.0), view)

    def test_non_int_index_is_a_kind_error(self):
        p = prog("fn t(q, a, i)\nq += a[i]\nend")
        args = [0.0, Array.vector([1.0, 2.0, 3.0]), 1.5]
        env = self._env(**dict(zip(("q", "a", "i"), args)))
        with pytest.raises(KindError):
            read_view(env, p.get("t").body.stmts[0].args[1])
        with pytest.raises(KindError):
            run(p, "t", args)


class TestEnvironmentHygiene:
    def test_binding_keyset_restored(self, inlining):
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

    @pytest.mark.parametrize("args", [[1.0, math.nan], [math.nan, 1.0]])
    def test_a_nan_deviation_is_the_maximum(self, args):
        """NaN is never restored, and the maximum does not depend on where
        the NaN argument stands."""
        rep = check_reversibility(prog("fn f(a, b)\na += 1.0\nend"), "f",
                                  args)
        assert not rep.ok and rep.error is None
        assert math.isnan(rep.max_deviation)
        assert sorted(map(math.isnan, rep.per_arg_deviation)) == [False, True]

    def test_a_nan_component_is_the_deviation(self):
        for pair in ([1.0, math.nan], [math.nan, 1.0]):
            a = Array(list(pair), (2,))
            assert math.isnan(deviation(a, deep_copy(a)))
        assert math.isnan(deviation(GVar(1.0, math.nan), GVar(1.0, math.nan)))

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


    def test_a_binary64_target_keeps_its_type(self):
        p = prog("fn f(y, x)\ny += x * 0.5\nend")
        for opts, x in ((ExecOptions(float_dtype=np.float32), 3.0),
                        (None, np.float32(3.0))):
            out = run(p, "f", [1.0, x], opts)
            assert type(out[0]) is float and out[0] == 2.5
        # a Dual delta still makes a Dual
        y, _ = run(p, "f", [1.0, Dual(3.0, 1.0)])
        assert type(y) is Dual and (y.primal, y.tangent) == (2.5, 0.5)


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

    # a fractional or NaN budget used to fail only once fuel ran short, and
    # a NaN tolerance released nothing
    @pytest.mark.parametrize("option, value", [
        ("max_steps", 2.5), ("max_steps", math.nan), ("max_steps", "7"),
        ("float_tolerance", math.nan)])
    def test_exec_options_reject_what_no_run_can_use(self, option, value):
        with pytest.raises(ValueError):
            ExecOptions(**{option: value})

    def test_exec_options_take_a_numpy_step_budget(self):
        opts = ExecOptions(max_steps=np.int64(1))
        interp = Interpreter(prog("fn f(y)\ny += 1\ny += 1\nend"), opts)
        with pytest.raises(FuelExhausted, match="exceeded 1 statement"):
            interp.run_function("f", [0])
        assert type(interp.stats.steps) is int and interp.stats.steps == 2

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
        # equal in text to the expansions of the inverted sources; a fresh
        # parse, since a Program keeps its compiled units
        p = prog(asset_text(CATALOG[name][0])) if name in CATALOG \
            else prog("""fn f(y, x)
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
        monkeypatch.setattr(reverser, "expand_routines",
                            lambda f: calls.append(f) or expand_routines(f))
        defs = Interpreter(p).defs
        assert len(calls) == len(list(p))
        text = lambda f: pretty_print(Program([f]))
        # an inverse is made on its first lookup, and once
        assert list(defs) == [f.name for f in p]
        assert [text(defs[n]) for n in expected] == \
            [text(f) for f in expected.values()]
        assert sorted(defs) == sorted(expected)
        assert all(defs[n] is defs.get(n) for n in expected)
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
    @settings(max_examples=60)
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


# --- index views (flat offsets where `_offset` finds the cell) against the
# generic rule ------------------------------------------------------------

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
    @settings(max_examples=400)
    @given(case=index_cases(), op=st.sampled_from(("read", "write", "id")))
    def test_closures_match_generic_rule(self, case, op):
        root, exprs, bindings, values = case
        view = IndexView(VarView("a"), tuple(exprs))
        env = Frame()
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

        @settings(max_examples=400)
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

    @pytest.mark.parametrize("generic", [False, True])
    def test_a_zero_constant_offset_is_compared_at_run_time(self, generic):
        """`a[i]` and `a[i + 0]` are one cell, so the pair is checked when
        it runs, on either body; distinct literals stay discharged."""
        with pytest.MonkeyPatch.context() as m:
            if generic:
                m.setattr(interpreter, "_holds", lambda *a: False)
            interp = Interpreter(prog("fn f(a, i)\nSWAP(a[i], a[i + 0])\n"
                                      "end"))
            with pytest.raises(AliasedArguments):
                interp.run_function("f", [Array.vector([1.0, 2.0]), 1])
            assert ("f" in interp.unit.generic) is generic
            interp = Interpreter(prog("fn f(a, i)\nSWAP(a[1], a[2])\nend"))
            out = interp.run_function("f", [Array.vector([1.0, 2.0]), 1])
            assert out[0].data == [2.0, 1.0]
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
        assert analysis._disjoint(a, b) is disjoint

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


# --- lowering to Python functions -------------------------------------------

# .rnl names that are Python keywords, builtins or names the lowered code
# uses for its own parameters, temporaries and constants
EMITTER_NAMES = ["lambda", "None", "True", "return", "def", "class",
                 "import", "not", "print", "next", "type", "float", "len",
                 "Array", "frame", "b", "_k", "_k0", "_t1", "_v", "_r", "_f",
                 "_LS", "_fns", "_make", "I", "chk", "grad", "F", "cp", "e",
                 "f", "B", "V", "n", "k"]


class TestLowering:
    @pytest.mark.parametrize("name", EMITTER_NAMES)
    def test_names_of_the_lowered_code(self, name):
        p = prog(f"""fn {name}(a!, {name})
t <- {name}
a! += t * 2
t -> {name}
for i = 1:2
    a! += i
end
end
fn caller(x!, {name}!)
{name}(x!, {name}!)
~{name}(x!, {name}!)
{name}(x!, {name}!)
{name}! += 1
end""")
        sink = []
        for opts in (None, ExecOptions(invcheck=False),
                     ExecOptions(trace=True, trace_sink=sink)):
            assert run(p, "caller", [1, 5], opts) == [14, 6]
            assert uncall(p, "caller", [14, 6], opts) == [1, 5]
        assert sink[0] == f"10:1\tFnCall\tx!,{name}!"
        assert check_reversibility(p, name, [1.5, 2.0]).ok

    @pytest.mark.parametrize("header, depth, steps, check", [
        ("for i{k} = 1:1", 25, 51, "iterator"),
        ("if (x < 5.0, ~)", 120, 121, "postcondition")])
    def test_deep_nesting(self, header, depth, steps, check):
        # deeper than CPython compiles in one function (20 nested loops,
        # 100 indentation levels): inner statements become functions of
        # their own, and an error still carries its statement's span
        src = "fn f(y, x)\n" + "\n".join(
            header.format(k=k) for k in range(depth)) + \
            "\ny += log(x)\n" + "end\n" * depth + "end"
        interp = Interpreter(prog(src))
        assert interp.run_function("f", [0.0, 1.0]) == [0.0, 1.0]
        assert interp.stats.steps == steps
        assert interp.stats.checks_passed[check] == depth
        with pytest.raises(RevDomainError) as err:
            interp.run_function("f", [0.0, -1.0])
        assert err.value.span.line == depth + 2

    def test_one_python_function_per_definition(self):
        p = prog("fn g(a, b)\na += b\nend\nfn f(x, y)\ng(x, y)\n~g(x, y)\n"
                 "end")
        interp = Interpreter(p)
        assert interp.run_function("f", [1, 2]) == [1, 2]
        # lowered on the first call: f and the two it calls
        assert sorted(interp.unit) == ["f", "g", "~g"]
        assert all(callable(fn) for fn in interp.unit.values())

    @settings(max_examples=300)
    @given(case=index_cases(), target=st.booleans(), f32=st.booleans())
    def test_update_arms_match_generic_rule(self, case, target, f32):
        """`y += a[ix]` and `a[ix] += y` take the inline arm (and its flat
        offsets) when the operands allow, else the generic rule; both
        agree with `Array.get`/`Array.set`."""
        root, exprs, bindings, values = case
        assume(not any(isinstance(v, GVar) for v in bindings.values()))
        z = np.float32 if f32 else float
        if isinstance(root, Array):
            root = Array([z(v) for v in root.data], root.shape)
        cell = IndexView(VarView("a"), tuple(exprs))
        views = (cell, VarView("y")) if target else (VarView("y"), cell)
        names = ["a", "y", *bindings]
        fdef = FunctionDef("f", tuple(Param(n) for n in names),
                           Block((InstrCall("+=", "identity", views),)))
        assume(not validate(Program([fdef])))   # Int literal indices only
        opts = ExecOptions(float_dtype=np.float32 if f32 else None)
        args = [deep_copy(root), z(0.5), *bindings.values()]
        got = _outcome_of(
            lambda: Interpreter(Program([fdef]), opts).run_function(
                "f", args)[:2])
        ref = deep_copy(root)

        def want():
            old = _ref_cell("read", ref, values)
            if not target:
                return [ref, old + z(0.5)]
            _ref_cell("write", ref, values, old + z(0.5))
            return [ref, z(0.5)]
        assert got == _outcome_of(want)


class TestUnitCache:
    """Interpreters on one Program share its validated and lowered unit
    per option set the lowered code depends on."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"validate": 0, "lower": []}
        validate, function = interpreter.validate, \
            interpreter._Lowering.function

        def counting_validate(program):
            counts["validate"] += 1
            return validate(program)

        def counting_function(self, fdef):
            counts["lower"].append(fdef.name)
            return function(self, fdef)
        monkeypatch.setattr(interpreter, "validate", counting_validate)
        monkeypatch.setattr(interpreter._Lowering, "function",
                            counting_function)
        return counts

    SRC = "fn f(y, x)\nn <- 0.0\nn += x\ny += n * 2.0\nn -= x\nn -> 0.0\nend"

    def test_equal_options_validate_and_lower_once(self, counts):
        p = prog(self.SRC)
        a, b = Interpreter(p), Interpreter(p, ExecOptions())
        assert a.run_function("f", [0.0, 1.5]) == [3.0, 1.5]
        assert b.run_function("f", [0.0, 1.5]) == [3.0, 1.5]
        assert b.uncall_function("f", [3.0, 1.5]) == [0.0, 1.5]
        assert a.unit is b.unit
        assert counts == {"validate": 1, "lower": ["f", "~f"]}

    @pytest.mark.parametrize("opts", [
        ExecOptions(float_dtype=np.float32),
        ExecOptions(float_dtype=np.float32, trace=True, trace_sink=[]),
        ExecOptions(trace=True, trace_sink=[])])
    def test_options_of_the_lowered_code_get_their_own_unit(self, counts,
                                                             opts):
        p = prog(self.SRC)
        base = Interpreter(p)
        other = Interpreter(p, opts)
        assert other.unit is not base.unit
        assert Interpreter(p, opts).unit is other.unit
        assert counts["validate"] == 1
        x = np.float32(1.5) if opts.float_dtype else 1.5
        assert other.run_function("f", [x * 0, x]) == [x * 2, x]

    @pytest.mark.parametrize("opts", [
        ExecOptions(invcheck=False), ExecOptions(float_tolerance=1e-3)])
    def test_checks_and_tolerance_share_the_unit(self, counts, opts):
        """The lowered code reads `invcheck` and `float_tolerance` when it
        runs, so they do not split the unit."""
        p = prog(self.SRC)
        base = Interpreter(p)
        other = Interpreter(p, opts)
        assert other.unit is base.unit
        assert other.run_function("f", [0.0, 1.5]) == [3.0, 1.5]
        assert counts == {"validate": 1, "lower": ["f"]}

    def test_a_shared_unit_honours_each_interpreters_options(self, counts):
        p = prog("fn r(y, x)\nn <- 0.0\nn += x\nn -> 0.0\nend\n"
                 "fn q(x)\nif (x > 0, x > 2)\nx += 1\nend\nend")
        strict, loose = Interpreter(p), \
            Interpreter(p, ExecOptions(float_tolerance=1e-3))
        checked, unchecked = Interpreter(p), \
            Interpreter(p, ExecOptions(invcheck=False))
        assert strict.unit is loose.unit is checked.unit is unchecked.unit
        with pytest.raises(DirtyAncilla) as err:
            strict.run_function("r", [0.0, 1e-6])
        assert err.value.residual == 1e-6
        assert loose.run_function("r", [0.0, 1e-6]) == [0.0, 1e-6]
        assert loose.stats.checks_passed["ancilla"] == 1
        with pytest.raises(PostconditionMismatch):
            checked.run_function("q", [0.5])
        assert unchecked.run_function("q", [0.5]) == [1.5]
        assert unchecked.stats.checks_passed["postcondition"] == 0
        assert counts == {"validate": 1, "lower": ["r", "q"]}

    def test_statement_budgets_share_a_unit(self, counts):
        """The lowered code does not depend on `max_steps`: each
        interpreter's budget is its own, and so is its error."""
        p = prog(self.SRC)
        small = Interpreter(p, ExecOptions(max_steps=7))
        large = Interpreter(p, ExecOptions(max_steps=50))
        assert small.unit is large.unit is Interpreter(p).unit
        # 5 statements a run: the 8th is the third statement of run 2, the
        # 51st the first of run 11
        for interp, budget, runs, line in ((small, 7, 1, 4),
                                           (large, 50, 10, 2)):
            for _ in range(runs):
                interp.run_function("f", [0.0, 1.0])
            with pytest.raises(FuelExhausted) as err:
                interp.run_function("f", [0.0, 1.0])
            assert err.value.message == \
                f"exceeded {budget} statement executions"
            assert err.value.span.line == line
            assert interp.stats.steps == budget + 1
        assert counts == {"validate": 1, "lower": ["f"]}

    def test_trace_sinks_stay_per_interpreter(self):
        p = prog(self.SRC)
        first, second = [], []
        Interpreter(p, ExecOptions(trace=True, trace_sink=first)) \
            .run_function("f", [0.0, 1.0])
        Interpreter(p, ExecOptions(trace=True, trace_sink=second)) \
            .run_function("f", [0.0, 1.0])
        assert len(first) == 5 and first == second

    def test_program_add_drops_the_units(self, counts):
        p = prog(self.SRC)
        before = Interpreter(p)
        p.add(prog("fn g(y)\ny += 1.0\nend").get("g"))
        after = Interpreter(p)
        assert counts["validate"] == 2 and after.unit is not before.unit
        assert after.run_function("g", [1.0]) == [2.0]
        with pytest.raises(UnknownFunction):
            before.run_function("g", [1.0])
        assert before.run_function("f", [0.0, 1.0]) == [2.0, 1.0]

    def test_stats_are_per_interpreter(self):
        p = prog(self.SRC)
        a, b = Interpreter(p), Interpreter(p)
        a.run_function("f", [0.0, 1.0])
        a.run_function("f", [0.0, 1.0])
        b.run_function("f", [0.0, 1.0])
        assert a.stats.steps == 2 * b.stats.steps == 10
        assert a.stats.checks_passed["ancilla"] == 2
        assert b.stats.checks_passed["ancilla"] == 1

    def test_fuel_counts_over_the_runs_of_an_interpreter(self):
        p = prog(self.SRC)
        interp = Interpreter(p, ExecOptions(max_steps=7))
        interp.run_function("f", [0.0, 1.0])
        with pytest.raises(FuelExhausted) as err:
            interp.run_function("f", [0.0, 1.0])
        # 5 statements a run: the 8th is the third of the second run
        assert interp.stats.steps == 8
        assert err.value.span.line == 4

    def test_forward_runs_lower_no_gradient_variant(self, counts):
        interp = Interpreter(prog(self.SRC))
        assert interp.run_function("f", [0.0, 1.5]) == [3.0, 1.5]
        assert interp.uncall_function("f", [3.0, 1.5]) == [0.0, 1.5]
        assert counts["lower"] == ["f", "~f"]
        grad = interp.unit.gradient
        assert grad == {} and grad.bodies == grad.generic == {}

    def test_second_gradient_call_lowers_nothing(self, counts):
        p = prog(self.SRC)
        first = gradient(p, GradRequest("f", [0.0, 1.5]))
        # the forward pass runs f, the backward pass ~f's gradient body
        assert counts["lower"] == ["f", "~f"]
        assert sorted(Interpreter(p).unit) == ["f"]
        assert sorted(Interpreter(p).unit.gradient.bodies) == ["~f"]
        assert gradient(p, GradRequest("f", [0.0, 1.5])) == first
        assert counts == {"validate": 1, "lower": ["f", "~f"]}

    def test_gradient_variant_calls_gradient_variants(self, no_inlining):
        # h asks nothing of its arguments, yet a gradient body calls its
        # gradient body, never a forward one: the gradient unit's
        # specialised bodies, whose guards ask no float
        p = prog("fn g(a, b)\na += b * 2.0\nend\nfn h(a, b)\nSWAP(a, b)\n"
                 "end\nfn f(y, x)\ng(y, x)\nh(y, x)\nh(y, x)\nend")
        interp = Interpreter(p)
        y, x = GVar(0.0, 1.0), GVar(1.5, 0.0)
        assert interp.run_function("f", [y, x]) == [GVar(3.0, 1.0),
                                                    GVar(1.5, -2.0)]
        assert sorted(interp.unit.gradient.bodies) == ["f", "g", "h"]
        assert interp.unit.gradient.generic == {}
        assert interp.unit == {} and interp.unit.bodies == {}

    def test_the_front_end_runs_once_per_program(self, counts, monkeypatch):
        """Validation, routine expansion and the generated inverses are
        made once per Program and shared by every unit and variant; an
        inverse is made on its first lookup, so a forward run makes none;
        `Program.add` makes them again."""
        made = {"expand": [], "invert": []}
        expand, invert = reverser.expand_routines, interpreter.invert_function
        monkeypatch.setattr(reverser, "expand_routines",
                            lambda f: made["expand"].append(f.name)
                            or expand(f))
        monkeypatch.setattr(interpreter, "invert_function",
                            lambda f: made["invert"].append(f.name)
                            or invert(f))
        p = prog("fn g(a, b)\na += b * 2.0\nend\nfn f(y, x)\n"
                 "@routine begin\nn <- 0.0\nn += x\nend\ng(y, n)\n"
                 "~@routine\nend")
        f32 = np.float32
        assert Interpreter(p).run_function("f", [0.0, 1.5]) == [3.0, 1.5]
        assert Interpreter(p, ExecOptions(float_dtype=f32)).run_function(
            "f", [f32(0.0), f32(1.5)]) == [f32(3.0), f32(1.5)]
        assert Interpreter(p, ExecOptions(trace=True, trace_sink=[])) \
            .uncall_function("f", [3.0, 1.5]) == [0.0, 1.5]
        assert gradient(p, GradRequest("f", [0.0, 1.5]))[1]["x"] == 2.0
        assert counts["validate"] == 1
        assert made["expand"] == ["g", "f"]
        assert sorted(made["invert"]) == ["f", "g"]
        p.add(prog("fn h(y)\ny += 1.0\nend").get("h"))
        assert Interpreter(p).run_function("h", [1.0]) == [2.0]
        assert counts["validate"] == 2
        assert made["expand"] == ["g", "f"] * 2 + ["h"]
        assert sorted(made["invert"]) == ["f", "g"]
        assert Interpreter(p).uncall_function("h", [2.0]) == [1.0]
        assert Interpreter(p).uncall_function("f", [3.0, 1.5]) == [0.0, 1.5]
        assert sorted(made["invert"]) == ["f", "f", "g", "g", "h"]

    def test_invalid_program_is_never_cached(self, counts):
        p = prog("fn f(x)\nn <- 0\nend")
        for _ in range(2):
            with pytest.raises(ValidationFailed):
                Interpreter(p)
        assert counts["validate"] == 2 and p.compiled == {}


# --- the adjoint arm of the gradient variant against the generic rule ------

ADJOINT_FNS = sorted(f for f, spec in INSTR_FNS.items()
                     if spec.apply and spec.partials)
EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308,
               -1.7976931348623157e308, 5e-324, 1.5, -2.0, 0.5, 3.0)
# Int operands stay small so that Int `pow` results stay small; a float
# plus 1000 ** 1000 still overflows
EDGE_INTS = (0, 1, -1, 2, -3, 1000)


@st.composite
def adjoint_cases(draw, arity):
    """(layout, args): how each operand of `y op= f(...)` is placed, and
    the function's arguments. An operand is a GVar, a float or an Int; it
    is a literal ("lit", value), a parameter ("local", position), or a
    cell of a 1-D or 2-D array parameter ("cell", position, indices), an
    index being ("lit", int) or ("var", position of an Int or GVar
    parameter), in bounds or not."""
    floats = st.sampled_from(EDGE_FLOATS)
    layout, args = [], []
    for k in range(arity + 1):
        kind = draw(st.sampled_from(("gvar", "gvar", "float", "int")))
        value = {"gvar": lambda: GVar(draw(floats), draw(floats)),
                 "float": lambda: draw(floats),
                 "int": lambda: draw(st.sampled_from(EDGE_INTS))}[kind]()
        place = draw(st.sampled_from(("local", "local", "cell1", "cell2",
                                      "lit")[:None if k else 4]))
        if place == "lit" and kind != "gvar":
            layout.append(("lit", value))
        elif place in ("lit", "local"):
            layout.append(("local", len(args)))
            args.append(value)
        else:
            shape = (3,) if place == "cell1" else (2, 2)
            pos, idx, cell = len(args), [], []
            args.append(Array([GVar(0.5, 0.0) for _ in range(math.prod(
                shape))], shape))
            for n in shape:
                i = draw(st.sampled_from((1, n, 1, n, 0, n + 1)))
                form = draw(st.sampled_from(("lit", "var") * 2 + ("gvar",)))
                if form == "lit":
                    idx.append(("lit", i))
                else:
                    idx.append(("var", len(args)))
                    args.append(i if form == "var" else GVar(float(i), 0.0))
                cell.append(i if form != "gvar" else None)
            layout.append(("cell", pos, tuple(idx)))
            if all(i is not None and 1 <= i <= n
                   for i, n in zip(cell, shape)):
                args[pos].set(tuple(cell), value)
    return tuple(layout), args


_ADJOINT_INTERPS = {}


def _adjoint_interp(fname, op, layout, nparams):
    """`f(p0, p1, ...)` runs the one statement `layout` describes."""
    key = (fname, op, repr(layout))   # repr tells a -0.0 literal from 0.0
    if key not in _ADJOINT_INTERPS:
        _ADJOINT_INTERPS[key] = _lower_adjoint(fname, op, layout, nparams)
    return _ADJOINT_INTERPS[key]


def _lower_adjoint(fname, op, layout, nparams):
    names = [f"p{k}" for k in range(nparams)]
    views = []
    for entry in layout:
        if entry[0] == "lit":
            views.append(Lit(entry[1]))
        elif entry[0] == "local":
            views.append(VarView(names[entry[1]]))
        else:
            views.append(IndexView(VarView(names[entry[1]]), tuple(
                Lit(i) if form == "lit" else ViewRef(VarView(names[i]))
                for form, i in entry[2])))
    fdef = FunctionDef("f", tuple(Param(n) for n in names),
                       Block((InstrCall(op, fname, tuple(views)),)))
    return Interpreter(Program([fdef]))


def _state(v):
    """Every bit of a value, GVar primal and cotangent parts included,
    except a NaN's: when both operands of a float operator are NaNs,
    CPython's specialised operators and its generic ones return different
    ones, so which one a run returns depends on how warm its bytecode
    is."""
    if isinstance(v, GVar):
        return ("GVar", _state(v.x), _state(v.g))
    if isinstance(v, Array):
        return ("Array", v.shape, tuple(_state(e) for e in v.data))
    if type(v) is float:
        return ("float", "nan" if v != v else struct.pack("<d", v))
    if isinstance(v, list):
        return tuple(_state(e) for e in v)
    return (type(v).__name__, v)


def _reference_adjoint(fname, op, layout, args):
    """The generic rule: read the operands as the generic reads do,
    `apply_instr`, write the target back."""
    def read(entry):
        if entry[0] == "lit":
            return entry[1]
        if entry[0] == "local":
            return args[entry[1]]
        idx = []
        for form, i in entry[2]:
            v = i if form == "lit" else args[i]
            v = v.x if isinstance(v, GVar) else v
            if not is_int(v):
                raise KindError(f"array index must be an Int, got "
                                f"{kind_name(v)}")
            idx.append(v)
        return args[entry[1]].get(tuple(idx))
    try:
        vals = [read(entry) for entry in layout]
        new = apply_instr(PrimitiveInstr(op, fname), vals)[0]
        if layout[0][0] == "local":
            args[layout[0][1]] = new
        else:
            args[layout[0][1]].set(tuple(
                i if form == "lit" else args[i] for form, i in layout[0][2]),
                new)
        return ("ok", _state(args))
    except RevLangError as err:
        return ("error", type(err), err.message, _state(args))
    except (ArithmeticError, ValueError) as err:
        return ("error", RevDomainError, str(err), _state(args))


def _adjoint_outcomes(fname, op, layout, args):
    """(lowered, generic): the outcome of the one-statement pass and of
    the generic rule, each on its own deep copy of `args`."""
    mine = [deep_copy(a) for a in args]
    try:
        got = ("ok", _state(_adjoint_interp(fname, op, layout, len(args))
                            .run_function("f", mine)))
    except RevLangError as err:
        got = ("error", type(err), err.message, _state(mine))
    return got, _reference_adjoint(fname, op, layout,
                                   [deep_copy(a) for a in args])


class TestAdjointArm:
    """A gradient pass of one `y op= f(...)` computes what the generic
    rule `apply_instr` computes, bit for bit and error for error, whether
    it takes the inline adjoint arm or falls back to the rule."""

    @pytest.mark.parametrize("op", ["+=", "-="])
    @pytest.mark.parametrize("fname", ADJOINT_FNS)
    @settings(max_examples=30)
    @given(data=st.data())
    def test_matches_generic_rule(self, fname, op, data):
        layout, args = data.draw(adjoint_cases(INSTR_FNS[fname].min_arity))
        got, want = _adjoint_outcomes(fname, op, layout, args)
        assert got == want

    @pytest.mark.parametrize("fname, layout, args, error", [
        # abs at 0 has no partial
        ("abs", (("local", 0), ("local", 1)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0)], "gradient of 'abs' undefined"),
        # pow's exponent partial needs a positive base
        ("pow", (("local", 0), ("local", 1), ("local", 2)),
         [GVar(1.0, 1.0), GVar(-2.0, 0.0), GVar(2.0, 0.0)],
         "gradient of 'pow' undefined"),
        ("pow", (("local", 0), ("local", 1), ("local", 2)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0), GVar(2.0, 0.0)],
         "gradient of 'pow' undefined"),
        # sqrt's partial divides by sqrt(0)
        ("sqrt", (("local", 0), ("local", 1)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0)], "division by zero"),
        ("sqrt", (("local", 0), ("lit", 0.0)), [GVar(1.0, 1.0)],
         "division by zero"),
        ("log", (("local", 0), ("local", 1)),
         [GVar(1.0, 1.0), 0.0], "log of non-positive value"),
    ])
    @pytest.mark.parametrize("op", ["+=", "-="])
    def test_errors_match(self, fname, op, layout, args, error):
        got, want = _adjoint_outcomes(fname, op, layout, args)
        assert got == want
        assert got[0] == "error" and got[2].startswith(error)

    @pytest.mark.parametrize("fname, layout, args, error", [
        # abs at 0 and -0.0: the partial is None
        ("abs", (("local", 0), ("local", 1)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0)], "gradient of 'abs' undefined"),
        ("abs", (("local", 0), ("local", 1)),
         [GVar(1.0, 1.0), GVar(-0.0, 0.0)], "gradient of 'abs' undefined"),
        # pow with base -2.0 and 0.0: the exponent's partial is None
        ("pow", (("local", 0), ("local", 1), ("local", 2)),
         [GVar(1.0, 1.0), GVar(-2.0, 0.0), GVar(2.0, 0.0)],
         "gradient of 'pow' undefined"),
        ("pow", (("local", 0), ("local", 1), ("local", 2)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0), GVar(2.0, 0.0)],
         "gradient of 'pow' undefined"),
        # the base's partial raises though the power does not
        ("pow", (("local", 0), ("local", 1), ("local", 2)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0), GVar(0.5, 0.0)], "power 0.0 ^"),
        ("pow", (("local", 0), ("local", 1), ("lit", 0.5)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0)], "power 0.0 ^"),
        ("pow", (("local", 0), ("lit", 0.5), ("local", 1)),
         [GVar(1.0, 1.0), GVar(-1100.0, 0.0)], "power 0.5 ^"),
        # and a literal exponent's partial is None at base -2.0: unused
        ("pow", (("local", 0), ("local", 1), ("lit", 2)),
         [GVar(1.0, 1.0), GVar(-2.0, 0.0)], None),
        # sqrt's partial divides by sqrt(0); log at 0 fails its value
        ("sqrt", (("local", 0), ("local", 1)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0)], "division by zero"),
        ("sqrt", (("local", 0), ("local", 1)),
         [GVar(1.0, 1.0), GVar(-0.0, 0.0)], "division by zero"),
        ("log", (("local", 0), ("local", 1)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0)], "log of non-positive value"),
        # a divisor whose square underflows, and atan2 at the origin
        ("div", (("local", 0), ("lit", 1.0), ("local", 1)),
         [GVar(1.0, 1.0), GVar(1e-200, 0.0)], "division by zero"),
        ("atan2", (("local", 0), ("local", 1), ("local", 2)),
         [GVar(1.0, 1.0), GVar(0.0, 0.0), GVar(-0.0, 0.0)],
         "division by zero"),
    ])
    @pytest.mark.parametrize("op", ["+=", "-="])
    def test_a_typed_body_leaves_the_generic_rules_state(
            self, fname, layout, args, error, op):
        """Where a partial's condition fails inside a typed body (its
        guard holds: every operand a binary64 GVar), the arm's fallback
        raises what the generic rule raises and leaves the state it
        leaves: the target's value updated, no cotangent changed."""
        interp = _lower_adjoint(fname, op, layout, len(args))
        mine = [deep_copy(a) for a in args]
        try:
            got = ("ok", _state(interp.run_function("f", mine)))
        except RevLangError as err:
            got = ("error", type(err), err.message, _state(mine))
        unit = interp.unit.gradient
        assert list(unit.bodies) == ["f"] and unit.generic == {}
        assert got == _reference_adjoint(fname, op, layout,
                                         [deep_copy(a) for a in args])
        assert got[0] == "ok" if error is None else got[2].startswith(error)

    @pytest.mark.parametrize("exponent", [("lit", 2), ("lit", 2.0),
                                          ("local", 3)])
    def test_the_arm_takes_binary64_gvars(self, monkeypatch, exponent):
        """A GVar cell at a variable index, to an Int or float power: a
        literal exponent takes the typed arm, with no generic rule; the
        Int parameter `p3` fails the entry guard (it asks a G of every
        operand), so the generic body runs the generic rule once, with
        the same bits."""
        from revlang import numerics
        calls = []
        rule = numerics.apply_instr
        monkeypatch.setattr(numerics, "apply_instr",
                            lambda i, v: calls.append(i) or rule(i, v))
        layout = (("local", 0), ("cell", 1, (("var", 2),)), exponent)
        args = [GVar(1.0, 1.0), Array([GVar(3.0, 0.0)], (1,)), 1, 2]
        got, want = _adjoint_outcomes("pow", "-=", layout, args)
        assert len(calls) == (exponent[0] == "local")
        assert got == want == ("ok", _state(
            [GVar(-8.0, 1.0), Array([GVar(3.0, 6.0)], (1,)), 1, 2]))


# the operands of the partial templates' oracle: binary64 edge values and
# small Ints
TEMPLATE_OPERANDS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 1e308, -1e308, 1e-200, 0.5, -2.0, 3.7, 0, 1,
                     2, -1, -3)


@pytest.mark.parametrize("fname", sorted(analysis._PARTIALS))
def test_partial_templates_match_the_partials(fname):
    """Each partial the typed adjoint arm emits (`_PARTIALS`) against
    `INSTR_FNS[f].partials`, on every tuple of `TEMPLATE_OPERANDS` whose
    value `apply` computes (else the primal update raises first): where
    the function's condition holds, the callable raises nothing, so an arm
    may skip the partials of operands that carry no cotangent; there each
    partial equals the callable's, bits and type (NaN as NaN), where its
    own condition holds, and the callable's is None where it fails. Where
    the function's condition fails the arm calls the callable, so errors
    are its own (see `TestAdjointArm`). Over Int operands alone no
    partial is used, and only the first claim is made."""
    spec = INSTR_FNS[fname]
    cond, parts = analysis._PARTIALS[fname]
    inline = 0
    for xs in itertools.product(TEMPLATE_OPERANDS, repeat=spec.min_arity):
        try:
            value = spec.apply(*xs)
        except (RevLangError, ArithmeticError, ValueError):
            continue

        def emitted(template):
            return eval(template.format(*[f"x{k}" for k in range(len(xs))],
                                        v="v"),
                        {"math": math}, {"v": value, **{
                            f"x{k}": x for k, x in enumerate(xs)}})
        if cond is not None and not emitted(cond):
            continue
        want = spec.partials(*xs)
        if all(type(x) is int for x in xs):
            continue
        for part, w in zip(parts, want):
            expr, defined = (part, None) if type(part) is str else part
            if defined is not None and not emitted(defined):
                assert w is None, (xs, part)
            else:
                assert _state(emitted(expr)) == _state(w), (xs, part)
                inline += 1
    assert inline >= len(parts) * 5


def _rotation_outcomes(kind, cells, args):
    """(lowered, generic): `kind(a, b, t)` on the parameters `a`, `b` (or
    the cells `x[1]`, `x[2]` with `cells`) and `t`, run on one copy of
    `args` (a, b, t) and by `apply_instr` on another: the values
    afterwards, or the error's type and message with the values it
    left."""
    params, ab = ("x", "x[1], x[2]") if cells else ("a, b", "a, b")
    p = prog(f"fn f({params}, t)\n{kind}({ab}, t)\nend")
    mine = [deep_copy(a) for a in args]
    try:
        out = Interpreter(p).run_function(
            "f", [Array(mine[:2], (2,)), mine[2]] if cells else mine)
        got = ("ok", _state([*out[0].data, out[1]] if cells else out))
    except RevLangError as err:
        got = ("error", type(err), err.message, _state(mine))
    theirs = [deep_copy(a) for a in args]
    try:
        want = ("ok", _state(apply_instr(PrimitiveInstr(kind), theirs)))
    except RevLangError as err:
        want = ("error", type(err), err.message, _state(theirs))
    except (ArithmeticError, ValueError) as err:
        want = ("error", RevDomainError, str(err), _state(theirs))
    return got, want


class TestRotationArm:
    """A gradient pass of one ROT or IROT computes what the generic rule
    `apply_instr` computes, bit for bit and error for error, whether it
    takes the inline arm (two binary64 GVars and a GVar angle, each a G
    by the entry guard) or the rule."""

    @pytest.mark.parametrize("kind", ["ROT", "IROT"])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_generic_rule(self, kind, data):
        floats = st.sampled_from(EDGE_FLOATS)
        gvar = st.builds(GVar, floats, floats)
        cell = st.one_of(gvar, gvar, gvar, gvar, floats,
                         st.builds(GVar, st.sampled_from(EDGE_INTS), floats))
        angle = st.one_of(st.builds(GVar, floats, floats), floats,
                          st.sampled_from(EDGE_INTS))
        args = [data.draw(cell), data.draw(cell), data.draw(angle)]
        got, want = _rotation_outcomes(kind, data.draw(st.booleans()), args)
        assert got == want

    @pytest.mark.parametrize("kind", ["ROT", "IROT"])
    @pytest.mark.parametrize("angle", [GVar(0.3, -1.5), 0.3, 2])
    def test_the_arm_takes_binary64_gvars(self, monkeypatch, kind, angle):
        """Only a GVar angle takes the arm: a float or Int angle fails the
        entry guard, and the generic body calls the generic rule once."""
        from revlang import numerics
        calls = []
        rule = numerics.apply_instr
        monkeypatch.setattr(numerics, "apply_instr",
                            lambda i, v: calls.append(i) or rule(i, v))
        args = [GVar(1.25, 0.5), GVar(-0.75, 2.0), angle]
        got, want = _rotation_outcomes(kind, True, args)
        assert got == want and got[0] == "ok"
        assert len(calls) == (type(angle) is not GVar)


    @pytest.mark.parametrize("kind", ["ROT", "IROT"])
    @pytest.mark.parametrize("cells", [False, True])
    @pytest.mark.parametrize("args", [
        [1.25, -0.75, 0.3], [0.0, -0.0, 5e-324], [math.nan, 1e308, -2.0],
        [1e308, -1e308, 2.5], [1.0, 2.0, math.inf], [1.0, 2.0, math.nan]])
    def test_the_forward_arm_takes_binary64_floats(
            self, monkeypatch, kind, cells, args):
        """Forward, on floats the entry guard proves (cells by its scan),
        the arm rotates as the generic rule does, with no generic rule:
        the same bits, and at an infinite angle the same error."""
        from revlang import numerics
        calls = []
        monkeypatch.setattr(numerics, "apply_instr",
                            lambda i, v: calls.append(i))
        got, want = _rotation_outcomes(kind, cells, args)
        assert got == want and calls == []

    @pytest.mark.parametrize("kind", ["ROT", "IROT"])
    def test_the_forward_arm_takes_binary32_floats(self, monkeypatch, kind):
        from revlang import numerics
        calls = []
        rule = numerics.apply_instr
        monkeypatch.setattr(numerics, "apply_instr",
                            lambda i, v: calls.append(i) or rule(i, v))
        p = prog(f"fn f(x, t)\n{kind}(x[1], x[2], t)\nend")
        args = [np.float32(1.25), np.float32(-0.75), np.float32(0.3)]
        out = Interpreter(p, ExecOptions(float_dtype=np.float32)) \
            .run_function("f", [Array(list(args[:2]), (2,)), args[2]])
        assert calls == []
        assert _typed([*out[0].data, out[1]]) == _typed(
            rule(PrimitiveInstr(kind), args))


# --- paths that the other tests do not run ---------------------------------

class TestLessTravelledPaths:
    def test_neg_forward_uncall_and_gradient(self):
        p = prog("fn f(x, y)\nNEG(x)\ny += x\nend")
        assert run(p, "f", [1.5, 0.0]) == [-1.5, -1.5]
        assert uncall(p, "f", [-1.5, -1.5]) == [1.5, 0.0]
        out, grads = gradient(p, GradRequest("f", [1.5, 0.0]))
        assert out == [-1.5, -1.5] and grads == {"x": -1.0, "y": 0.0}

    def test_inc_and_dec_on_fixed_point(self):
        p = prog("fn f(x)\nINC(x)\nINC(x)\nDEC(x)\nend")
        x = Fixed.from_real(1.25)
        assert run(p, "f", [x]) == [Fixed.from_real(2.25)]
        assert uncall(p, "f", [Fixed.from_real(2.25)]) == [x]

    @pytest.mark.parametrize("stmt, args, out", [
        ("y += x |> addconst(2)", [0, 3], [5, 3]),
        ("y += x |> mulconst(2)", [0, 3], [6, 3]),
        ("x |> addconst(2) += y", [1, 3], [1, 4]),
        ("x |> mulconst(2) += y", [2, 3], [2, 4]),
        ("y += x |> addconst(0.5)", [Fixed.from_real(0), Fixed.from_real(1.5)],
         [Fixed.from_real(2.0), Fixed.from_real(1.5)]),
        ("y += x |> mulconst(2)", [Fixed.from_real(0), Fixed.from_real(1.5)],
         [Fixed.from_real(3.0), Fixed.from_real(1.5)]),
        ("x |> addconst(2) += y", [Fixed.from_real(1), Fixed.from_real(1.5)],
         [Fixed.from_real(1), Fixed.from_real(2.5)]),
        ("x |> mulconst(2) += y", [Fixed.from_real(1), Fixed.from_real(1.5)],
         [Fixed.from_real(1), Fixed.from_real(2.0)]),
    ])
    def test_bijectors_on_int_and_fixed_cells(self, stmt, args, out):
        p = prog(f"fn f(y, x)\n{stmt}\nend")
        assert run(p, "f", list(args)) == out
        assert uncall(p, "f", out) == args

    @pytest.mark.parametrize("stmt, message", [
        ("y += x |> mulconst(0.5)",
         "mulconst produced a non-integer for an Int cell"),
        ("x |> mulconst(2) += y",
         "mulconst write-back needs an integer-divisible value"),
    ])
    def test_mulconst_on_an_int_needs_an_integer(self, stmt, message):
        p = prog(f"fn f(y, x)\n{stmt}\nend")
        with pytest.raises(KindError) as err:
            run(p, "f", [1, 3])
        assert err.value.message == message and err.value.span.line == 2

    def test_an_int_cell_divides_back_exactly(self):
        p = prog("fn g(x, y)\nx |> mulconst(3) += identity(y)\nend")
        big = 2**60 + 1
        assert run(p, "g", [big, 3]) == [big + 1, 3]
        assert uncall(p, "g", [big + 1, 3]) == [big, 3]
        # 3 * big + 1 is not a multiple of 3, though its float quotient
        # is an integer
        with pytest.raises(KindError) as err:
            run(p, "g", [big, 1])
        assert err.value.message == \
            "mulconst write-back needs an integer-divisible value"

    def test_a_write_back_keeps_an_int_cell_an_int(self):
        p = prog("fn g(x, y)\nx |> addconst(1.5) += identity(y)\nend")
        out = run(p, "g", [1, 1])
        assert out == [2, 1] and type(out[0]) is int
        assert uncall(p, "g", [2, 1]) == [1, 1]
        with pytest.raises(KindError) as err:
            run(p, "g", [1, 1.5])
        assert err.value.message == "Int target updated with non-integer 2.5"
        assert err.value.span.line == 2

    def test_or_in_a_condition(self):
        p = prog("fn f(y, a, b)\nif (a > 1 || b > 1, ~)\ny += 1\nend\nend")
        assert run(p, "f", [0, 0, 2]) == [1, 0, 2]
        assert run(p, "f", [0, 0, 0]) == [0, 0, 0]
        assert uncall(p, "f", [1, 0, 2]) == [0, 0, 2]

    def test_bool_variable_as_a_condition(self):
        p = prog("fn f(y, p)\nif (p, ~)\ny += 1\nend\nend")
        assert run(p, "f", [0, True]) == [1, True]
        assert run(p, "f", [0, False]) == [0, False]
        with pytest.raises(KindError) as err:
            run(p, "f", [0, 1])
        assert err.value.message == "condition must be Bool, got int"
        assert err.value.span.line == 2

    def test_field_access_and_write_on_a_scalar(self):
        p = prog("fn f(y, x)\ny += x.re\nend")
        env = Frame()
        env.bindings.update(y=0.0, x=1.5)
        view = p.get("f").body.stmts[0].args[1]
        for act, message in (
                (lambda: run(p, "f", [0.0, 1.5]), "field access on float"),
                (lambda: read_view(env, view), "field access on float"),
                (lambda: write_view(env, view, 2.0), "field write on float")):
            with pytest.raises(KindError) as err:
                act()
            assert err.value.message == message

    def test_loop_variable_shadowing_a_binding(self):
        p = prog("fn f(y, i)\nfor i = 1:3\ny += 1\nend\nend")
        with pytest.raises(DuplicateBinding) as err:
            run(p, "f", [0, 1])
        assert err.value.message == \
            "loop variable 'i' shadows an existing binding"

    def test_complex_literal(self):
        p = prog("fn f(y)\ny += 1.5 + 2.0im\nend")
        assert run(p, "f", [Complex(0.0, 0.0)]) == [Complex(1.5, 2.0)]
        f32 = ExecOptions(float_dtype=np.float32)
        out = run(p, "f", [Complex(np.float32(0.0), np.float32(0.0))], f32)
        assert out == [Complex(1.5, 2.0)] and type(out[0].re) is np.float32

    @pytest.mark.parametrize("c, y", [(Complex(1.0, 2.0), 1),
                                      (Complex(1.0, -2.0), 10)])
    def test_complex_equality_in_a_condition(self, c, y):
        p = prog("fn f(y, c)\nif (c == 1.0 + 2.0im, ~)\ny += 1\nend\n"
                 "if (c != 1.0 + 2.0im, ~)\ny += 10\nend\nend")
        assert run(p, "f", [0, c]) == [y, c]


@pytest.mark.parametrize("dtype", [None, np.float32])
def test_every_bundled_function_lowers(dtype):
    """Each function of the bundled programs, and its inverse, lowers in
    each table of its forward and gradient units for both float types:
    its specialised and generic bodies, and has an entry in each unit."""
    programs = {id(p): p for p in map(load_example, CATALOG)}.values()
    for p in programs:
        unit = Interpreter(p, ExecOptions(float_dtype=dtype)).unit
        names = [f.name for f in p]
        for fname in sorted({*names, *map(inverse_name, names)}):
            assert fname in unit.defs
            for u in (unit, unit.gradient):
                assert callable(u[fname]) and callable(u.bodies[fname]) \
                    and callable(u.generic[fname])
        assert set(unit.defs) == {*names, *map(inverse_name, names)}


# --- bounds guards: a guard covers the cells of a scope; a false guard
# takes the path every cell took before (`_offset`, `_get`, `_set`) ---

_X = [[1.0, 0.5, -0.25], [-0.5, 0.75, 2.0]]
_V = [[0.125, -0.5, 0.25], [0.5, 0.25, -1.0]]


def _kick_args(i, j, x=None, m=None):
    return [0.0, 0.0, 0.0, Array.matrix(_X) if x is None else x, i, j,
            Array.vector([1.0, 0.01]) if m is None else m, 1.0, 0.001]


def _guarded_outcome(fname, args):
    """A run on a fresh parse of the leapfrog asset: the results (arrays
    by their data) or the error's type, message and place; then the steps
    and checks it counted."""
    interp = Interpreter(prog(asset_text("leapfrog.rnl")))
    try:
        out = interp.run_function(fname, args)
        res = [a.data if isinstance(a, Array) else a for a in out]
    except RevLangError as err:
        res = (type(err).__name__, err.message, err.span.line, err.span.col)
    return res, interp.stats.steps, interp.stats.checks_passed


def _checks(ancilla=0, iterator=0, alias=0):
    return {"postcondition": 0, "ancilla": ancilla, "iterator": iterator,
            "alias": alias}


class TestBoundsGuards:
    KICK = [-7.489420620189751e-07, 1.248236770031625e-07,
            1.1234130930284625e-06]

    @pytest.mark.parametrize("fname, sign, steps, checks", [
        ("kick_pair_clean", 1, 43, _checks(ancilla=9)),
        ("~kick_pair_clean", -1, 43, _checks(ancilla=9)),
        ("kick_pair_cumulative", 1, 37, _checks(ancilla=6, alias=6))])
    def test_int64_indices_take_the_slow_path_to_the_same_run(
            self, fname, sign, steps, checks):
        # np.int64 indices make the guard false; `_offset` takes them
        for i, j in ((1, 2), (np.int64(1), np.int64(2))):
            res, n, cp = _guarded_outcome(fname, _kick_args(i, j))
            assert res[:3] == [sign * y for y in self.KICK]
            assert res[3:] == [sum(_X, []), 1, 2, [1.0, 0.01], 1.0, 0.001]
            assert type(res[4]) is type(i) and (n, cp) == (steps, checks)

    @pytest.mark.parametrize("fname, case, error, steps, checks", [
        ("kick_pair_clean", "out of bounds",
         ("IndexOutOfBounds", "index 3 out of bounds 1..2", 29, 9), 10,
         _checks()),
        ("kick_pair_clean", "wrong rank",
         ("IndexOutOfBounds", "2 indices for 1-d array", 29, 9), 10,
         _checks()),
        ("kick_pair_clean", "short m",
         ("IndexOutOfBounds", "index 2 out of bounds 1..1", 37, 9), 18,
         _checks()),
        ("~kick_pair_clean", "out of bounds",
         ("IndexOutOfBounds", "index 3 out of bounds 1..2", 29, 9), 10,
         _checks()),
        ("kick_pair_cumulative", "out of bounds",
         ("IndexOutOfBounds", "index 3 out of bounds 1..2", 55, 9), 7,
         _checks()),
        ("kick_pair_cumulative", "wrong rank",
         ("IndexOutOfBounds", "2 indices for 1-d array", 55, 9), 7,
         _checks()),
        ("kick_pair_cumulative", "short m",
         ("IndexOutOfBounds", "index 2 out of bounds 1..1", 63, 9), 15,
         _checks(alias=3))])
    def test_a_false_guard_raises_where_the_cell_is_reached(
            self, fname, case, error, steps, checks):
        args = {"out of bounds": _kick_args(1, 3),
                "wrong rank": _kick_args(1, 2, x=Array.vector([1.0] * 3)),
                "short m": _kick_args(1, 2, m=Array.vector([1.0]))}[case]
        assert _guarded_outcome(fname, args) == (error, steps, checks)

    @pytest.mark.parametrize("fname, case, outcome", [
        ("drift", "ints", ([[1.0625, 0.25, -0.125, -0.25, 0.875, 1.5],
                            sum(_V, []), 0.5], 17, _checks(iterator=3))),
        ("~drift", "ints", ([[0.9375, 0.75, -0.375, -0.75, 0.625, 2.5],
                             sum(_V, []), 0.5], 17, _checks(iterator=3))),
        ("drift", "wrong rank", (("IndexOutOfBounds",
                                  "2 indices for 1-d array", 13, 13), 5,
                                 _checks())),
        ("drift", "range past extent", (("IndexOutOfBounds",
                                         "index 3 out of bounds 1..2", 13,
                                         13), 21, _checks(iterator=2))),
        ("~drift", "range past extent", (("IndexOutOfBounds",
                                          "index 3 out of bounds 1..2", 13,
                                          13), 5, _checks()))])
    def test_a_loop_range_the_array_cannot_hold(self, fname, case, outcome):
        # drift's loop runs over size(x, 1) rows and reads v at each
        x = _X + [[3.0, 3.0, 3.0]] if case == "range past extent" else _X
        v = Array.vector([0.5] * 6) if case == "wrong rank" \
            else Array.matrix(_V)
        assert _guarded_outcome(fname, [Array.matrix(x), v, 0.5]) == outcome

    def test_the_gradient_variant_reads_through_the_guard_too(self):
        p = prog(asset_text("leapfrog.rnl"))
        grads = [gradient(p, GradRequest("kick_pair_clean", _kick_args(i, j)))
                 for i, j in ((1, 2), (np.int64(1), np.int64(2)))]
        assert repr(grads[0][0][:4]) == repr(grads[1][0][:4])
        assert repr(grads[0][1]) == repr(grads[1][1])

    @pytest.mark.parametrize("variant", ["clean", "cumulative"])
    @pytest.mark.parametrize("precision", ["binary64", "binary32"])
    def test_leapfrog_reaches_no_cell_through_offset(
            self, monkeypatch, variant, precision):
        from revlang.stdlib import leapfrog_simulate, two_body_config
        calls = []
        offset = interpreter._offset
        monkeypatch.setattr(interpreter, "_offset",
                            lambda *a: calls.append(a) or offset(*a))
        cfg = two_body_config(steps=20)
        final, err = leapfrog_simulate(cfg, variant, precision)
        assert calls == [] and err < 1e-5
        # the counter sees the slow path: a cell at an np.int64 index
        run(prog("fn f(y, a, i)\ny += a[i]\nend"), "f",
            [0.0, Array.vector([1.0]), np.int64(1)])
        assert len(calls) == 1

    def test_unchecked_leapfrog_reaches_no_cell_through_offset(
            self, monkeypatch):
        from revlang.stdlib import _leapfrog_args, two_body_config
        calls = []
        offset = interpreter._offset
        monkeypatch.setattr(interpreter, "_offset",
                            lambda *a: calls.append(a) or offset(*a))
        interp = Interpreter(load_example("leapfrog_clean"),
                             ExecOptions(invcheck=False))
        args = list(_leapfrog_args(two_body_config(steps=20), None))
        x0 = list(args[0].data)
        out = interp.run_function("leapfrog_clean", args)
        back = interp.uncall_function("leapfrog_clean", out)
        assert calls == [] and max(
            abs(a - b) for a, b in zip(back[0].data, x0)) < 1e-12

    def test_reads_after_a_call_or_swap_see_the_values_it_leaves(
            self, inlining):
        # `inc` rebinds the index it takes whole; SWAP exchanges indices
        # and arrays: no guard covers a variable either may rebind, and
        # every read is of the cell the values name then
        p = prog("fn inc(i)\nINC(i)\nend\n"
                 "fn f(y, a, b, i, j)\ny += a[i]\ninc(i)\ny += a[i]\n"
                 "SWAP(i, j)\ny += a[i]\nSWAP(a, b)\ny += a[i]\nend")
        a, b = Array.vector([1.0, 2.0, 4.0]), Array.vector([8.0, 16.0])
        interp = Interpreter(p)
        out = interp.run_function("f", [0.0, a, b, 1, 2])
        assert out[0] == 1.0 + 2.0 + 2.0 + 16.0 and out[3:] == [2, 2]
        back = interp.uncall_function("f", out)
        assert back[0] == 0.0 and back[3:] == [1, 2]
        # the rebound index is out of bounds: the read after the call
        # raises as `_offset` does
        with pytest.raises(IndexOutOfBounds, match="index 4 out of bounds "
                                                   "1..3") as err:
            run(p, "f", [0.0, a, b, 3, 1])
        assert (err.value.span.line, err.value.span.col) == (7, 1)

    def test_a_written_index_is_read_through_offset(self, monkeypatch):
        # a guard covers no variable its scope writes: INC(k) then a[k]
        calls = []
        offset = interpreter._offset
        monkeypatch.setattr(interpreter, "_offset",
                            lambda *a: calls.append(a) or offset(*a))
        p = prog("fn f(y, a, k)\nfor i = 1:2\nINC(k)\ny += a[k]\nend\n"
                 "y += a[1]\nend")
        out = run(p, "f", [0.0, Array.vector([1.0, 2.0, 4.0]), 0])
        assert out[0] == 1.0 + 2.0 + 1.0 and out[2] == 2
        assert len(calls) == 2   # a[k], twice; a[1] is covered
        with pytest.raises(IndexOutOfBounds, match="index 4 out of bounds"):
            run(p, "f", [0.0, Array.vector([1.0, 2.0, 4.0]), 2])

    def test_a_region_sets_its_own_guards(self, monkeypatch):
        # 18 nested loops: the innermost ones are a function of their own,
        # whose cell is covered; it swaps the index the cell after it reads
        calls = []
        offset = interpreter._offset
        monkeypatch.setattr(interpreter, "_offset",
                            lambda *a: calls.append(a) or offset(*a))
        n = 18
        src = "fn f(y, a, k, j)\n" + "".join(
            f"for i{d} = 1:1\n" for d in range(n)) + \
            f"y += a[2, i{n - 1}]\nSWAP(k, j)\n" + "end\n" * n + \
            "y += a[k, 2]\nend"
        a = Array.matrix([[1.0, 2.0], [4.0, 8.0]])
        assert run(prog(src), "f", [0.0, a, 2, 1]) == [6.0, a, 1, 2]
        assert calls == [(a, 1, 2)]
        with pytest.raises(IndexOutOfBounds, match="index 3 out of bounds"):
            run(prog(src), "f", [0.0, a, 1, 3])

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_release_of_two_floats_of_one_type_is_decided_inline(
            self, monkeypatch, dtype):
        from revlang.stdlib import leapfrog_simulate, two_body_config
        calls = []
        residual = interpreter._ancilla_residual
        monkeypatch.setattr(interpreter, "_ancilla_residual",
                            lambda *a: calls.append(a) or residual(*a))
        precision = "binary32" if dtype else "binary64"
        for variant in ("clean", "cumulative"):
            leapfrog_simulate(two_body_config(steps=20), variant, precision)
        assert calls == []
        z = dtype or float
        p = prog("fn f(y, x)\nn <- 0.0\nn += x\nn -> 0.0\nend")
        opts = ExecOptions(float_dtype=dtype, float_tolerance=1e-3)
        for x, text in ((0.5, "0.5"), (2e-3, repr(float(z(2e-3)))),
                        (math.nan, "nan"), (math.inf, "inf")):
            with pytest.raises(DirtyAncilla, match=f"residual {text}$") \
                    as err:
                run(p, "f", [z(0.0), z(x)], opts)
            assert repr(err.value.residual) == text
        assert run(p, "f", [z(0.0), z(1e-4)], opts)[1] == z(1e-4)


# --- specialised bodies: one entry guard per function, facts from it ---

def _typed(v):
    """A value by its type and repr, cell by cell: equal when the bits and
    types are (a NaN as NaN)."""
    if type(v) is Array:
        return "Array", v.shape, [_typed(c) for c in v.data]
    return type(v).__name__, repr(v)


def _typed_outcome(interp, fname, args):
    try:
        return [_typed(v) for v in interp.run_function(fname, args)]
    except RevLangError as err:
        return type(err).__name__, err.message, err.span


class TestSpecialisedBodies:
    # `a[i]`'s cells feed an arm, so the guard asks for an Array of floats
    SRC = "fn f(y, a, i)\ny += a[i] * 2.0\ny += a[1]\nn <- 0.0\n" \
          "n += y\nn -= y\nn -> 0.0\nend"

    def warm(self, src, fname, args):
        """An Interpreter whose unit holds `fname`'s specialised body, run
        on `args` (floats that pass its guard)."""
        interp = Interpreter(prog(src))
        interp.run_function(fname, args)
        assert fname in interp.unit.bodies and fname not in \
            interp.unit.generic
        return interp

    def same_as_fresh_runs(self, interp, src, fname, args):
        """The run on `interp`'s unit equals a fresh Program's, and one
        whose every guard fails and whose calls are never direct, with the
        same steps and checks."""
        def outcome(interp):
            steps, checks = interp.stats.steps, \
                dict(interp.stats.checks_passed)
            out = _typed_outcome(interp, fname, [deep_copy(a) for a in args])
            return out, interp.stats.steps - steps, {
                k: n - checks[k]
                for k, n in interp.stats.checks_passed.items()}

        runs = [outcome(interp), outcome(Interpreter(prog(src)))]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(interpreter, "_holds", lambda *a: False)
            m.setattr(interpreter._Flow, "direct", lambda *a: None)
            runs.append(outcome(Interpreter(prog(src))))
        assert runs[0] == runs[1] == runs[2]
        return runs[0][0]

    @pytest.mark.parametrize("cells, y, ok", [
        ([Dual(1.5, 1.0), 2.5], 0.0, True),     # a Dual cell
        ([1.5, 2.5], Fixed.from_real(0.5), True),   # a Fixed scalar
        ([1.5, 2], 0.0, True),                  # an Int cell
        ([1.5, 2.5], np.float64(0.0), True)])   # a binary64 numpy scalar
    def test_a_failed_guard_runs_the_generic_body(self, cells, y, ok):
        interp = self.warm(self.SRC, "f", [0.0, Array.vector([1.5, 2.5]), 2])
        out = self.same_as_fresh_runs(interp, self.SRC, "f",
                                      [y, Array.vector(cells), 2])
        assert type(out) is list and "f" in interp.unit.generic

    @pytest.mark.parametrize("cells, y", [
        ([Dual(1.5, 1.0), 2.5], 0.0),           # a Dual cell
        ([1.5, 2.5], Fixed.from_real(0.5))])    # a Fixed scalar
    def test_a_failed_first_guard_builds_no_specialised_flow(
            self, cells, y, no_inlining):
        """A first call decides on the entry facts alone: when they fail,
        only the generic body is lowered, and `f`'s specialised flow is
        not built until a caller whose facts prove f's guard calls its
        specialised body, or a call passes f's guard. The entry keeps
        testing the guard: a failed guard fixes no body."""
        src = self.SRC + "\nfn h(y, a, i)\nf(y, a, i)\nend"
        interp = Interpreter(prog(src))
        interp.run_function("f", [y, Array.vector(cells), 2])
        unit = interp.unit
        assert sorted(unit.generic) == ["f"] and unit.bodies == {}
        assert unit.flows == {} and unit["f"] is not unit.generic["f"]
        out = interp.run_function("h", [0.0, Array.vector([1.5, 2.5]), 2])
        assert out[0] == 6.5 and sorted(unit.bodies) == ["f", "h"]
        assert sorted(unit.flows) == ["f", "h"] and sorted(unit.generic) == [
            "f"]
        # f's entry tests its guard on every call
        assert unit["f"] not in (unit.generic["f"], unit.bodies["f"])
        fresh = Interpreter(prog(src))
        fresh.run_function("f", [y, Array.vector(cells), 2])
        fresh.run_function("f", [0.0, Array.vector([1.5, 2.5]), 2])
        assert sorted(fresh.unit.bodies) == sorted(fresh.unit.generic) == [
            "f"]

    def test_a_swap_of_an_int_into_a_float_variable(self):
        # `n` is asked nothing: an Int passes the guard, and moves into `y`
        src = "fn f(y, n, a)\ny += a[1]\nSWAP(y, n)\ny += a[2]\n" \
              "y += a[1]\nend"
        interp = self.warm(src, "f", [0.5, 1.5, Array.vector([1.0, 2.0])])
        for n in (1, 1.5):
            out = self.same_as_fresh_runs(interp, src, "f",
                                          [0.5, n, Array.vector([1.0, 2.0])])
            assert out[0][0] == type(n).__name__
        assert "f" not in interp.unit.generic

    @pytest.mark.parametrize("k", [4, np.float32(4.0)])
    def test_a_callee_that_swaps_a_cell_with_an_int(self, k, inlining):
        # an Int, or a binary32 value, which a binary64 float would take
        # on if its cell were still taken for a float
        src = "fn g(c, k)\nSWAP(c, k)\nend\n" \
              "fn f(y, a, k)\ny += a[1]\ng(a[1], k)\ny += a[1]\n" \
              "y += a[2]\nend"
        interp = self.warm(src, "f", [0.0, Array.vector([1.0, 2.0]), 4.0])
        out = self.same_as_fresh_runs(interp, src, "f",
                                      [0.0, Array.vector([1.0, 2.0]), k])
        assert out[1][2][0] == _typed(k) and out[0] == ("float", "7.0")
        assert "f" not in interp.unit.generic

    def test_an_iteration_sees_the_facts_the_last_one_left(self):
        # the SWAP moves an Int into `y` for the next iteration's update
        src = "fn f(y, n, a)\nfor i = 1:2\ny += a[1]\nSWAP(y, n)\nend\nend"
        interp = self.warm(src, "f", [0.5, 1.5, Array.vector([2.0])])
        out = self.same_as_fresh_runs(interp, src, "f",
                                      [0.5, 1, Array.vector([2.0])])
        assert out[:2] == [("float", "2.5"), ("int", "3")]

    @pytest.mark.parametrize("n", [np.float32(2.0),
                                   Array.vector([2.0, 3.0])])
    def test_a_call_in_a_loop_sees_the_facts_the_last_iteration_left(
            self, n, inlining):
        # the first iteration's call proves g's guard; the SWAP then moves
        # `n` into `x`, so the second iteration's call must test it
        src = "fn g(y, x)\ny += x\nend\n" \
              "fn f(y, x, n)\nfor i = 1:2\ng(y, x)\nSWAP(x, n)\nend\nend"
        interp = self.warm(src, "f", [0.0, 1.0, 2.0])
        out = self.same_as_fresh_runs(interp, src, "f", [0.0, 1.0, n])
        if type(n) is Array:
            assert out[0] == "KindError"
        else:
            assert out[0] == ("float", "3.0")

    @pytest.mark.parametrize("n, kind", [
        (1, None), (GVar(1.0, 0.0), "float"),
        (Array.vector([GVar(2.0, 0.0)]), "array")])
    def test_a_gradient_call_in_a_loop_sees_the_facts_the_last_iteration_left(
            self, n, kind, no_inlining):
        """The gradient twin: gradient bodies make direct calls too. The
        first iteration's call proves g's gradient guard, an Int index
        into an Array of rank 1; the SWAP then moves `n` into `i`, so the
        second iteration's call must test it."""
        src = "fn g(y, a, i)\ny += a[i]\nend\n" \
              "fn f(y, a, i, n)\nfor k = 1:2\ng(y, a, i)\nSWAP(i, n)\nend\nend"

        def args(n):
            return [GVar(0.5, 1.0), Array.vector([GVar(2.0, 0.0)]), 1, n]
        interp = Interpreter(prog(src))
        interp.run_function("f", args(1))
        unit = interp.unit.gradient
        assert sorted(unit.bodies) == ["f", "g"] and unit.generic == {}
        out = self.same_as_fresh_runs(interp, src, "f", args(n))
        if kind is None:
            assert out[0] == ("GVar", "GVar(4.5, 1.0)")
            assert out[1][2] == [("GVar", "GVar(2.0, -2.0)")]
        else:
            assert out[:2] == ("KindError",
                               f"array index must be an Int, got {kind}")
            assert "g" in unit.generic

    def test_a_gvar_two_names_share_loses_its_fact(self, inlining):
        """Two names may share a GVar: `b <- a` in a gradient body makes `b`
        an Array of `a`'s GVars, so `g`'s `t` (`a[1]`) is `b[1]`. Updating
        `b[1]` by a GVar of a Dual, which no guard asks of `d`, makes `t`
        one, so its G fact dies there and `sqrt(t)` takes the generic rule
        in the typed body too; were `t` still taken for a G, the arm would
        drop `y`'s tangent. So too where g is inlined into f."""
        src = "fn g(y, t, b, d)\nr <- d\nb[1] += r\ny += sqrt(t)\n" \
              "b[1] -= r\nr -> d\nend\n" \
              "fn f(y, a, d)\nb <- a\ng(y, a[1], b, d)\nb -> a\nend"
        args = [GVar(0.5, 1.0), Array.vector([GVar(4.0, 0.0), GVar(9.0, 0.0)]),
                GVar(Dual(1.0, 1.0), Dual(0.0, 0.0))]
        interp = Interpreter(prog(src))
        out = self.same_as_fresh_runs(interp, src, "f", args)
        unit = interp.unit.gradient
        assert sorted(unit.bodies) == ["f", "g"][:2 - inlining]
        assert unit.generic == {} and out[0][1].startswith("GVar(Dual(")

    def test_a_g_whose_cotangent_turns_dual_loses_its_fact(self):
        """`t` is a G at `f`'s entry; the cotangent carry of `p`'s release,
        `p` being no G, makes `t`'s cotangent a Dual in place, so after it
        `t` has no fact and its last update is tested as the generic
        body's is."""
        src = "fn f(y, t, d)\np <- t + d\ny += t\np -> t + d\n" \
              "y += sqrt(t)\nend"
        args = [GVar(0.5, 1.0), GVar(4.0, 0.0),
                GVar(Dual(1.0, 1.0), Dual(0.0, 0.0))]
        interp = Interpreter(prog(src))
        out = self.same_as_fresh_runs(interp, src, "f", args)
        assert out[1][1].startswith("GVar(4.0, Dual(")
        flow = interp.unit.gradient.flows["f"]
        last = interp.unit.defs["f"].body.stmts[-1]
        assert flow.want[1] == "G" and "t" not in flow.at[id(last)][0]

    def test_after_an_if_hold_the_facts_of_both_branches(self):
        src = "fn f(y, n, c)\nif (c > 0, ~)\ny += 1.0\nelse\nSWAP(y, n)\n" \
              "end\ny += 2.0\nend"
        interp = self.warm(src, "f", [0.5, 1, 1])
        out = self.same_as_fresh_runs(interp, src, "f", [0.5, 1, 0])
        assert out[:2] == [("int", "3"), ("float", "0.5")]

    def test_a_loop_variable_the_body_rebinds_is_checked(self):
        src = "fn f(y, n, k)\nfor i = 1:k\ny += 1.0\nSWAP(i, n)\nend\nend"
        interp = self.warm(src, "f", [0.0, 5, 0])
        out = self.same_as_fresh_runs(interp, src, "f", [0.0, 5, 2])
        assert out[:2] == ("LoopIteratorMutated",
                           "loop variable 'i' was modified in the body")

    def test_a_call_rebinds_what_its_callees_rebind(self, inlining):
        # g passes `p` whole to h, which swaps it: f's `i` is rebound
        p = prog("fn h(a, b)\nSWAP(a, b)\nend\nfn g(p, q)\nh(p, q)\nend\n"
                 "fn f(y, a, i, j)\ny += a[i]\ng(i, j)\ny += a[i]\nend")
        a = Array.vector([1.0, 2.0, 4.0])
        assert run(p, "f", [0.0, a, 1, 2]) == [3.0, a, 2, 1]
        # the guard set at entry does not cover the `a[i]` after the call
        with pytest.raises(IndexOutOfBounds, match="index 4 out of bounds"):
            run(p, "f", [0.0, a, 1, 4])

    def test_calls_go_straight_to_a_proven_body(self, monkeypatch,
                                                no_inlining):
        # kick_clean proves kick_pair_clean's guard: only the entry of the
        # first call tests it
        tested = []
        has = interpreter._has
        monkeypatch.setattr(interpreter, "_has",
                            lambda *a: tested.append(a[0]) or has(*a))
        from revlang.stdlib import _leapfrog_args, two_body_config
        interp = Interpreter(prog(asset_text("leapfrog.rnl")))
        interp.run_function("leapfrog_clean", list(_leapfrog_args(
            two_body_config(steps=3), None)))
        assert len(tested) == 6 and sorted(interp.unit.bodies) == [
            "drift", "kick_clean", "kick_pair_clean", "leapfrog_clean"]
        assert interp.unit.generic == {}

    @pytest.mark.parametrize("variant", ["clean", "cumulative"])
    @pytest.mark.parametrize("precision", ["binary64", "binary32"])
    def test_leapfrog_calls_no_release_compare_or_int_helper(
            self, monkeypatch, variant, precision):
        from revlang import numerics
        from revlang.stdlib import (_leapfrog_args, leapfrog_simulate,
                                    two_body_config)
        calls = []
        for module, name in ((interpreter, "_release"), (interpreter, "_int"),
                             (interpreter, "compare"),
                             (numerics, "compare")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        cfg = two_body_config(steps=20)
        _, err = leapfrog_simulate(cfg, variant, precision)
        assert calls == [] and err < 1e-5
        if (variant, precision) == ("clean", "binary64"):   # checks off
            interp = Interpreter(load_example("leapfrog_clean"),
                                 ExecOptions(invcheck=False))
            out = interp.run_function("leapfrog_clean",
                                      list(_leapfrog_args(cfg, None)))
            interp.uncall_function("leapfrog_clean", out)
            assert calls == []
        # the counters see the helpers: on `k`, an Int no fact proves (a
        # +=/-= ends an Int's fact), a comparison, a loop bound, a release
        run(prog("fn f(y, n)\nk <- 0\nk += n\nif (k > 0.5, ~)\ny += 1.0\n"
                 "end\nfor i = 1:k\nend\nk -= n\nk -> 0\nend"), "f", [0.0, 1])
        assert sorted(set(calls)) == ["_int", "_release", "compare"]

    @pytest.mark.parametrize("precision", ["binary64", "binary32"])
    def test_leapfrog_calls_no_generic_sqrt_div_or_branch(
            self, monkeypatch, precision):
        """On a fresh Program, a leapfrog job's square roots and divisions
        are host calls and its branch postconditions are discharged, where
        a 200-step job made 3,220 `s_sqrt`/`s_div` calls and 1,610
        `_branch` calls before."""
        from revlang import stdlib
        calls = []
        for name in ("sqrt", "div"):   # wrapped before anything lowers
            spec = INSTR_FNS[name]
            monkeypatch.setitem(INSTR_FNS, name, FnSpec(
                spec.min_arity, spec.max_arity,
                lambda *a, fn=spec.apply, name=name:
                    calls.append(name) or fn(*a), spec.partials))
        branch = interpreter._branch
        monkeypatch.setattr(interpreter, "_branch",
                            lambda *a: calls.append("_branch") or branch(*a))
        monkeypatch.setattr(stdlib, "_cache", {})
        cfg = stdlib.two_body_config(steps=20)
        for variant in ("clean", "cumulative"):
            _, err = stdlib.leapfrog_simulate(cfg, variant, precision)
            assert err < 1e-5
        assert calls == []
        # the counters see the generic calls: a negative root, a zero
        # divisor, and a branch whose condition reads a float
        p = prog("fn f(y, a)\nif (a < 0.0, ~)\ny += sqrt(a)\nend\n"
                 "y += a / 0.0\nend")
        for a in (-1.0, 1.0):
            with pytest.raises(RevDomainError):
                run(p, "f", [0.0, a])
        assert calls == ["sqrt", "_branch", "div"]


# --- host calls: the fast-path table against the generic functions ---------

HOST_VALUES = (0.0, -0.0, 5e-324, 1.0, 4.0, -1.0, 1e308, math.inf, -math.inf,
               math.nan)


def _host_sources(fname):
    """Programs `f(y, a, b, z)` over the `_HOST` function `fname`, whose
    `z += a` and `z += b` make `a` and `b` floats by its entry facts: the
    update `y += f(a)` or `y += f(a, b)`, the same with literal operands
    (which settle a precondition where it tests one, at their value in
    the run's float type: 1e-50 is 0.0 in binary32), and `f` in an
    ancilla's initialiser (`_Lowering.apply`)."""
    head = "fn f(y, a, b, z)\nz += a\nz += b\n"
    operands = ["a, b", "a, 2", "a, 0.0", "a, 1e-50", "2.0, b", "-1.0, b"] \
        if INSTR_FNS[fname].min_arity == 2 else \
        ["a", "4.0", "0.0", "-1.0", "1e-50"]
    call = f"{fname}({operands[0]})"
    return [*[f"{head}y += {fname}({ops})\nend" for ops in operands],
            f"{head}t <- {call}\ny += t\nt -> {call}\nend"]


def _host_outcomes(src, dtype, generic, bs):
    """Per value of `HOST_VALUES` for `a` and of `bs` for `b`, on a fresh
    parse: the typed results or error of `f` with `y` at -0.0 (so that
    `y += v` gives v's bits), and the ExecStats; on the specialised body,
    or on the generic body (`generic`)."""
    program, z = prog(src), dtype or float
    outcomes = []
    with pytest.MonkeyPatch.context() as m, np.errstate(all="ignore"):
        if generic:
            m.setattr(interpreter, "_holds", lambda *a: False)
        for a, b in itertools.product(HOST_VALUES, bs):
            interp = Interpreter(program, ExecOptions(float_dtype=dtype))
            outcomes.append((_typed_outcome(interp, "f", [
                z(-0.0), z(a), z(b), z(0.0)]), interp.stats))
    assert ("f" in interp.unit.bodies) is not generic
    return outcomes


@pytest.mark.parametrize("dtype", [None, np.float32],
                         ids=["binary64", "binary32"])
@pytest.mark.parametrize("fname", sorted(interpreter._HOST))
def test_host_calls_give_what_the_generic_functions_give(
        monkeypatch, fname, dtype):
    """Each function of the fast-path table, over signed zeros, the least
    subnormal, ordinary values, a negative, the largest decade, the
    infinities and NaN, in binary64 and binary32, on specialised and
    generic bodies: the same bits and types, errors and spans, and
    ExecStats as the same programs lowered with the table emptied, which
    call the generic function on every run and so more often."""
    spec, calls = INSTR_FNS[fname], []
    bs = HOST_VALUES if spec.min_arity == 2 else [1.0]
    monkeypatch.setitem(INSTR_FNS, fname, FnSpec(
        spec.min_arity, spec.max_arity,
        lambda *a: calls.append(1) or spec.apply(*a), spec.partials))
    host_calls = generic_calls = 0
    for src in _host_sources(fname):
        for generic in (False, True):
            host = _host_outcomes(src, dtype, generic, bs)
            host_calls, calls[:] = host_calls + len(calls), []
            with pytest.MonkeyPatch.context() as m:
                m.setattr(interpreter, "_HOST", {})
                assert _host_outcomes(src, dtype, generic, bs) == host
            generic_calls, calls[:] = generic_calls + len(calls), []
    assert host_calls < generic_calls


@pytest.mark.parametrize("dtype", [None, np.float32],
                         ids=["binary64", "binary32"])
@pytest.mark.parametrize("call", ["sqrt(a)", "a / b", "-a", "atan2(a, 2)"])
def test_a_float_function_of_proven_floats_binds_a_proven_float(
        monkeypatch, call, dtype):
    """After `t <- sqrt(a)`, with `a` a float by the entry facts, `t` is a
    float too: the lowered code makes no type test of `t`, and decides
    `t -> sqrt(a)` inline, reading a temporary bound to its declared
    value, so a passing run calls no `_release`. Its outcomes equal
    those with the fast-path table emptied, on both bodies."""
    src = f"fn f(y, a, b, z)\nz += a\nz += b\nt <- {call}\ny += t\n" \
          f"t -> {call}\nend"
    lowered = record_lowering(monkeypatch)
    released = []
    release = interpreter._release
    monkeypatch.setattr(interpreter, "_release",
                        lambda *a: released.append(a) or release(*a))
    z = dtype or float
    for a in (0.0, 4.0, 1e30):
        interp = Interpreter(prog(src), ExecOptions(float_dtype=dtype))
        interp.run_function("f", [z(0.0), z(a), z(2.0), z(0.0)])
        assert interp.stats.checks_passed["ancilla"] == 1
    assert released == [] and len(lowered) == 3
    t = re.search(r"\b(v\d+_t) = ", lowered[0].text).group(1)
    assert f"type({t})" not in lowered[0].text
    bs = HOST_VALUES if "b" in call else [1.0]
    for generic in (False, True):
        outcomes = _host_outcomes(src, dtype, generic, bs)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(interpreter, "_HOST", {})
            assert _host_outcomes(src, dtype, generic, bs) == outcomes


def test_the_catalog_lowers_within_its_compile_budget(monkeypatch):
    """The code the catalog lowers, on fresh Programs, in binary64, at no
    more AST nodes than once calls of one site were inlined: the forward
    code `check_reversibility` lowers, 26 bodies of at most 17,482 nodes
    with the guards as they fall (30 and 17,802 before inlining, when
    gradient updates took the typed arm or the generic rule; 15,836 while
    a charge was a call, 15,917 before inline partials), and 21,387 with
    every guard failing and no call direct (26 generic bodies; 21,835
    before inlining, 21,853 with an INC/DEC arm that tested its Int,
    19,649 and 19,661); and the gradient bodies of `autodiff.gradient`
    with default seeds, at most 1,384 (2,100 with the GVar-testing arms,
    1,882 while a charge was a call, 2,239 with Int and rank facts only,
    2,363 while they were lowered at no entry facts), and of
    `autodiff.jacobian` over the whole catalog, the calls `grad-catalog`
    makes, 13 bodies of at most 12,265 (15 and 12,456 before inlining;
    13,172, 12,301, 22,251 and 23,499).
    A run with fuel to spare compiles no per-statement code."""
    import random
    from revlang.stdlib import entry_function, sample_args
    shortages = []
    monkeypatch.setattr(interpreter._Lines, "shortage",
                        lambda *a: shortages.append(a))
    lowered = record_lowering(monkeypatch)

    def nodes(grad):
        found = [body.nodes() for body in lowered if body.grad == grad]
        lowered[:] = [body for body in lowered if body.grad != grad]
        return found

    def forward():
        programs = {}
        for name, (filename, _) in CATALOG.items():
            if filename not in programs:
                programs[filename] = prog(asset_text(filename))
            check_reversibility(programs[filename], entry_function(name),
                                sample_args(name, random.Random(0)))
        return nodes(False)
    found = forward()
    assert len(found) == 26 and sum(found) <= 17_482
    with pytest.MonkeyPatch.context() as m:
        m.setattr(interpreter, "_holds", lambda *a: False)
        m.setattr(interpreter._Flow, "direct", lambda *a: None)
        found = forward()
    assert len(found) == 26 and sum(found) <= 21_387
    for name in ("multiplier", "complex_log", "complex_log_ccu",
                 "mypower_log", "r_norm"):
        gradient(prog(asset_text(CATALOG[name][0])), GradRequest(
            entry_function(name), sample_args(name, random.Random(0))))
    found = nodes(True)
    assert len(found) == 5 and sum(found) <= 1_384
    for name, (filename, fname) in CATALOG.items():
        jacobian(prog(asset_text(filename)), fname,
                 sample_args(name, random.Random(0)))
    found = nodes(True)
    assert len(found) == 13 and sum(found) <= 12_265
    assert shortages == []


def test_gradient_bodies_test_no_gvar(monkeypatch):
    """A gradient `+=`/`-=` takes the typed arm where the facts prove its
    kinds and the generic rule everywhere else, and a gradient `ROT`/`IROT`
    likewise: no gradient body that `gradient`, `jacobian` or `hessian`
    lowers over the catalog, each entry on a fresh Program at its first
    sample, tests a GVar or calls a partial function for `_p`. A default
    seed on a non-scalar first argument, and a Hessian of Int inputs, are
    the `KindError`s the calls may raise."""
    import random
    from revlang.autodiff import hessian
    from revlang.stdlib import sample_args
    lowered = record_lowering(monkeypatch)
    for name, (filename, fname) in CATALOG.items():
        for how in (lambda p, a: gradient(p, GradRequest(fname, a)),
                    lambda p, a: jacobian(p, fname, a),
                    lambda p, a: hessian(p, fname, a)):
            try:
                how(prog(asset_text(filename)),
                    sample_args(name, random.Random(0)))
            except KindError:
                pass
    sources = [body.text for body in lowered if body.grad]
    assert len(sources) == 22   # 24 before calls of one site were inlined
    assert [s for s in sources if "is GVar" in s or "_p = " in s] == []


@pytest.mark.parametrize("variant", ["clean", "cumulative"])
def test_a_leapfrog_round_trip_inlines_its_pair_kick(monkeypatch, variant):
    """`kick_pair_*` has one call site, in `kick_*`: a round trip lowers no
    body of `kick_pair_*` or `~kick_pair_*` of its own, two fewer than
    with every call kept a call, and `kick_*` calls neither."""
    from revlang.stdlib import _leapfrog_args, two_body_config
    args = _leapfrog_args(two_body_config(steps=2), None)

    def round_trip():
        lowered = record_lowering(monkeypatch)
        interp = Interpreter(prog(asset_text("leapfrog.rnl")))
        out = interp.run_function(f"leapfrog_{variant}", deep_copy(args))
        interp.uncall_function(f"leapfrog_{variant}", out)
        return {body.name: body.text for body in lowered}
    lowered = round_trip()
    assert sorted(lowered) == sorted(
        f"{inv}{f}" for inv in ("", "~")
        for f in (f"leapfrog_{variant}", f"kick_{variant}", "drift"))
    for kick in (f"kick_{variant}", f"~kick_{variant}"):   # no call
        assert re.search(r"\['~?kick_pair", lowered[kick]) is None
    with pytest.MonkeyPatch.context() as m:
        keep_calls(m)
        assert len(round_trip()) == len(lowered) + 2


# --- fuel, pinned per statement -------------------------------------------

FUEL_BUDGETS = (1, 7, 50, 333)


def _fuel_outcomes(name):
    """For the forward run of a catalog entry on its first sample, then for
    the uncall of that run's result, and for each budget of
    `FUEL_BUDGETS`: the line and column of the `FuelExhausted` span (None
    when the run completes), and `ExecStats.steps`."""
    import random
    from revlang.stdlib import entry_function, sample_args
    program, fname = load_example(name), entry_function(name)
    args = sample_args(name, random.Random(0))
    out = Interpreter(program).run_function(fname, deep_copy(args))
    found = []
    for method, values in (("run_function", args), ("uncall_function", out)):
        for budget in FUEL_BUDGETS:
            interp = Interpreter(program, ExecOptions(max_steps=budget))
            span = None
            try:
                getattr(interp, method)(fname, deep_copy(values))
            except FuelExhausted as err:
                span = err.span.line, err.span.col
            found.append((span, interp.stats.steps))
    return found


# per entry, `_fuel_outcomes` as recorded while fuel was one `next(F)` per
# executed statement: a change to how fuel is charged must keep them
FUEL = {
    "multiplier": [(None, 1)] * 8,
    "complex_log": [((5, 5), 2), (None, 6), (None, 6), (None, 6),
                    ((8, 5), 2), (None, 6), (None, 6), (None, 6)],
    "complex_log_ccu": [((17, 9), 2), (None, 6), (None, 6), (None, 6),
                        ((17, 9), 2), (None, 6), (None, 6), (None, 6)],
    "i_affine": [((4, 5), 2), ((6, 13), 8), (None, 33), (None, 33),
                 ((9, 5), 2), ((4, 5), 8), (None, 33), (None, 33)],
    "i_umm": [((8, 5), 2), ((12, 9), 8), (None, 44), (None, 44),
              ((20, 5), 2), ((13, 13), 8), (None, 44), (None, 44)],
    "mypower_log": [((9, 13), 2), ((12, 13), 8), (None, 38), (None, 38),
                    ((9, 13), 2), ((12, 13), 8), (None, 38), (None, 38)],
    "rrfib_corrected": [((14, 9), 2), ((14, 9), 8), ((24, 9), 51),
                        (None, 164), ((13, 5), 2), ((20, 9), 8),
                        ((24, 9), 51), (None, 164)],
    "r_norm": [((4, 5), 2), ((4, 5), 8), (None, 20), (None, 20),
               ((4, 5), 2), ((5, 9), 8), (None, 20), (None, 20)],
    "leapfrog_clean": [((97, 9), 2), ((77, 9), 8), ((24, 9), 51),
                       ((32, 9), 334), ((107, 9), 2), ((77, 9), 8),
                       ((24, 9), 51), ((32, 9), 334)],
    "leapfrog_cumulative": [((113, 9), 2), ((87, 9), 8), ((87, 9), 51),
                            ((86, 5), 334), ((123, 9), 2), ((87, 9), 8),
                            ((87, 9), 51), ((86, 5), 334)],
}


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_fuel_at_fixed_budgets(name):
    """`max_steps` of 1, 7, 50 and 333 stop each catalog entry, forward
    and backward, at the statement and step count they always did."""
    assert _fuel_outcomes(name) == FUEL[name]


# --- fuel, charged by the run ----------------------------------------------

def _stopped(src, method, args, opts=None, runs=0):
    """After `runs` passes that complete, the error of one more pass: its
    type, message and line; then `ExecStats.steps` and `checks_passed`."""
    interp = Interpreter(prog(src), opts)
    for _ in range(runs):
        getattr(interp, method)("f", list(args))
    with pytest.raises(RevLangError) as err:
        getattr(interp, method)("f", list(args))
    e = err.value
    return (type(e).__name__, e.message, e.span.line, interp.stats.steps,
            interp.stats.checks_passed)


def _passed(ancilla=0, iterator=0, postcondition=0, alias=0):
    return {"postcondition": postcondition, "ancilla": ancilla,
            "iterator": iterator, "alias": alias}


class TestFuelByTheRun:
    """An error that escapes a statement in the middle of a straight-line
    run leaves the steps and checks that fuel charged per statement left
    (each expected value was recorded while it was): the run gives back
    the steps it charged and did not take."""

    DIRTY = "fn f(y, x)\ny += 1.0\nm <- 0.0\nm -> 0.0\nn <- 0.0\n" \
            "n += x\nn -> 0.0\nk <- 0.0\nk -> 0.0\nend"
    ASSERT = "fn f(y, x)\ny += 1.0\nm <- 0.0\nm -> 0.0\n" \
             "@safe assert(x > 0.0)\nk <- 0.0\nk -> 0.0\ny += 2.0\n" \
             "y += 3.0\nend"
    KIND = "fn f(y, z, x)\nz += 1.0\nm <- 0.0\nm -> 0.0\ny += x\n" \
           "n <- 0.0\nn -> 0.0\nend"

    @pytest.mark.parametrize("method, line, steps", [
        ("run_function", 7, 6), ("uncall_function", 5, 5)])
    def test_a_dirty_release_mid_run(self, method, line, steps):
        assert _stopped(self.DIRTY, method, [0.0, 1.0]) == (
            "DirtyAncilla", "'n' released with residual 1.0", line, steps,
            _passed(ancilla=1))

    @pytest.mark.parametrize("method, steps", [
        ("run_function", 4), ("uncall_function", 5)])
    def test_a_failed_assertion_mid_run(self, method, steps):
        assert _stopped(self.ASSERT, method, [0.0, -1.0]) == (
            "AssertFailed", "assertion failed: x > 0.0", 5, steps,
            _passed(ancilla=1))

    @pytest.mark.parametrize("method, steps", [
        ("run_function", 4), ("uncall_function", 3)])
    def test_a_kind_error_of_the_generic_rule_mid_run(self, method, steps):
        assert _stopped(self.KIND, method, [1, 0.0, Complex(1.0, 2.0)]) == (
            "KindError", "Int target updated with complex", 5, steps,
            _passed(ancilla=1))

    @pytest.mark.parametrize("header, depth, budget, runs, line, passed", [
        ("for i{k} = 1:1", 25, 40, 0, 22, _passed()),
        ("for i{k} = 1:1", 25, 91, 1, 22, _passed(iterator=25)),
        ("if (x < 5.0, ~)", 120, 63, 0, 65, _passed()),
        ("if (x < 5.0, ~)", 120, 100, 0, 102, _passed()),
        ("if (x < 5.0, ~)", 120, 221, 1, 102, _passed(postcondition=120))])
    def test_fuel_runs_out_inside_a_region(self, header, depth, budget, runs,
                                           line, passed):
        """The shape of `test_deep_nesting`: the statements nested deepest
        are functions of their own, and a budget stops one of them."""
        src = "fn f(y, x)\n" + "\n".join(
            header.format(k=k) for k in range(depth)) + \
            "\ny += log(x)\n" + "end\n" * depth + "end"
        assert _stopped(src, "run_function", [0.0, 1.0],
                        ExecOptions(max_steps=budget), runs) == (
            "FuelExhausted", f"exceeded {budget} statement executions", line,
            budget + 1, passed)

    def test_a_leapfrog_run_charges_once_per_run(self, monkeypatch):
        """Four leapfrog steps forward and back take the steps they always
        took (`LEAPFROG_STATS`) in 186 charges: each of the 20
        `kick_pair_clean` calls, inlined, is one charge of 44 steps, the
        call's step and its 43 (206 charges, and a charge of 43, while it
        stayed a call)."""
        from revlang.stdlib import _leapfrog_args, two_body_config
        charges = []
        monkeypatch.setattr(interpreter, "_Fuel", recording_fuel(charges))
        interp = Interpreter(load_example("leapfrog_clean"))
        out = interp.run_function("leapfrog_clean", list(
            _leapfrog_args(two_body_config(steps=4), None)))
        interp.uncall_function("leapfrog_clean", out)
        assert len(charges) == 186
        assert sum(charges) == interp.stats.steps == \
            TestStaticAliasDischarge.LEAPFROG_STATS["clean"][0]
        assert charges.count(44) == 20

    def test_a_shortage_compiles_its_run_once(self, monkeypatch):
        """The per-statement code of a run is compiled at its first
        shortage, and serves every later one."""
        compiled, shortage = [], interpreter._Lines.shortage
        monkeypatch.setattr(interpreter._Lines, "shortage",
                            lambda lines, k, *a: compiled.append(
                                type(lines.runs[k]) is list)
                            or shortage(lines, k, *a))
        p = prog(TestUnitCache.SRC)
        for budget in (3, 4, 3):
            with pytest.raises(FuelExhausted) as err:
                Interpreter(p, ExecOptions(max_steps=budget)).run_function(
                    "f", [0.0, 1.0])
            assert err.value.span.line == budget + 2
        assert compiled == [True, False, False]


# --- checks and steps on every exit path -------------------------------------

def _exit(src, args, opts=None, method="run_function"):
    """A pass of `f` on `args()`: its results, or its error's type,
    message and line; then `ExecStats.steps` and `checks_passed`; then the
    `checks_passed` and error of `check_reversibility` on fresh `args()`."""
    p = prog(src)
    interp = Interpreter(p, opts)
    try:
        res = repr(getattr(interp, method)("f", args()))
    except RevLangError as err:
        res = type(err).__name__, err.message, err.span.line
    report = check_reversibility(p, "f", args(), opts)
    return (res, interp.stats.steps, interp.stats.checks_passed,
            report.checks_passed, report.error)


def _nested(inner, depth=17):
    """`inner` in the innermost of `depth` nested loops: past 16, the
    innermost loop, of 4 iterations, is a region, a Python function of
    its own (`_Lowering.region`)."""
    return "fn f(y, x)\n" + "".join(
        f"for i{k} = 1:1\n" for k in range(depth - 1)) + \
        f"for i{depth - 1} = 1:4\n" + inner + "end\n" * depth + "end"


class TestExitPaths:
    """`ExecStats.steps`, every kind of `checks_passed` and the
    `checks_passed` of `check_reversibility`, on the ways out of a body
    other than a plain return (each expected value was recorded before
    passed checks were counted in locals)."""

    DIRTY = "fn f(y, x)\ny += 1.0\na <- 0.0\na -> 0.0\nb <- 0.0\n" \
            "b -> 0.0\nc <- 0.0\nc += x\nc -> 0.0\ny += 2.0\nend"
    CALLEE = """fn g(y, x)
a <- 0.0
a -> 0.0
y += x
@safe assert(y < 2.5)
end
fn f(z, x)
m <- 0.0
m -> 0.0
for i = 1:5
    for j = 1:2
        z[j] += 0.0
    end
    if (i > 2, ~)
        n <- 0.0
        n -> 0.0
    end
    g(z[i], z[6])
end
end"""
    REGION = _nested("""for j = 1:2
    y += 0.0
end
a <- 0.0
a -> 0.0
y += x
@safe assert(y < 2.5)
if (i16 > 1, ~)
    b <- 0.0
    b -> 0.0
end
""")
    OFF = """fn g(y, x)
a <- 0.0
a -> 0.0
y += x
end
fn f(z, k)
b <- 0.0
b -> 0.0
@invcheckoff g(z[1], z[k])
g(z[1], z[k])
@invcheckoff for i = 1:2
    c <- 0.0
    c -> 0.0
end
end"""
    DOWN = """fn f(a, k)
if (k > 0, ~)
    a[1] += 1
    m <- 0
    m -> 0
    f(a, k |> addconst(-1))
end
end"""

    @pytest.mark.parametrize("method, out", [
        ("run_function", ("DirtyAncilla", "'c' released with residual 1.0",
                          9, 8, _passed(ancilla=2))),
        ("uncall_function", ("DirtyAncilla",
                             "'c' released with residual 1.0", 7, 4,
                             _passed()))])
    def test_a_dirty_release_after_passing_ones(self, method, out):
        error, message, line, steps, passed = out
        assert _exit(self.DIRTY, lambda: [0.0, 1.0], method=method) == (
            (error, message, line), steps, passed, _passed(ancilla=2),
            "DirtyAncilla at <string>:9:1: 'c' released with residual 1.0")

    def test_an_error_in_a_callee_called_in_a_loop(self):
        passed = _passed(ancilla=5, iterator=3, postcondition=3, alias=3)
        assert _exit(self.CALLEE, lambda: [
            Array([0.0, 0.0, 2.0, 0.0, 0.0, 1.0], (6,)), 1.0]) == (
            ("AssertFailed", "assertion failed: y < 2.5", 5), 41, passed,
            passed, "AssertFailed at <string>:5:1: assertion failed: y < 2.5")

    def test_an_error_inside_a_region(self):
        passed = _passed(ancilla=4, iterator=3, postcondition=2)
        assert _exit(self.REGION, lambda: [0.0, 1.0]) == (
            ("AssertFailed", "assertion failed: y < 2.5", 25), 67, passed,
            passed, "AssertFailed at <string>:25:1: assertion failed: "
                    "y < 2.5")

    @pytest.mark.parametrize("budget, line, passed", [
        (41, 24, _passed(ancilla=1, iterator=1)),
        (56, 28, _passed(ancilla=2, iterator=2, postcondition=1)),
        (65, 24, _passed(ancilla=4, iterator=3, postcondition=2))])
    def test_a_shortage_inside_a_region(self, budget, line, passed):
        """Each budget runs out in a run of the region; at 41 and 65 its
        per-statement code passes a release before the statement that
        finds no step left."""
        col = 5 if line == 28 else 1
        assert _exit(self.REGION, lambda: [0.0, 0.0],
                     ExecOptions(max_steps=budget)) == (
            ("FuelExhausted", f"exceeded {budget} statement executions",
             line), budget + 1, passed, passed,
            f"FuelExhausted at <string>:{line}:{col}: exceeded {budget} "
            f"statement executions")

    @pytest.mark.parametrize("invcheck, k, out", [
        (True, 2, ("[Array([2.0, 1.0], shape=(2,)), 2]", 19,
                   _passed(ancilla=2, alias=2), _passed(ancilla=4, alias=4),
                   None)),
        (False, 2, ("[Array([2.0, 1.0], shape=(2,)), 2]", 19,
                    _passed(alias=2), _passed(alias=4), None)),
        (True, 1, (("AliasedArguments", "call arguments may not share "
                    "memory", 9), 4, _passed(ancilla=1), _passed(ancilla=1),
                   "AliasedArguments at <string>:9:14: call arguments may "
                   "not share memory"))])
    def test_a_callee_called_under_invcheckoff(self, invcheck, k, out):
        assert _exit(self.OFF, lambda: [Array([0.0, 1.0], (2,)), k],
                     ExecOptions(invcheck=invcheck)) == out

    def test_call_depth_exceeded(self):
        """A recursion past Python's limit stops in the generic rule of
        `a[1] += 1` (its cell is not a proven Int), called deeper than any
        other code of a level: the deepest level took the step of its
        `if` and of that update, and gave back the rest of its run."""
        arrays = []

        def args():
            arrays.append(Array([0], (1,)))
            return [arrays[-1], 10**6]
        res, steps, passed, report, error = _exit(self.DOWN, args)
        levels = arrays[0].data[0]
        assert levels > 100
        assert res == ("FuelExhausted", "call depth exceeded in f", 1)
        assert (steps, passed) == (5 * levels + 2, _passed(ancilla=levels))
        assert report.keys() == passed.keys()
        assert report["ancilla"] - levels in (-1, 0, 1) and \
            report == _passed(ancilla=report["ancilla"])
        assert error == "FuelExhausted at <string>:1:1: call depth " \
                        "exceeded in f"


# --- exit paths of inlined calls ---------------------------------------------

class TestInlinedExitPaths:
    """A call of a function called nowhere else is inlined: its callee's
    statements run in the caller's body. Each way out of them gives what
    the call gives: the same error, message and span, `ExecStats.steps`
    and `checks_passed`, with inlining on and off."""

    KICK = """fn g(y, x)
@routine begin
    t <- 0.0
    t += x * 2.0
end
y += t
~@routine
end
fn f(y, a, x)
y += 1.0
for i = 1:2
    g(a[i], x)
end
y += 2.0
end"""
    DIRTY = """fn g(y, x)
u <- 0.0
u -> 0.0
@routine begin
    t <- 0.0
    t += x
end
y += t
t += 1.0
~@routine
end
fn f(a, x)
m <- 0.0
m -> 0.0
g(a[2], x)
end"""
    ALIAS = "fn g(y, x)\ny += 1.0\nx += 2.0\nend\n" \
            "fn f(a, i, j)\na[1] += 1.0\ng(a[i], a[j])\nend"
    REBIND = "fn g(y, k)\nINC(k)\nend\nfn f(a, i)\na[1] += 1.0\n" \
             "g(a[i], i)\nend"

    # `~g` is written: the uncall inlines it, and `h`, called only there,
    # is inlined into it
    WRITTEN = """fn h(y, x)
y += x * 3.0
end
fn g(y, x)
y -= x
end
fn ~g(y, x)
@routine begin
    t <- 0.0
    t += x * 2.0
end
h(y, t)
~@routine
end
fn f(y, a, x)
y += 1.0
for i = 1:2
    ~g(a[i], x)
end
y += 2.0
end"""

    @staticmethod
    def outcome(src, args, opts=None):
        """`_stopped`'s outcome of a pass of `f`, and whether `g` has a
        body of its own."""
        interp = Interpreter(prog(src), opts)
        with pytest.raises(RevLangError) as err:
            interp.run_function("f", args)
        e = err.value
        return (type(e).__name__, e.message, (e.span.line, e.span.col),
                interp.stats.steps, interp.stats.checks_passed), \
            "g" in interp.unit.bodies

    def test_fuel_runs_out_at_every_step(self, monkeypatch):
        """Every budget short of a run's 17 steps stops it at the statement
        the call would stop it at, inside the callee too."""
        def stops(budget):
            return self.outcome(self.KICK, [0.0, Array([0.0, 0.0], (2,)), 1.5],
                                ExecOptions(max_steps=budget))
        inlined = [stops(budget) for budget in range(1, 17)]
        keep_calls(monkeypatch)
        called = [stops(budget) for budget in range(1, 17)]
        assert [out for out, _ in inlined] == [out for out, _ in called]
        assert {own for _, own in inlined} == {False}
        assert {own for _, own in called} == {False, True}
        # the lines of g's allocation, update and `y += t`, and of f's
        # loop, call and last update
        assert {out[2][0] for out, _ in inlined} == {3, 4, 6, 11, 12, 14}

    def test_fuel_runs_out_at_every_step_of_a_written_inverse(
            self, monkeypatch):
        """Every budget short of the pass stops it, inside the written
        `~g` and the `h` inlined into it too, where the calls stop it."""
        args = [0.0, Array([0.0, 0.0], (2,)), 1.5]
        interp = Interpreter(prog(self.WRITTEN))
        assert interp.run_function("f", list(args)) == [
            3.0, Array([9.0, 9.0], (2,)), 1.5]
        steps = interp.stats.steps
        assert sorted(interp.unit.bodies) == ["f"]

        def stops(budget):
            return self.outcome(self.WRITTEN, list(args),
                                ExecOptions(max_steps=budget))[0]
        inlined = [stops(budget) for budget in range(1, steps)]
        keep_calls(monkeypatch)
        assert [stops(budget) for budget in range(1, steps)] == inlined
        # the lines of h's update, ~g's allocation, update and call, and
        # of f's loop, uncall and last update
        assert {out[2][0] for out in inlined} == {2, 9, 10, 12, 17, 18, 20}

    def test_a_dirty_release_in_a_written_inverse(self, inlining):
        src = self.WRITTEN.replace("h(y, t)\n", "h(y, t)\nt += 1.0\n")
        assert self.outcome(src, [0.0, Array([0.0, 0.0], (2,)), 1.0])[0] \
            == ("DirtyAncilla", "'t' released with residual 1.0", (9, 5), 11,
                _passed())
        interp = Interpreter(prog(src))
        with pytest.raises(DirtyAncilla):
            interp.run_function("f", [0.0, Array([0.0, 0.0], (2,)), 1.0])
        assert ("~g" in interp.unit.bodies) != inlining

    def test_aliased_arguments_at_an_uncall_of_a_written_inverse(
            self, inlining):
        src = self.WRITTEN.split("fn f")[0] + \
            "fn f(a, i, j)\na[1] += 1.0\n~g(a[i], a[j])\nend"
        assert self.outcome(src, [Array([0.0, 0.0], (2,)), 2, 2])[0] == (
            "AliasedArguments", "call arguments may not share memory",
            (17, 1), 2, _passed())
        interp = Interpreter(prog(src))
        assert interp.run_function("f", [Array([0.0, 2.0], (2,)), 1, 2]) \
            == [Array([13.0, 2.0], (2,)), 1, 2]
        assert interp.stats.checks_passed == _passed(ancilla=1, alias=1)
        assert ("~g" in interp.unit.bodies) != inlining

    def test_a_dirty_release_in_the_callees_routine(self, inlining):
        """The release of the callee's ancilla names it as written, at the
        span of its allocation, which its uncompute releases."""
        assert self.outcome(self.DIRTY, [Array([0.0, 0.0], (2,)), 1.0]) == (
            ("DirtyAncilla", "'t' released with residual 1.0", (5, 5), 11,
             _passed(ancilla=2)), not inlining)

    def test_aliased_arguments_at_the_call(self, inlining):
        assert self.outcome(self.ALIAS, [Array([0.0, 0.0], (2,)), 2, 2]) == (
            ("AliasedArguments", "call arguments may not share memory",
             (7, 1), 2, _passed()), not inlining)
        p = prog(self.ALIAS)
        interp = Interpreter(p)
        assert interp.run_function("f", [Array([0.0, 0.0], (2,)), 2, 1]) \
            == [Array([3.0, 1.0], (2,)), 2, 1]
        assert ("g" in interp.unit.bodies) != inlining
        assert (type(p.compiled["defs"].inlined["f"].body.stmts[-1])
                is Inlined) == inlining

    def test_a_call_that_rebinds_an_index_of_its_arguments(self, inlining):
        """`g(a[i], i)` may rebind `i`: it stays the call that raises."""
        p = prog(self.REBIND)
        assert self.outcome(self.REBIND, [Array([0.0, 0.0], (2,)), 1]) == (
            ("AliasedArguments", "'i' indexes an argument of a statement "
             "that may rebind it", (6, 1), 2, _passed()), False)
        Interpreter(p)
        assert type(p.compiled["defs"].inlined["f"].body.stmts[-1]) is FnCall

    def test_a_cell_argument_out_of_bounds(self, inlining):
        """The call reads its arguments before the callee's statements
        run: `a[3]` raises at the call, with `x` not yet updated."""
        src = "fn g(y, x)\nx += 1.0\ny += x\nend\nfn f(a, x)\ng(a[3], x)\nend"
        assert self.outcome(src, [Array([0.0, 0.0], (2,)), 1.0]) == (
            ("IndexOutOfBounds", "index 3 out of bounds 1..2", (6, 1), 1,
             _passed()), not inlining)

    def test_the_callees_assertion_quotes_it(self, inlining):
        src = "fn g(y, x)\ny += x\n@safe assert(y < 2.5)\nend\n" \
              "fn f(a, x)\ng(a[1], x)\nend"
        assert self.outcome(src, [Array([2.0], (1,)), 1.0]) == (
            ("AssertFailed", "assertion failed: y < 2.5", (3, 1), 3,
             _passed()), True)

    def test_two_cells_of_one_array_for_parameters_one_statement_reads(
            self, inlining):
        """Inlined, `y += x` would read and write cells of one array, and
        count an alias check the call's body does not make: the call
        stays a call."""
        src = "fn g(y, x)\ny += x\nend\nfn f(a)\ng(a[1], a[2])\nend"
        interp = Interpreter(prog(src))
        assert interp.run_function("f", [Array([1.0, 2.0], (2,))]) == [
            Array([3.0, 2.0], (2,))]
        assert interp.stats.checks_passed == _passed(alias=1)
        assert "g" in interp.unit.bodies

    def test_a_cell_for_a_parameter_that_indexes(self, inlining):
        """Inlined, `a[k]` would index by the cell `b[1]`, which no index
        may read: the call stays a call, and raises where it did."""
        src = "fn g(y, a, k)\ny += a[k]\nend\n" \
              "fn f(y, a, b)\ng(y, a, b[1])\nend"
        a = Array([1.0, 2.0], (2,))
        interp = Interpreter(prog(src))
        assert interp.run_function("f", [0.0, a, Array([2], (1,))])[0] == 2.0
        assert "g" in interp.unit.bodies
        assert self.outcome(src, [0.0, a, Array([1.5], (1,))])[0] == (
            "KindError", "array index must be an Int, got float", (2, 1), 2,
            _passed())

    @pytest.mark.parametrize("binding", ["x <- 0.0\nx -> 0.0",
                                         "for x = 1:2\nend"])
    def test_a_callee_that_binds_a_parameters_name(self, inlining, binding):
        """Inlined, the binding would take a renamed name and raise
        nothing: the call stays a call, and raises as it did."""
        src = f"fn g(y, x)\ny += 1.0\n{binding}\nend\n" \
              "fn f(a, x)\ng(a[1], x)\nend"
        out, own = self.outcome(src, [Array([0.0], (1,)), 1.0])
        assert out[:2] == ("DuplicateBinding", "'x' is already bound") \
            or out[:2] == ("DuplicateBinding", "loop variable 'x' shadows "
                                               "an existing binding")
        assert out[2:] == ((3, 1), 3, _passed()) and own

    def test_mutually_recursive_functions_stay_calls(self, inlining):
        """f and g each have one site, in the other: both are recursive,
        and neither is inlined."""
        src = "fn f(y, n)\nif (n > 0, ~)\nDEC(n)\ng(y, n)\nINC(n)\nend\n" \
              "end\nfn g(y, n)\ny += 1.0\nf(y, n)\nend"
        interp = Interpreter(prog(src))
        assert interp.run_function("f", [0.0, 3]) == [3.0, 3]
        assert sorted(interp.unit.bodies) == ["f", "g"]
        assert interp.stats.steps == 19
