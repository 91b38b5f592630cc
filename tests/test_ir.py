import pytest

from revlang.errors import RnlSyntaxError
from revlang.interpreter import Frame, canonical_view_identity
from revlang.ir import validate
from revlang.parser import parse_program
from revlang.stdlib import load_example
from revlang.values import Array, Complex


def diags_of(src):
    return validate(parse_program(src))


def rules(src):
    return sorted({d.rule for d in diags_of(src)})


class TestValidate:
    def test_clean_programs_have_no_diagnostics(self):
        assert validate(load_example("multiplier")) == []
        assert validate(load_example("complex_log")) == []
        assert validate(load_example("leapfrog_clean")) == []

    def test_unbalanced_ancilla(self):
        assert "UnbalancedAncilla" in rules("fn f(y)\nx <- 0\nend")
        assert "UnbalancedAncilla" in rules("fn f(y)\nx -> 0\nend")

    def test_ancilla_must_balance_per_scope(self):
        src = """fn f(y, c)
if (c > 0, ~)
    x <- 0
end
x -> 0
end"""
        assert "UnbalancedAncilla" in rules(src)

    def test_unmatched_routine(self):
        with pytest.raises(RnlSyntaxError, match="without a matching open"):
            rules("fn f(y)\n~@routine\nend")
        with pytest.raises(RnlSyntaxError, match="never closed"):
            rules("fn f(y)\n@routine begin\ny += 1\nend\nend")

    def test_routine_internal_allocs_are_balanced_by_mirror(self):
        src = """fn f(y, x)
@routine begin
    n <- 0.0
    n += abs(x)
end
y += n
~@routine
end"""
        assert diags_of(src) == []

    @pytest.mark.parametrize("head", ["for i = 1:2", "if (x > 0, ~)"])
    def test_routine_is_checked_as_its_expansion(self, head):
        # an allocation left open in a block of a compute block is not
        # balanced by the replay, as it is not outside a routine
        inner = f"{head}\nn <- 0.0\nend"
        outside = rules(f"fn f(y, x)\n{inner}\nend")
        inside = rules(f"fn f(y, x)\n@routine begin\n{inner}\nend\n"
                       "y += 1.0\n~@routine\nend")
        assert outside == inside == ["UnbalancedAncilla"]

    def test_invcheckoff_routine_is_valid(self):
        assert diags_of("""fn f(y, x)
@invcheckoff @routine begin
    n <- 0.0
    n += abs(x)
end
y += n
~@routine
end""") == []

    def test_compute_and_replay_report_once(self):
        src = "fn f(y, x)\n@routine begin\ny += wiggle(x)\nend\n~@routine\nend"
        assert [d.rule for d in diags_of(src)] == ["UnknownFunction"]

    def test_non_affine_index(self):
        assert "NonAffineIndex" in rules("fn f(a, i)\na[i * i] += 1\nend")
        assert "NonAffineIndex" not in rules("fn f(a, i, j)\na[2*i + j - 1] += 1\nend")
        # each view is checked once, however deep in an expression
        src = "fn f(x, a, i)\nn <- a + a * (a + x[i * i])\nn -> 0.0\nend"
        assert [d.rule for d in diags_of(src)] == ["NonAffineIndex"]

    def test_unknown_function_and_arity(self):
        assert "UnknownFunction" in rules("fn f(y)\ng(y)\nend")
        assert "ArityMismatch" in rules(
            "fn g(a, b)\na += b\nend\nfn f(y)\ng(y)\nend")
        assert "ArityMismatch" in rules("fn f(x, a, b)\nx += sin(a, b)\nend")
        assert "ArityMismatch" in rules("fn f(y, a, b)\ny *= mul(a, b)\nend")
        # expression calls take their arity from the same table
        assert "ArityMismatch" in rules(
            "fn f(y, a, b)\nn <- sqrt(a, b)\nn -> 0.0\nend")
        assert "ArityMismatch" in rules(
            "fn f(y, a)\nif (max(a) > 0.0, ~)\ny += a\nend\nend")
        assert "UnknownFunction" in rules(
            "fn f(y, a)\nn <- wiggle(a)\nn -> 0.0\nend")
        assert rules("fn f(y, a, b)\nn <- mul(a, b) + min(a, b)\n"
                     "n -> mul(a, b) + min(a, b)\nend") == []
        assert "ArityMismatch" in rules(
            "fn g(a, b)\na += b\nend\nfn ~g(a)\na -= 1\nend")
        # g is the inverse generated from ~g, with ~g's arity
        assert rules("fn ~g(a)\na -= 1\nend\nfn f(y)\ng(y)\nend") == []
        assert "ArityMismatch" in rules(
            "fn ~g(a)\na -= 1\nend\nfn f(y, z)\ng(y, z)\nend")

    def test_unknown_bijector(self):
        assert "UnknownBijector" in rules("fn f(y, x)\ny += x |> wiggle\nend")
        assert "BadBijectorArgs" in rules("fn f(y, x)\ny += x |> mulconst(0)\nend")

    def test_duplicates(self):
        assert "DuplicateParam" in rules("fn f(a, a)\na += 1\nend")
        assert "DuplicateFunction" in rules(
            "fn f(a)\na += 1\nend\nfn f(b)\nb += 1\nend")

    def test_validate_is_pure_and_idempotent(self):
        p = parse_program("fn f(y)\nx <- 0\nend")
        first = validate(p)
        second = validate(p)
        assert first == second and len(first) == 1


class TestViewIdentity:
    def _env(self):
        env = Frame()
        env.bindings["x"] = 3.0
        env.bindings["a"] = Array.vector([1.0, 2.0, 3.0])
        env.bindings["p"] = Complex(1.0, 2.0)
        return env

    def _view(self, text):
        p = parse_program(f"fn t(q)\nq += {text}\nend")
        return p.get("t").body.stmts[0].args[1]

    def test_bijector_preserves_identity(self):
        env = self._env()
        a = canonical_view_identity(env, self._view("x"))
        b = canonical_view_identity(env, self._view("x |> neg"))
        assert a == b

    def test_distinct_cells(self):
        env = self._env()
        a1 = canonical_view_identity(env, self._view("a[1]"))
        a2 = canonical_view_identity(env, self._view("a[2]"))
        assert a1 != a2

    def test_distinct_fields(self):
        env = self._env()
        re = canonical_view_identity(env, self._view("p.re"))
        im = canonical_view_identity(env, self._view("p.im"))
        assert re != im

    def test_equivalence_after_index_evaluation(self):
        env = self._env()
        env.bindings["i"] = 2
        via_i = canonical_view_identity(env, self._view("a[i]"))
        direct = canonical_view_identity(env, self._view("a[2]"))
        assert via_i == direct

    def test_unbound_root(self):
        from revlang.errors import UnboundVariable
        with pytest.raises(UnboundVariable):
            canonical_view_identity(Frame(), self._view("zz"))
