import pytest

from revlang.errors import RnlSyntaxError
from revlang.ir import (Block, For, If, InstrCall, InvCheckOff, Lit, UncallFn,
                        Un)
from revlang.parser import parse_program, pretty_print
from revlang.reverser import (expand_routines, invert_function,
                              invert_statement, negate_expr)
from revlang.stdlib import CATALOG, entry_function, load_example


def fn_of(src, name="t"):
    return parse_program(src).get(name)


def stmt(src):
    return fn_of(f"fn t(x, y, a, b, n)\n{src}\nend").body.stmts[0]


class TestInvertStatement:
    def test_plus_log_becomes_minus_log(self):
        s = invert_statement(stmt("y += log(x)"))
        assert isinstance(s, InstrCall) and s.op == "-=" and s.fname == "log"

    def test_swap_self_inverse(self):
        s = invert_statement(stmt("SWAP(a, b)"))
        assert s == stmt("SWAP(a, b)")

    def test_inc_dec_rot(self):
        assert invert_statement(stmt("INC(n)")) == stmt("DEC(n)")
        assert invert_statement(stmt("ROT(a, b, x)")) == stmt("IROT(a, b, x)")

    def test_for_reverses_range_and_body(self):
        s = invert_statement(stmt("for i = 1:1:10\ny += i\nend"))
        assert isinstance(s, For)
        assert s.start == Lit(10) and s.stop == Lit(1)
        assert s.step == Lit(-1)
        assert s.body.stmts[0].op == "-="

    def test_if_swaps_conditions(self):
        s = invert_statement(stmt("if (a > b, x > 0)\nx += 1\nend"))
        assert isinstance(s, If)
        assert s.pre == stmt("if (x > 0, a > b)\nend").pre
        assert s.then_block.stmts[0].op == "-="

    def test_safe_passes_through_unchanged(self):
        s = stmt("@safe assert(a > 0)")
        assert invert_statement(s) == s

    def test_calls_swap_with_uncalls(self):
        s = invert_statement(stmt("f(a, b)"))
        assert isinstance(s, UncallFn)
        assert invert_statement(s) == stmt("f(a, b)")

    def test_block_reverses_order(self):
        b = fn_of("fn t(x, y)\nx += 1\ny += 2\nend").body
        inv = invert_statement(b)
        assert isinstance(inv, Block)
        assert [s.args[0].name for s in inv.stmts] == ["y", "x"]

    def test_negate_expr_folds(self):
        e = Lit(3)
        assert negate_expr(negate_expr(e)) == e
        v = stmt("for i = 1:n\nend").stop
        assert negate_expr(negate_expr(v)) == v
        assert isinstance(negate_expr(v), Un)


class TestExpandRoutines:
    def test_ccu_expands_to_plain_form(self):
        p = load_example("complex_log_ccu")
        plain = load_example("complex_log")
        expanded = expand_routines(p.get("complex_log_ccu"))
        assert expanded.body == plain.get("complex_log").body

    def test_no_routines_is_identity(self):
        f = load_example("multiplier").get("multiplier")
        assert expand_routines(f) == f

    def test_double_expansion_is_single(self):
        f = load_example("mypower_log").get("mypower")
        once = expand_routines(f)
        assert expand_routines(once) == once

    def test_nested_routines_innermost_first(self):
        src = """fn t(y, x)
@routine begin
    a <- 0.0
    @routine begin
        b <- 0.0
        b += abs(x)
    end
    a += b
    ~@routine
end
y += a
~@routine
end"""
        f = expand_routines(fn_of(src))
        kinds = [type(s).__name__ for s in f.body.stmts]
        assert "Routine" not in kinds
        # inner block expanded before the outer mirror reversed it
        assert len(f.body.stmts) == 13

    def test_invcheckoff_routine_expands_in_place(self):
        # no block, so no scope: the body may release what an enclosing
        # compute block allocated
        f = expand_routines(fn_of(
            "fn t(y, x)\n@invcheckoff @routine x += 1\ny += x\n~@routine\nend"))
        plain = fn_of("fn t(y, x)\nx += 1\ny += x\nx -= 1\nend")
        assert f.body.stmts == tuple(InvCheckOff(s) for s in plain.body.stmts)

    def test_unmatched_raises(self):
        with pytest.raises(RnlSyntaxError):
            fn_of("fn t(y)\n~@routine\nend")


class TestInvertFunction:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_involution_on_catalog(self, name):
        f = load_example(name).get(entry_function(name))
        assert invert_function(invert_function(f)) == f

    def test_inverse_multiplier_text(self):
        from revlang.ir import Program
        f = invert_function(load_example("multiplier").get("multiplier"))
        assert f.name == "~multiplier"
        assert "y! -= a * b" in pretty_print(Program([f]))

    def test_inverse_keeps_signature(self):
        f = load_example("i_umm").get("i_umm")
        assert invert_function(f).params == f.params

    def test_inverting_expanded_equals_expanding_inverted(self):
        f = load_example("complex_log_ccu").get("complex_log_ccu")
        a = expand_routines(invert_function(f))
        b = invert_function(expand_routines(f))
        assert a.body == b.body
