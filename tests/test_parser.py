import pytest

from revlang.errors import RnlSyntaxError
from revlang.ir import (SAME_AS_PRE, AncillaAlloc, BijView, FnCall, If,
                        IndexView, InstrCall, InvCheckOff, Lit, Routine,
                        UncallFn)
from revlang.parser import parse_program, pretty_print
from revlang.stdlib import CATALOG, asset_text, load_example
from revlang.values import Fixed


def first_stmt(src, n=0):
    p = parse_program(f"fn t(x, y, a, b, n)\n{src}\nend")
    return p.get("t").body.stmts[n]


class TestStatements:
    def test_instruction_product_form(self):
        s = first_stmt("y += a * b")
        assert isinstance(s, InstrCall)
        assert s.op == "+=" and s.fname == "mul"
        assert [v.name for v in s.args] == ["y", "a", "b"]

    def test_bang_names_and_neq(self):
        p = parse_program("fn f(y!)\ny! += 1\nend")
        assert p.get("f").params[0].name == "y!"
        s = first_stmt("if (y != 1, ~)\nend")
        assert s.pre.op == "!="

    def test_unicode_and_ascii_arrows(self):
        a = parse_program("fn f(x)\nn ← 0.0\nn → 0.0\nend")
        b = parse_program("fn f(x)\nn <- 0.0\nn -> 0.0\nend")
        assert a == b

    def test_xor_spellings(self):
        a = first_stmt("x xor= y")
        b = first_stmt("x ⊻= y")
        assert a == b and a.op == "xor="

    def test_if_same_sentinel(self):
        s = first_stmt("if (n >= 1, ~)\nx += 1\nend")
        assert isinstance(s, If) and s.post is SAME_AS_PRE

    def test_if_else_and_postcondition(self):
        s = first_stmt("if (a > b, x > 0)\nx += 1\nelse\nx -= 1\nend")
        assert s.post is not SAME_AS_PRE
        assert len(s.else_block.stmts) == 1

    def test_while_requires_postcondition(self):
        with pytest.raises(RnlSyntaxError):
            first_stmt("while (a > 0, ~)\nend")

    def test_for_two_part_sugar(self):
        s = first_stmt("for i = 1:n\nx += 1\nend")
        assert s.step == Lit(1)

    def test_duplicate_allocation_parses(self):
        # statically fine; rejected at run time
        p = parse_program("fn f(y)\nx <- 0\nx <- 0\nx -> 0\nx -> 0\nend")
        assert len(p.get("f").body.stmts) == 4

    def test_uncall_and_primitive(self):
        s = first_stmt("~f(x, y)")
        assert isinstance(s, UncallFn)
        s = first_stmt("SWAP(x, y)")
        assert isinstance(s, FnCall) and s.fname == "SWAP"
        s = first_stmt("XOR(x, y)")
        assert isinstance(s, InstrCall) and s.op == "xor="

    def test_bijector_view(self):
        s = first_stmt("f(x |> addconst(-1))")
        v = s.args[0]
        assert isinstance(v, BijView) and v.args == (-1,)
        s = first_stmt("f(x |> neg)")
        assert s.args[0].bij == "neg"

    def test_fixed_and_imag_literals(self):
        s = first_stmt("if (x != 0fx, ~)\nend")
        assert s.pre.right.value == Fixed.from_real(0)
        s = first_stmt("n <- 1.5 + 2im")
        assert isinstance(s, AncillaAlloc)
        assert s.expr.right.value == complex(0, 2)

    def test_index_views(self):
        s = first_stmt("y[i, 2] += a[i]")
        tgt = s.args[0]
        assert isinstance(tgt, IndexView) and len(tgt.indices) == 2

    def test_comments_ignored(self):
        p = parse_program("# leading\nfn f(x) # trailing\n# mid\nx += 1\nend\n")
        assert len(p.get("f").body.stmts) == 1

    def test_syntax_errors_carry_spans(self):
        with pytest.raises(RnlSyntaxError) as ei:
            parse_program("fn f(x)\nx += )\nend", "bad.rnl")
        assert ei.value.span.file == "bad.rnl"
        assert ei.value.span.line == 2

    def test_rhs_must_be_single_application(self):
        with pytest.raises(RnlSyntaxError):
            first_stmt("y += a * b + 1")

    @pytest.mark.parametrize("text", ["\u00b2", "\u0663", "1\u00b2", ".\u0663"])
    def test_numbers_take_ascii_digits_only(self, text):
        with pytest.raises(RnlSyntaxError, match="unexpected character"):
            first_stmt(f"y += {text}")


class TestRoutines:
    def test_close_pairs_with_innermost_open(self):
        s = first_stmt("@routine begin\nend\n@routine x += 1\ny += x\n"
                       "~@routine\na += 1\n~@routine")
        assert isinstance(s, Routine) and s.compute.stmts == ()
        inner, after = s.body.stmts
        assert isinstance(inner, Routine) and after == first_stmt("a += 1")
        assert inner.compute.stmts == (first_stmt("x += 1"),)
        assert inner.body.stmts == (first_stmt("y += x"),)

    def test_close_pairs_within_its_statement_list(self):
        with pytest.raises(RnlSyntaxError, match="without a matching open"):
            first_stmt("@routine begin\nend\nif (x > 0, ~)\n~@routine\nend")
        with pytest.raises(RnlSyntaxError, match="never closed"):
            first_stmt("if (x > 0, ~)\n@routine begin\nend\nend\n~@routine")
        with pytest.raises(RnlSyntaxError, match="never closed"):
            first_stmt("if (x > 0, ~)\n@routine x += 1\nelse\n~@routine\nend")

    def test_invcheckoff_covers_the_routine(self):
        p = parse_program("fn f(y, x)\n@invcheckoff @routine x += 1\n"
                          "y += x\n~@routine\nend")
        s, = p.get("f").body.stmts
        assert isinstance(s, InvCheckOff) and isinstance(s.stmt, Routine)
        assert parse_program(pretty_print(p)) == p


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(set(f for f, _ in CATALOG.values())))
    def test_corpus_round_trip(self, name):
        program = parse_program(asset_text(name), name)
        printed = pretty_print(program)
        assert parse_program(printed) == program

    def test_round_trip_twice_is_stable(self):
        program = load_example("rrfib_corrected")
        once = pretty_print(program)
        assert pretty_print(parse_program(once)) == once

    def test_empty_program(self):
        assert pretty_print(parse_program("")) == ""

    def test_for_prints_three_part(self):
        p = parse_program("fn f(x, n)\nfor i = 1:n\nx += i\nend\nend")
        assert "for i = 1:1:n" in pretty_print(p)

    def test_inverted_names_parse(self):
        p = parse_program("fn ~f(x)\nx -= 1\nend")
        assert "~f" in p.functions
