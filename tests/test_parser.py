import re

import pytest
from hypothesis import given, settings, strategies as st

from revlang.errors import RnlSyntaxError
from revlang.ir import (SAME_AS_PRE, AncillaAlloc, BijView, FnCall, If,
                        IndexView, InstrCall, InvCheckOff, Lit, Program,
                        Routine, UncallFn)
from revlang.parser import parse_program, pretty_print, tokenize
from revlang.reverser import invert_function
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


class TestScanner:
    @pytest.mark.parametrize("text, tokens", [
        ("y!=1", [("name", "y"), ("punct", "!="), ("num", 1)]),
        ("y!! = 1", [("name", "y!!"), ("punct", "="), ("num", 1)]),
        ("xor=", [("punct", "xor=")]),
        ("xor==", [("name", "xor"), ("punct", "==")]),
        ("xorx=", [("name", "xorx"), ("punct", "=")]),
        ("x \u22bb= y", [("name", "x"), ("punct", "xor="), ("name", "y")]),
        ("\u2190\u2192\u25b7", [("punct", "<-"), ("punct", "->"),
                                   ("punct", "|>")]),
        ("~@routine @safe", [("macro", "~@routine"), ("macro", "@safe")]),
        ("1.x", [("num", 1), ("punct", "."), ("name", "x")]),
        ("1..2", [("num", 1), ("punct", "."), ("num", 0.2)]),
        (".5", [("num", 0.5)]),
        ("1e5 2E-1", [("num", 100000.0), ("num", 0.2)]),
        ("1.e5", [("num", 1), ("punct", "."), ("name", "e5")]),
        ("1e5_", [("num", 100000.0), ("name", "_")]),
        ("1_000", [("num", 1), ("name", "_000")]),
        ("2fx 3im", [("num", Fixed.from_real(2)), ("num", 3j)]),
        ("a\u0663", [("name", "a\u0663")]),
    ])
    def test_token_streams(self, text, tokens):
        toks = tokenize(text)
        assert [(kind, repr(value)) for kind, value, _, _ in toks[:-1]] == \
            [(k, repr(v)) for k, v in tokens]
        assert toks[-1][0] == "eof"

    @pytest.mark.parametrize("text, message, col", [
        ("\u22bb y", "expected '=' after the xor sign", 1),
        ("x @bad", "unknown macro '@bad'", 3),
        ("0xor0", "unknown numeric suffix 'xor'", 1),
        ("y = 1e", "unknown numeric suffix 'e'", 5),
        ("1e5x", "unknown numeric suffix 'x'", 1),
        ("\u00b2", "unexpected character '\u00b2'", 1),
        ("\u0663", "unexpected character '\u0663'", 1),
        ("1\u00b2", "unexpected character '\u00b2'", 2),
        ("2fx\u00b2", "unexpected character '\u00b2'", 4),
        (".\u0663", "unexpected character '\u0663'", 2),
        ("a ! b", "unexpected character '!'", 3),
        ("\t\tx $", "unexpected character '$'", 5),   # a tab is one column
        ("y += 1e400fx", "fixed-point literal '1e400fx' is out of range", 6),
    ])
    def test_errors(self, text, message, col):
        with pytest.raises(RnlSyntaxError) as ei:
            tokenize("# line 1\n" + text, "s.rnl")
        assert ei.value.message == message
        assert str(ei.value.span) == f"s.rnl:2:{col}"

    def test_the_pattern_compiles_before_python_3_11(self):
        # possessive repeats and atomic groups came in Python 3.11, and
        # pyproject.toml allows 3.10
        from revlang.parser import _TOKEN
        sre = getattr(re, "_parser", None)
        if sre is None:
            import sre_parse as sre

        def ops(items):
            for op, av in items:
                yield str(op)
                for a in av if isinstance(av, (tuple, list)) else (av,):
                    if isinstance(a, sre.SubPattern):
                        yield from ops(a)
                    elif isinstance(a, (tuple, list)):
                        for b in a:
                            if isinstance(b, sre.SubPattern):
                                yield from ops(b)

        used = set(ops(sre.parse(_TOKEN.pattern, _TOKEN.flags)))
        assert "MAX_REPEAT" in used
        assert not used & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}

    def test_blanks_and_comments_before_a_token(self):
        toks = tokenize("x \t# a # b\n\r  # c\n# d\n\t y # e")
        assert [(k, v, line, col) for k, v, line, col in toks] == [
            ("name", "x", 1, 1), ("name", "y", 4, 3), ("eof", None, 4, 8)]

    def test_end_of_input_is_named_and_placed(self):
        with pytest.raises(RnlSyntaxError) as ei:
            parse_program("fn f(x)\n    x += 1  # no end here", "f.rnl")
        assert ei.value.message == "expected 'end', found end of input"
        assert str(ei.value.span) == "f.rnl:2:26"


class TestPrinting:
    @pytest.mark.parametrize("expr, printed", [
        ("(2 ^ 3) ^ 2", "(2 ^ 3) ^ 2"),
        ("2 ^ (3 ^ 2)", "2 ^ 3 ^ 2"),
        ("(-2) ^ 2", "(-2) ^ 2"),
        ("-(2 ^ 2)", "-2 ^ 2"),
        ("(a < b) == c", "(a < b) == c"),
        ("a - (b - c)", "a - (b - c)"),
        ("1e400", "1e999"),
        ("-1e400 * x", "-1e999 * x"),
    ], ids=["power-of-power", "right-nested-power", "negative-base",
            "negated-power", "comparison-of-comparison", "right-difference",
            "overflow", "negative-overflow"])
    def test_expression_reparses_to_itself(self, expr, printed):
        p = parse_program(f"fn f(a, b, c, x)\nn <- {expr}\nn -> 0\nend")
        text = pretty_print(p)
        assert f"n <- {printed}\n" in text
        assert parse_program(text) == p

    def test_complex_literal_keeps_its_digits(self):
        p = parse_program("fn f(y, x)\ny += x * 1.2345678901im\nend")
        inverse = Program([invert_function(p.get("f"))])
        text = pretty_print(inverse)
        assert "y -= x * 1.2345678901im" in text
        assert parse_program(text) == inverse

    @pytest.mark.parametrize("rhs, printed", [
        ("neg(2)", "neg(2)"), ("identity(-2fx)", "identity(-2fx)"),
        ("mul(-2, x)", "mul(-2, x)"), ("-x", "-x"), ("x * -2", "x * -2")])
    def test_instruction_shorthand_only_where_it_reparses(self, rhs, printed):
        p = parse_program(f"fn f(y, x)\ny += {rhs}\nend")
        text = pretty_print(p)
        assert f"y += {printed}\n" in text
        assert parse_program(text) == p

    def test_safe_list_checks_separators(self):
        with pytest.raises(RnlSyntaxError, match="expected ',' or '\\)'"):
            first_stmt("@safe assert(a b)")


# Generated .rnl text: every binary operator, unary minus, parentheses,
# literals of each kind, calls, views and @safe lists. An operator is drawn
# by its precedence level first, so that '^' and the comparisons, which
# group differently from the rest, come up as often as '+' does. A
# comparison is written in parentheses, since comparisons do not chain.
_LEVELS = [["||"], ["&&"], ["==", "!=", "<", "<=", ">", ">="], ["+", "-"],
           ["*", "/", "%"], ["^"]]
_LITERALS = ["0", "2", "-2", "1.5", ".5", "-2.5e-3", "1e400", "-1e400",
             "3fx", "0.5fx", "2im", "1.2345678901im", "true", "false"]
_ATOMS = ["a", "b[1]", "x.re", "2", "1.5", "3fx", "2im", "true", "1e400"]
_SIGNED_ATOMS = _ATOMS + ["-2", "-0.25", "-1.5fx", "-2im", "-1e400"]


def _pick(options):
    return st.sampled_from(options)


_KINDS = _pick(["binary"] * 3 + ["negation", "literal", "literal", "view",
                                 "call"])
_LEAF_KINDS = _pick(["literal", "view"])
_LEVEL = _pick(range(len(_LEVELS)))
_OPS = [_pick(level) for level in _LEVELS]
_FEW = st.integers(0, 2)
_STATEMENTS = _pick(["update", "alloc", "if", "if-else", "while", "for",
                     "safe"])


def _call(draw, fnames, arg):
    return f"{draw(_pick(fnames))}(" + ", ".join(
        arg() for _ in range(draw(_FEW))) + ")"


def _view(draw, depth):
    text = draw(_pick(["a", "b", "x", "y!"]))
    for _ in range(draw(_FEW)):
        kind = draw(_pick(["index", "field", "bijector"]))
        if kind == "index":
            text += "[" + ", ".join(_expr(draw, depth + 1)
                                    for _ in range(1 + draw(_FEW) % 2)) + "]"
        elif kind == "field":
            text += draw(_pick([".re", ".im"]))
        else:
            args = [draw(_pick(["-1", "0.5", "2fx"])) for _ in range(draw(_FEW))]
            text += " |> addconst" + (f"({', '.join(args)})" if args else "")
    return text


def _expr(draw, depth=0):
    kind = draw(_KINDS if depth < 3 else _LEAF_KINDS)
    if kind == "literal":
        return draw(_pick(_LITERALS))
    if kind == "view":
        return _view(draw, depth)
    if kind == "call":
        return _call(draw, ["sqrt", "max", "f"], lambda: _expr(draw, depth + 1))
    if kind == "negation":
        return "-" + _expr(draw, depth + 1)
    op = draw(_OPS[draw(_LEVEL)])
    left, right = (_expr(draw, depth + 1) for _ in range(2))
    if draw(st.booleans()):
        left = f"({left})"
    if draw(st.booleans()):
        right = f"({right})"
    text = f"{left} {op} {right}"
    return f"({text})" if op in _LEVELS[2] else text


def _statement(draw):
    kind = draw(_STATEMENTS)
    e = lambda: _expr(draw)
    if kind == "update":
        atom = lambda: draw(_pick(_SIGNED_ATOMS))
        rhs = draw(_pick(["atom", "negation", "infix", "call"]))
        if rhs == "atom":
            rhs = atom()
        elif rhs == "negation":
            rhs = "-" + atom()
        elif rhs == "infix":
            rhs = f"{draw(_pick(_ATOMS))} {draw(_pick('+-*/^%'))} {atom()}"
        else:
            rhs = _call(draw, ["identity", "neg", "mul", "sqrt"], atom)
        return f"{draw(_pick(['y', 'y[2]', 'y.re']))} " \
            f"{draw(_pick(['+=', '-=', '*=', '/=', 'xor=']))} {rhs}"
    if kind == "alloc":
        value = e()
        return f"n <- {value}\nn -> {value}"
    if kind == "if":
        return f"if ({e()}, ~)\ny += 1\nend"
    if kind == "if-else":
        return f"if ({e()}, {e()})\ny += 1\nelse\ny -= 1\nend"
    if kind == "while":
        return f"while ({e()}, {e()})\ny += 1\nend"
    if kind == "for":
        return f"for i = {e()}:{e()}:{e()}\ny += i\nend"
    return _call(draw, ["@safe assert", "@safe print"], e)


@st.composite
def _programs(draw):
    body = [_statement(draw) for _ in range(1 + draw(_FEW))]
    return "fn f(y, a, b, x)\n" + "\n".join(body) + "\nend\n"


@settings(max_examples=300)
@given(src=_programs())
def test_generated_text_round_trip(src):
    program = parse_program(src)
    text = pretty_print(program)
    again = parse_program(text)
    assert again == program
    assert pretty_print(again) == text
    inverse = Program([invert_function(f) for f in program])
    assert parse_program(pretty_print(inverse)) == inverse
