"""Parser and pretty-printer for the textual reversible language (.rnl).

The surface syntax is line-oriented:

    fn complex_log(y!, x)
        n <- 0.0
        n += abs(x)
        y!.re += log(n)
        y!.im += angle(x)
        n -= abs(x)
        n -> 0.0
    end

Unicode arrows and the xor sign have ASCII aliases: `<-`/`->` for the
allocation arrows and `xor=` for the xor update. An instruction's
right-hand side is a single application of a registered function to atoms
(views or literals), written as a call or with one infix operator; richer
expressions belong in conditions, loop bounds, and allocation values.

The scanner is one regular expression of named alternatives. Expressions
parse by precedence climbing over one operator table (BINARY and UNARY),
and the printer reads the same table to place parentheses, so printed
text parses back to an equal Program.
"""

import itertools
import math
import re

from .errors import RnlSyntaxError, SourceSpan
from .ir import (SAME_AS_PRE, AncillaAlloc, AncillaDealloc, Bin, BijView,
                 Block, Call, FieldView, FnCall, For, FunctionDef, If,
                 IndexView, InstrCall, InvCheckOff, Lit, Param, Program,
                 Routine, Safe, Un, UncallFn, VarView, ViewRef, While)
from .numerics import INSTR_BIN_NAMES, INSTR_BIN_OPS
from .values import Fixed

KEYWORDS = {"fn", "end", "if", "else", "while", "for", "begin", "true", "false"}

ASSIGN_OPS = {"+=", "-=", "*=", "/=", "xor="}

MACROS = {"@routine", "~@routine", "@invcheckoff", "@safe"}

# One alternative per token kind, tried in order; a match with no group is
# a blank or a comment. Digits are ASCII only (`\d` and str.isdigit also
# take '٣' and other scripts). A name may end in '!'s that mark it mutated,
# but a '!' before '=' is the start of '!='. `[^\W\d]` is a letter, '_' or
# a digit such as '²' that is not decimal; `tokenize` rejects the last.
_TOKEN = re.compile(r"""
    (?P<nl>\n) | [ \t\r]+ | \#[^\n]*
  | (?P<macro>~?@\w*)
  | (?P<num>(?P<body>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
            (?P<suffix>[^\W\d_]*))
  | (?P<punct>xor=(?!=) | ⊻= | [←→▷] | <- | -> | [-+*/=!<>]= | && | \|\| | \|>
            | :: | [()\[\],.:+\-*/^%<>=~])
  | (?P<name>[^\W\d]\w*(?:!(?!=))*)
  | (?P<bad>.)
""", re.VERBOSE)

_ALIASES = {"⊻=": "xor=", "←": "<-", "→": "->", "▷": "|>"}


class Token:
    __slots__ = ("kind", "value", "line", "col", "span")

    def __init__(self, kind, value, line, col):
        self.kind = kind      # 'name' | 'num' | 'punct' | 'macro' | 'eof'
        self.value = value
        self.line = line
        self.col = col
        self.span = None      # its SourceSpan, made when first asked for

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text, filename="<string>"):
    toks = []
    line, line_start = 1, 0     # line_start: the offset of column 1

    def err(msg, offset):
        col = offset - line_start + 1
        raise RnlSyntaxError(msg, SourceSpan(filename, line, col, line, col))

    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "nl":
            line, line_start = line + 1, m.end()
            continue
        word, start = m.group(), m.start()
        if kind == "num":
            body, suffix = m.group("body", "suffix")
            if suffix == "":
                value = int(body) if body.isdigit() else float(body)
            elif suffix == "fx":
                value = Fixed.from_real(float(body))
            elif suffix == "im":
                value = complex(0.0, float(body))
            else:
                # the suffix is the run of letters; a digit such as '²'
                # ends it and starts no token
                letters = "".join(itertools.takewhile(str.isalpha, suffix))
                if letters in ("", "fx", "im"):
                    err(f"unexpected character {suffix[len(letters)]!r}",
                        m.start("suffix") + len(letters))
                err(f"unknown numeric suffix {letters!r}", start)
            word = value
        elif kind == "name":
            if not (word[0].isalpha() or word[0] == "_"):
                err(f"unexpected character {word[0]!r}", start)
        elif kind == "punct":
            word = _ALIASES.get(word, word)
        elif kind == "macro":
            if word not in MACROS:
                err(f"unknown macro {word!r}", start)
        elif word == "⊻":
            err("expected '=' after the xor sign", start)
        else:
            err(f"unexpected character {word!r}", start)
        toks.append(Token(kind, word, line, start - line_start + 1))
    toks.append(Token("eof", None, line, len(text) - line_start + 1))
    return toks


# Operator precedence, loosest first: every binary operator with its own
# precedence and the lowest precedence its left and right operands may
# have. The parser and the printer both read this table. Comparisons do not
# chain, and '^' groups to the right and takes a primary on its left.
UNARY = 6       # unary '-'
PRIMARY = 8     # literals, views, calls and parenthesised expressions
BINARY = {"||": (1, 1, 2), "&&": (2, 2, 3),
          **dict.fromkeys(("==", "!=", "<", "<=", ">", ">="), (3, 4, 4)),
          "+": (4, 4, 5), "-": (4, 4, 5),
          "*": (5, 5, UNARY), "/": (5, 5, UNARY), "%": (5, 5, UNARY),
          "^": (7, PRIMARY, UNARY)}


class _Parser:
    def __init__(self, text, filename="<string>"):
        self.filename = filename
        self.toks = tokenize(text, filename)
        self.pos = 0
        self.cur = self.toks[0]     # the token at `pos`

    # --- token plumbing ---

    def peek(self, k=1):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def span(self, tok=None):
        t = tok or self.cur
        if t.span is None:
            t.span = SourceSpan(self.filename, t.line, t.col, t.line, t.col)
        return t.span

    def err(self, msg, tok=None):
        raise RnlSyntaxError(msg, self.span(tok))

    def found(self, tok=None):
        t = tok or self.cur
        return "end of input" if t.kind == "eof" else repr(t.value)

    def advance(self):
        t = self.cur
        if t.kind != "eof":
            self.pos += 1
            self.cur = self.toks[self.pos]
        return t

    def at_punct(self, *vals):
        t = self.cur
        return t.kind == "punct" and t.value in vals

    def at_name(self, *vals):
        t = self.cur
        return t.kind == "name" and (not vals or t.value in vals)

    def expect_punct(self, val):
        if not self.at_punct(val):
            self.err(f"expected {val!r}, found {self.found()}")
        return self.advance()

    def expect_name(self):
        if self.cur.kind != "name" or self.cur.value in KEYWORDS:
            self.err(f"expected a name, found {self.found()}")
        return self.advance()

    def comma_list(self, item, what):
        """`( item, item, ... )` as a tuple; a trailing comma is allowed."""
        self.expect_punct("(")
        items = []
        while not self.at_punct(")"):
            items.append(item())
            if self.at_punct(","):
                self.advance()
            elif not self.at_punct(")"):
                self.err(f"expected ',' or ')' in {what}, found {self.found()}")
        self.advance()
        return tuple(items)

    # --- grammar ---

    def program(self):
        fns = []
        while self.cur.kind != "eof":
            fns.append(self.fndef())
        return Program(fns)

    def fndef(self):
        t0 = self.cur
        if not self.at_name("fn"):
            self.err(f"expected 'fn', found {self.found()}")
        self.advance()
        name = ""
        if self.at_punct("~"):
            self.advance()
            name = "~"
        name += self.expect_name().value
        params = self.comma_list(self.param, "parameter list")
        body = self.stmt_block(("end",))
        self.expect_keyword("end")
        return FunctionDef(name, params, body, self.span(t0))

    def param(self):
        pt = self.cur
        pname = self.expect_name().value
        kind = "any"
        if self.at_punct("::"):
            self.advance()
            kt = self.expect_name()
            if kt.value not in ("scalar", "array", "any"):
                self.err(f"unknown parameter kind {kt.value!r}", kt)
            kind = kt.value
        return Param(pname, kind, self.span(pt))

    def expect_keyword(self, kw):
        if not self.at_name(kw):
            self.err(f"expected {kw!r}, found {self.found()}")
        return self.advance()

    def stmt_block(self, stop_keywords, in_routine=False):
        """Statements up to one of `stop_keywords` or, in a routine body,
        up to the `~@routine` that closes it: a close marker pairs with the
        innermost open routine of the same statement list."""
        stmts = []
        while not (self.cur.kind == "eof"
                   or (self.cur.kind == "name" and self.cur.value in stop_keywords)
                   or (in_routine and self.cur.kind == "macro"
                       and self.cur.value == "~@routine")):
            stmts.append(self.stmt(stop_keywords))
        return Block(tuple(stmts))

    def stmt(self, stop_keywords):
        """One statement of a block that ends at one of `stop_keywords`."""
        t0 = self.cur
        sp = self.span(t0)
        if t0.kind == "macro":
            self.advance()
            if t0.value == "@routine":
                inner = self.stmt(stop_keywords)
                compute = inner if isinstance(inner, Block) else Block((inner,))
                body = self.stmt_block(stop_keywords, in_routine=True)
                if self.cur.value != "~@routine":
                    self.err("routine block is never closed", t0)
                self.advance()
                return Routine(compute, body, sp)
            if t0.value == "~@routine":
                self.err("routine close without a matching open", t0)
            if t0.value == "@invcheckoff":
                return InvCheckOff(self.stmt(stop_keywords), sp)
            if t0.value == "@safe":
                kt = self.expect_name()
                if kt.value not in ("assert", "print"):
                    self.err("@safe takes assert(...) or print(...)", kt)
                return Safe(kt.value, self.comma_list(self.expr, "@safe list"),
                            sp)
        if self.at_name("if"):
            return self.if_stmt()
        if self.at_name("while"):
            return self.while_stmt()
        if self.at_name("for"):
            return self.for_stmt()
        if self.at_name("begin"):
            self.advance()
            body = self.stmt_block(("end",))
            self.expect_keyword("end")
            return Block(body.stmts, sp)
        if self.at_punct("~"):
            self.advance()
            fname = self.expect_name().value
            views = self.comma_list(self.view, "call arguments")
            return UncallFn(fname, views, sp)
        if t0.kind == "name" and t0.value not in KEYWORDS:
            return self.simple_stmt()
        self.err(f"unexpected token {self.found(t0)}")

    def if_stmt(self):
        sp = self.span()
        self.advance()
        self.expect_punct("(")
        pre = self.expr()
        self.expect_punct(",")
        if self.at_punct("~"):
            self.advance()
            post = SAME_AS_PRE
        else:
            post = self.expr()
        self.expect_punct(")")
        then_block = self.stmt_block(("else", "end"))
        if self.at_name("else"):
            self.advance()
            else_block = self.stmt_block(("end",))
        else:
            else_block = Block(())
        self.expect_keyword("end")
        return If(pre, post, then_block, else_block, sp)

    def while_stmt(self):
        sp = self.span()
        self.advance()
        self.expect_punct("(")
        pre = self.expr()
        self.expect_punct(",")
        if self.at_punct("~"):
            self.err("a while loop needs an explicit postcondition")
        post = self.expr()
        self.expect_punct(")")
        body = self.stmt_block(("end",))
        self.expect_keyword("end")
        return While(pre, post, body, sp)

    def for_stmt(self):
        sp = self.span()
        self.advance()
        var = self.expect_name().value
        self.expect_punct("=")
        start = self.expr()
        self.expect_punct(":")
        second = self.expr()
        if self.at_punct(":"):
            self.advance()
            step, stop = second, self.expr()
        else:
            step, stop = Lit(1), second
        body = self.stmt_block(("end",))
        self.expect_keyword("end")
        return For(var, start, step, stop, body, sp)

    def simple_stmt(self):
        t0 = self.cur
        sp = self.span(t0)
        # function or primitive statement call
        if self.peek().kind == "punct" and self.peek().value == "(":
            fname = self.advance().value
            views = self.comma_list(self.view, "call arguments")
            if fname == "XOR":
                if len(views) != 2:
                    self.err("XOR takes two arguments", t0)
                return InstrCall("xor=", "identity", views, sp)
            return FnCall(fname, views, sp)
        view = self.view()
        if self.at_punct("<-"):
            self.advance()
            if not isinstance(view, VarView):
                self.err("only a plain name can be allocated", t0)
            return AncillaAlloc(view.name, self.expr(), sp)
        if self.at_punct("->"):
            self.advance()
            if not isinstance(view, VarView):
                self.err("only a plain name can be released", t0)
            return AncillaDealloc(view.name, self.expr(), sp)
        if self.cur.kind == "punct" and self.cur.value in ASSIGN_OPS:
            op = self.advance().value
            fname, args = self.instr_rhs()
            return InstrCall(op, fname, (view,) + args, sp)
        self.err(f"expected an update operator after the view", t0)

    def instr_rhs(self):
        """One function application over atoms: call form, one infix
        operator, a unary minus, or a bare atom."""
        if self.cur.kind == "name" and self.cur.value not in KEYWORDS \
                and self.peek().kind == "punct" and self.peek().value == "(":
            fname = self.advance().value
            return fname, self.comma_list(self.atom, "call arguments")
        if self.at_punct("-"):
            self.advance()
            a = self.atom()
            if isinstance(a, Lit) and isinstance(a.value, (int, float)):
                return "identity", (Lit(-a.value, a.span),)
            return "neg", (a,)
        first = self.atom()
        if self.cur.kind == "punct" and self.cur.value in INSTR_BIN_OPS:
            op = self.advance().value
            second = self.atom()
            return INSTR_BIN_OPS[op], (first, second)
        return "identity", (first,)

    def atom(self):
        t = self.cur
        if t.kind == "num":
            self.advance()
            return Lit(t.value, self.span(t))
        if self.at_punct("-") and self.peek().kind == "num":
            self.advance()
            t = self.advance()
            return Lit(-t.value, self.span(t))
        if self.at_name("true"):
            self.advance()
            return Lit(True, self.span(t))
        if self.at_name("false"):
            self.advance()
            return Lit(False, self.span(t))
        if t.kind == "name" and t.value not in KEYWORDS:
            return self.view()
        self.err(f"expected a view or literal, found {self.found(t)}")

    def view(self):
        t0 = self.cur
        name = self.expect_name().value
        v = VarView(name, self.span(t0))
        while True:
            if self.at_punct("."):
                self.advance()
                f = self.expect_name()
                v = FieldView(v, f.value, self.span(f))
            elif self.at_punct("["):
                self.advance()
                idx = [self.expr()]
                while self.at_punct(","):
                    self.advance()
                    idx.append(self.expr())
                self.expect_punct("]")
                v = IndexView(v, tuple(idx), self.span(t0))
            elif self.at_punct("|>"):
                self.advance()
                bt = self.expect_name()
                args = ()
                if self.at_punct("("):
                    args = self.comma_list(self.bij_arg, "bijector arguments")
                v = BijView(v, bt.value, args, self.span(bt))
            else:
                return v

    def bij_arg(self):
        neg = self.at_punct("-")
        if neg:
            self.advance()
        if self.cur.kind != "num":
            self.err("bijector arguments are numeric constants")
        value = self.advance().value
        return -value if neg else value

    # --- expressions (conditions, bounds, allocation values) ---

    def expr(self, min_prec=0):
        """An expression whose operators bind at least as tightly as
        `min_prec`, by precedence climbing over BINARY and UNARY."""
        t = self.cur
        if self.at_punct("-"):
            self.advance()
            e, prec = self.expr(UNARY), UNARY
            if isinstance(e, Lit) and isinstance(e.value, (int, float)) \
                    and not isinstance(e.value, bool):
                e = Lit(-e.value, self.span(t))
            else:
                e = Un("-", e, self.span(t))
        else:
            e, prec = self.primary(), PRIMARY
        while self.cur.kind == "punct" and self.cur.value in BINARY:
            p, left_min, right_min = BINARY[self.cur.value]
            if p < min_prec or prec < left_min:
                break
            t = self.advance()
            e, prec = Bin(t.value, e, self.expr(right_min), self.span(t)), p
        return e

    def primary(self):
        t = self.cur
        if t.kind == "num":
            self.advance()
            return Lit(t.value, self.span(t))
        if self.at_name("true") or self.at_name("false"):
            self.advance()
            return Lit(t.value == "true", self.span(t))
        if self.at_punct("("):
            self.advance()
            e = self.expr()
            self.expect_punct(")")
            return e
        if t.kind == "name" and t.value not in KEYWORDS:
            if self.peek().kind == "punct" and self.peek().value == "(":
                fname = self.advance().value
                return Call(fname, self.comma_list(self.expr, "call arguments"),
                            self.span(t))
            return ViewRef(self.view(), self.span(t))
        self.err(f"unexpected token {self.found(t)} in expression")


def parse_program(text, filename="<string>"):
    """Parse .rnl source text into a Program."""
    return _Parser(text, filename).program()


# --- pretty printing ---

def _fmt_float(x):
    if math.isinf(x):   # an overflowing literal; 1e999 parses back to it
        return "1e999" if x > 0 else "-1e999"
    return repr(x)


def fmt_literal(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fixed):
        return v.decimal_str() + "fx"
    if isinstance(v, complex):
        return _fmt_float(v.imag) + "im"
    if isinstance(v, float):
        return _fmt_float(v)
    return repr(v)


def fmt_expr(e, min_prec=0):
    """Expression text, in parentheses when it binds looser than `min_prec`;
    a negative number literal binds as unary '-' does."""
    if isinstance(e, Lit):
        s = fmt_literal(e.value)
        prec = UNARY if s.startswith("-") else PRIMARY
    elif isinstance(e, ViewRef):
        s, prec = fmt_view(e.view), PRIMARY
    elif isinstance(e, Un):
        s, prec = "-" + fmt_expr(e.operand, UNARY), UNARY
    elif isinstance(e, Bin):
        prec, left_min, right_min = BINARY[e.op]
        s = f"{fmt_expr(e.left, left_min)} {e.op} {fmt_expr(e.right, right_min)}"
    elif isinstance(e, Call):
        s = e.fname + "(" + ", ".join(fmt_expr(a) for a in e.args) + ")"
        prec = PRIMARY
    else:
        raise TypeError(f"not an expression: {e!r}")
    return "(" + s + ")" if prec < min_prec else s


def fmt_view(v):
    if isinstance(v, VarView):
        return v.name
    if isinstance(v, FieldView):
        return fmt_view(v.base) + "." + v.field_name
    if isinstance(v, IndexView):
        return fmt_view(v.base) + "[" + ", ".join(fmt_expr(i) for i in v.indices) + "]"
    if isinstance(v, BijView):
        args = ""
        if v.args:
            args = "(" + ", ".join(fmt_literal(a) for a in v.args) + ")"
        return fmt_view(v.base) + " |> " + v.bij + args
    raise TypeError(f"not a view: {v!r}")


def _fmt_atom(a):
    return fmt_literal(a.value) if isinstance(a, Lit) else fmt_view(a)


def _fmt_rhs(fname, atoms):
    texts = [_fmt_atom(a) for a in atoms]
    if len(atoms) == 1:
        # `-t` reads as neg(t), but as the literal -t where t is an int or float
        folds = isinstance(atoms[0], Lit) and isinstance(atoms[0].value, (int, float))
        if fname == "identity" and (folds or texts[0][0] != "-"):
            return texts[0]
        if fname == "neg" and not folds:
            return "-" + texts[0]
    if len(atoms) == 2 and fname in INSTR_BIN_NAMES and texts[0][0] != "-":
        return f"{texts[0]} {INSTR_BIN_NAMES[fname]} {texts[1]}"
    return fname + "(" + ", ".join(texts) + ")"


def _fmt_stmt(s, out, depth):
    pad = "    " * depth
    match s:
        case AncillaAlloc(name=name, expr=e):
            out.append(f"{pad}{name} <- {fmt_expr(e)}")
        case AncillaDealloc(name=name, expr=e):
            out.append(f"{pad}{name} -> {fmt_expr(e)}")
        case InstrCall(op=op, fname=fname, args=args):
            out.append(f"{pad}{fmt_view(args[0])} {op} {_fmt_rhs(fname, args[1:])}")
        case FnCall(fname=fname, args=args):
            out.append(f"{pad}{fname}(" + ", ".join(fmt_view(a) for a in args) + ")")
        case UncallFn(fname=fname, args=args):
            out.append(f"{pad}~{fname}(" + ", ".join(fmt_view(a) for a in args) + ")")
        case If(pre=pre, post=post, then_block=tb, else_block=eb):
            post_s = "~" if post is SAME_AS_PRE else fmt_expr(post)
            out.append(f"{pad}if ({fmt_expr(pre)}, {post_s})")
            for st in tb.stmts:
                _fmt_stmt(st, out, depth + 1)
            if eb.stmts:
                out.append(f"{pad}else")
                for st in eb.stmts:
                    _fmt_stmt(st, out, depth + 1)
            out.append(f"{pad}end")
        case While(pre=pre, post=post, body=body):
            out.append(f"{pad}while ({fmt_expr(pre)}, {fmt_expr(post)})")
            for st in body.stmts:
                _fmt_stmt(st, out, depth + 1)
            out.append(f"{pad}end")
        case For(var=var, start=a, step=st_, stop=b, body=body):
            out.append(f"{pad}for {var} = {fmt_expr(a)}:{fmt_expr(st_)}:{fmt_expr(b)}")
            for st in body.stmts:
                _fmt_stmt(st, out, depth + 1)
            out.append(f"{pad}end")
        case Routine(compute=compute, body=body):
            out.append(f"{pad}@routine begin")
            for st in compute.stmts:
                _fmt_stmt(st, out, depth + 1)
            out.append(f"{pad}end")
            for st in body.stmts:
                _fmt_stmt(st, out, depth)
            out.append(f"{pad}~@routine")
        case InvCheckOff(stmt=stmt):
            inner = []
            _fmt_stmt(stmt, inner, depth)
            inner[0] = f"{pad}@invcheckoff " + inner[0].lstrip()
            out.extend(inner)
        case Safe(kind=kind, exprs=exprs):
            out.append(f"{pad}@safe {kind}(" +
                       ", ".join(fmt_expr(e) for e in exprs) + ")")
        case Block(stmts=stmts):
            out.append(f"{pad}begin")
            for st in stmts:
                _fmt_stmt(st, out, depth + 1)
            out.append(f"{pad}end")
        case _:
            raise TypeError(f"not a statement: {s!r}")


def pretty_print(program):
    """Render a Program as .rnl text; re-parsing yields an equal Program."""
    out = []
    for fdef in program:
        sig = ", ".join(
            p.name + ("" if p.kind == "any" else f"::{p.kind}")
            for p in fdef.params)
        out.append(f"fn {fdef.name}({sig})")
        for st in fdef.body.stmts:
            _fmt_stmt(st, out, 1)
        out.append("end")
        out.append("")
    return "\n".join(out).rstrip("\n") + ("\n" if out else "")
