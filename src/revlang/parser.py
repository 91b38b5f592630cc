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
"""

from .errors import RnlSyntaxError, SourceSpan
from .ir import (SAME_AS_PRE, AncillaAlloc, AncillaDealloc, Bin, BijView,
                 Block, Call, FieldView, FnCall, For, FunctionDef, If,
                 IndexView, InstrCall, InvCheckOff, Lit, Param, Program,
                 Routine, Safe, Un, UncallFn, VarView, ViewRef, While)
from .numerics import INSTR_BIN_NAMES, INSTR_BIN_OPS
from .values import Fixed

KEYWORDS = {"fn", "end", "if", "else", "while", "for", "begin", "true", "false"}

ASSIGN_OPS = {"+=", "-=", "*=", "/=", "xor="}

_PUNCT2 = ("<-", "->", "+=", "-=", "*=", "/=", "==", "!=", "<=", ">=",
           "&&", "||", "|>", "::")
_PUNCT1 = "()[],.:+-*/^%<>=~"


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind      # 'name' | 'num' | 'punct' | 'macro' | 'eof'
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text, filename="<string>"):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)

    def err(msg):
        raise RnlSyntaxError(msg, SourceSpan(filename, line, col, line, col))

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == "@" or (c == "~" and i + 1 < n and text[i + 1] == "@"):
            j = i + (2 if c == "~" else 1)
            k = j
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            word = text[i:k]
            if word not in ("@routine", "~@routine", "@invcheckoff", "@safe"):
                err(f"unknown macro {word!r}")
            toks.append(Token("macro", word, start_line, start_col))
            col += k - i
            i = k
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            # trailing '!' marks mutated names; '!=' stays an operator
            while j < n and text[j] == "!" and not (j + 1 < n and text[j + 1] == "="):
                j += 1
            word = text[i:j]
            if word == "xor" and j < n and text[j] == "=" \
                    and not (j + 1 < n and text[j + 1] == "="):
                toks.append(Token("punct", "xor=", start_line, start_col))
                j += 1
            else:
                toks.append(Token("name", word, start_line, start_col))
            col += j - i
            i = j
            continue
        # ASCII digits only: str.isdigit also takes '²' and other scripts
        if "0" <= c <= "9" or (
                c == "." and i + 1 < n and "0" <= text[i + 1] <= "9"):
            j = i
            is_float = False
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == "." and (j + 1 >= n or text[j + 1] != "."):
                nxt = text[j + 1] if j + 1 < n else ""
                if "0" <= nxt <= "9":
                    is_float = True
                    j += 1
                    while j < n and "0" <= text[j] <= "9":
                        j += 1
            if j < n and text[j] in "eE" and (
                    (j + 1 < n and "0" <= text[j + 1] <= "9") or
                    (j + 2 < n and text[j + 1] in "+-"
                     and "0" <= text[j + 2] <= "9")):
                is_float = True
                j += 1
                if text[j] in "+-":
                    j += 1
                while j < n and "0" <= text[j] <= "9":
                    j += 1
            k = j
            while k < n and text[k].isalpha():
                k += 1
            suffix = text[j:k]
            body = text[i:j]
            if suffix == "":
                value = float(body) if is_float else int(body)
            elif suffix == "fx":
                value = Fixed.from_real(float(body))
            elif suffix == "im":
                value = complex(0.0, float(body))
            else:
                err(f"unknown numeric suffix {suffix!r}")
            toks.append(Token("num", value, start_line, start_col))
            col += k - i
            i = k
            continue
        if c == "←":   # ←
            toks.append(Token("punct", "<-", start_line, start_col))
            i += 1
            col += 1
            continue
        if c == "→":   # →
            toks.append(Token("punct", "->", start_line, start_col))
            i += 1
            col += 1
            continue
        if c == "⊻":   # ⊻
            if i + 1 < n and text[i + 1] == "=":
                toks.append(Token("punct", "xor=", start_line, start_col))
                i += 2
                col += 2
                continue
            err("expected '=' after the xor sign")
        if c == "▷":   # ▷
            toks.append(Token("punct", "|>", start_line, start_col))
            i += 1
            col += 1
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            toks.append(Token("punct", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            toks.append(Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        err(f"unexpected character {c!r}")
    toks.append(Token("eof", None, line, col))
    return toks


class _Parser:
    def __init__(self, text, filename="<string>"):
        self.filename = filename
        self.toks = tokenize(text, filename)
        self.pos = 0

    # --- token plumbing ---

    @property
    def cur(self):
        return self.toks[self.pos]

    def peek(self, k=1):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def span(self, tok=None):
        t = tok or self.cur
        return SourceSpan(self.filename, t.line, t.col, t.line, t.col)

    def err(self, msg, tok=None):
        raise RnlSyntaxError(msg, self.span(tok))

    def advance(self):
        t = self.cur
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_punct(self, *vals):
        return self.cur.kind == "punct" and self.cur.value in vals

    def at_name(self, *vals):
        return self.cur.kind == "name" and (not vals or self.cur.value in vals)

    def expect_punct(self, val):
        if not self.at_punct(val):
            self.err(f"expected {val!r}, found {self.cur.value!r}")
        return self.advance()

    def expect_name(self):
        if self.cur.kind != "name" or self.cur.value in KEYWORDS:
            self.err(f"expected a name, found {self.cur.value!r}")
        return self.advance()

    # --- grammar ---

    def program(self):
        fns = []
        while self.cur.kind != "eof":
            fns.append(self.fndef())
        return Program(fns)

    def fndef(self):
        t0 = self.cur
        if not self.at_name("fn"):
            self.err(f"expected 'fn', found {self.cur.value!r}")
        self.advance()
        name = ""
        if self.at_punct("~"):
            self.advance()
            name = "~"
        name += self.expect_name().value
        self.expect_punct("(")
        params = []
        while not self.at_punct(")"):
            pt = self.cur
            pname = self.expect_name().value
            kind = "any"
            if self.at_punct("::"):
                self.advance()
                kt = self.expect_name()
                if kt.value not in ("scalar", "array", "any"):
                    self.err(f"unknown parameter kind {kt.value!r}", kt)
                kind = kt.value
            params.append(Param(pname, kind, self.span(pt)))
            if self.at_punct(","):
                self.advance()
            elif not self.at_punct(")"):
                self.err("expected ',' or ')' in parameter list")
        self.advance()
        body = self.stmt_block(("end",))
        self.expect_keyword("end")
        return FunctionDef(name, tuple(params), body, self.span(t0))

    def expect_keyword(self, kw):
        if not self.at_name(kw):
            self.err(f"expected {kw!r}, found {self.cur.value!r}")
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
                self.expect_punct("(")
                exprs = []
                while not self.at_punct(")"):
                    exprs.append(self.expr())
                    if self.at_punct(","):
                        self.advance()
                self.advance()
                return Safe(kt.value, tuple(exprs), sp)
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
            views = self.call_args()
            return UncallFn(fname, views, sp)
        if t0.kind == "name" and t0.value not in KEYWORDS:
            return self.simple_stmt()
        self.err(f"unexpected token {t0.value!r}")

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
            views = self.call_args()
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

    def call_args(self):
        self.expect_punct("(")
        views = []
        while not self.at_punct(")"):
            views.append(self.view())
            if self.at_punct(","):
                self.advance()
            elif not self.at_punct(")"):
                self.err("expected ',' or ')' in call arguments")
        self.advance()
        return tuple(views)

    def instr_rhs(self):
        """One function application over atoms: call form, one infix
        operator, a unary minus, or a bare atom."""
        if self.cur.kind == "name" and self.cur.value not in KEYWORDS \
                and self.peek().kind == "punct" and self.peek().value == "(":
            fname = self.advance().value
            self.expect_punct("(")
            atoms = []
            while not self.at_punct(")"):
                atoms.append(self.atom())
                if self.at_punct(","):
                    self.advance()
                elif not self.at_punct(")"):
                    self.err("expected ',' or ')'")
            self.advance()
            return fname, tuple(atoms)
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
        self.err(f"expected a view or literal, found {t.value!r}")

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
                args = []
                if self.at_punct("("):
                    self.advance()
                    while not self.at_punct(")"):
                        neg = False
                        if self.at_punct("-"):
                            self.advance()
                            neg = True
                        at = self.cur
                        if at.kind != "num":
                            self.err("bijector arguments are numeric constants")
                        self.advance()
                        args.append(-at.value if neg else at.value)
                        if self.at_punct(","):
                            self.advance()
                        elif not self.at_punct(")"):
                            self.err("expected ',' or ')'")
                    self.advance()
                v = BijView(v, bt.value, tuple(args), self.span(bt))
            else:
                return v

    # --- expressions (conditions, bounds, allocation values) ---

    def expr(self):
        return self.or_expr()

    def or_expr(self):
        left = self.and_expr()
        while self.at_punct("||"):
            t = self.advance()
            left = Bin("||", left, self.and_expr(), self.span(t))
        return left

    def and_expr(self):
        left = self.cmp_expr()
        while self.at_punct("&&"):
            t = self.advance()
            left = Bin("&&", left, self.cmp_expr(), self.span(t))
        return left

    def cmp_expr(self):
        left = self.add_expr()
        if self.cur.kind == "punct" and self.cur.value in (
                "==", "!=", "<", "<=", ">", ">="):
            t = self.advance()
            return Bin(t.value, left, self.add_expr(), self.span(t))
        return left

    def add_expr(self):
        left = self.mul_expr()
        while self.cur.kind == "punct" and self.cur.value in ("+", "-"):
            t = self.advance()
            left = Bin(t.value, left, self.mul_expr(), self.span(t))
        return left

    def mul_expr(self):
        left = self.unary_expr()
        while self.cur.kind == "punct" and self.cur.value in ("*", "/", "%"):
            t = self.advance()
            left = Bin(t.value, left, self.unary_expr(), self.span(t))
        return left

    def unary_expr(self):
        if self.at_punct("-"):
            t = self.advance()
            inner = self.unary_expr()
            if isinstance(inner, Lit) and isinstance(inner.value, (int, float)) \
                    and not isinstance(inner.value, bool):
                return Lit(-inner.value, self.span(t))
            return Un("-", inner, self.span(t))
        return self.pow_expr()

    def pow_expr(self):
        base = self.primary()
        if self.at_punct("^"):
            t = self.advance()
            return Bin("^", base, self.unary_expr(), self.span(t))
        return base

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
                self.expect_punct("(")
                args = []
                while not self.at_punct(")"):
                    args.append(self.expr())
                    if self.at_punct(","):
                        self.advance()
                    elif not self.at_punct(")"):
                        self.err("expected ',' or ')'")
                self.advance()
                return Call(fname, tuple(args), self.span(t))
            return ViewRef(self.view(), self.span(t))
        self.err(f"unexpected token {t.value!r} in expression")


def parse_program(text, filename="<string>"):
    """Parse .rnl source text into a Program."""
    return _Parser(text, filename).program()


# --- pretty printing ---

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _prec(e):
    if isinstance(e, Bin):
        if e.op == "||":
            return 1
        if e.op == "&&":
            return 2
        if e.op in _CMP_OPS:
            return 3
        return {"+": 4, "-": 4, "*": 5, "/": 5, "%": 5, "^": 7}[e.op]
    if isinstance(e, Un):
        return 6
    return 9


def fmt_literal(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fixed):
        return v.decimal_str() + "fx"
    if isinstance(v, complex):
        return f"{v.imag:g}im"
    if isinstance(v, float):
        return repr(v)
    return repr(v)


def fmt_expr(e, parent_prec=0):
    if isinstance(e, Lit):
        s = fmt_literal(e.value)
    elif isinstance(e, ViewRef):
        s = fmt_view(e.view)
    elif isinstance(e, Un):
        s = "-" + fmt_expr(e.operand, 6)
    elif isinstance(e, Bin):
        p = _prec(e)
        s = f"{fmt_expr(e.left, p)} {e.op} {fmt_expr(e.right, p + 1)}"
    elif isinstance(e, Call):
        s = e.fname + "(" + ", ".join(fmt_expr(a) for a in e.args) + ")"
    else:
        raise TypeError(f"not an expression: {e!r}")
    if _prec(e) < parent_prec:
        return "(" + s + ")"
    return s


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
    if fname == "identity" and len(atoms) == 1:
        return _fmt_atom(atoms[0])
    if fname == "neg" and len(atoms) == 1:
        return "-" + _fmt_atom(atoms[0])
    if fname in INSTR_BIN_NAMES and len(atoms) == 2:
        return f"{_fmt_atom(atoms[0])} {INSTR_BIN_NAMES[fname]} {_fmt_atom(atoms[1])}"
    return fname + "(" + ", ".join(_fmt_atom(a) for a in atoms) + ")"


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
