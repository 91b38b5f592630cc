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

The scanner (`tokenize`) is one regular expression run by `findall`, one
match per token with its leading blanks, and it yields plain
`(kind, value, line, col)` tuples. The parser is recursive descent over
them, keeping the current token's kind and value in attributes; spans
are made only for the tokens that start an IR node. Expressions parse by
precedence climbing over one operator table (BINARY and UNARY), and the
printer reads the same table to place parentheses, so printed text
parses back to an equal Program. Statements nest at most
MAX_STMT_NESTING levels and expressions MAX_EXPR_NESTING; one more is an
RnlSyntaxError at the token that passes the limit, so that no later pass
recurses out of the stack and every lowered expression stays within
CPython's 200 nested parentheses.
"""

import itertools
import math
import re

from .errors import RevDomainError, RnlSyntaxError, SourceSpan
from .ir import (SAME_AS_PRE, AncillaAlloc, AncillaDealloc, Bin, BijView,
                 Block, Call, FieldView, FnCall, For, FunctionDef, If,
                 IndexView, InstrCall, InvCheckOff, Lit, Param, Program,
                 Routine, Safe, Un, UncallFn, VarView, ViewRef, While)
from .numerics import INSTR_BIN_NAMES, INSTR_BIN_OPS
from .values import Fixed

KEYWORDS = {"fn", "end", "if", "else", "while", "for", "begin", "true", "false"}

ASSIGN_OPS = {"+=", "-=", "*=", "/=", "xor="}

MACROS = {"@routine", "~@routine", "@invcheckoff", "@safe"}

# One match per token: its leading blanks and comment (a comment runs to the
# end of its line, so at most one comes before a token), then one
# alternative per token kind, tried in order, or the end of the text.
# Matches are contiguous, so a token's offset is the sum of the lengths
# before it. Digits are ASCII only (`\d` and str.isdigit also
# take '٣' and other scripts). A name may end in '!'s that mark it
# mutated, but a '!' before '=' is the start of '!='. `[^\W\d]` is a
# letter, '_' or a digit such as '²' that is not decimal; `tokenize`
# rejects the last.
_TOKEN = re.compile(r"""
    ([ \t\r]* (?:\#[^\n]*)?)
    (?: (\n)
      | (~?@\w*)
      | ((?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)([^\W\d_]*)
      | (xor=(?!=) | ⊻= | [←→▷] | <- | -> | [-+*/=!<>]= | && | \|\| | \|>
         | :: | [()\[\],.:+\-*/^%<>=~])
      | ([^\W\d]\w*(?:!(?!=))*)
      | (.) | \Z )
""", re.VERBOSE)

_ALIASES = {"⊻=": "xor=", "←": "<-", "→": "->", "▷": "|>"}


def tokenize(text, filename="<string>"):
    """The tokens of `text` as `(kind, value, line, col)` tuples, the last
    of kind 'eof'. A kind is 'name', 'num', 'punct' or 'macro'; a number's
    value is the literal's value, a punctuator's its ASCII spelling."""
    toks = []
    append = toks.append
    line, base, off = 1, -1, 0      # base: the offset of column 0

    def err(msg, offset):
        col = offset - base
        raise RnlSyntaxError(msg, SourceSpan(filename, line, col, line, col))

    for blank, nl, macro, body, suffix, punct, name, bad in \
            _TOKEN.findall(text):
        if blank:
            off += len(blank)
        if name:
            if not (name[0].isalpha() or name[0] == "_"):
                err(f"unexpected character {name[0]!r}", off)
            append(("name", name, line, off - base))
            off += len(name)
        elif punct:
            append(("punct", _ALIASES.get(punct, punct), line,
                    off - base))
            off += len(punct)
        elif nl:
            off += 1
            line, base = line + 1, off - 1
        elif body:
            if suffix == "":
                value = int(body) if body.isdigit() else float(body)
            elif suffix == "fx":
                try:
                    value = Fixed.from_real(float(body))
                except RevDomainError:
                    err(f"fixed-point literal {body + suffix!r} is out of "
                        f"range", off)
            elif suffix == "im":
                value = complex(0.0, float(body))
            else:
                # the suffix is the run of letters; a digit such as '²'
                # ends it and starts no token
                letters = "".join(itertools.takewhile(str.isalpha, suffix))
                if letters in ("", "fx", "im"):
                    err(f"unexpected character {suffix[len(letters)]!r}",
                        off + len(body) + len(letters))
                err(f"unknown numeric suffix {letters!r}", off)
            append(("num", value, line, off - base))
            off += len(body) + len(suffix)
        elif macro:
            if macro not in MACROS:
                err(f"unknown macro {macro!r}", off)
            append(("macro", macro, line, off - base))
            off += len(macro)
        elif bad == "⊻":
            err("expected '=' after the xor sign", off)
        elif bad:
            err(f"unexpected character {bad!r}", off)
    append(("eof", None, line, len(text) - base))
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


# How deep a statement or an expression may nest (README "Command line").
# A function body's statements are at depth 1, and each statement inside
# one, `@routine` and `@invcheckoff` included, is one deeper. An
# expression's depth is that of its tree as written: a literal or a name
# is 1, and each operator, parenthesis, call, index, field and bijector
# adds 1 to the deepest of its operands. The lowering opens up to two
# parentheses per expression level (`a && b` is `(_bool_of(a) and
# _bool_of(b))`) and CPython compiles at most 200 nested, so a chain of
# about 100 `&&`s is the deepest that lowers; MAX_EXPR_NESTING keeps well
# below it. Statements need no such margin: the lowering makes the ones
# nested deepest functions of their own.
MAX_STMT_NESTING = 128
MAX_EXPR_NESTING = 64


class _Parser:
    """Recursive descent over `tokenize`'s tuples. The current token is
    `tok`, with its kind and value in `kind` and `val`; `depth` is the
    statement nesting, `level` the expressions open, and `height` the
    depth of the expression or view parsed last."""

    def __init__(self, text, filename="<string>"):
        self.filename = filename
        # a second end token, so that a look one token ahead stays in the list
        self.toks = tokenize(text, filename)
        self.toks.append(self.toks[-1])
        self.pos = 0
        self.tok = t = self.toks[0]
        self.kind, self.val = t[0], t[1]
        self.depth = self.level = self.height = 0

    # --- token plumbing ---

    def span(self, tok=None):
        t = tok or self.tok
        return SourceSpan(self.filename, t[2], t[3], t[2], t[3])

    def err(self, msg, tok=None):
        raise RnlSyntaxError(msg, self.span(tok))

    def found(self, tok=None):
        t = tok or self.tok
        return "end of input" if t[0] == "eof" else repr(t[1])

    def advance(self):
        """Move to the next token; returns the current one. Every caller
        has checked that the current token is not the end."""
        t = self.tok
        self.pos += 1
        self.tok = n = self.toks[self.pos]
        self.kind, self.val = n[0], n[1]
        return t

    def next_is_open(self):
        """Whether the token after the current one is '('."""
        n = self.toks[self.pos + 1]
        return n[0] == "punct" and n[1] == "("

    def expect_punct(self, val):
        if self.kind != "punct" or self.val != val:
            self.err(f"expected {val!r}, found {self.found()}")
        return self.advance()

    def expect_name(self):
        if self.kind != "name" or self.val in KEYWORDS:
            self.err(f"expected a name, found {self.found()}")
        return self.advance()

    def expect_keyword(self, kw):
        if self.kind != "name" or self.val != kw:
            self.err(f"expected {kw!r}, found {self.found()}")
        return self.advance()

    def comma_list(self, item, what):
        """`( item, item, ... )` as a tuple; a trailing comma is allowed.
        `height` is left at the deepest item's."""
        self.expect_punct("(")
        items, deepest = [], 0
        while self.kind != "punct" or self.val != ")":
            items.append(item())
            if self.height > deepest:
                deepest = self.height
            if self.kind == "punct" and self.val == ",":
                self.advance()
            elif self.kind != "punct" or self.val != ")":
                self.err(f"expected ',' or ')' in {what}, found {self.found()}")
        self.advance()
        self.height = deepest
        return tuple(items)

    def deeper(self, height, tok):
        """`height` as the current depth, unless it passes the limit."""
        if height > MAX_EXPR_NESTING:
            self.err(f"expression nested deeper than {MAX_EXPR_NESTING} "
                     f"levels", tok)
        self.height = height

    # --- grammar ---

    def program(self):
        fns = []
        while self.kind != "eof":
            fns.append(self.fndef())
        return Program(fns)

    def fndef(self):
        t0 = self.tok
        if self.kind != "name" or self.val != "fn":
            self.err(f"expected 'fn', found {self.found()}")
        self.advance()
        name = ""
        if self.kind == "punct" and self.val == "~":
            self.advance()
            name = "~"
        name += self.expect_name()[1]
        params = self.comma_list(self.param, "parameter list")
        body = self.stmt_block(("end",))
        self.expect_keyword("end")
        return FunctionDef(name, params, body, self.span(t0))

    def param(self):
        pt = self.tok
        pname = self.expect_name()[1]
        kind = "any"
        if self.kind == "punct" and self.val == "::":
            self.advance()
            kt = self.expect_name()
            if kt[1] not in ("scalar", "array", "any"):
                self.err(f"unknown parameter kind {kt[1]!r}", kt)
            kind = kt[1]
        return Param(pname, kind, self.span(pt))

    def stmt_block(self, stop_keywords, in_routine=False):
        """Statements up to one of `stop_keywords` or, in a routine body,
        up to the `~@routine` that closes it: a close marker pairs with the
        innermost open routine of the same statement list."""
        stmts = []
        while not (self.kind == "eof"
                   or (self.kind == "name" and self.val in stop_keywords)
                   or (in_routine and self.kind == "macro"
                       and self.val == "~@routine")):
            stmts.append(self.stmt(stop_keywords))
        return Block(tuple(stmts))

    def stmt(self, stop_keywords):
        """One statement of a block that ends at one of `stop_keywords`,
        one level deeper than the statement around it."""
        self.depth += 1
        if self.depth > MAX_STMT_NESTING:
            self.err(f"statement nested deeper than {MAX_STMT_NESTING} "
                     f"levels")
        s = self.statement(stop_keywords)
        self.depth -= 1
        return s

    def statement(self, stop_keywords):
        t0 = self.tok
        sp = self.span(t0)
        kind, val = t0[0], t0[1]
        if kind == "macro":
            self.advance()
            if val == "@routine":
                inner = self.stmt(stop_keywords)
                compute = inner if isinstance(inner, Block) else Block((inner,))
                body = self.stmt_block(stop_keywords, in_routine=True)
                if self.val != "~@routine":
                    self.err("routine block is never closed", t0)
                self.advance()
                return Routine(compute, body, sp)
            if val == "~@routine":
                self.err("routine close without a matching open", t0)
            if val == "@invcheckoff":
                return InvCheckOff(self.stmt(stop_keywords), sp)
            if val == "@safe":
                kt = self.expect_name()
                if kt[1] not in ("assert", "print"):
                    self.err("@safe takes assert(...) or print(...)", kt)
                return Safe(kt[1], self.comma_list(self.expr, "@safe list"),
                            sp)
        if kind == "name":
            if val not in KEYWORDS:
                return self.simple_stmt(t0, sp)
            if val == "if":
                return self.if_stmt(sp)
            if val == "while":
                return self.while_stmt(sp)
            if val == "for":
                return self.for_stmt(sp)
            if val == "begin":
                self.advance()
                body = self.stmt_block(("end",))
                self.expect_keyword("end")
                return Block(body.stmts, sp)
        elif kind == "punct" and val == "~":
            self.advance()
            fname = self.expect_name()[1]
            views = self.comma_list(self.view, "call arguments")
            return UncallFn(fname, views, sp)
        self.err(f"unexpected token {self.found(t0)}")

    def if_stmt(self, sp):
        self.advance()
        self.expect_punct("(")
        pre = self.expr()
        self.expect_punct(",")
        if self.kind == "punct" and self.val == "~":
            self.advance()
            post = SAME_AS_PRE
        else:
            post = self.expr()
        self.expect_punct(")")
        then_block = self.stmt_block(("else", "end"))
        if self.kind == "name" and self.val == "else":
            self.advance()
            else_block = self.stmt_block(("end",))
        else:
            else_block = Block(())
        self.expect_keyword("end")
        return If(pre, post, then_block, else_block, sp)

    def while_stmt(self, sp):
        self.advance()
        self.expect_punct("(")
        pre = self.expr()
        self.expect_punct(",")
        if self.kind == "punct" and self.val == "~":
            self.err("a while loop needs an explicit postcondition")
        post = self.expr()
        self.expect_punct(")")
        body = self.stmt_block(("end",))
        self.expect_keyword("end")
        return While(pre, post, body, sp)

    def for_stmt(self, sp):
        self.advance()
        var = self.expect_name()[1]
        self.expect_punct("=")
        start = self.expr()
        self.expect_punct(":")
        second = self.expr()
        if self.kind == "punct" and self.val == ":":
            self.advance()
            step, stop = second, self.expr()
        else:
            step, stop = Lit(1), second
        body = self.stmt_block(("end",))
        self.expect_keyword("end")
        return For(var, start, step, stop, body, sp)

    def simple_stmt(self, t0, sp):
        # function or primitive statement call
        if self.next_is_open():
            fname = self.advance()[1]
            views = self.comma_list(self.view, "call arguments")
            if fname == "XOR":
                if len(views) != 2:
                    self.err("XOR takes two arguments", t0)
                return InstrCall("xor=", "identity", views, sp)
            return FnCall(fname, views, sp)
        view = self.view(sp)
        if self.kind == "punct":
            op = self.val
            if op == "<-" or op == "->":
                self.advance()
                if type(view) is not VarView:
                    self.err("only a plain name can be "
                             + ("allocated" if op == "<-" else "released"), t0)
                cls = AncillaAlloc if op == "<-" else AncillaDealloc
                return cls(view.name, self.expr(), sp)
            if op in ASSIGN_OPS:
                self.advance()
                fname, args = self.instr_rhs()
                return InstrCall(op, fname, (view,) + args, sp)
        self.err(f"expected an update operator after the view", t0)

    def instr_rhs(self):
        """One function application over atoms: call form, one infix
        operator, a unary minus, or a bare atom."""
        if self.kind == "name" and self.val not in KEYWORDS \
                and self.next_is_open():
            fname = self.advance()[1]
            return fname, self.comma_list(self.atom, "call arguments")
        if self.kind == "punct" and self.val == "-":
            self.advance()
            a = self.atom()
            if isinstance(a, Lit) and isinstance(a.value, (int, float)):
                return "identity", (Lit(-a.value, a.span),)
            return "neg", (a,)
        first = self.atom()
        if self.kind == "punct" and self.val in INSTR_BIN_OPS:
            op = self.advance()[1]
            second = self.atom()
            return INSTR_BIN_OPS[op], (first, second)
        return "identity", (first,)

    def atom(self):
        t = self.tok
        kind, val = t[0], t[1]
        if kind == "num":
            self.advance()
            return Lit(val, self.span(t))
        if kind == "name":
            if val not in KEYWORDS:
                return self.view()
            if val == "true" or val == "false":
                self.advance()
                return Lit(val == "true", self.span(t))
        elif kind == "punct" and val == "-" \
                and self.toks[self.pos + 1][0] == "num":
            self.advance()
            t = self.advance()
            return Lit(-t[1], self.span(t))
        self.err(f"expected a view or literal, found {self.found(t)}")

    def view(self, sp=None):
        """A view; `sp` is the span of its first token when the caller has
        made it."""
        t0 = self.tok
        if self.kind != "name" or self.val in KEYWORDS:
            self.err(f"expected a name, found {self.found()}")
        self.advance()
        sp = sp or self.span(t0)
        v, height = VarView(t0[1], sp), 1
        while self.kind == "punct":
            t = self.tok
            if self.val == ".":
                self.advance()
                f = self.expect_name()
                v = FieldView(v, f[1], self.span(f))
            elif self.val == "[":
                self.advance()
                idx = [self.expr()]
                if self.height > height:
                    height = self.height
                while self.kind == "punct" and self.val == ",":
                    self.advance()
                    idx.append(self.expr())
                    if self.height > height:
                        height = self.height
                self.expect_punct("]")
                v = IndexView(v, tuple(idx), sp)
            elif self.val == "|>":
                self.advance()
                bt = self.expect_name()
                args = ()
                if self.kind == "punct" and self.val == "(":
                    args = self.comma_list(self.bij_arg, "bijector arguments")
                v = BijView(v, bt[1], args, self.span(bt))
            else:
                break
            height += 1
            self.deeper(height, t)
        self.height = height
        return v

    def bij_arg(self):
        neg = self.kind == "punct" and self.val == "-"
        if neg:
            self.advance()
        if self.kind != "num":
            self.err("bijector arguments are numeric constants")
        value = self.advance()[1]
        return -value if neg else value

    # --- expressions (conditions, bounds, allocation values) ---

    def expr(self, min_prec=0):
        """An expression whose operators bind at least as tightly as
        `min_prec`, by precedence climbing over BINARY and UNARY."""
        t = self.tok
        level = self.level = self.level + 1
        if level > MAX_EXPR_NESTING:
            self.err(f"expression nested deeper than {MAX_EXPR_NESTING} "
                     f"levels")
        if t[0] == "punct" and t[1] == "-":
            self.advance()
            e, prec = self.expr(UNARY), UNARY
            if isinstance(e, Lit) and isinstance(e.value, (int, float)) \
                    and not isinstance(e.value, bool):
                e = Lit(-e.value, self.span(t))
            else:
                e = Un("-", e, self.span(t))
            self.deeper(self.height + 1, t)
        else:
            e, prec = self.primary(t), PRIMARY
        while self.kind == "punct" and self.val in BINARY:
            p, left_min, right_min = BINARY[self.val]
            if p < min_prec or prec < left_min:
                break
            t = self.advance()
            left = self.height
            right = self.expr(right_min)
            e, prec = Bin(t[1], e, right, self.span(t)), p
            self.deeper(max(left, self.height) + 1, t)
        self.level = level - 1
        return e

    def primary(self, t):
        kind, val = t[0], t[1]
        if kind == "num":
            self.advance()
            self.height = 1
            return Lit(val, self.span(t))
        if kind == "name":
            if val not in KEYWORDS:
                sp = self.span(t)
                if self.next_is_open():
                    fname = self.advance()[1]
                    args = self.comma_list(self.expr, "call arguments")
                    self.deeper(self.height + 1, t)
                    return Call(fname, args, sp)
                return ViewRef(self.view(sp), sp)
            if val == "true" or val == "false":
                self.advance()
                self.height = 1
                return Lit(val == "true", self.span(t))
        elif kind == "punct" and val == "(":
            self.advance()
            e = self.expr()
            self.expect_punct(")")
            self.deeper(self.height + 1, t)
            return e
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
