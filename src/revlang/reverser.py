"""Compilation passes that symmetrize and invert reversible IR.

`expand_routines` replaces every routine-close marker with the inverse of
its matching routine block (compute-copy-uncompute), leaving marker-free
IR. `invert_statement` / `invert_function` then produce the mechanical
inverse: blocks reverse order, updates flip operator, allocations swap
with releases, calls swap with uncalls, branch conditions swap with their
postconditions, and loop ranges run backwards. Both passes are pure
IR-to-IR transforms; no runtime stack is ever introduced.
"""

from .errors import RevLangError
from .ir import (SAME_AS_PRE, AncillaAlloc, AncillaDealloc, Bin, Block,
                 FnCall, For, FunctionDef, If, InstrCall, InvCheckOff, Lit,
                 RoutineBegin, RoutineEnd, Safe, Un, UncallFn, While,
                 inverse_name)
from .numerics import OP_INVERSE, PRIM_INVERSE


class UnmatchedRoutine(RevLangError):
    pass


def expand_routines(fdef):
    """Resolve every @routine/~@routine pair into explicit statements."""
    return FunctionDef(fdef.name, fdef.params,
                       Block(_expand_stmts(fdef.body.stmts), fdef.body.span),
                       fdef.span)


def _expand_stmts(stmts):
    out = []
    pending = []
    for s in stmts:
        if isinstance(s, RoutineBegin):
            body = _expand_stmts(s.block.stmts)
            pending.append((body, s.span))
            out.extend(body)
        elif isinstance(s, RoutineEnd):
            if not pending:
                raise UnmatchedRoutine(
                    "routine close without a matching open", s.span)
            body, _ = pending.pop()
            out.extend(_invert_stmts(body))
        else:
            out.append(_expand_in_stmt(s))
    if pending:
        raise UnmatchedRoutine("routine block is never closed", pending[-1][1])
    return tuple(out)


def _expand_in_stmt(s):
    match s:
        case If(pre=pre, post=post, then_block=tb, else_block=eb, span=span):
            return If(pre, post, Block(_expand_stmts(tb.stmts), tb.span),
                      Block(_expand_stmts(eb.stmts), eb.span), span)
        case While(pre=pre, post=post, body=body, span=span):
            return While(pre, post, Block(_expand_stmts(body.stmts), body.span),
                         span)
        case For(var=var, start=a, step=st, stop=b, body=body, span=span):
            return For(var, a, st, b, Block(_expand_stmts(body.stmts), body.span),
                       span)
        case InvCheckOff(stmt=stmt, span=span):
            inner = _expand_stmts((stmt,))
            wrapped = inner[0] if len(inner) == 1 else Block(inner, span)
            return InvCheckOff(wrapped, span)
        case Block(stmts=stmts, span=span):
            return Block(_expand_stmts(stmts), span)
        case _:
            return s


def negate_expr(e):
    """Syntactic negation with double-negation folding (keeps inversion an
    involution on the IR)."""
    if isinstance(e, Un) and e.op == "-":
        return e.operand
    if isinstance(e, Lit) and isinstance(e.value, (int, float)) \
            and not isinstance(e.value, bool):
        return Lit(-e.value, e.span)
    if isinstance(e, Bin) and e.op == "-" and isinstance(e.left, Lit) \
            and e.left.value == 0:
        return e.right
    return Un("-", e, getattr(e, "span", None) or e.span)


def invert_statement(s):
    """The statement-level inverse; requires routine-free input and
    satisfies invert(invert(s)) == s."""
    match s:
        case AncillaAlloc(name=name, expr=e, span=span):
            return AncillaDealloc(name, e, span)
        case AncillaDealloc(name=name, expr=e, span=span):
            return AncillaAlloc(name, e, span)
        case InstrCall(op=op, fname=fname, args=args, span=span):
            return InstrCall(OP_INVERSE[op], fname, args, span)
        case FnCall(fname=fname, args=args, span=span):
            if fname in PRIM_INVERSE:
                return FnCall(PRIM_INVERSE[fname], args, span)
            return UncallFn(fname, args, span)
        case UncallFn(fname=fname, args=args, span=span):
            if fname in PRIM_INVERSE:
                return FnCall(PRIM_INVERSE[fname], args, span)
            return FnCall(fname, args, span)
        case If(pre=pre, post=post, then_block=tb, else_block=eb, span=span):
            npre, npost = (pre, post) if post is SAME_AS_PRE else (post, pre)
            return If(npre, npost, invert_block(tb), invert_block(eb), span)
        case While(pre=pre, post=post, body=body, span=span):
            return While(post, pre, invert_block(body), span)
        case For(var=var, start=a, step=st, stop=b, body=body, span=span):
            return For(var, b, negate_expr(st), a, invert_block(body), span)
        case InvCheckOff(stmt=stmt, span=span):
            return InvCheckOff(invert_statement(stmt), span)
        case Safe():
            return s  # irreversible external statement: re-executed as-is
        case Block():
            return invert_block(s)
        case RoutineBegin() | RoutineEnd():
            raise UnmatchedRoutine(
                "routine markers invert only as matched pairs", s.span)
        case _:
            raise TypeError(f"not a statement: {s!r}")


def _invert_stmts(stmts):
    """Reverse a statement list, inverting each element. A matched
    @routine ... ~@routine trio inverts to @routine ... ~@routine with the
    same opening block (only the statements between the markers flip), so
    inversion stays an involution on routine-bearing code."""
    opens = {}
    stack = []
    for pos, s in enumerate(stmts):
        if isinstance(s, RoutineBegin):
            stack.append(pos)
        elif isinstance(s, RoutineEnd):
            if not stack:
                raise UnmatchedRoutine(
                    "routine close without a matching open", s.span)
            opens[pos] = stack.pop()
    if stack:
        raise UnmatchedRoutine("routine block is never closed",
                               stmts[stack[-1]].span)
    out = []
    for pos in range(len(stmts) - 1, -1, -1):
        s = stmts[pos]
        if isinstance(s, RoutineEnd):
            out.append(RoutineBegin(stmts[opens[pos]].block, s.span))
        elif isinstance(s, RoutineBegin):
            out.append(RoutineEnd(s.span))
        else:
            out.append(invert_statement(s))
    return tuple(out)


def invert_block(block):
    return Block(_invert_stmts(block.stmts), block.span)


def invert_function(fdef):
    """Produce the inverse function: same signature, name toggled with a
    `~` prefix, body inverted (routines stay paired, so inverting twice
    restores the original definition)."""
    return FunctionDef(inverse_name(fdef.name), fdef.params,
                       invert_block(fdef.body), fdef.span)
