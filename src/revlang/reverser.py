"""Compilation passes that symmetrize and invert reversible IR.

`expand_routines` replaces every `Routine` (compute-copy-uncompute) with
its compute block, its body and the compute block inverted, leaving
routine-free IR. `invert_statement` / `invert_function` then produce the
mechanical inverse: blocks reverse order, updates flip operator,
allocations swap with releases, calls swap with uncalls, branch
conditions swap with their postconditions, and loop ranges run
backwards; a routine keeps its compute block and inverts its body. Both
passes are pure IR-to-IR transforms; no runtime stack is ever introduced.
"""

from .ir import (SAME_AS_PRE, AncillaAlloc, AncillaDealloc, Bin, Block,
                 FnCall, For, FunctionDef, If, InstrCall, InvCheckOff, Lit,
                 Routine, Safe, Un, UncallFn, While, inverse_name)
from .numerics import OP_INVERSE, PRIM_INVERSE


def expand_routines(fdef):
    """Resolve every @routine/~@routine pair into explicit statements."""
    return FunctionDef(fdef.name, fdef.params,
                       Block(_expand_stmts(fdef.body.stmts), fdef.body.span),
                       fdef.span)


def _expand_stmts(stmts):
    out = []
    for s in stmts:
        if isinstance(s, Routine):
            compute = _expand_stmts(s.compute.stmts)
            out.extend(compute)
            out.extend(_expand_stmts(s.body.stmts))
            out.extend(_invert_stmts(compute))
        elif isinstance(s, InvCheckOff):
            # each statement a routine expands to stays in this scope
            out.extend(InvCheckOff(t, s.span) for t in _expand_stmts((s.stmt,)))
        else:
            out.append(_expand_in_stmt(s))
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
    """The statement-level inverse; satisfies invert(invert(s)) == s."""
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
        case Routine(compute=compute, body=body, span=span):
            return Routine(compute, invert_block(body), span)
        case _:
            raise TypeError(f"not a statement: {s!r}")


def _invert_stmts(stmts):
    return tuple(invert_statement(s) for s in reversed(stmts))


def invert_block(block):
    return Block(_invert_stmts(block.stmts), block.span)


def invert_function(fdef):
    """Produce the inverse function: same signature, name toggled with a
    `~` prefix, body inverted (inverting twice restores the original
    definition)."""
    return FunctionDef(inverse_name(fdef.name), fdef.params,
                       invert_block(fdef.body), fdef.span)
