"""Compilation passes that symmetrize, invert and inline reversible IR.

`expand_routines` replaces every `Routine` (compute-copy-uncompute) with
its compute block, its body and the compute block inverted, leaving
routine-free IR. `invert_statement` / `invert_function` then produce the
mechanical inverse: blocks reverse order, updates flip operator,
allocations swap with releases, calls swap with uncalls, branch
conditions swap with their postconditions, and loop ranges run
backwards; a routine keeps its compute block and inverts its body.
`Inliner` puts the body of a function called at one site in place of
that call, for the interpreter to lower. All are pure IR-to-IR
transforms; no runtime stack is ever introduced.
"""

from .analysis import _clash, _index_reads, _reads, _statements
from .ir import (SAME_AS_PRE, AncillaAlloc, AncillaDealloc, Block, FnCall,
                 For, FunctionDef, If, IndexView, Inlined, InstrCall,
                 InvCheckOff, Lit, Routine, Safe, Un, UncallFn, VarView,
                 While, inverse_name, view_root)
from .numerics import OP_INVERSE, PRIM_INVERSE, PRIM_STATEMENTS


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
    return Un("-", e, e.span)


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
        case Inlined(call=call, body=body, span=span):
            return Inlined(invert_statement(call), invert_block(body), span)
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


# --- inlining ---------------------------------------------------------------

def _primal(name):
    return name[1:] if name.startswith("~") else name


def _views(s):
    """The views the statement `s` itself names: its arguments, or those
    its expressions read (not those of the statements in its blocks)."""
    t = type(s)
    if t is InstrCall or t is FnCall or t is UncallFn:
        return [v for v in s.args if type(v) is not Lit]
    exprs = (s.expr,) if t is AncillaAlloc or t is AncillaDealloc else \
        (s.pre, s.post) if t is If or t is While else \
        (s.start, s.step, s.stop) if t is For else \
        s.exprs if t is Safe else ()
    return [v for e in exprs for v in _reads(e)]


def _renamed(node, args, suffix):
    """`node` with each variable that `args` maps replaced by its view there,
    and every other name of a variable with `suffix` appended."""
    t = type(node)
    if t is VarView:
        return args.get(node.name) or VarView(node.name + suffix, node.span)
    if t is tuple:
        return tuple([_renamed(n, args, suffix) for n in node])
    plan = _PLANS[t]
    return node if plan is None else plan(node, args, suffix)


class _RenamePlans(dict):
    """Per IR node type, the function `(node, args, suffix) -> node` that
    `_renamed` rebuilds a node of that type with, made on first use from
    its fields: a string and the span are kept, the name an allocation, a
    release or a loop binds (its first field) gets the suffix, and every
    other field is renamed within. A type without fields, and a literal,
    map to None: the node is kept."""

    def __missing__(self, t):
        fields = getattr(t, "__dataclass_fields__", {})
        parts = [f"n.{f} + s" if i == 0 and t in _BINDS else
                 f"n.{f}" if fields[f].type is str or f == "span" else
                 f"_renamed(n.{f}, a, s)" for i, f in enumerate(fields)]
        self[t] = None if not fields or t is Lit else eval(
            f"lambda n, a, s: t({', '.join(parts)})",
            {"t": t, "_renamed": _renamed})
        return self[t]


_BINDS = (AncillaAlloc, AncillaDealloc, For)
_PLANS = _RenamePlans()


class Inliner(dict):
    """A valid program's definitions by name, with calls inlined, each made
    on its first lookup from `defs` (the interpreter's `_Defs`, which
    makes each missing inverse and knows what a call `rebinds`).

    A call or an uncall of a function that is not recursive and has
    exactly one site, a call `g(...)` or an uncall `~g(...)`, among the
    program's written definitions becomes an `Inlined` block, where
    `takes` allows: the body of g, or of its inverse `~g` as `defs` has
    it, as this table makes it, with the call's argument views put for
    its parameters and its other variables renamed (`ir.shown`). So g is
    no longer lowered on its own, and inlining it grows no code
    (Scheifler, CACM 1977). Every other call stays a call."""

    def __init__(self, defs):
        super().__init__()
        self.defs, self.written = defs, list(defs.values())
        self.sites = None   # by callee without its `~`, once a call is met

    def __missing__(self, name):
        fdef = self.defs[name]
        body = self.stmt(fdef.body)
        self[name] = fdef if body is fdef.body else \
            FunctionDef(fdef.name, fdef.params, body, fdef.span)
        return self[name]

    def stmt(self, s):
        """`s` with the calls within it inlined (`s` itself when none is)."""
        t = type(s)
        if t is FnCall or t is UncallFn:
            if s.fname in PRIM_STATEMENTS or not self.takes(s):
                return s
            callee = self[inverse_name(s.fname) if t is UncallFn else s.fname]
            return Inlined(s, _renamed(
                callee.body, dict(zip(callee.param_names(), s.args)),
                "@" + _primal(s.fname)), s.span)
        if t is Block:
            stmts = tuple([self.stmt(x) for x in s.stmts])
            return s if all(a is b for a, b in zip(stmts, s.stmts)) else \
                Block(stmts, s.span)
        if t is If:
            tb, eb = self.stmt(s.then_block), self.stmt(s.else_block)
            return s if tb is s.then_block and eb is s.else_block else \
                If(s.pre, s.post, tb, eb, s.span)
        if t is While or t is For:
            body = self.stmt(s.body)
            return s if body is s.body else \
                While(s.pre, s.post, body, s.span) if t is While else \
                For(s.var, s.start, s.step, s.stop, body, s.span)
        if t is InvCheckOff:
            inner = self.stmt(s.stmt)
            return s if inner is s.stmt else InvCheckOff(inner, s.span)
        return s

    def count(self):
        """Count each callee's sites among the written definitions, by
        name without the `~`; a callee that may reach a call of itself
        counts none."""
        sites, calls = {}, {}
        for fdef in self.written:
            for s in _statements(fdef.body.stmts):
                if type(s) in (FnCall, UncallFn) \
                        and s.fname not in PRIM_STATEMENTS:
                    callee = _primal(s.fname)
                    sites[callee] = sites.get(callee, 0) + 1
                    calls.setdefault(_primal(fdef.name), set()).add(callee)
        for key in calls:
            seen, todo = set(), list(calls[key])
            while todo and key not in seen:
                k = todo.pop()
                if k not in seen:
                    seen.add(k)
                    todo += calls.get(k, ())
            if key in seen:
                sites[key] = 0   # recursive: never inlined
        self.sites = sites

    def takes(self, s):
        """Whether the call or uncall `s` is inlined. Its callee must be
        the one of a single site, and not recursive. Each argument must be
        a variable or a cell of one (not a literal, a bijector or a field
        view), and `s` must rebind no variable that an index of its
        arguments reads (then it raises `AliasedArguments`). And the
        callee's body must make the same checks and messages on the views
        as on its parameters: it binds no parameter's name and asserts
        nothing (a message quotes it); no statement of it rebinds an
        index of its own arguments; none passes two parameters for which
        the call passes views of one variable (their alias check would
        count); and a parameter for which the call passes a cell is read
        and written whole, neither indexed nor read by an index."""
        if self.sites is None:
            self.count()
        if self.sites.get(_primal(s.fname)) != 1 or not all(
                type(v) is VarView or type(v) is IndexView
                and type(v.base) is VarView for v in s.args) \
                or _clash(s, self.defs.rebinds):
            return False
        callee = self[inverse_name(s.fname) if type(s) is UncallFn
                      else s.fname]
        roots = {p: view_root(v)
                 for p, v in zip(callee.param_names(), s.args)}
        cells = {p for p, v in zip(roots, s.args) if type(v) is IndexView}
        for t in _statements(callee.body.stmts):
            if type(t) is Inlined:   # its alias check is the call's
                t = t.call
            k, views = type(t), _views(t)
            if k is Safe and t.kind == "assert" or k is AncillaAlloc \
                    and t.name in roots or k is For and t.var in roots \
                    or cells and any(
                        type(v) is not VarView and (
                            view_root(v) in cells
                            or not cells.isdisjoint(_index_reads(v)))
                        for v in views):
                return False
            if k is InstrCall or k is FnCall or k is UncallFn:
                params = {*map(view_root, views)} & roots.keys()
                if len({roots[p] for p in params}) < len(params) \
                        or _clash(t, self.defs.rebinds):
                    return False
        return True
