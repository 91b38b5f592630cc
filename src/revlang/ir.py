"""Reversible intermediate representation: expressions, data views, statements,
functions, programs, and the static validator.

Structural equality on IR nodes ignores source spans, so a parse/print
round-trip compares equal. Runtime view identity (which needs an
environment to evaluate index expressions) lives with the interpreter.
"""

from dataclasses import field

from .errors import NO_SPAN, Diagnostic, SourceSpan, frozen


def _span_field():
    return field(default=NO_SPAN, compare=False, repr=False)


# --- expressions ---

@frozen
class Lit:
    value: object
    span: SourceSpan = _span_field()


@frozen
class ViewRef:
    view: object
    span: SourceSpan = _span_field()


@frozen
class Un:
    op: str  # '-'
    operand: object
    span: SourceSpan = _span_field()


@frozen
class Bin:
    op: str  # + - * / ^ % == != < <= > >= && ||
    left: object
    right: object
    span: SourceSpan = _span_field()


@frozen
class Call:
    fname: str
    args: tuple
    span: SourceSpan = _span_field()


# --- data views ---

@frozen
class VarView:
    name: str
    span: SourceSpan = _span_field()


@frozen
class FieldView:
    base: object
    field_name: str
    span: SourceSpan = _span_field()


@frozen
class IndexView:
    base: object
    indices: tuple  # expressions
    span: SourceSpan = _span_field()


@frozen
class BijView:
    base: object
    bij: str
    args: tuple  # literal constants
    span: SourceSpan = _span_field()


VIEW_TYPES = (VarView, FieldView, IndexView, BijView)


def view_root(view):
    while not isinstance(view, VarView):
        view = view.base
    return view.name


# --- statements ---

@frozen
class AncillaAlloc:
    name: str
    expr: object
    span: SourceSpan = _span_field()


@frozen
class AncillaDealloc:
    name: str
    expr: object
    span: SourceSpan = _span_field()


@frozen
class InstrCall:
    op: str        # '+=' | '-=' | '*=' | '/=' | 'xor='
    fname: str     # registered scalar function; 'identity' for a bare atom
    args: tuple    # first entry is the mutated target view; views or Lit
    span: SourceSpan = _span_field()


@frozen
class FnCall:
    fname: str
    args: tuple    # data views
    span: SourceSpan = _span_field()


@frozen
class UncallFn:
    fname: str
    args: tuple
    span: SourceSpan = _span_field()


class _SameAsPre:
    """Sentinel postcondition: reuse the precondition (the `~` shorthand)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "SAME_AS_PRE"


SAME_AS_PRE = _SameAsPre()


@frozen
class If:
    pre: object
    post: object   # expression or SAME_AS_PRE
    then_block: object
    else_block: object
    span: SourceSpan = _span_field()


@frozen
class While:
    pre: object
    post: object
    body: object
    span: SourceSpan = _span_field()


@frozen
class For:
    var: str
    start: object
    step: object
    stop: object
    body: object
    span: SourceSpan = _span_field()


@frozen
class Routine:
    """`@routine compute` ... `~@routine`: runs `compute`, then `body` (the
    statements between the markers), then `compute` inverted."""
    compute: object
    body: object
    span: SourceSpan = _span_field()


@frozen
class InvCheckOff:
    stmt: object
    span: SourceSpan = _span_field()


@frozen
class Safe:
    kind: str      # 'assert' | 'print'
    exprs: tuple
    span: SourceSpan = _span_field()


@frozen
class Block:
    stmts: tuple
    span: SourceSpan = _span_field()


@frozen
class Inlined:
    """A call or uncall (`call`) with its callee's body in its place
    (`reverser.Inliner`): the statements of `body` read and write the
    call's argument views for the callee's parameters, and name each
    other variable of the callee as `shown` reads it. Only the
    definitions the interpreter lowers hold one: `validate` and the
    printer never meet one."""
    call: object
    body: Block
    span: SourceSpan = _span_field()


def shown(name):
    """The name a variable is written with: `Inliner` renames a callee's
    variable `r` to `r@g` (g: the callee, without its `~`)."""
    return name.partition("@")[0]


# --- functions and programs ---

@frozen
class Param:
    name: str
    kind: str = "any"    # "scalar", "array" or "any"
    span: SourceSpan = _span_field()


@frozen
class FunctionDef:
    name: str
    params: tuple
    body: Block
    span: SourceSpan = _span_field()

    def param_names(self):
        return [p.name for p in self.params]


def inverse_name(name):
    """The name of a function's inverse: f <-> ~f."""
    return name[1:] if name.startswith("~") else "~" + name


class Program:
    """An ordered collection of function definitions. `compiled` holds
    what is derived from them, and `add` drops it: `validate` keeps there
    a valid program's routine expansions, the interpreter its inverses
    and its lowered units, by float type and trace setting."""

    def __init__(self, functions=()):
        self.functions = {}
        self.duplicate_names = []
        self.compiled = {}
        for f in functions:
            self.add(f)

    def add(self, fdef):
        self.compiled.clear()
        if fdef.name in self.functions:
            self.duplicate_names.append(fdef.name)
        self.functions[fdef.name] = fdef

    def get(self, name):
        return self.functions.get(name)

    def __contains__(self, name):
        return name in self.functions

    def __iter__(self):
        return iter(self.functions.values())

    def __eq__(self, other):
        return (isinstance(other, Program)
                and list(self.functions) == list(other.functions)
                and all(self.functions[k] == other.functions[k]
                        for k in self.functions))

    def __repr__(self):
        return f"Program({list(self.functions)})"


# --- static validation ---

def is_affine_index(e):
    """Index expressions are limited to +,-,* over integer literals and
    variables with at most degree one, so view identity is decidable."""
    def walk(x):
        # returns degree (0 constant, 1 linear) or None if not affine
        if isinstance(x, Lit):
            return 0 if isinstance(x.value, int) and not isinstance(x.value, bool) else None
        if isinstance(x, ViewRef):
            return 1 if isinstance(x.view, VarView) else None
        if isinstance(x, Un) and x.op == "-":
            return walk(x.operand)
        if isinstance(x, Bin):
            l, r = walk(x.left), walk(x.right)
            if l is None or r is None:
                return None
            if x.op in ("+", "-"):
                return max(l, r)
            if x.op == "*":
                return l + r if l + r <= 1 else None
            return None
        return None

    return walk(e) is not None


def _subviews(view):
    while isinstance(view, VIEW_TYPES):
        yield view
        if isinstance(view, VarView):
            return
        view = view.base


def validate(program):
    """Check program well-formedness; returns a list of Diagnostics (empty
    when the program is valid); never raises for invalid input. A routine
    is checked as what it expands to: a valid program keeps these
    expansions (`compiled["expanded"]`) for the interpreter to lower."""
    from . import numerics, reverser  # deferred: reverser imports this module

    expanded = program.compiled.get("expanded") or {
        f.name: reverser.expand_routines(f) for f in program}
    diags = []

    def check_view(view):
        for v in _subviews(view):
            if isinstance(v, IndexView):
                for ix in v.indices:
                    if not is_affine_index(ix):
                        diags.append(Diagnostic(
                            "NonAffineIndex",
                            "index expressions must be affine in variables",
                            getattr(ix, "span", NO_SPAN)))
            elif isinstance(v, BijView):
                if v.bij not in numerics.BIJECTORS:
                    diags.append(Diagnostic(
                        "UnknownBijector", f"no bijector named {v.bij!r}", v.span))
                elif not numerics.BIJECTORS[v.bij].valid_args(v.args):
                    diags.append(Diagnostic(
                        "BadBijectorArgs",
                        f"invalid arguments for bijector {v.bij!r}", v.span))

    def check_fn(spec, fname, n_args, what, span):
        """Diagnose a call of `fname` with n_args arguments that `spec`
        (None when unknown) does not accept; True when it resolves."""
        if spec is None:
            diags.append(Diagnostic(
                "UnknownFunction", f"{fname!r} is not a registered {what}",
                span))
        elif not spec.min_arity <= n_args <= spec.max_arity:
            diags.append(Diagnostic(
                "ArityMismatch",
                f"{fname!r} expects {spec.min_arity} arguments, got {n_args}",
                span))
        else:
            return True
        return False

    def check_expr(e):
        if isinstance(e, ViewRef):
            check_view(e.view)
        elif isinstance(e, Un):
            check_expr(e.operand)
        elif isinstance(e, Bin):
            check_expr(e.left)
            check_expr(e.right)
        elif isinstance(e, Call):
            check_fn(numerics.expr_fn(e.fname), e.fname, len(e.args),
                     "pure function", e.span)
            for a in e.args:
                check_expr(a)

    def check_stmts(stmts):
        live = []            # ancilla names allocated in this block, in order
        for s in stmts:
            check_stmt(s, live)
        for name, span in live:
            diags.append(Diagnostic(
                "UnbalancedAncilla",
                f"{name!r} is allocated but not released in the same scope", span))

    def check_stmt(s, live):
        match s:
            case AncillaAlloc(name=name, expr=e, span=span):
                check_expr(e)
                live.append((name, span))
            case AncillaDealloc(name=name, expr=e, span=span):
                check_expr(e)
                for entry in reversed(live):
                    if entry[0] == name:
                        live.remove(entry)
                        break
                else:
                    diags.append(Diagnostic(
                        "UnbalancedAncilla",
                        f"{name!r} is released but was not allocated in this scope",
                        span))
            case InstrCall(op=op, fname=fname, args=args, span=span):
                if not isinstance(args[0], VIEW_TYPES):
                    diags.append(Diagnostic(
                        "BadInstructionTarget",
                        "instruction target must be a data view", span))
                if check_fn(numerics.INSTR_FNS.get(fname), fname,
                            len(args) - 1, "instruction function", span) \
                        and op in ("*=", "/=") and len(args) != 2:
                    diags.append(Diagnostic(
                        "ArityMismatch",
                        f"{op} takes exactly one argument, got {len(args) - 1}",
                        span))
                for a in args:
                    if isinstance(a, VIEW_TYPES):
                        check_view(a)
            case FnCall(fname=fname, args=args, span=span) | \
                    UncallFn(fname=fname, args=args, span=span):
                # a name resolves as in the interpreter: to its definition,
                # or to the inverse generated from its ~-twin
                callee = program.get(fname) or program.get(inverse_name(fname))
                if callee is None and fname not in numerics.PRIM_STATEMENTS:
                    diags.append(Diagnostic(
                        "UnknownFunction", f"call to undefined {fname!r}", span))
                else:
                    spec_arity = (numerics.PRIM_STATEMENTS[fname]
                                  if fname in numerics.PRIM_STATEMENTS
                                  else len(callee.params))
                    if len(args) != spec_arity:
                        diags.append(Diagnostic(
                            "ArityMismatch",
                            f"{fname!r} expects {spec_arity} arguments, got {len(args)}",
                            span))
                for a in args:
                    check_view(a)
            case If(pre=pre, post=post, then_block=tb, else_block=eb):
                check_expr(pre)
                if post is not SAME_AS_PRE:
                    check_expr(post)
                check_stmts(tb.stmts)
                check_stmts(eb.stmts)
            case While(pre=pre, post=post, body=body, span=span):
                check_expr(pre)
                if post is SAME_AS_PRE:
                    diags.append(Diagnostic(
                        "WhilePostconditionRequired",
                        "a while loop needs an explicit postcondition", span))
                else:
                    check_expr(post)
                check_stmts(body.stmts)
            case For(start=start, step=step, stop=stop, body=body):
                check_expr(start)
                check_expr(step)
                check_expr(stop)
                check_stmts(body.stmts)
            case InvCheckOff(stmt=stmt):
                check_stmt(stmt, live)
            case Safe(exprs=exprs):
                for e in exprs:
                    check_expr(e)
            case Block(stmts=stmts):
                check_stmts(stmts)

    for name in program.duplicate_names:
        diags.append(Diagnostic(
            "DuplicateFunction", f"function {name!r} defined twice",
            program.get(name).span))
    for fdef in program:
        # an explicit inverse ~f is called with f's arguments
        primal = program.get(fdef.name[1:]) if fdef.name[:1] == "~" else None
        if primal is not None and len(primal.params) != len(fdef.params):
            diags.append(Diagnostic(
                "ArityMismatch",
                f"{fdef.name!r} and {primal.name!r} differ in arity", fdef.span))
        pnames = set()
        for p in fdef.params:
            if p.name in pnames:
                diags.append(Diagnostic(
                    "DuplicateParam",
                    f"parameter {p.name!r} repeated in {fdef.name!r}", p.span))
            pnames.add(p.name)
        check_stmts(expanded[fdef.name].body.stmts)

    # a routine's compute block and its replay share spans: report once
    diags = list({(d.rule, d.message, d.span): d for d in diags}.values())
    if not diags:
        program.compiled["expanded"] = expanded
    return diags
