"""Evaluator for the reversible IR.

Forward execution follows the statement semantics directly; backward
execution is forward execution of the mechanically inverted function, so
there is one evaluator and no runtime stack. Reversibility checks
(branch postconditions, clean ancilla release, unchanged loop iterators,
alias rejection) are observers: on a passing program, disabling them
changes nothing but speed.

Function bodies are compiled once into Python closures, and these
closures are the only evaluator: the public view helpers `read_view`,
`write_view` and `canonical_view_identity` compile their view with the
same functions and run it on the given environment. An index view
compiles to one closure per rank that computes the flat offset inline;
other cases go to `Array.get`/`Array.set`. Aliasing between argument
views is decided statically when their root names differ or their paths
index one position with distinct Int literals (`v[i, 1]`, `v[i, 2]`);
only the other same-root pairs are compared at run time.

An instruction and a statement primitive compile to the same update
closure: read the arguments, check them for aliasing, apply the rule
`numerics.instr_rule` resolved for the statement, and write back. The
numeric semantics of every instruction live in `numerics`. An expression
(ancilla initialiser, condition, loop bound, index) compiles each
arithmetic operator and call to the function `numerics.expr_fn` resolves
for it, and each comparison to `numerics.compare`. A host math
error inside a statement (an overflow, `math.sin(inf)`) is raised as
`RevDomainError` at that statement.
"""

import json
from dataclasses import dataclass, field

from .errors import (NO_SPAN, AliasedArguments, AssertFailed, DirtyAncilla,
                     DuplicateBinding, FuelExhausted, KindError,
                     LoopIteratorMutated, PostconditionMismatch,
                     RevDomainError, RevLangError, UnboundVariable,
                     UnknownFunction, ValidationFailed)
from .ir import (SAME_AS_PRE, AncillaAlloc, AncillaDealloc, Bin, BijView,
                 Block, Call, FieldView, FnCall, For, If, IndexView,
                 InstrCall, InvCheckOff, Lit, Safe, Un, UncallFn, VarView,
                 ViewRef, While, inverse_name, validate, view_root)
from .numerics import (BIJECTORS, INSTR_BIN_OPS, PRIM_INVERSE,
                       PRIM_STATEMENTS, PrimitiveInstr, carries_gvar, compare,
                       expr_fn, instr_rule, unwrap_gvar, wrap_gvar)
from .reverser import expand_routines, invert_function
from .values import (Array, Complex, GVar, Record, deep_copy, deviation,
                     is_bool, is_int, kind_name, values_close)


@dataclass
class ExecOptions:
    invcheck: bool = True
    float_tolerance: float = 1e-9
    max_steps: int = 500_000_000
    trace: bool = False
    float_dtype: object = None      # e.g. numpy.float32 for binary32 runs
    trace_sink: object = None       # list to append trace lines to

    def __post_init__(self):
        if self.float_tolerance < 0:
            raise ValueError("float_tolerance must be non-negative")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass
class ExecStats:
    steps: int = 0
    checks_passed: dict = field(default_factory=lambda: {
        "postcondition": 0, "ancilla": 0, "iterator": 0, "alias": 0})


class Frame:
    """The environment: name -> value bindings of one function call.
    `grad` marks a frame of a gradient pass, one whose arguments carry
    GVar values; callee frames inherit it."""

    __slots__ = ("bindings", "fname", "grad")

    def __init__(self, fname="<frame>", grad=False):
        self.bindings = {}
        self.fname = fname
        self.grad = grad


def ids_overlap(id_a, id_b):
    """True when two storage ids denote overlapping memory (equal, or one
    a prefix of the other, e.g. a whole array and one of its cells)."""
    n = min(len(id_a), len(id_b))
    return id_a[:n] == id_b[:n]


def _read_field(v, name):
    if isinstance(v, Complex):
        if name == "re":
            return v.re
        if name == "im":
            return v.im
        raise KindError(f"complex values have fields re/im, not {name!r}")
    if isinstance(v, Record):
        return v.get(name)
    raise KindError(f"field access on {kind_name(v)}")


def _write_field(v, name, new):
    if isinstance(v, Complex):
        if name == "re":
            v.re = new
        elif name == "im":
            v.im = new
        else:
            raise KindError(f"complex values have fields re/im, not {name!r}")
    elif isinstance(v, Record):
        v.set(name, new)
    else:
        raise KindError(f"field write on {kind_name(v)}")


# --- expression helpers captured by the compiled closures --------------------
# Expression values are GVar-free: a ViewRef reads the primal value.

def _bool_of(v):
    if not is_bool(v):
        raise KindError(f"condition must be Bool, got {kind_name(v)}")
    return v


# --- expression and view compilation ----------------------------------------

def _compile_expr(e, float_dtype):
    if isinstance(e, Lit):
        v = e.value
        if isinstance(v, float) and float_dtype is not None:
            v = float_dtype(v)
        elif isinstance(v, complex):
            z = float_dtype or float
            re_, im_ = z(v.real), z(v.imag)
            return lambda frame: Complex(re_, im_)
        return lambda frame, _v=v: _v
    if isinstance(e, ViewRef):
        rd = _compile_reader(e.view, float_dtype)

        def run(frame, _rd=rd):
            v = _rd(frame)
            return v.x if isinstance(v, GVar) else v
        return run
    if isinstance(e, Un):    # unary minus
        return _compile_fn("neg", (e.operand,), e.span, float_dtype)
    if isinstance(e, Bin):
        op = e.op
        if op in INSTR_BIN_OPS:
            return _compile_fn(INSTR_BIN_OPS[op], (e.left, e.right), e.span,
                               float_dtype)
        lf = _compile_expr(e.left, float_dtype)
        rf = _compile_expr(e.right, float_dtype)
        if op == "&&":
            return lambda frame: _bool_of(lf(frame)) and _bool_of(rf(frame))
        if op == "||":
            return lambda frame: _bool_of(lf(frame)) or _bool_of(rf(frame))
        return lambda frame, _op=op: compare(_op, lf(frame), rf(frame))
    if isinstance(e, Call):
        return _compile_fn(e.fname, e.args, e.span, float_dtype)
    raise KindError(f"not an expression: {e!r}")


def _compile_fn(fname, arg_exprs, span, float_dtype):
    """A function application in an expression, resolved once by
    `numerics.expr_fn`."""
    spec = expr_fn(fname)
    if spec is None:
        raise UnknownFunction(
            f"{fname!r} is not a registered pure function", span)
    fn = spec.apply
    arg_fns = [_compile_expr(a, float_dtype) for a in arg_exprs]
    return lambda frame: fn(*[af(frame) for af in arg_fns])


def _compile_int_expr(e, what, float_dtype):
    inner = _compile_expr(e, float_dtype)

    def run(frame):
        v = inner(frame)
        if not is_int(v):
            raise KindError(f"{what} must be an Int, got {kind_name(v)}")
        return v
    return run


def _compile_index(e, float_dtype):
    """An array index, checked to be an Int: an Int literal is a constant,
    and a variable bound to a plain `int` is read directly."""
    if isinstance(e, Lit) and is_int(e.value):
        v = e.value
        return lambda frame: v
    checked = _compile_int_expr(e, "array index", float_dtype)
    if isinstance(e, ViewRef) and isinstance(e.view, VarView):
        name = e.view.name

        def index(frame):
            v = frame.bindings.get(name)
            return v if type(v) is int else checked(frame)
        return index
    return checked


def _compile_offset(fs):
    """`offset(array, frame)` for the index closures `fs`, one closure per
    rank: the flat offset of the cell when the array has that rank and
    every index is in bounds, else None. The caller then evaluates the
    (pure) indices again and hands them to `Array.get`/`Array.set`, which
    index with any Int and raise `IndexOutOfBounds`."""
    if len(fs) == 1:
        f1, = fs

        def offset(arr, frame):
            i, shape = f1(frame), arr.shape
            if len(shape) == 1 and 0 < i <= shape[0]:
                return i - 1
        return offset
    if len(fs) == 2:
        f1, f2 = fs

        def offset(arr, frame):
            i, j, shape = f1(frame), f2(frame), arr.shape
            if len(shape) == 2 and 0 < i <= shape[0] and 0 < j <= shape[1]:
                return (i - 1) * shape[1] + j - 1
        return offset
    return lambda arr, frame: None


def _indexed(v):
    if not isinstance(v, Array):
        raise KindError(f"indexing into {kind_name(v)}")
    return v


def _compile_reader(view, float_dtype):
    if isinstance(view, VarView):
        name = view.name

        def read(frame):
            try:
                return frame.bindings[name]
            except KeyError:
                raise UnboundVariable(f"{name!r} is not bound",
                                      view.span) from None
        return read
    if isinstance(view, FieldView):
        base = _compile_reader(view.base, float_dtype)
        fname = view.field_name
        return lambda frame: _read_field(base(frame), fname)
    if isinstance(view, IndexView):
        base = _compile_reader(view.base, float_dtype)
        fs = [_compile_index(ix, float_dtype) for ix in view.indices]
        offset = _compile_offset(fs)

        def read(frame):
            arr = _indexed(base(frame))
            k = offset(arr, frame)
            if k is None:
                return arr.get(tuple([f(frame) for f in fs]))
            return arr.data[k]
        return read
    if isinstance(view, BijView):
        base = _compile_reader(view.base, float_dtype)
        bij = BIJECTORS[view.bij]
        args = view.args
        return lambda frame: bij.fwd(base(frame), args)
    raise KindError(f"not a view: {view!r}")


def _compile_writer(view, float_dtype):
    if isinstance(view, VarView):
        name = view.name

        def write(frame, v):
            frame.bindings[name] = v
        return write
    if isinstance(view, BijView):
        inner = _compile_writer(view.base, float_dtype)
        bij = BIJECTORS[view.bij]
        args = view.args
        return lambda frame, v: inner(frame, bij.inv(v, args))
    if isinstance(view, FieldView):
        base = _compile_reader(view.base, float_dtype)
        fname = view.field_name
        return lambda frame, v: _write_field(base(frame), fname, v)
    if isinstance(view, IndexView):
        base = _compile_reader(view.base, float_dtype)
        fs = [_compile_index(ix, float_dtype) for ix in view.indices]
        offset = _compile_offset(fs)

        def write(frame, v):
            arr = _indexed(base(frame))
            k = offset(arr, frame)
            if k is None:
                arr.set(tuple([f(frame) for f in fs]), v)
            else:
                arr.data[k] = v
        return write
    raise KindError(f"not a view: {view!r}")


def _id_path(view):
    """Root name and the non-bijector steps of a view, root first."""
    steps = []
    while not isinstance(view, VarView):
        if not isinstance(view, BijView):   # bijectors keep identity
            steps.append(view)
        view = view.base
    return view.name, steps[::-1]


def _compile_id(view, float_dtype):
    """Storage-id closure (root name + concrete non-bijector path)."""
    root, steps = _id_path(view)
    step_fns = []
    for node in steps:
        if isinstance(node, FieldView):
            step_fns.append(lambda frame, _s=("field", node.field_name): _s)
        else:
            fs = [_compile_index(ix, float_dtype) for ix in node.indices]
            step_fns.append(
                lambda frame, _fs=fs: ("idx", tuple([f(frame) for f in _fs])))
    return lambda frame: (root,) + tuple([sf(frame) for sf in step_fns])


def _disjoint(view_a, view_b):
    """True when two views of one root can never overlap: at some depth
    both paths take an index step with distinct Int literals at the same
    position, so their storage ids differ for every runtime value."""
    steps_a, steps_b = _id_path(view_a)[1], _id_path(view_b)[1]
    for sa, sb in zip(steps_a, steps_b):
        if isinstance(sa, IndexView) and isinstance(sb, IndexView):
            for ea, eb in zip(sa.indices, sb.indices):
                if (isinstance(ea, Lit) and isinstance(eb, Lit)
                        and is_int(ea.value) and is_int(eb.value)
                        and ea.value != eb.value):
                    return True
    return False


# --- public view operations ------------------------------------------------
# Each compiles its view with the functions above and runs it with the
# environment as the frame.

def _check_root(env, view):
    root = view_root(view)
    if root not in env.bindings:
        raise UnboundVariable(f"{root!r} is not bound", view.span)


def read_view(env, view, opts=None):
    return _compile_reader(view, opts and opts.float_dtype)(env)


def write_view(env, view, value, opts=None):
    _check_root(env, view)
    _compile_writer(view, opts and opts.float_dtype)(env, value)
    return env


def canonical_view_identity(env, view, opts=None):
    """StorageId of a view in an environment: equal ids denote the same
    mutable cell; bijectors do not change identity."""
    _check_root(env, view)
    return _compile_id(view, opts and opts.float_dtype)(env)


# --- ancilla release comparison ---------------------------------------------

def _ancilla_residual(current, declared, tol, grad):
    """None when the ancilla may be released; otherwise the residual.

    Only primal content is compared: in a gradient frame (`grad`) a
    tracked ancilla's cotangent at release is the sensitivity to its
    pinned initial value and is discarded with it. The release passes
    when the two are `values_close` (discrete kinds exactly, float-backed
    kinds within the tolerance, NaN never); the residual is their
    `deviation`, inf when `deviation` cannot compare their kinds."""
    if grad:
        current, declared = unwrap_gvar(current), unwrap_gvar(declared)
    if values_close(current, declared, tol):
        return None
    try:
        return deviation(current, declared)
    except (KindError, TypeError):
        return float("inf")


# --- the compiling interpreter ----------------------------------------------

class Interpreter:
    """Validates and compiles a Program, then runs its functions in either
    direction. One instance per execution context; instances share only
    the (read-only) Program.

    A pass whose arguments carry a GVar leaf is a gradient pass: the
    instruction rules dispatch on the GVar values, its frames wrap new
    ancillas in GVars, and an instruction may not read one cell twice.
    Forward and gradient passes run the same compiled closures, so one
    instance serves every pass of an autodiff call."""

    def __init__(self, program, opts=None):
        diags = validate(program)
        if diags:
            raise ValidationFailed(diags)
        self.program = program
        self.opts = opts or ExecOptions()
        self.stats = ExecStats()
        self._nocheck_depth = 0
        self.defs = {f.name: expand_routines(f) for f in program}
        for fdef in list(self.defs.values()):
            inv = invert_function(fdef)
            self.defs.setdefault(inv.name, inv)
        self._compiled = {}

    # --- entry points ---

    def run_function(self, fname, args):
        body, names, span = self._function(fname)
        if len(args) != len(names):
            raise KindError(f"{fname} takes {len(names)} arguments, "
                            f"got {len(args)}")
        frame = Frame(fname, any(carries_gvar(a) for a in args))
        frame.bindings.update(zip(names, args))
        try:
            body(frame)
        except RecursionError:
            raise FuelExhausted(f"call depth exceeded in {fname}", span) \
                from None
        if len(frame.bindings) != len(names):
            leftover = sorted(set(frame.bindings) - set(names))
            raise DirtyAncilla(f"bindings leaked from {fname}: {leftover}", span)
        b = frame.bindings
        return [b[n] for n in names]

    def uncall_function(self, fname, args):
        return self.run_function(inverse_name(fname), args)

    def _function(self, fname):
        entry = self._compiled.get(fname)
        if entry is None:
            fdef = self.defs.get(fname)
            if fdef is None:
                raise UnknownFunction(f"no function named {fname!r}")
            # placeholder enables recursion during compilation
            cell = [None, fdef.param_names(), fdef.span]

            def body(frame, _cell=cell):
                return _cell[0](frame)

            self._compiled[fname] = (body, cell[1], cell[2])
            cell[0] = self._compile_block(fdef.body)
            entry = self._compiled[fname]
        return entry

    # --- shared runtime helpers captured by the closures ---

    def _tick(self, span):
        st = self.stats
        st.steps += 1
        if st.steps > self.opts.max_steps:
            raise FuelExhausted(
                f"exceeded {self.opts.max_steps} statement executions", span)

    def _trace_line(self, span, kind, detail):
        line = f"{span.line}:{span.col}\t{kind}\t{detail}"
        if self.opts.trace_sink is not None:
            self.opts.trace_sink.append(line)
        else:
            print(line)

    def _alias_checks(self, arg_views, span, pairs):
        """Compile runtime alias checks for (i, j, message) pairs of
        argument views; None when no pair shares a root name. Only views
        rooted at the same name can ever overlap, so other pairs get no
        check, and a same-root pair that is `_disjoint` is discharged
        here: it is counted as a passed check with the others."""
        roots = [view_root(v) if not isinstance(v, Lit) else None
                 for v in arg_views]
        id_fns = {}

        def idf(i):
            if i not in id_fns:
                id_fns[i] = _compile_id(arg_views[i], self.opts.float_dtype)
            return id_fns[i]

        checks = None
        for (i, j, message) in pairs:
            if roots[i] is None or roots[j] is None or roots[i] != roots[j]:
                continue
            if checks is None:
                checks = []
            if _disjoint(arg_views[i], arg_views[j]):
                continue
            fi, fj = idf(i), idf(j)

            def chk(frame, _fi=fi, _fj=fj, _m=message):
                if ids_overlap(_fi(frame), _fj(frame)):
                    raise AliasedArguments(_m, span)
            checks.append(chk)
        return checks

    # --- statement compilation ---

    def _compile_block(self, block):
        fns = [self._compile_stmt(s) for s in block.stmts]
        if len(fns) == 1:
            return fns[0]

        def run(frame, _fns=tuple(fns)):
            for f in _fns:
                f(frame)
        return run

    def _compile_stmt(self, s):
        inner = self._compile_stmt_inner(s)
        span = s.span
        stats, max_steps = self.stats, self.opts.max_steps
        if self.opts.trace:
            kind, detail, traced = type(s).__name__, self._touched(s), inner

            def inner(frame):
                self._trace_line(span, kind, detail)
                traced(frame)

        def run(frame):
            stats.steps += 1    # the fuel count of `_tick`, inline
            if stats.steps > max_steps:
                raise FuelExhausted(
                    f"exceeded {max_steps} statement executions", span)
            try:
                inner(frame)
            except RevLangError as err:
                if err.span is NO_SPAN:
                    err.span = span
                raise
            except (ArithmeticError, ValueError) as err:
                # a host math error: an overflow, or math.sin(inf)
                raise RevDomainError(str(err), span) from None
        return run

    def _touched(self, s):
        from .parser import fmt_view
        if isinstance(s, InstrCall):
            return ",".join(fmt_view(a) for a in s.args if not isinstance(a, Lit))
        if isinstance(s, (FnCall, UncallFn)):
            return ",".join(fmt_view(a) for a in s.args)
        if isinstance(s, (AncillaAlloc, AncillaDealloc)):
            return s.name
        if isinstance(s, For):
            return s.var
        return ""

    def _compile_stmt_inner(self, s):
        match s:
            case InstrCall(op=op, fname=fname, args=args, span=span):
                n = len(args)
                return self._compile_update(
                    PrimitiveInstr(op, fname), args, span,
                    [(0, i, "an instruction's target may not alias its inputs")
                     for i in range(1, n)],
                    # gradient passes also reject shared reads
                    [(i, j, "shared reads are rejected under differentiation: "
                            "their gradient update would be a shared write "
                            "(rewrite y += x * x as y += x ^ 2)")
                     for i in range(1, n) for j in range(i + 1, n)])
            case AncillaAlloc(name=name, expr=e, span=span):
                val = _compile_expr(e, self.opts.float_dtype)

                def run(frame):
                    if name in frame.bindings:
                        raise DuplicateBinding(f"{name!r} is already bound", span)
                    v = val(frame)
                    if frame.grad:
                        v = wrap_gvar(v)
                    frame.bindings[name] = v
                return run
            case AncillaDealloc(name=name, expr=e, span=span):
                val = _compile_expr(e, self.opts.float_dtype)
                tol = self.opts.float_tolerance
                stats = self.stats

                def run(frame):
                    if name not in frame.bindings:
                        raise UnboundVariable(f"{name!r} is not bound", span)
                    if self._checking:
                        residual = _ancilla_residual(
                            frame.bindings[name], val(frame), tol, frame.grad)
                        if residual is not None:
                            raise DirtyAncilla(
                                f"{name!r} released with residual {residual}",
                                span, name=name, residual=residual)
                        stats.checks_passed["ancilla"] += 1
                    del frame.bindings[name]
                return run
            case FnCall(fname=fname, args=args, span=span):
                return self._compile_call(fname, args, span, uncall=False)
            case UncallFn(fname=fname, args=args, span=span):
                return self._compile_call(fname, args, span, uncall=True)
            case If(pre=pre, post=post, then_block=tb, else_block=eb, span=span):
                pre_f = _compile_expr(pre, self.opts.float_dtype)
                post_f = pre_f if post is SAME_AS_PRE \
                    else _compile_expr(post, self.opts.float_dtype)
                then_f = self._compile_block(tb) if tb.stmts else _noop
                else_f = self._compile_block(eb) if eb.stmts else _noop
                stats = self.stats

                def run(frame):
                    took = _bool_of(pre_f(frame))
                    (then_f if took else else_f)(frame)
                    if self._checking:
                        after = _bool_of(post_f(frame))
                        if after != took:
                            raise PostconditionMismatch(
                                f"branch postcondition is {after}, "
                                f"expected {took}", span)
                        stats.checks_passed["postcondition"] += 1
                return run
            case While(pre=pre, post=post, body=body, span=span):
                pre_f = _compile_expr(pre, self.opts.float_dtype)
                post_f = _compile_expr(post, self.opts.float_dtype)
                body_f = self._compile_block(body) if body.stmts else _noop
                stats = self.stats
                tick = self._tick

                def run(frame):
                    if self._checking:
                        if _bool_of(post_f(frame)):
                            raise PostconditionMismatch(
                                "loop postcondition already true at entry", span)
                        stats.checks_passed["postcondition"] += 1
                        while _bool_of(pre_f(frame)):
                            tick(span)
                            body_f(frame)
                            if self._checking and not _bool_of(post_f(frame)):
                                raise PostconditionMismatch(
                                    "loop postcondition false after an "
                                    "iteration", span)
                            stats.checks_passed["postcondition"] += 1
                    else:
                        while _bool_of(pre_f(frame)):
                            tick(span)
                            body_f(frame)
                return run
            case For(var=var, start=a, step=st, stop=b, body=body, span=span):
                return self._compile_for(var, a, st, b, body, span)
            case Safe(kind=kind, exprs=exprs, span=span):
                arg_fns = [_compile_expr(e, self.opts.float_dtype)
                           for e in exprs]
                if kind == "assert":
                    from .parser import fmt_expr
                    texts = [fmt_expr(e) for e in exprs]

                    def run(frame):
                        for f, text in zip(arg_fns, texts):
                            if not _bool_of(f(frame)):
                                raise AssertFailed(f"assertion failed: {text}",
                                                   span)
                    return run

                def run(frame):
                    print(*(f(frame) for f in arg_fns))
                return run
            case InvCheckOff(stmt=stmt):
                inner = self._compile_stmt(stmt)

                def run(frame):
                    self._nocheck_depth += 1
                    try:
                        inner(frame)
                    finally:
                        self._nocheck_depth -= 1
                return run
            case Block():
                if not s.stmts:
                    return _noop
                return self._compile_block(s)
        raise KindError(f"cannot execute {type(s).__name__}", s.span)

    @property
    def _checking(self):
        return self.opts.invcheck and self._nocheck_depth == 0

    def _compile_for(self, var, a, st, b, body, span):
        a_f = _compile_int_expr(a, "loop start", self.opts.float_dtype)
        st_f = _compile_int_expr(st, "loop step", self.opts.float_dtype)
        b_f = _compile_int_expr(b, "loop stop", self.opts.float_dtype)
        body_f = self._compile_block(body) if body.stmts else _noop
        stats = self.stats
        tick = self._tick

        def run(frame):
            n1, n2, n3 = a_f(frame), st_f(frame), b_f(frame)
            if n2 == 0:
                raise RevDomainError("loop step is zero", span)
            bindings = frame.bindings
            if var in bindings:
                raise DuplicateBinding(
                    f"loop variable {var!r} shadows an existing binding", span)
            x = n1
            checking = self._checking
            try:
                if n2 > 0:
                    while x <= n3:
                        tick(span)
                        bindings[var] = x
                        body_f(frame)
                        if checking and bindings.get(var) != x:
                            raise LoopIteratorMutated(
                                f"loop variable {var!r} was modified in the "
                                f"body", span)
                        x += n2
                else:
                    while x >= n3:
                        tick(span)
                        bindings[var] = x
                        body_f(frame)
                        if checking and bindings.get(var) != x:
                            raise LoopIteratorMutated(
                                f"loop variable {var!r} was modified in the "
                                f"body", span)
                        x += n2
            finally:
                bindings.pop(var, None)
            if self._checking:
                if a_f(frame) != n1 or st_f(frame) != n2 or b_f(frame) != n3:
                    raise LoopIteratorMutated(
                        "loop range changed while the loop ran", span)
                stats.checks_passed["iterator"] += 1
        return run

    def _compile_update(self, instr, arg_views, span, pairs, grad_pairs=()):
        """The closure of an instruction or a statement primitive: read the
        arguments, check the alias `pairs` (in gradient frames also
        `grad_pairs`), apply the instruction's numerics rule and write back
        the updated views: an instruction's target, or every argument of a
        primitive."""
        dtype = self.opts.float_dtype
        readers = [_compile_expr(a, dtype) if isinstance(a, Lit)
                   else _compile_reader(a, dtype) for a in arg_views]
        updated = arg_views if instr.fname is None else arg_views[:1]
        writers = [_compile_writer(a, dtype) for a in updated]
        strict = self._alias_checks(arg_views, span, pairs)
        grad = self._alias_checks(arg_views, span, [*pairs, *grad_pairs]) \
            if grad_pairs else strict
        rule = instr_rule(instr)
        checks_passed = self.stats.checks_passed
        if strict is None and grad is None and len(writers) == 1:
            wr, = writers
            return lambda frame: wr(frame, rule([r(frame) for r in readers])[0])

        def run(frame):
            vals = [r(frame) for r in readers]
            checks = grad if frame.grad else strict
            if checks is not None:
                for chk in checks:
                    chk(frame)
                checks_passed["alias"] += 1
            for wr, nv in zip(writers, rule(vals)):
                wr(frame, nv)
        return run

    def _compile_call(self, fname, arg_views, span, uncall):
        if fname in PRIM_STATEMENTS:
            return self._compile_update(
                PrimitiveInstr(PRIM_INVERSE[fname] if uncall else fname),
                arg_views, span,
                [(i, j, f"{fname} arguments may not share memory")
                 for i in range(len(arg_views))
                 for j in range(i + 1, len(arg_views))])
        callee = inverse_name(fname) if uncall else fname
        dtype = self.opts.float_dtype
        readers = [_compile_reader(a, dtype) for a in arg_views]
        writers = [_compile_writer(a, dtype) for a in arg_views]
        strict = [(i, j, "call arguments may not share memory")
                  for i in range(len(arg_views))
                  for j in range(i + 1, len(arg_views))]
        checks = self._alias_checks(arg_views, span, strict)
        get_function = self._function
        stats = self.stats

        def run(frame):
            body, names, fspan = get_function(callee)
            if checks is not None:
                for chk in checks:
                    chk(frame)
                stats.checks_passed["alias"] += 1
            sub = Frame(callee, frame.grad)
            b = sub.bindings
            for n, rd in zip(names, readers):
                b[n] = rd(frame)
            body(sub)
            if len(b) != len(names):
                leftover = sorted(set(b) - set(names))
                raise DirtyAncilla(
                    f"bindings leaked from {callee}: {leftover}", span)
            for n, wr in zip(names, writers):
                wr(frame, b[n])
        return run


def _noop(frame):
    return None


# --- public operations --------------------------------------------------

def run(program, fname, args, opts=None):
    """Execute a function forward; returns the updated arguments in order."""
    return Interpreter(program, opts).run_function(fname, list(args))


def uncall(program, fname, args, opts=None):
    """Execute the inverse of a function: uncall(f, run(f, a)) == a."""
    return Interpreter(program, opts).uncall_function(fname, list(args))


@dataclass
class CheckReport:
    fname: str
    ok: bool
    max_deviation: float
    error: str = None
    per_arg_deviation: list = None
    checks_passed: dict = None

    def to_json(self):
        return json.dumps({
            "function": self.fname,
            "ok": self.ok,
            "max_deviation": self.max_deviation,
            "error": self.error,
            "per_arg_deviation": self.per_arg_deviation,
            "checks_passed": self.checks_passed,
        }, sort_keys=True)


def check_reversibility(program, fname, args, opts=None):
    """Run f then ~f and report the componentwise deviation from the
    original arguments; runtime errors are embedded, not raised."""
    opts = opts or ExecOptions()
    original = [deep_copy(a) for a in args]
    interp = Interpreter(program, opts)
    try:
        mid = interp.run_function(fname, [deep_copy(a) for a in args])
        back = interp.uncall_function(fname, mid)
        per_arg = [deviation(o, r) for o, r in zip(original, back)]
        worst = max(per_arg, default=0.0)
        ok = all(
            values_close(o, r, opts.float_tolerance)
            for o, r in zip(original, back))
        return CheckReport(fname, ok, worst, None, per_arg,
                           dict(interp.stats.checks_passed))
    except RevLangError as err:
        return CheckReport(fname, False, float("inf"), str(err), None,
                           dict(interp.stats.checks_passed))
