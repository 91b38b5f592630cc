"""Evaluator for the reversible IR.

Forward execution follows the statement semantics directly; backward
execution is forward execution of the mechanically inverted function, so
there is one evaluator and no runtime stack. Reversibility checks
(branch postconditions, clean ancilla release, unchanged loop iterators,
alias rejection) are observers: on a passing program, disabling them
changes nothing but speed.

Each function and each inverse is lowered, on first use, to Python
(`_Lowering` emits its source; `compile` and `exec` make it), from its
definition with each call of a function called at no other site inlined
(`reverser.Inliner`; a traced unit lowers the definitions as written), by
one emitter at two fact sets: its specialised body at the facts its entry
guard checks, and its generic body at no entry facts, in a forward unit
without gradient code or in the gradient unit, which serves the passes
whose arguments carry a GVar. Variables are Python locals, bound
statically: `validate` balances every allocation in its block, so an
allocation of a bound name, or a read or release of an unbound one, is
emitted as the error it raises. Check code runs when the flag `chk` is
set: the interpreter's `invcheck`, passed on to callees, and False
inside `@invcheckoff`, where none is emitted; alias checks always run.
A release in a gradient body undoes an allocation, so it also carries
the ancilla's cotangent to the variables its initialiser reads
(`_Lowering.carry`), checks on or off.

An array cell is at the flat offset `_offset` computes, which raises what
`Array.get` raises. A cell of a bound array at Int literals and bound
variables is covered by a bounds guard (`_Lowering.cover`): a local, set
at function or region entry, or once before a loop for every value of its
variable, that is true when `_offset` would find each cell it covers on
its fast path. Its scope rebinds none of its variables. Under a true
guard a cell is `a.data[k]`, its offset `k` computed where the guard is
set, and two cells of one array alias when their offsets are equal; under
a false guard the access calls `_offset`, `_get` or `_set` as any cell
does, so errors, spans, fuel and `ExecStats` are those of that path.

A `+=`/`-=` gets an inline arm, emitted by `arm`, with the guards of
its cells true: forward, on operands of the run's exact float type
(`float`, or `float_dtype`), the one arm that tests kinds when it runs;
in a binary64 gradient body, only where the facts prove its kinds
(`adjoint`). `operands` decides which operands an arm can read.
`_INLINE`'s functions are operators, and the other float functions host
calls (`_HOST`): `a / b`, the `math` function in binary64 and the numpy
ufunc of its `values.s_*` function in binary32, made where its
precondition holds (`x >= 0` for `sqrt`, `x > 0` for `log`, a nonzero
divisor; a literal settles it when emitted), the generic function where
it fails, so that values, types and errors are the generic function's.
The gradient arm emits each partial inline from `_PARTIALS`, under the
conditions that template states, and calls the partials and
`adjoint_accumulate` where one fails. `INC`/`DEC` of a proven Int is
inline too (`step`), and so is `ROT`/`IROT` on proven floats forward and
on proven G values in the gradient body (`turn`). Every other case, a
gradient update the facts do not prove included, calls the generic rule,
looked up as `numerics.apply_instr` when it runs, so each value kind
keeps one semantics. Expressions call what `numerics.expr_fn` resolves
(a host call over literals and variables proven floats, or a GVar's
value), and `numerics.compare`. An error carries the span of the
statement whose line it escaped from; a host math error there becomes
`RevDomainError`.
A compound statement nested deeper than CPython compiles in one function
becomes a function of its own (`_Lowering.region`). The view helpers
(`read_view`, `write_view`, `canonical_view_identity`) lower their view
the same way, on a gradient unit of their float type that holds no
definitions, a Frame's bindings as locals; they and the gradient bodies
alone emit `strip_gvar`, around a value no fact proves. A statement that
may rebind a variable an index of one of its arguments reads is emitted
as the `AliasedArguments` it raises: its inverse would find another cell
there.

A body is emitted from a `_Flow`, the facts that hold at each of its
statements (the static analysis is in `analysis`). The entry guard of a
specialised body checks once per call, in Python (`_holds`, from the
function's entry in `_Unit`), the facts (`_wants`) of its parameters that
the statements would re-test: a parameter a `+=`/`-=` or a `ROT`/`IROT`
reads or writes has the unit's float fact, the run's float type exactly
forward and, in a binary64 gradient unit, "G", a GVar whose `x` and `g`
are `float`s; an index, a loop bound or an `INC`/`DEC` target is a plain
`int`; an indexed Array has its rank, and only cells with the float fact
where a cell is such an operand (a scan of its cells); a parameter passed
whole to a call has what the callee asks. A binary32 gradient unit asks
no float fact. `_Flow` carries the entry facts, if any, through the
body: a `+=`/`-=` of a float value keeps a float target a float (a Dual
value is the only one that changes it), and in a gradient unit one over
G, Int and literal operands keeps every G a G; an allocation from a
float or Int literal, or from a function of `_FLOAT_FNS` over proven
floats or GVar values, has its type (a G in a binary64 gradient body,
which makes it as `GVar(v, 0.0)`), a `for` with Int start and step
binds an Int; a fact dies at a statement primitive other than a proven
`INC`/`DEC` or `ROT`/`IROT`, at a call that may rebind its variable
(`_Unit.rebinds`), at any other write, and, for cells, at a write in
place that is not a proven float. Two names, or a name and a cell, may
share a GVar, so in a gradient unit every G fact dies where a statement
may change a GVar's kinds in place: an update or a rotation the facts do
not prove, a release whose cotangent carry they do not, and a call that
is not direct or passes an argument they do not prove. A call whose
arguments the facts prove on every pass over the loops around it to pass
the callee's guard goes straight to its specialised body, and its
arguments take the facts the callee leaves. A body drops every type test
a fact proves, decides a release of a proven float (a G's value) inline,
and in a gradient body one of a proven Int (calling `_release` when that
test fails), writes Int comparisons, Int arithmetic, `length` and `size`
as Python, reads a G's value as `.x` and an Int or an Array with no
`strip_gvar`, runs a `for` with Int start and step as a `range` loop,
and drops the loop variable's and the range's checks, and an `if (c,
~)`'s over Ints, where the body cannot trip them (counting them as
passed); fuel and every count are the same at any facts. Every body is a
function `f(I, chk, F, *args)` and tests no entry fact. A function's
first call in a unit decides from the guard's facts alone, before any
body or flow is built, which body it lowers (`_Unit`). The entry tests
the guard on every call, and lowers each body on the first call that
needs it: a failed guard fixes no body, since one program's passes may
carry different kinds (a Jacobian's binary64 GVars, a Hessian's GVars of
Duals). An entry that asks nothing is the specialised body itself.

An inlined call (`Inlined`) takes the call's step, checks the call's
argument aliases and makes the reads of its arguments that can fail, at
the call's span, then runs the callee's statements, whose variables are
renamed (`ir.shown` gives the name an error message prints).

Fuel is charged by the run. Each executed statement takes one step, and
each iteration of a loop one more. A run is a maximal sequence of steps
with no call inside: it ends with the step of a call that is not
inlined, an `if` or a loop, or at the end of its block; a loop
iteration's step starts its body's first run, and a region's steps are
its own. The first step of a run
charges all n of its steps inline, a test and a subtraction on the
pass's `_Fuel` (`F.left -= n if F.left >= n else _short()`), and the
others emit no code. A charge that finds fewer than n steps left raises
`_Short` and spends none; `_fail` then runs the run's per-statement
code, compiled from its lines at its first shortage, over the frame's
locals (`_Lines.shortage`). That code takes one step per statement, and
ends in the `FuelExhausted` of the statement that finds none left, or in
the error an earlier statement raises; it never returns. An error that
escapes statement j of a run gives back the n - j steps the run charged
and did not take. A body, and a region, counts the checks it passes in
local ints, one for each kind it counts (`_COUNTERS`), and adds them
into `ExecStats.checks_passed` once, in the `finally` clause around its
statements, as it returns or raises; the per-statement code of a run
counts and adds the checks it passes itself. So `ExecStats.steps`,
spans and checks are those of fuel taken and checks counted per
statement.

A Program keeps (`Program.compiled`, dropped by `Program.add`) the
definitions its first unit validates, expands and inverts, once, and
its units, one per float type and trace setting, which lower them (the
lowered code reads `invcheck`, `float_tolerance` and `max_steps` when
it runs).
"""


import json
import math
import re
from dataclasses import dataclass, field
from itertools import groupby
from numbers import Integral
from operator import length_hint

import numpy as np

# the lowered code runs with this module's globals and names some of these
# imports (errors it raises, `compare`, `Complex`, `numerics`) and the
# helpers below
from . import numerics
from .analysis import (_HOST, _INLINE, _INT_OPS, _PARTIALS, _Flow,
                       _alias_pairs, _clash, _etype, _fact_of, _float_value,
                       _id_path, _implies, _is_int_lit, _reads, _rebinding,
                       _rebound, _touched, _typed_rotation, _typed_update,
                       _wants)
from .errors import (NO_SPAN, AliasedArguments, AssertFailed, DirtyAncilla,
                     DuplicateBinding, FuelExhausted, KindError,
                     LoopIteratorMutated, PostconditionMismatch,
                     RevDomainError, RevLangError, UnboundVariable,
                     UnknownFunction, ValidationFailed)
from .ir import (SAME_AS_PRE, AncillaAlloc, AncillaDealloc, Bin, BijView,
                 Block, Call, FieldView, FnCall, For, If, IndexView, Inlined,
                 InstrCall, InvCheckOff, Lit, Safe, Un, UncallFn, VarView,
                 ViewRef, While, inverse_name, shown, validate, view_root)
from .numerics import (BIJECTORS, INSTR_BIN_OPS, INSTR_FNS, PRIM_INVERSE,
                       PRIM_STATEMENTS, PrimitiveInstr, adjoint_accumulate,
                       carries_gvar, compare, expr_fn, release_adjoint,
                       strip_gvar, unwrap_gvar, wrap_gvar)
from .reverser import Inliner, invert_function
from .values import (Array, Complex, GVar, Record, deep_copy, deviation,
                     is_bool, is_int, json_float, kind_name, values_close,
                     worst_deviation)


@dataclass
class ExecOptions:
    invcheck: bool = True
    float_tolerance: float = 1e-9
    max_steps: int = 500_000_000
    trace: bool = False
    float_dtype: object = None      # e.g. numpy.float32 for binary32 runs
    trace_sink: object = None       # list to append trace lines to

    def __post_init__(self):
        if not self.float_tolerance >= 0:   # NaN too
            raise ValueError("float_tolerance must be non-negative")
        if not isinstance(self.max_steps, Integral) or self.max_steps <= 0:
            raise ValueError("max_steps must be a positive integer")
        self.max_steps = int(self.max_steps)   # np.int64 too


@dataclass
class ExecStats:
    steps: int = 0
    checks_passed: dict = field(default_factory=lambda: {
        "postcondition": 0, "ancilla": 0, "iterator": 0, "alias": 0})


class Frame:
    """An environment for the view helpers: name -> value bindings."""

    __slots__ = ("bindings",)

    def __init__(self):
        self.bindings = {}


def ids_overlap(id_a, id_b):
    """True when two storage ids denote overlapping memory (equal, or one
    a prefix of the other, e.g. a whole array and one of its cells)."""
    n = min(len(id_a), len(id_b))
    return id_a[:n] == id_b[:n]


# --- runtime helpers called by the lowered code ------------------------------

def _fielded(v, what):
    if not isinstance(v, (Complex, Record)):
        raise KindError(f"{what} on {kind_name(v)}")
    return v


def _bool_of(v):
    if not is_bool(v):
        raise KindError(f"condition must be Bool, got {kind_name(v)}")
    return v


def _int(v, what):
    if not is_int(v):
        raise KindError(f"{what} must be an Int, got {kind_name(v)}")
    return v


def _ix(v):
    """A variable's value as an array index."""
    return _int(strip_gvar(v), "array index")


def _indexed(v):
    if not isinstance(v, Array):
        raise KindError(f"indexing into {kind_name(v)}")
    return v


def _unbound(name, span):
    raise UnboundVariable(f"{name!r} is not bound", span)


def _offset(a, *ixs):
    """The flat offset of the cell `a[ixs...]`, raising what `Array.get`
    raises after `_indexed` and `_ix`; plain in-bounds ints at rank 1 and
    2 take the fast path."""
    if type(a) is Array:
        shape = a.shape
        if len(ixs) == len(shape) == 1:
            i, = ixs
            if type(i) is int and 0 < i <= shape[0]:
                return i - 1
        elif len(ixs) == len(shape) == 2:
            i, j = ixs
            if type(i) is int and type(j) is int and 0 < i <= shape[0] \
                    and 0 < j <= shape[1]:
                return (i - 1) * shape[1] + j - 1
    return _indexed(a)._offset(tuple([_ix(i) for i in ixs]))


def _rule(instr, vals):
    """The generic rule's new value of the first of `vals` (looked up as
    `numerics.apply_instr` when it runs)."""
    return numerics.apply_instr(instr, vals)[0]


def _get(a, *ixs):
    k = _offset(a, *ixs)
    return a.data[k]


def _set(v, a, *ixs):
    k = _offset(a, *ixs)
    a.data[k] = v


# the float types whose pairs `_release` decides itself, and with them
# `int`, whose pairs it decides by ==
_FLOATS = frozenset((float, np.float32, np.float64))
_DECIDED = _FLOATS | {int}


def _release(name, current, declared, tol, grad):
    """The release check of ancilla `name` (two floats of one type, or two
    ints, are decided here as `values_close` decides them: equal, or for
    floats within `tol` in binary64). Like the other checks here, it
    returns 1, the check passed, for the body to count."""
    if grad or type(current) is not type(declared) or not (
            current == declared and type(current) in _DECIDED
            or type(current) in _FLOATS
            and abs(float(current) - float(declared)) <= tol):
        residual = _ancilla_residual(current, declared, tol, grad)
        if residual is not None:
            raise DirtyAncilla(f"{name!r} released with residual {residual}",
                               name=name, residual=residual)
    return 1


def _branch(after, took):
    if after != took:
        raise PostconditionMismatch(
            f"branch postcondition is {after}, expected {took}")
    return 1


def _loop_post(ok, when):
    if not ok:
        raise PostconditionMismatch(f"loop postcondition {when}")
    return 1


def _loop_range(changed):
    if changed:
        raise LoopIteratorMutated("loop range changed while the loop ran")
    return 1


def _trace(interp, line):
    sink = interp.opts.trace_sink
    if sink is not None:
        sink.append(line)
    else:
        print(line)


class _Short(Exception):
    """A run's charge found fewer steps left than the run takes."""


def _short():
    raise _Short


class _Fuel:
    """The steps a pass may still take (`left`). The lowered code gets it
    as `F`: the head of a run of n steps charges them all inline, `F.left
    -= n if F.left >= n else _short()`, which raises `_Short`, and spends
    nothing, when fewer are left."""

    __slots__ = ("left",)

    def __init__(self, left):
        self.left = left


# the kinds of passed checks, and the local that counts each in a body
_COUNTERS = {"postcondition": "_post", "ancilla": "_anc",
             "iterator": "_iter", "alias": "_alias"}


def _flush(kinds):
    """The line that adds a body's counters of `kinds` into its pass's
    `checks_passed`: where `chk` is false only alias checks count."""
    if len(kinds) == 1:
        kind, = kinds
        line = f"I.stats.checks_passed[{kind!r}] += {_COUNTERS[kind]}"
    else:
        line = "cp = I.stats.checks_passed" + "".join(
            f"; cp[{k!r}] += {n}" for k, n in _COUNTERS.items() if k in kinds)
    return line if "alias" in kinds else "if chk: " + line


class _Lines:
    """What `_fail` reads of one compiled `_make`, by line number: the span
    of the statement a line was emitted for (`spans`), the steps of the
    line's run after its own (`back`: a line that has some), and the
    per-statement code of each run, at the line of its charge (`runs`:
    its lines, compiled at its first shortage, with the flush of every
    counter)."""

    __slots__ = ("spans", "back", "runs")

    def __init__(self, spans, back, runs):
        self.spans, self.back, self.runs = spans, back, runs

    def shortage(self, k, frame, fuel):
        """Run the run charged at line `k` statement by statement, each
        taking one step of `fuel`, over the locals of `frame`, where its
        charge found too few: it raises the `FuelExhausted` of the
        statement that finds none left, or the error an earlier one
        raises. Its counters start at 0, and it adds the checks it passes
        into `checks_passed` itself (the frame adds its own)."""
        run = self.runs[k]
        if type(run) is list:   # its first shortage
            body = "".join(f" {' ' * d}{t}\n" for d, t, _ in run)
            run = self.runs[k] = (
                _Lines((NO_SPAN, NO_SPAN, *[s for _, _, s in run]), {}, {}),
                compile(f"try:\n{body}except BaseException as e:\n"
                        f" _fail(e, _LS, I, F)\n raise\nfinally:\n"
                        f" {_flush(_COUNTERS)}", "<revlang>", "exec"))
        lines, code = run
        steps = iter(range(fuel.left))
        try:
            exec(code, globals(), {**frame.f_locals, "_LS": lines, "F": steps,
                                   **dict.fromkeys(_COUNTERS.values(), 0)})
        finally:
            fuel.left = length_hint(steps)


def _fail(err, lines, I, F):
    """Called in the except clause of a lowered function (`lines`, its
    `_Lines`; `F`, the pass's `_Fuel`), before its `finally` clause adds
    its counters into `checks_passed`: gives back the steps that the run
    of the line the error escaped from charged and did not take; gives a
    RevLangError without a span the span of that line's statement; and
    raises there a `FuelExhausted` for a `StopIteration` of the
    per-statement code and a `RevDomainError` for a host math error. A
    `_Short` runs the run's per-statement code (`_Lines.shortage`), which
    raises."""
    tb = err.__traceback__
    k = tb.tb_lineno
    if type(err) is _Short:
        lines.shortage(k, tb.tb_frame, F)
    if back := lines.back.get(k):
        F.left += back
    span = lines.spans[k]
    if isinstance(err, RevLangError):
        if err.span is NO_SPAN:
            err.span = span
    elif type(err) is StopIteration:   # this statement found no fuel left
        I.stats.steps += 1
        raise FuelExhausted(f"exceeded {I.opts.max_steps} statement "
                            f"executions", span) from None
    elif isinstance(err, (ArithmeticError, ValueError)):
        # a host math error: an overflow, or math.sin(inf)
        raise RevDomainError(str(err), span) from None


def _ancilla_residual(current, declared, tol, grad):
    """None when the ancilla may be released; otherwise the residual.

    Only primal content is compared: in a gradient body (`grad`) a
    tracked ancilla's cotangent at release is the sensitivity to its
    initial value, which `release_adjoint` carries on to the variables
    that value was computed from. The release passes
    when the two are `values_close` (discrete kinds exactly, float-backed
    kinds within the tolerance, NaN never); the residual is their
    `deviation`, inf when `deviation` cannot compare their kinds."""
    if grad:
        current, declared = unwrap_gvar(current), unwrap_gvar(declared)
    if values_close(current, declared, tol):
        return None
    try:
        return deviation(current, declared)
    except KindError:
        return float("inf")


# --- the emitter ---------------------------------------------------------------

def _call_pairs(views):
    """The alias checks of a call's arguments (`_alias_pairs`)."""
    return _alias_pairs(views, [
        (i, j, "call arguments may not share memory")
        for i in range(len(views)) for j in range(i + 1, len(views))])


class _Scope:
    """A guard scope: the body of a function, of a region or (with `loop`:
    the loop variable, the lowest and the highest value of its range, and
    the facts that make it an Int) of a `for`. Its guard, the local named
    `guard`, covers the `cells` none of whose variables it may rebind
    (`rebound`, which holds each variable it binds, by an allocation or a
    `for`). It is set at line `start`, or, for a loop, once at line
    `head`, before the loop; `known`: the facts there."""

    __slots__ = ("rebound", "start", "head", "guard", "loop", "cells",
                 "rows", "vars", "known")

    def __init__(self, stmts, start, guard, loop=None, head=None, known=None):
        self.known = known
        self.rebound = stmts   # the variables they rebind, once asked
        self.start, self.head, self.guard, self.loop = start, head, guard, loop
        self.cells = {}      # (array, indices) -> offset
        self.rows = {}       # (array, first index) -> its offset's local
        self.vars = set()    # the variables the cells read


class _Step(str):
    """The text of a step's line: a run's first step is its charge of its
    `n` steps (see `_Fuel`); a later step is "", and is no line of the
    compiled code."""

    def __new__(cls, n=0):
        step = super().__new__(
            cls, f"F.left -= {n} if F.left >= {n} else _short()" if n else "")
        step.n = n
        return step


class _Lowering:
    """Emits the Python source of one lowered function and compiles it.

    `unit`, a `_Unit`, supplies the options the code depends on (`grad`:
    a gradient unit's), and `flow`, a `_Flow`, the body's facts, which the
    code reads as `known` at each point. The view helpers lower without a
    flow, on a gradient unit that holds no definitions, so their values
    may carry GVars."""

    def __init__(self, unit, flow=None):
        self.unit, self.flow, self.known = unit, flow, {}
        self.grad, self.real = unit.grad, unit.real
        self.dtype = unit.dtype
        self.consts = {}         # id(value) -> (name, value)
        self.float = "float" if self.dtype is None else self.const(self.dtype)
        self.checks = True       # check code is emitted
        self.lines = []          # (indent, text, span)
        self.depth = 3           # a body's lines: in `_make`, `def`, `try`
        self.span = NO_SPAN      # of the statement being emitted
        self.names = {}          # .rnl variable -> Python local
        self.bound = set()       # .rnl variables bound at this point
        self.ntemp = 0
        self.counted = set()     # the kinds of passed checks it counts
        self.loops = 0           # loops around the point of emission
        self.regions, self.nregions = [], 0   # see `region`
        # the open guard scopes, outermost first, and the index of the
        # function's or region's own
        self.scopes, self.root = [], 0
        self.plain = False       # no cell is covered (see `update`)
        self.nguard = 0
        self.run = None          # the open run: [its charge's line, steps]

    # --- bookkeeping ---

    def emit(self, text):
        self.lines.append((self.depth, text, self.span))

    def const(self, value, name=None):
        # numbers, tuples of them and instructions by value (repr tells
        # -0.0 from 0.0)
        key = (type(value), repr(value)) if isinstance(
            value, (tuple, float, np.floating, PrimitiveInstr)) else id(value)
        entry = self.consts.get(key)
        if entry is None:
            entry = self.consts[key] = \
                (name or f"_k{len(self.consts)}", value)
        return entry[0]

    def temp(self):
        self.ntemp += 1
        return f"_t{self.ntemp}"

    def local(self, name):
        if name not in self.names:
            self.names[name] = \
                f"v{len(self.names)}_" + re.sub(r"[^A-Za-z0-9_]", "_", name)
        return self.names[name]

    def counter(self, kind):
        """The local that counts the passed checks of `kind`."""
        self.counted.add(kind)
        return _COUNTERS[kind]

    def build(self, defs):
        """Compile the function definitions `defs` (lines at depth 1 and
        deeper) inside `_make`, which closes over the constants and the
        `_Lines` of the code, and return their `f`. A line's span is that
        of the statement it was emitted for. A run's steps (`_Step`) are
        its charge; its per-statement code is its lines up to its last
        step, with each step taking one item of an iterator `F`."""
        lines = [(0, "def _make(" + ", ".join(
            [name for name, _ in self.consts.values()] + ["_LS"]) + "):",
                  NO_SPAN), *defs, (1, "return f", NO_SPAN)]
        src, spans, back, runs = [], [NO_SPAN], {}, {}
        left = 0   # the steps of the current run after the last one passed
        for d, t, s in lines:
            k = len(spans)
            if type(t) is _Step:
                if t:
                    run = runs[k] = []
                    top, left = d, t.n
                left -= 1
                run.append((d - top, "next(F)", s))
                if not t:
                    continue
            elif left:
                back[k] = left
                run.append((d - top, t, s))
            src.append(" " * d + t)
            spans.append(s)
        ns = {}
        exec(compile("\n".join(src), "<revlang>", "exec"), globals(), ns)
        return ns["_make"](*[v for _, v in self.consts.values()],
                           _Lines(tuple(spans), back, runs))

    def view(self, params):
        """`f(params)` running the emitted lines (the view helpers)."""
        return self.build([(1, f"def f({params}):", NO_SPAN), *self.lines])

    def wrapped(self, name, params, body, results):
        """`def name(params)` running the emitted lines `body` under the
        handler that calls `_fail`, then returning `results`. The checks
        it passes are counted in locals, which start at 0 and are added
        into `checks_passed` once, as it returns or raises."""
        kinds = self.counted
        return [(1, f"def {name}({', '.join(params)}):", NO_SPAN),
                *[(2, "".join(_COUNTERS[k] + " = " for k in _COUNTERS
                              if k in kinds) + "0", NO_SPAN)] * bool(kinds),
                (2, "try:", NO_SPAN), *body,
                (2, "except BaseException as e:", NO_SPAN),
                (3, "_fail(e, _LS, I, F)", NO_SPAN), (3, "raise", NO_SPAN),
                *[(2, "finally:", NO_SPAN),
                  (3, _flush(kinds), NO_SPAN)] * bool(kinds),
                (2, f"return ({''.join(r + ', ' for r in results)})",
                 NO_SPAN)]

    # --- functions ---

    def function(self, fdef):
        """The body `f(I, chk, F, *args) -> args`, which assumes its flow's
        entry facts (`_Unit` tests them). `F` is the pass's `_Fuel`: the
        first step of each run charges all its steps; the per-statement
        code of a run that finds fewer left takes them one by one (see
        the module docstring). Calls go to the
        callee's entry in the unit (`_fns`) or, where the flow proves its
        guard, straight to its specialised body (`_B`)."""
        self.const(self.unit, "_fns")
        params = [self.local(p) for p in fdef.param_names()]
        self.bound = set(fdef.param_names())
        self.known = {p: w for p, w in zip(fdef.param_names(), self.flow.want)
                      if w}
        self.open(fdef.body.stmts)
        self.body(fdef.body)
        self.close()
        return self.build([*self.wrapped("f", ["I", "chk", "F", *params],
                                         self.lines, params), *self.regions])

    def kind(self, e):
        """The fact of an expression's value."""
        return _etype(e, self.known)

    def region(self, s):
        """Emit the compound statement `s` as a function of its own, called
        here with the bound variables and returning them: CPython compiles
        at most 20 nested loop and try blocks, and 100 indentation levels,
        in one function. Its body is a guard scope of its own, and it
        counts the checks it passes in its own locals."""
        self.end()   # the region takes its own steps
        name, names = f"_g{self.nregions}", \
            [self.names[n] for n in sorted(self.bound)]
        self.nregions += 1
        outer = self.lines, self.depth, self.loops, self.root, self.counted
        self.lines, self.depth, self.loops = [], 3, 0
        self.root, self.counted = len(self.scopes), set()
        self.open([s])
        self.stmt(s, region=False)
        self.close()
        self.regions += self.wrapped(name, ["I", "chk", "F", *names],
                                     self.lines, names)
        self.lines, self.depth, self.loops, self.root, self.counted = outer
        outer, self.span = self.span, s.span
        call = f"{name}(I, chk, F{''.join(', ' + n for n in names)})"
        self.emit(f"{''.join(n + ', ' for n in names)}= {call}" if names
                  else call)
        self.span = outer

    def body(self, block):
        """The statements of a block, at the current depth, in a scope of
        their own."""
        saved = set(self.bound)
        if not block.stmts:
            self.emit("pass")
        for s in block.stmts:
            self.stmt(s)
        self.end()
        self.bound = saved

    def indented(self, block):
        self.depth += 1
        self.body(block)
        self.depth -= 1

    def tick(self):
        """A step: the first opens a run (see the module docstring)."""
        if self.run is None:
            self.run = [len(self.lines), 0]
        self.run[1] += 1
        self.emit(_Step())

    def end(self):
        """Close the open run: its first step charges all its steps."""
        if self.run is not None:
            k, n = self.run
            d, _, span = self.lines[k]
            self.lines[k] = (d, _Step(n), span)
            self.run = None

    # --- bounds guards (see the module docstring) ---

    def open(self, stmts, loop=None, head=None, rebound=None):
        """Open the scope of the statements `stmts` here; a loop's guard is
        set before its line `head`. `rebound`: the variables the statements
        may rebind, when already known."""
        self.nguard += 1
        self.scopes.append(_Scope(stmts if rebound is None else rebound,
                                  len(self.lines), f"_b{self.nguard}", loop,
                                  head, self.known))

    def cover(self, view):
        """(guard, offset) of the cell `view` when a guard covers it, else
        None: the guard of the outermost scope of the function (or region)
        that rebinds none of the cell's variables. Its offset is an
        expression, or a row's local set with the guard."""
        base = view.base
        if type(base) is not VarView or len(view.indices) > 2 or self.plain:
            return None
        atoms, names = [], {base.name}   # an index: Int literal or name
        for e in view.indices:
            if type(e) is Lit and type(e.value) is int and e.value >= 1:
                atoms.append(e.value)
            elif type(e) is ViewRef and type(e.view) is VarView:
                atoms.append(e.view.name)
                names.add(e.view.name)
            else:
                return None
        if not names <= self.bound:
            return None
        for k in range(self.root, len(self.scopes)):
            scope = self.scopes[k]
            if type(scope.rebound) is not set:
                scope.rebound = _rebinding(scope.rebound,
                                           self.unit.defs.rebinds)
            if names.isdisjoint(scope.rebound):
                break
        else:
            return None
        scope.vars |= names
        key = base.name, tuple(atoms)
        off = scope.cells.get(key)
        if off is None:
            x = atoms[-1]
            off = repr(x - 1) if type(x) is int else f"{self.names[x]} - 1"
            x = atoms[0]
            if len(atoms) == 2 and x != 1:   # a row's offset is a local
                row = scope.rows.get((key[0], x))
                if row is None:
                    self.nguard += 1
                    row = scope.rows[key[0], x] = f"_o{self.nguard}"
                off = row if off == "0" else f"{row} + {off}"
            scope.cells[key] = off
        return scope.guard, off

    def close(self):
        """Set the guard of the innermost scope, and its rows' offsets: a
        loop's before the loop, over the loop variable's range (the
        offsets of its rows on each iteration)."""
        scope = self.scopes.pop()
        if not scope.cells:
            return
        g, loop = scope.guard, scope.loop
        var = loop and loop[0]
        rows = [(x == var, f"{o} = ({self.names[x] if type(x) is str else x}"
                           f" - 1) * {self.names[array]}.shape[1]")
                for (array, x), o in scope.rows.items()]

        def put(k, test, rows):   # before line k
            d, _, span = self.lines[k]
            self.lines[k:k] = [(d, test, span),
                               *[(d + 1, r, span) for r in rows]]
        test = self.test(scope, var in scope.vars and loop)
        if each := [r for each, r in rows if each]:
            put(scope.start, f"if {g}:", each)
        rows = [r for each, r in rows if not each]
        put(scope.start if loop is None else scope.head,
            f"if {g} := {test}:" if rows else f"{g} = {test}", rows)

    def test(self, scope, loop=None):
        """The test of a scope's guard: each of its cells is in bounds at
        Int indices. With `loop` (the scope's), the loop variable's facts
        hold for every value of its range: it is an Int, and its range
        lies within the array's extent."""
        var, lo, hi, facts = loop or (None, None, None, [])
        facts = list(facts)
        if var and not (lo.isdigit() and int(lo) >= 1):
            facts.append(f"1 <= {lo}")
        shapes = {}   # (array, rank) -> the indices of each dimension
        for array, atoms in scope.cells:
            for d, x in enumerate(atoms):
                shapes.setdefault((array, len(atoms)), [set(), set()])[d].add(x)
        ints = {x for x in scope.vars if scope.known.get(x) == "I"}
        for (array, rank), dims in shapes.items():
            a = self.names[array]
            if not _implies(scope.known.get(array), ("A", rank, None)):
                facts += [f"type({a}) is Array", f"len({a}.shape) == {rank}"]
            for d, atoms in enumerate(dims[:rank]):
                n = f"{a}.shape[{d}]"
                lits = [x for x in atoms if type(x) is int]
                if lits:
                    facts.append(f"{max(lits)} <= {n}")
                for x in sorted(x for x in atoms if type(x) is str):
                    if x == var:
                        facts.append(f"{hi} <= {n}")
                        continue
                    if x not in ints:
                        ints.add(x)
                        facts.append(f"type({self.names[x]}) is int")
                    facts.append(f"0 < {self.names[x]} <= {n}")
        return " and ".join(facts)

    def raise_(self, cls, message):
        self.emit(f"raise {cls.__name__}({message!r})")

    # --- statements ---
    # A check raises its error without a span: `_fail` gives it the span of
    # the line's statement.

    def stmt(self, s, region=True):
        known, self.known = self.known, self.flow.at[id(s)][0]
        if region and isinstance(s, (If, While, For, Block)) and (
                self.loops >= 16 or self.depth >= 3 + 64):
            self.region(s)
            self.known = known
            return
        outer, self.span, ntemp = self.span, s.span, self.ntemp
        self.tick()
        if isinstance(s, (If, While, For)) or isinstance(
                s, (FnCall, UncallFn)) and s.fname not in PRIM_STATEMENTS:
            self.end()   # a call, an `if` or a loop ends its run
        if self.unit.trace:
            line = f"{s.span.line}:{s.span.col}\t{type(s).__name__}\t" \
                   f"{_touched(s)}"
            self.emit(f"_trace(I, {line!r})")
        match s:
            case InstrCall() | FnCall() | UncallFn() if (
                    clash := _clash(s, self.unit.defs.rebinds)):
                self.raise_(AliasedArguments,
                            f"{', '.join(map(repr, clash))} indexes an "
                            f"argument of a statement that may rebind it")
            case InstrCall(op=op, fname=fname, args=args):
                n = len(args)
                self.update(
                    PrimitiveInstr(op, fname), args,
                    [(0, i, "an instruction's target may not alias its inputs")
                     for i in range(1, n)],
                    # a gradient body also rejects shared reads
                    [(i, j, "shared reads are rejected under differentiation: "
                            "their gradient update would be a shared write "
                            "(rewrite y += x * x as y += x ^ 2)")
                     for i in range(1, n) for j in range(i + 1, n)])
            case AncillaAlloc(name=name, expr=e):
                if name in self.bound:
                    self.raise_(DuplicateBinding,
                                f"{shown(name)!r} is already bound")
                else:
                    value, kind = self.expr(e), self.kind(e)
                    if self.real == "G" and kind == "F":
                        value = f"GVar({value}, 0.0)"
                    elif self.grad and kind != "I":
                        value = f"wrap_gvar({value})"
                    self.bound.add(name)
                    self.emit(f"{self.local(name)} = {value}")
            case AncillaDealloc(name=name, expr=e):
                if name not in self.bound:
                    self.raise_(UnboundVariable,
                                f"{shown(name)!r} is not bound")
                else:
                    if self.checks:
                        self.release(name, e)
                    if self.grad:
                        self.carry(self.names[name], e)
                self.bound.discard(name)
            case FnCall(fname=fname, args=args):
                self.call(fname, args, False)
            case UncallFn(fname=fname, args=args):
                self.call(fname, args, True)
            case Inlined():
                self.inline(s)
            case If():
                self.if_(s)
            case While():
                self.while_(s)
            case For():
                self.for_(s)
            case Safe(kind="assert", exprs=exprs):
                from .parser import fmt_expr
                for e in exprs:
                    self.emit(f"if not {self.cond(e)}: raise AssertFailed("
                              f"{'assertion failed: ' + fmt_expr(e)!r})")
            case Safe(exprs=exprs):
                self.emit(f"print({', '.join(map(self.expr, exprs))})")
            case InvCheckOff(stmt=inner):
                checks, self.checks = self.checks, False
                self.stmt(inner)
                self.checks = checks
            case Block():
                self.body(s)
            case _:
                raise KindError(f"cannot execute {type(s).__name__}", s.span)
        # a statement's temporaries are free again after it: fewer distinct
        # names make `compile` cheaper
        self.span, self.ntemp, self.known = outer, ntemp, known

    def release(self, name, e):
        """The release check of ancilla `name` against `e`; two proven
        floats (a G's value in a gradient body) are decided inline, and in
        a gradient body two proven Ints, as `_release` decides them, which
        is called when that test fails (a computed `e` is evaluated
        once)."""
        y, d = self.names[name], self.expr(e)
        have, kind = self.known.get(name), self.kind(e)
        x = f"{y}.x" if have == "G" and kind == "F" else y if have == kind \
            and (kind == "F" or kind == "I" and self.grad) else None
        t = self.temp() if x and type(e) is not Lit \
            and type(e) is not ViewRef else d
        n = self.counter("ancilla")
        call = f"{n} += _release({shown(name)!r}, {y}, {t}, " \
               f"I.opts.float_tolerance, {self.grad})"
        if x is None:
            self.emit(f"if chk: {call}")
            return
        first = d if t == d else f"({t} := {d})"
        f = "{}" if self.dtype is None else "float({})"
        test = f"{x} == {first}" if kind == "I" else \
            f"{x} == {first} or abs({f.format(x)} - {f.format(t)}) <= " \
            f"I.opts.float_tolerance"
        self.emit("if chk:")
        self.emit(f" if {test}: {n} += 1")
        self.emit(f" else: {call}")

    def carry(self, c, e):
        """In a gradient body, the cotangent step (`release_adjoint`) of
        releasing `c`, an ancilla or a GVar temporary of a nested operand,
        against `e`, where `e` reads a variable and is not a proven Int:
        the release undoes an allocation, so the cotangent of the initial
        value reaches what that value was computed from."""
        if not any(_reads(e)) or self.kind(e) == "I":
            return
        fname, args = ("identity", (e,)) if type(e) is ViewRef else \
            ("neg", (e.operand,)) if type(e) is Un else \
            (INSTR_BIN_OPS.get(e.op, e.op), (e.left, e.right)) \
            if type(e) is Bin else (e.fname, e.args)
        xs, nested = [], []
        for a in args:
            if type(a) is ViewRef:
                xs.append(self.read(a.view))
            elif not any(_reads(a)):
                xs.append(self.expr(a))
            else:
                xs.append(self.temp())
                self.emit(f"{xs[-1]} = wrap_gvar({self.expr(a)})")
                nested.append((xs[-1], a))
        self.emit(f"release_adjoint({fname!r}, [{c}, {', '.join(xs)}])")
        for t, a in nested:
            self.carry(t, a)

    def after(self, s):
        """Make the facts after the compound statement `s` (at a loop's
        head: before each iteration and at its exit) the known ones."""
        self.known = self.flow.at[id(s)][1]

    def if_(self, s):
        """An `if`; its postcondition check is dropped, and counted as
        passed, where it cannot trip: the postcondition is the condition,
        which compares Int expressions of variables that no statement of
        either branch may rebind."""
        post = s.pre if s.post is SAME_AS_PRE else s.post
        fixed = post == s.pre and self.fixed(s.pre, s.then_block.stmts
                                             + s.else_block.stmts)
        took = self.cond(s.pre)
        if not fixed:   # its value is kept for `_branch`
            t = self.temp()
            self.emit(f"{t} = {took}")
            took = t
        self.emit(f"if {took}:")
        self.indented(s.then_block)
        if s.else_block.stmts:
            self.emit("else:")
            self.indented(s.else_block)
        if self.checks:
            self.after(s)
            if fixed:
                self.emit(f"if chk: {self.counter('postcondition')} += 1")
            else:
                self.emit(f"if chk: {self.counter('postcondition')} += "
                          f"_branch({self.cond(post)}, {took})")

    def fixed(self, e, stmts):
        """Whether the condition `e` compares Int expressions that read
        only variables, none of which the statements `stmts` may rebind
        (any other operator on Ints fails as a condition)."""
        if type(e) is not Bin or {self.kind(e.left),
                                  self.kind(e.right)} != {"I"}:
            return False
        views = [*_reads(e)]
        return all(type(v) is VarView for v in views) and {
            v.name for v in views}.isdisjoint(
                _rebinding(stmts, self.unit.defs.rebinds))

    def while_(self, s):
        self.after(s)
        pre, post = self.cond(s.pre), self.cond(s.post)
        if self.checks:
            self.emit(f"if chk: {self.counter('postcondition')} += "
                      f"_loop_post(not {post}, 'already true at entry')")
        self.emit(f"while {pre}:")
        self.depth += 1
        self.loops += 1
        self.tick()
        self.body(s.body)
        if self.checks:
            self.emit(f"if chk: {self.counter('postcondition')} += "
                      f"_loop_post({post}, 'false after an iteration')")
        self.depth -= 1
        self.loops -= 1

    def for_(self, s):
        """A `for`, as a `range` loop when its start and step are Ints;
        there the loop variable's check is dropped when no statement of the
        body may rebind it, and the range check when no statement may
        rebind a variable an Int bound reads (it is counted as passed)."""
        bounds = []    # (code, expression, what): an Int literal is code
        for e, what in ((s.start, "loop start"), (s.step, "loop step"),
                        (s.stop, "loop stop")):
            if _is_int_lit(e):
                bounds.append((repr(e.value), None, what))
            else:
                t = self.temp()
                self.emit(f"{t} = {self.expr(e)}" if self.kind(e) == "I"
                          else f"{t} = _int({self.expr(e)}, {what!r})")
                bounds.append((t, e, what))
        (a, start_e, _), (st, step_e, _), (b, _, _) = bounds
        if step_e is not None:
            self.emit(f"if {st} == 0: raise RevDomainError('loop step is "
                      f"zero')")
        elif s.step.value == 0:
            self.raise_(RevDomainError, "loop step is zero")
        if s.var in self.bound:
            self.raise_(DuplicateBinding, f"loop variable {shown(s.var)!r} "
                                          f"shadows an existing binding")
            return
        # the loop variable is an Int when its start and step are, and
        # takes values from `lo` to `hi`
        ints = [f"type({t}) is int" for t, e in ((a, start_e), (st, step_e))
                if e is not None and self.kind(e) != "I"]
        if step_e is None:
            lo, hi = (a, b) if s.step.value > 0 else (b, a)
        else:
            lo, hi = f"min({a}, {b})", f"max({a}, {b})"
        rebound = _rebinding(s.body.stmts, self.unit.defs.rebinds)
        mutable = bool(ints) or s.var in rebound
        head = len(self.lines)
        x, v = self.temp(), self.local(s.var)
        if not ints:
            stop = f"{b} + 1" if step_e is None and s.step.value > 0 else \
                f"{b} - 1" if step_e is None else \
                f"{b} + (1 if {st} > 0 else -1)"
            self.emit(f"for {x if mutable else v} in range({a}, {stop}"
                      f"{'' if st == '1' else ', ' + st}):")
        else:
            self.emit(f"{x} = {a}")
            if step_e is None:
                self.emit(f"while {x} {'<=' if s.step.value > 0 else '>='} "
                          f"{b}:")
            else:
                self.emit(f"while ({x} <= {b} if {st} > 0 else {x} >= {b}):")
        self.depth += 1
        self.loops += 1
        self.tick()
        if mutable:
            self.emit(f"{v} = {x}")
        self.bound.add(s.var)
        self.open(s.body.stmts, (s.var, lo, hi, ints), head, rebound)
        self.body(s.body)
        self.close()
        if self.checks and mutable:
            message = f"loop variable {shown(s.var)!r} was modified in " \
                      f"the body"
            self.emit(f"if chk and {v} != {x}: raise LoopIteratorMutated("
                      f"{message!r})")
        if ints:
            self.emit(f"{x} += {st}")
        self.depth -= 1
        self.loops -= 1
        self.bound.discard(s.var)
        if self.checks:
            # Int literal bounds cannot change, nor Int bounds whose
            # variables the body cannot rebind; the others are evaluated
            # again
            fixed = self.known
            self.after(s)
            changed = [f"_int({self.expr(e)}, {what!r}) != {t}"
                       for t, e, what in bounds if e is not None and not (
                           _etype(e, fixed) == "I" and all(
                               _rebound(w) not in rebound
                               for w in _reads(e)))]
            n = self.counter("iterator")
            self.emit(f"if chk: {n} += _loop_range({' or '.join(changed)})"
                      if changed else f"if chk: {n} += 1")

    def call(self, fname, views, uncall):
        if fname in PRIM_STATEMENTS:
            self.update(
                PrimitiveInstr(PRIM_INVERSE[fname] if uncall else fname),
                views, [(i, j, f"{fname} arguments may not share memory")
                        for i in range(len(views))
                        for j in range(i + 1, len(views))])
            return
        callee = inverse_name(fname) if uncall else fname
        checks = _call_pairs(views)
        fn = f"_fns[{callee!r}]"
        if self.flow.direct(callee, views, self.known):
            fn = f"{self.const(self.unit.bodies, '_B')}[{callee!r}]"
        if checks is not None:   # the callee is found before the checks
            self.emit(f"_f = {fn}")
            fn = "_f"
            self.alias_checks(views, checks)
        results = [self.local(v.name) if isinstance(v, VarView)
                   else self.temp() for v in views]
        self.emit(f"{''.join(r + ', ' for r in results)}= {fn}(I, "
                  f"{'chk' if self.checks else 'False'}, F"
                  f"{''.join(', ' + self.read(v) for v in views)})")
        for v, r in zip(views, results):
            if not isinstance(v, VarView):
                self.write(v, r)

    def inline(self, s):
        """An `Inlined` call: at the call's span, its alias check and the
        reads of its arguments that may fail, in order, as the call makes
        them (a cell under a true guard is in bounds); then the callee's
        statements, in the run that the call's step is in."""
        views, reads = s.call.args, []   # reads: (guard or None, read)
        self.alias_checks(views, _call_pairs(views))
        for v in views:
            if type(v) is IndexView:
                c = self.cover(v)
                reads.append((c and c[0], f"_offset({self.cell(v)})"))
            elif v.name not in self.bound:   # raises UnboundVariable
                reads.append((None, self.read(v)))
        for guard, run in groupby(reads, lambda read: read[0]):
            line = "; ".join(read for _, read in run)
            self.emit(line if guard is None else f"if not {guard}: {line}")
        for t in s.body.stmts:
            self.stmt(t)

    def update(self, instr, views, pairs, grad_pairs=()):
        """An instruction or a statement primitive: read the arguments,
        check the alias `pairs` (in a gradient body also
        `grad_pairs`), apply `numerics.apply_instr` and write back the
        updated views: an instruction's target, or every argument of a
        primitive."""
        checks = _alias_pairs(views, [*pairs, *grad_pairs] if self.grad
                              else pairs)
        arm = self.arm(instr, views, checks)
        if arm is False:
            arm = self.step(instr, views)
        if arm is False:
            arm = self.turn(instr, views, checks)
        if arm is None:   # an arm that the facts prove needs no generic rule
            return
        # behind an arm the generic rule reaches its cells as uncovered
        # cells, so a false guard runs the code it ran before guards
        self.plain = arm
        reads = ", ".join(self.lit(v.value) if isinstance(v, Lit)
                          else self.read(v) for v in views)
        rule = f"numerics.apply_instr({self.const(instr)}, {{}})"
        updated = views if instr.fname is None else views[:1]
        if checks is None and len(updated) == 1:
            self.write(updated[0], f"_rule({self.const(instr)}, [{reads}])")
        else:
            self.emit(f"_v = [{reads}]")
            self.alias_checks(views, checks)
            results = [self.temp() for _ in updated]
            self.emit(f"{''.join(r + ', ' for r in results)}*_ = "
                      f"{rule.format('_v')}")
            for v, r in zip(updated, results):
                self.write(v, r)
        self.depth -= arm
        self.plain = False

    def turn(self, instr, views, checks):
        """Emit the arm of a ROT/IROT whose operands the facts prove of the
        unit's float fact (`_typed_rotation`); returns None when it did,
        else False. It reads the operands in order and checks their
        aliases, as the generic rule's path does, then computes what the
        rule computes, in its order, with no type test: forward the
        rotation of `numerics._rotate` by theta (by -theta for IROT),
        written back to the two cells; in a gradient body what
        `numerics._rot_adjoint` computes on the two G cells or variables
        by the G angle: the angle's cotangent step, then the rotations of
        the values and of the cotangents, in place."""
        if instr.kind not in ("ROT", "IROT") or not _typed_rotation(
                self.real, views, self.known):
            return False
        a, b, th = (self.temp() for _ in views)
        for t, v in zip((a, b, th), views):
            self.emit(f"{t} = {self.read(v)}")
        self.alias_checks(views, checks)
        if self.grad:
            ax, ga, bx, gb, t, c, s = (self.temp() for _ in range(7))
            # IROT undoes a rotation by theta, ROT one by -theta
            delta, back = (f"-{bx} * {ga} + {ax} * {gb}", -1) \
                if instr.kind == "IROT" else (f"{bx} * {ga} - {ax} * {gb}", 1)
            self.emit(f"{ax}, {ga}, {bx}, {gb} = {a}.x, {a}.g, {b}.x, {b}.g")
            for line in (f"{th}.g = {th}.g + ({delta})",
                         f"{t} = {back} * {th}.x",
                         f"{c}, {s} = math.cos({t}), math.sin({t})",
                         f"{a}.x, {b}.x = {ax} * {c} - {bx} * {s}, "
                         f"{ax} * {s} + {bx} * {c}",
                         f"{a}.g, {b}.g = {ga} * {c} - {gb} * {s}, "
                         f"{ga} * {s} + {gb} * {c}"):
                self.emit(line)
            return None
        x, c, s = self.temp(), self.temp(), self.temp()
        cos, sin = map(self.const, (math.cos, math.sin) if self.dtype is None
                       else (np.cos, np.sin))
        if instr.kind == "IROT":
            self.emit(f"{x} = -{th}")
        else:
            x = th
        self.emit(f"{c}, {s} = {cos}({x}), {sin}({x})")
        self.write(views[0], f"{a} * {c} - {b} * {s}")
        self.write(views[1], f"{a} * {s} + {b} * {c}")
        return None

    def step(self, instr, views):
        """Emit INC/DEC of a bound variable that a fact proves an Int as
        Python; returns None when it did, else False."""
        v = views[0]
        if instr.kind not in ("INC", "DEC") or not isinstance(v, VarView) \
                or v.name not in self.bound or self.known.get(v.name) != "I":
            return False
        y = self.names[v.name]
        self.emit(f"{y} = {y} {'+' if instr.kind == 'INC' else '-'} 1")
        return None

    def operands(self, instr, views):
        """How an inline arm reads the operands of a +=/-=: per view
        `(value, read, cell, offset, sure)`, and the guards the arm needs;
        None when it cannot. A literal (int or float, not the target) is its
        `value`; a bound local is read and written by name; a cell of a
        bound local, indexed by at most two Int literals and bound
        variables, is read by `read` into the temporary `value` and
        written at `cell`, at its flat `offset`. When guards cover every
        cell, that is the offset they give; else it is a temporary, and,
        when it can, it emits the statements that bind those, in order: a
        cell that `Array.get` cannot read raises there. `sure`: a fact
        proves the operand a float of the run's type; such a cell's
        `value` is the cell itself."""
        if instr.kind not in ("+=", "-="):
            return None
        ops, cells = [], []
        for k, v in enumerate(views):
            if isinstance(v, Lit):
                if k == 0 or type(v.value) not in (int, float):
                    return None
                ops.append((self.lit(v.value), None, None, None, True))
            elif isinstance(v, VarView) and v.name in self.bound:
                name = self.names[v.name]
                ops.append((name, name, name, None,
                            self.known.get(v.name) == self.real))
            elif isinstance(v, IndexView) and len(v.indices) <= 2 \
                    and isinstance(v.base, VarView) \
                    and v.base.name in self.bound \
                    and not (ixs := self.indices(v))[1]:
                cells.append((len(ops), self.names[v.base.name], ixs[0],
                              self.cover(v)))
                ops.append(None)
            else:
                return None
        guards = []
        covered = all(c for *_, c in cells)
        for k, a, ixs, c in cells:
            t = self.temp()
            if covered:
                guards += [c[0]] * (c[0] not in guards)
                off = c[1]
            else:
                off = self.temp()
                self.emit(f"{off} = _offset({a}, {ixs})")
            cell = f"{a}.data[{off}]"
            ops[k] = (cell, cell, cell, off, True) \
                if _fact_of(views[k], self.known) == self.real else \
                (t, f"({t} := {cell})", cell, off, False)
        return ops, guards

    def arm(self, instr, views, checks):
        """Emit the inline arm of a +=/-= when its operands allow one, and
        open its `else:`; returns whether it did, or None when it needs no
        test and so no `else:`. It is taken when the guards of its cells
        are true and, forward, on operands of the run's exact float type
        (a fact proves an operand's, and the operands' types the value of
        a function of `_FLOAT_FNS`); this is the one arm that tests kinds
        when it runs. In a gradient body it is the typed arm (`adjoint`),
        emitted only where the facts prove its kinds (`_typed_update`);
        every other gradient update takes the generic rule."""
        spec = INSTR_FNS.get(instr.fname)
        if self.grad:
            ok = _typed_update(self.real, instr.kind, instr.fname, views,
                               self.known)
        else:
            # the operands' types are checked, except the literals'; the
            # value's too unless it is a float of theirs, but that check
            # would precede the alias checks
            exact = _float_value(instr.fname, views[1:])
            ok = spec and spec.apply and (exact or checks is None)
        ops = self.operands(instr, views) if ok else None
        if ops is None:
            return False
        ops, covered = ops
        guards = []
        if not self.grad:
            # a literal or a proven float is not tested
            guards = [f"type({read})" for _, read, _, _, sure in ops
                      if not sure]
            args = [o for o, *_ in ops[1:]]
            if fn := _INLINE.get(instr.fname):
                value = fn.format(*args)
            elif exact and instr.fname in _HOST:
                value = self.host(instr.fname, args, views[1:])
            else:
                value = f"{self.const(spec.apply)}({', '.join(args)})"
            if not exact:
                t = self.temp()
                guards.append(f"type({t} := {value})")
                value = t
        conds = [*covered,
                 *[f"{self.float} is {' is '.join(guards)}"] * bool(guards)]
        if conds:
            self.emit(f"if {' and '.join(conds)}:")
            self.depth += 1
        self.alias_checks(views, checks, ops)
        if self.grad:
            self.adjoint(instr, views, ops)
        else:
            y, _, cell, *_ = ops[0]
            self.emit(f"{cell} = {y} {'+' if instr.kind == '+=' else '-'} "
                      f"({value})")
        if not conds:
            return None
        self.depth -= 1
        self.emit("else:")
        self.depth += 1
        return True

    def adjoint(self, instr, views, ops):
        """The typed adjoint arm of a +=/-= (`_typed_update`) over the
        `operands` `ops`: what `numerics._plus_minus_adjoint` computes, in
        its order, with no type test. The target's value takes the update;
        then each G operand's cotangent takes `sign * cotangent * partial`
        (as `a.g - gy * p` for a `+=`, the same bits), its partial from
        `_PARTIALS`, inline where the conditions it needs hold. Where one
        fails, or an operand is an Int variable or an Int literal beyond
        2^53, it calls the partials and `adjoint_accumulate`, as the rule
        does."""
        fname = instr.fname
        spec, (cond, parts) = INSTR_FNS[fname], _PARTIALS[fname]
        objs, xs, gvars = [], [], []   # as the rule takes them, values
        inline = True
        for k, (v, (o, *_)) in enumerate(zip(views, ops)):
            if type(v) is Lit:
                inline = inline and (type(v.value) is float
                                     or abs(v.value) <= 2 ** 53)
                objs.append(o)
                xs.append(f"({o})" if o.startswith("-") else o)
                continue
            if type(v) is IndexView:   # the cell's GVar, read once
                t = self.temp()
                self.emit(f"{t} = {o}")
                o = t
            objs.append(o)
            if _fact_of(v, self.known) == "G":
                gvars.append(k)
                xs.append(f"{o}.x")
            else:   # an Int
                inline = False
                xs.append(o)
        tracked = gvars[1:]
        conds, steps = [cond] * (inline and cond is not None), []
        for k in tracked * inline:
            p = parts[k - 1]
            if type(p) is tuple:
                p, c = p
                conds.append(c)
            steps.append((k, p))
        later = "".join(conds) + "".join(p for _, p in steps)
        fallback = not inline or bool(conds)
        for k in tracked:   # a value read after the update is read before
            if f"{{{k - 1}}}" in later or fallback:
                t = self.temp()
                self.emit(f"{t} = {xs[k]}")
                xs[k] = t
        if fn := _INLINE.get(fname):
            value = fn.format(*xs[1:])
        elif fname in _HOST and _float_value(fname, views[1:], self.known):
            value = self.host(fname, xs[1:], views[1:])
        else:
            value = f"{self.const(spec.apply)}({', '.join(xs[1:])})"
        v = self.temp() if "{v}" in later else None
        y = objs[0]
        self.emit(f"{y}.x = {y}.x {instr.kind[0]} "
                  f"({value if v is None else f'({v} := {value})'})")
        gy = f"{y}.g"
        if len(steps) + bool(fallback) > 1:
            gy = self.temp()
            self.emit(f"{gy} = {y}.g")
        # the rule's cotangent `sign * gy` (-gy for a +=) and its steps
        sign, other = ("-", "+") if instr.kind == "+=" else ("+", "-")
        accumulate = f"adjoint_accumulate({fname!r}, " \
                     f"({''.join(o + ', ' for o in objs[1:])}), " \
                     f"{self.const(spec.partials)}({', '.join(xs[1:])}), " \
                     f"{'-' * (sign == '-')}{gy})"
        if not inline:
            self.emit(accumulate)
            return
        test = " and ".join(f"({c})" for c in conds).format(*xs[1:], v=v)
        if not steps:
            if conds:
                self.emit(f"if not ({test}): {accumulate}")
            return
        if conds:
            self.emit(f"if {test}:")
            self.depth += 1
        for k, p in steps:
            a = objs[k]
            p = p.format(*xs[1:], v=v)
            self.emit(f"{a}.g = {a}.g " + (
                f"{sign} {gy}" if p == "1.0" else f"{other} {gy}"
                if p == "-1.0" else f"{sign} {gy} * ({p})"))
        if conds:
            self.depth -= 1
            self.emit(f"else: {accumulate}")

    def alias_checks(self, views, pairs, ops=None):
        """The alias checks of the (i, j, message) `pairs` of `views`; two
        cells of one array among the `operands` `ops` overlap when their
        offsets are equal."""
        if pairs is None:
            return
        for i, j, message in pairs:
            a, b = views[i], views[j]
            if ops and ops[i][3] and ops[j][3]:
                test = f"{ops[i][3]} == {ops[j][3]}"
            elif all(isinstance(v, IndexView) and isinstance(v.base, VarView)
                     for v in (a, b)):
                # one index step each on one root: their storage ids
                # overlap when the index tuples are equal, which under
                # their guards is when their offsets are
                test = f"({self.indices(a, True)[0]},) == " \
                       f"({self.indices(b, True)[0]},)"
                ca, cb = self.cover(a), self.cover(b)
                if ca and cb:
                    g = ca[0] if ca[0] == cb[0] else f"{ca[0]} and {cb[0]}"
                    test = f"({ca[1]} == {cb[1]} if {g} else {test})"
            else:
                test = f"ids_overlap({self.ident(a)}, {self.ident(b)})"
            self.emit(f"if {test}: raise AliasedArguments({message!r})")
        self.emit(f"{self.counter('alias')} += 1")

    # --- views ---

    def var(self, name, span):
        if name in self.bound:
            return self.names[name]
        return f"_unbound({shown(name)!r}, {self.const(span)})"

    def indices(self, view, strict=False):
        """The index arguments of the cell `view`, comma-separated, and
        whether evaluating one can fail: each is an Int literal, a
        variable as it is read, an Int expression the facts prove, or an
        expression that `_int` checks. Where one can fail (another
        expression, or a variable that is not bound), and with `strict`,
        `_ix` checks each variable the facts do not prove an Int as it is
        read, so the first index at fault raises."""
        strict = strict or not all(
            self.kind(e) == "I" or isinstance(e, ViewRef) and isinstance(
                e.view, VarView) and e.view.name in self.bound
            for e in view.indices)
        args = []
        for e in view.indices:
            if self.kind(e) == "I":
                args.append(self.expr(e))
            elif isinstance(e, ViewRef) and isinstance(e.view, VarView):
                read = self.read(e.view)
                args.append(f"_ix({read})" if strict else read)
            else:
                args.append(f"_int({self.expr(e)}, 'array index')")
        return ", ".join(args), strict

    def cell(self, view):
        """The `_offset`, `_get` and `_set` arguments of the cell `view`:
        its base, then its indices. Where an index can fail the base goes
        through `_indexed` first, as it is evaluated first."""
        ixs, fallible = self.indices(view)
        base = self.read(view.base)
        return f"{f'_indexed({base})' if fallible else base}, {ixs}"

    def read(self, view):
        """The expression of a view's value, GVars kept."""
        if isinstance(view, VarView):
            return self.var(view.name, view.span)
        if isinstance(view, FieldView):
            return f"_fielded({self.read(view.base)}, 'field access')" \
                   f".get({view.field_name!r})"
        if isinstance(view, IndexView):
            slow = f"_get({self.cell(view)})"
            if (c := self.cover(view)) is None:
                return slow
            return f"({self.read(view.base)}.data[{c[1]}] if {c[0]} " \
                   f"else {slow})"
        if isinstance(view, BijView):
            bij = BIJECTORS[view.bij]
            return f"{self.const(bij)}.fwd({self.read(view.base)}, " \
                   f"{self.const(view.args)})"
        raise KindError(f"not a view: {view!r}")

    def write(self, view, value):
        """Emit the write of `value` (an expression) to a view. Beyond a
        variable the value is bound to a temporary first, so it is computed
        before the view's base and indices are."""
        if isinstance(view, VarView):
            self.emit(f"{self.local(view.name)} = {value}")
            return
        if not value.isidentifier():
            t = self.temp()
            self.emit(f"{t} = {value}")
            value = t
        if isinstance(view, BijView):   # the base's kind is kept
            bij = BIJECTORS[view.bij]
            self.write(view.base, f"{self.const(bij)}.inv({value}, "
                                  f"{self.const(view.args)}, "
                                  f"{self.read(view.base)})")
        elif isinstance(view, FieldView):
            self.emit(f"_fielded({self.read(view.base)}, 'field write')"
                      f".set({view.field_name!r}, {value})")
        elif isinstance(view, IndexView):
            slow = f"_set({value}, {self.cell(view)})"
            if (c := self.cover(view)) is None:
                self.emit(slow)
            else:
                self.emit(f"if {c[0]}: {self.read(view.base)}.data[{c[1]}] = "
                          f"{value}")
                self.emit(f"else: {slow}")
        else:
            raise KindError(f"not a view: {view!r}")

    def ident(self, view):
        """The expression of a view's storage id: the root name and the
        concrete non-bijector path."""
        root, steps = _id_path(view)
        parts = [repr(root)]
        for node in steps:
            if isinstance(node, FieldView):
                parts.append(repr(("field", node.field_name)))
            else:
                parts.append(f"('idx', ({self.indices(node, True)[0]},))")
        return "(" + "".join(p + ", " for p in parts) + ")"

    # --- expressions (GVar-free values) ---

    def lit(self, v):
        if type(v) in (int, bool):
            return repr(v)
        if isinstance(v, complex):
            z = self.dtype or float
            return f"Complex({self.lit(z(v.real))}, {self.lit(z(v.imag))})"
        if isinstance(v, float) and self.dtype is not None:
            v = self.dtype(v)
        if type(v) is float and math.isfinite(v):
            return repr(v)
        return self.const(v)

    def expr(self, e):
        if isinstance(e, Lit):
            return self.lit(e.value)
        if isinstance(e, ViewRef):   # a GVar reaches no forward body
            read, fact = self.read(e.view), _fact_of(e.view, self.known)
            if fact == "G":
                return f"{read}.x"
            return f"strip_gvar({read})" if self.grad and fact is None \
                else read
        if self.kind(e) == "I":   # Int arithmetic, `length`, `size`
            return self.ints(e)
        if isinstance(e, Un):    # unary minus
            return self.apply("neg", (e.operand,), e.span)
        if isinstance(e, Bin):
            if e.op in INSTR_BIN_OPS:
                return self.apply(INSTR_BIN_OPS[e.op], (e.left, e.right),
                                  e.span)
            left, right = self.expr(e.left), self.expr(e.right)
            if e.op == "&&":
                return f"(_bool_of({left}) and _bool_of({right}))"
            if e.op == "||":
                return f"(_bool_of({left}) or _bool_of({right}))"
            if self.kind(e.left) == "I" == self.kind(e.right):
                return f"({left} {e.op} {right})"
            return f"compare({e.op!r}, {left}, {right})"
        if isinstance(e, Call):
            return self.apply(e.fname, e.args, e.span)
        raise KindError(f"not an expression: {e!r}")

    def ints(self, e):
        """An expression of Int value (see `_etype`) as Python computes
        it: as `numerics` does."""
        if type(e) is Un:
            return f"(-{self.expr(e.operand)})"
        fname, args = (INSTR_BIN_OPS[e.op], (e.left, e.right)) \
            if type(e) is Bin else (e.fname, e.args)
        x = [self.expr(a) for a in args]
        if fname in _INT_OPS:
            return f"({x[0]} {_INT_OPS[fname]} {x[1]})"
        if fname == "length":
            return f"len({x[0]}.data)"
        return f"{x[0]}.shape[{args[1].value - 1}]"

    def cond(self, e):
        """A condition: comparisons and &&/|| are Bool already."""
        if isinstance(e, Bin) and e.op not in INSTR_BIN_OPS:
            return self.expr(e)
        return f"_bool_of({self.expr(e)})"

    def apply(self, fname, args, span):
        """A function application, resolved by `numerics.expr_fn`; a host
        call (`host`) where its operands are literals and variables that
        the facts prove of the run's float type."""
        spec = expr_fn(fname)
        if spec is None:
            raise UnknownFunction(
                f"{fname!r} is not a registered pure function", span)
        xs = [*map(self.expr, args)]
        views = [a.view if type(a) is ViewRef else a for a in args]
        if fname in _HOST and _float_value(fname, views, self.known) and all(
                type(v) is Lit or type(v) is VarView for v in views):
            return self.host(fname, xs, args)
        return f"{self.const(spec.apply)}({', '.join(xs)})"

    def host(self, fname, xs, args):
        """The value of the `_HOST` function `fname` over operands of the
        run's float type, `xs` (from the views or expressions `args`): its
        host call where its precondition holds, else the generic
        function's; a literal operand settles the precondition here."""
        *calls, pre = _HOST[fname]
        call = calls[self.dtype is not None]
        call = call.format(*xs) if type(call) is str else \
            f"{self.const(call)}({', '.join(xs)})"
        if pre is None:
            return call
        k, op = pre
        generic = f"{self.const(INSTR_FNS[fname].apply)}({', '.join(xs)})"
        if type(args[k]) is Lit:   # as lowered: 1e-50 is 0 in binary32
            x = args[k].value
            x = self.dtype(x) if type(x) is float and self.dtype else x
            return call if compare(op, x, 0) else generic
        return f"({call} if {xs[k]} {op} 0 else {generic})"


# --- entry guards (see the module docstring) ---------------------------------

def _gvar(v):
    """Whether `v` has the fact "G"."""
    return type(v) is GVar and type(v.x) is float and type(v.g) is float


def _has(fact, v, t):
    """Whether the value `v` has the fact (`t`: the run's float type)."""
    if fact == "F":
        return type(v) is t
    if fact == "I":
        return type(v) is int
    if fact == "G":
        return _gvar(v)
    cells = fact[2]
    return type(v) is Array and fact[1] in (None, len(v.shape)) and (
        cells is None or ({*map(type, v.data)} <= {t} if cells == "F"
                          else all(map(_gvar, v.data))))


def _holds(want, values, t):
    """Whether a function's entry guard holds of its arguments: the one
    test of a guard, made on each call of a guarded entry (`_Unit`)."""
    for w, v in zip(want, values):
        if w is not None and not _has(w, v, t):
            return False
    return True


# --- compiled units --------------------------------------------------------------

class _Unit(dict):
    """A Program's lowered code for one float type and trace setting, for
    forward or (`grad`) gradient passes: maps a function's name to its
    entry. A function has two tables of bodies (`_Bodies`), each lowered
    from a `_Flow` on first lookup: its specialised body (`bodies`), at
    the facts its entry guard checks (`want`), and its generic body
    (`generic`), at none. The unit holds the one test of each guard
    (`make_entry`). `gradient`: the gradient unit of the same definitions
    (a gradient unit's is itself). It lowers `ir`, the definitions
    (`_Defs`) with their calls of one site inlined, or in a traced unit
    as written, so that its trace lines name each callee's own
    variables."""

    def __init__(self, defs, trace, dtype, grad=False):
        super().__init__()
        self.defs, self.trace, self.dtype, self.grad = defs, trace, dtype, grad
        self.ir = defs if trace else defs.inlined
        self.real = "F" if not grad else "G" if dtype is None else None
        self.wants, self.flows = {}, {}
        self.bodies, self.generic = _Bodies(self, True), _Bodies(self, False)
        self.gradient = self if grad else _Unit(defs, trace, dtype, True)

    def want(self, fname):
        """`fname`'s entry facts (`_wants`): None for an unknown name, and
        while they are found (to a recursive call)."""
        if fname not in self.wants and fname in self.defs:
            self.wants[fname] = None
            self.wants[fname] = _wants(self.ir[fname], self.want, self.real)
        return self.wants.get(fname)

    def flow(self, fname):
        """The flow of `fname`'s specialised body: None while it is found
        (to a recursive call)."""
        if fname not in self.flows:
            self.flows[fname] = None
            self.flows[fname] = _Flow(self, fname, self.want(fname))
        return self.flows[fname]

    def make_entry(self, fname):
        """Make `fname`'s entry: on its first lookup, and again once its
        specialised body exists. The entry is the one test of its guard,
        on every call: it runs the specialised body when the entry facts
        hold of the arguments (`_holds`), else the generic body, each
        lowered on the first call that needs it. An entry that asks
        nothing is the specialised body, once that exists."""
        want = self.want(fname)
        if want is None:
            raise UnknownFunction(f"no function named {fname!r}")
        if fname in self.bodies and not any(want):
            entry = self.bodies[fname]
        else:
            t = self.dtype or float

            def entry(I, chk, F, *args):
                fn = self.bodies[fname] if _holds(want, args, t) \
                    else self.generic[fname]
                return fn(I, chk, F, *args)
        self[fname] = entry
        return entry

    __missing__ = make_entry


class _Bodies(dict):
    """The specialised (`specialised`) or the generic bodies of a unit's
    functions by name, each lowered on first lookup."""

    def __init__(self, unit, specialised):
        super().__init__()
        self.unit, self.specialised = unit, specialised

    def __missing__(self, fname):
        unit = self.unit
        if fname not in unit.defs:
            raise UnknownFunction(f"no function named {fname!r}")
        flow = unit.flow(fname) if self.specialised else _Flow(unit, fname)
        body = self[fname] = _Lowering(unit, flow).function(unit.ir[fname])
        if self.specialised:
            unit.make_entry(fname)
        return body


class _Defs(dict):
    """A valid program's definitions by name: the expansions `validate`
    checked, and the generated inverse `~f` of each one that has no
    definition of that name, made on its first lookup. Every unit of the
    program reads the same table, so each function is inverted at most
    once, and the same `inlined` table (`reverser.Inliner`)."""

    def __init__(self, written):
        super().__init__(written)
        self.assigned = {}
        self.inlined = Inliner(self)

    def __missing__(self, name):
        primal = dict.get(self, inverse_name(name))
        if primal is None or inverse_name(primal.name) != name:
            raise KeyError(name)
        inv = self[name] = invert_function(primal)
        return inv

    def get(self, name, default=None):
        try:
            return self[name]
        except KeyError:
            return default

    def __contains__(self, name):
        return self.get(name) is not None

    def rebinds(self, fname, views):
        """The variables a call of `fname` with arguments `views` may
        rebind, by its definition as written: one it passes whole for a
        parameter that the callee's body writes or passes whole to a call,
        and one it writes back through a bijector."""
        fdef = self.get(fname)
        if fdef is None or len(fdef.params) != len(views):
            return set(map(_rebound, views))
        if fname not in self.assigned:
            self.assigned[fname] = _rebinding(
                fdef.body.stmts, lambda f, views: set(map(_rebound, views)))
        return {_rebound(v) for v, p in zip(views, fdef.param_names())
                if type(v) is not VarView or p in self.assigned[fname]}


def _unit(program, opts):
    """`program`'s unit for `opts`; the first one validates the program
    and holds its definitions (`_Defs`) for every unit to lower."""
    compiled, key = program.compiled, (opts.trace, opts.float_dtype)
    if key not in compiled:
        defs = compiled.get("defs")
        if defs is None:
            diags = validate(program)
            if diags:
                raise ValidationFailed(diags)
            defs = compiled["defs"] = _Defs(compiled["expanded"])
        compiled[key] = _Unit(defs, *key)
    return compiled[key]


# --- public view operations ------------------------------------------------
# Each lowers its view with the environment's bindings as the bound locals
# of the function it runs, as a program's variables are.

def _check_root(env, view):
    root = view_root(view)
    if root not in env.bindings:
        raise UnboundVariable(f"{root!r} is not bound", view.span)
    return root


def _view_lowering(env, opts):
    """A lowering with the environment's bindings bound, and the list of
    their locals, in binding order."""
    low = _Lowering(_Unit(_Defs({}), False, opts and opts.float_dtype, True))
    low.bound = set(env.bindings)
    return low, ", ".join(low.local(name) for name in env.bindings)


def read_view(env, view, opts=None):
    low, params = _view_lowering(env, opts)
    low.emit(f"return {low.read(view)}")
    return low.view(params)(*env.bindings.values())


def write_view(env, view, value, opts=None):
    root = _check_root(env, view)
    low, params = _view_lowering(env, opts)
    low.write(view, "V")
    low.emit(f"return {low.local(root)}")
    env.bindings[root] = low.view(params + ", V")(*env.bindings.values(),
                                                   value)
    return env


def canonical_view_identity(env, view, opts=None):
    """StorageId of a view in an environment: equal ids denote the same
    mutable cell; bijectors do not change identity."""
    _check_root(env, view)
    low, params = _view_lowering(env, opts)
    low.emit(f"return {low.ident(view)}")
    return low.view(params)(*env.bindings.values())


# --- the interpreter ----------------------------------------------------------

class Interpreter:
    """Runs the functions of a Program in either direction, with its own
    `stats`. Instances built on one Program with options that lower to
    the same code share one validated and lowered unit.

    A pass whose arguments carry a GVar leaf is a gradient pass: it
    enters its function through the gradient unit (`unit.gradient`),
    whose bodies wrap new ancillas in GVars, reject an instruction that
    reads one cell twice, and update binary64 GVars in an inline adjoint
    arm. Other passes enter through the forward unit, whose bodies hold
    no gradient code. One instance serves every pass of an autodiff
    call."""

    def __init__(self, program, opts=None):
        self.program = program
        self.opts = opts or ExecOptions()
        self.stats = ExecStats()
        self.unit = _unit(program, self.opts)
        self.defs = self.unit.defs

    def run_function(self, fname, args):
        grad = any(map(carries_gvar, args))
        unit = self.unit.gradient if grad else self.unit
        fn, fdef = unit[fname], unit.defs[fname]
        if len(args) != len(fdef.params):
            raise KindError(f"{fname} takes {len(fdef.params)} arguments, "
                            f"got {len(args)}")
        # the fuel left: max_steps counts over every pass of this instance
        budget = max(0, self.opts.max_steps - self.stats.steps)
        fuel = _Fuel(budget)
        try:
            return list(fn(self, self.opts.invcheck, fuel, *args))
        except RecursionError:
            raise FuelExhausted(f"call depth exceeded in {fname}",
                                fdef.span) from None
        finally:
            self.stats.steps += budget - fuel.left

    def uncall_function(self, fname, args):
        return self.run_function(inverse_name(fname), args)


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
            "max_deviation": json_float(self.max_deviation),
            "error": self.error,
            "per_arg_deviation": self.per_arg_deviation and [
                json_float(d) for d in self.per_arg_deviation],
            "checks_passed": self.checks_passed,
        }, sort_keys=True)


def check_reversibility(program, fname, args, opts=None):
    """Run f then ~f and report the componentwise deviation from the
    original arguments; runtime errors are embedded, not raised."""
    opts = opts or ExecOptions()
    original = deep_copy(args)
    interp = Interpreter(program, opts)
    try:
        mid = interp.run_function(fname, deep_copy(args))
        back = interp.uncall_function(fname, mid)
        per_arg = [deviation(o, r) for o, r in zip(original, back)]
        ok = all(
            values_close(o, r, opts.float_tolerance)
            for o, r in zip(original, back))
        return CheckReport(fname, ok, worst_deviation(per_arg), None, per_arg,
                           dict(interp.stats.checks_passed))
    except RevLangError as err:
        return CheckReport(fname, False, float("inf"), str(err), None,
                           dict(interp.stats.checks_passed))
