"""The static analysis that `interpreter._Lowering` reads: what views
and statements touch (`_alias_pairs`, `_rebinding`), the function tables of
the inline arms (`_INLINE`, `_HOST`, `_PARTIALS`), and the type facts of a
body (`_wants`, the facts a specialised body asks of its parameters, and
`_Flow`, those that hold at each statement). See the `interpreter` module
docstring for what each fact lets the emitter drop."""

import math

import numpy as np

from .ir import (SAME_AS_PRE, AncillaAlloc, AncillaDealloc, Bin, BijView,
                 Block, Call, FieldView, FnCall, For, If, IndexView, Inlined,
                 InstrCall, InvCheckOff, Lit, Safe, Un, UncallFn, VarView,
                 ViewRef, While, inverse_name, view_root)
from .numerics import INSTR_BIN_OPS, PRIM_STATEMENTS
from .values import is_int


# --- static view analysis ------------------------------------------------------

def _id_path(view):
    """Root name and the non-bijector steps of a view, root first."""
    steps = []
    while not isinstance(view, VarView):
        if not isinstance(view, BijView):   # bijectors keep identity
            steps.append(view)
        view = view.base
    return view.name, steps[::-1]


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


def _alias_pairs(views, pairs):
    """The (i, j, message) pairs of argument views that need a run-time
    alias check; None when no pair shares a root name. Only views rooted
    at the same name can ever overlap, and a same-root pair that is
    `_disjoint` is discharged here: it is counted as a passed check with
    the others."""
    roots = [None if isinstance(v, Lit) else view_root(v) for v in views]
    checks = None
    for (i, j, message) in pairs:
        if roots[i] is None or roots[i] != roots[j]:
            continue
        checks = checks or []
        if not _disjoint(views[i], views[j]):
            checks.append((i, j, message))
    return checks


def _rebound(view):
    """The variable a write to `view` rebinds (through bijectors), or None
    where it writes a cell or a field in place."""
    while type(view) is BijView:
        view = view.base
    return view.name if type(view) is VarView else None


def _statements(stmts):
    """The statements among `stmts` and, at any depth, in their blocks (an
    `Inlined` call's: its callee's statements)."""
    todo = list(stmts)
    while todo:
        s = todo.pop()
        yield s
        t = type(s)
        if t is If:
            todo += s.then_block.stmts + s.else_block.stmts
        elif t is While or t is For or t is Inlined:
            todo += s.body.stmts
        elif t is Block:
            todo += s.stmts
        elif t is InvCheckOff:
            todo.append(s.stmt)


def _rebinding(stmts, call):
    """The variables the statements may rebind: those they write by an
    instruction, a statement primitive, an allocation or a loop, and those
    `call(fname, views)` says a call may rebind."""
    out = set()
    for s in _statements(stmts):
        t = type(s)
        if t is InstrCall:
            out.add(_rebound(s.args[0]))
        elif t is FnCall or t is UncallFn:
            out |= set(map(_rebound, s.args)) if s.fname in PRIM_STATEMENTS \
                else call(inverse_name(s.fname) if t is UncallFn else s.fname,
                          s.args)
        elif t is AncillaAlloc or t is AncillaDealloc:
            out.add(s.name)
        elif t is For:
            out.add(s.var)
    return out


def _index_reads(view):
    """The variables that the indices of `view` read (`validate` admits
    only affine indices, which read only variables)."""
    names = set()
    while type(view) is not VarView:
        if type(view) is IndexView:
            names |= {r.name for e in view.indices for r in _reads(e)}
        view = view.base
    return names


def _clash(s, call):
    """The variables, sorted, that the instruction or call `s` may rebind
    (`call` as `_rebinding` takes it) and an index of one of its
    arguments reads: its inverse would find other cells there."""
    reads = set().union(*[_index_reads(v) for v in s.args
                           if type(v) is not Lit and type(v) is not VarView])
    return reads and sorted(reads & _rebinding([s], call))


def _is_int_lit(e):
    return isinstance(e, Lit) and type(e.value) is int


def _touched(s):
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


# the instruction functions the inline arm computes with operators: on
# operands of one float type their value has that type
_INLINE = {"identity": "{0}", "add": "{0} + {1}", "sub": "{0} - {1}",
           "mul": "{0} * {1}", "neg": "-{0}", "abs2": "{0} * {0}"}

# the other functions of `_FLOAT_FNS`, by their host call on operands of
# the run's float type, in binary64 and in binary32 (a format, or the
# function called), and the precondition under which it returns what the
# generic function (`INSTR_FNS[f].apply`) returns: the same value and
# type, or the same error (None: always). A precondition is the operand it
# tests and the comparison with 0 that test makes.
_HOST = {"div": ("{0} / {1}", "{0} / {1}", (1, "!=")),
         "sqrt": (math.sqrt, np.sqrt, (0, ">=")),
         "log": (math.log, np.log, (0, ">")),
         "exp": (math.exp, np.exp, None),
         "sin": (math.sin, np.sin, None),
         "cos": (math.cos, np.cos, None),
         "atan2": (math.atan2, np.arctan2, None),
         "abs": (abs, abs, None)}

# the partials of each function with `INSTR_FNS[f].partials`, as the typed
# adjoint arm emits them (`_Lowering.adjoint`): expressions over the primal
# values of its operands, `{0}` and `{1}` (binary64 floats, or Int literals
# of at most 2^53), and of its value, `{v}`. An entry is the condition under
# which no partial raises, and the partials, in order; a partial with a
# condition of its own, `(expression, condition)`, is None where that
# condition fails. Where a condition it needs fails, the arm calls
# `partials` and `adjoint_accumulate`, as the generic rule does; so each
# expression need only equal the callable where its conditions hold, on
# values whose primal update succeeded (`tests/test_interpreter.py` holds
# the oracle test).
_PARTIALS = {"identity": (None, ("1.0",)),
             "add": (None, ("1.0", "1.0")),
             "sub": (None, ("1.0", "-1.0")),
             "neg": (None, ("-1.0",)),
             "mul": (None, ("{1}", "{0}")),
             "abs2": (None, ("2.0 * {0}",)),
             "div": ("{1} * {1} != 0", ("1.0 / {1}", "-({0} / ({1} * {1}))")),
             "pow": ("{1} >= 1 or abs({0}) >= 1",
                     ("{1} * {0} ** ({1} - 1)",
                      ("{v} * math.log({0})", "{0} > 0"))),
             "abs": (None, (("(1.0 if {0} > 0 else -1.0)", "{0} != 0"),)),
             "sqrt": ("{v} != 0", ("0.5 / {v}",)),
             "exp": (None, ("{v}",)),
             "log": (None, ("1.0 / {0}",)),
             "sin": (None, ("math.cos({0})",)),
             "cos": (None, ("-math.sin({0})",)),
             "atan2": ("{0} * {0} + {1} * {1} != 0",
                       ("{1} / ({0} * {0} + {1} * {1})",
                        "-{0} / ({0} * {0} + {1} * {1})"))}


# --- type facts (see the `interpreter` module docstring) -----------------------
# A fact is what a body knows of a variable's value over a stretch of its
# code: "F", of the run's float type exactly; "G", in a binary64 gradient
# unit, a GVar whose `x` and `g` are both `float`s; "I", a plain int; or
# ("A", rank, cells), an Array of that rank (None: not known) each of whose
# cells has the fact `cells` ("F" or "G"; None: none known). A unit's float
# fact (`_Unit.real`) is "F" forward, "G" in a binary64 gradient unit and
# None in a binary32 one; an expression's value, stripped of its GVar, is
# an "F" where it reads a "G".

# the functions whose value on operands of the run's float type, and Int
# literals beside one of them, has that type
_FLOAT_FNS = frozenset(_INLINE).union(_HOST)
_INT_OPS = {"add": "+", "sub": "-", "mul": "*"}


def _meet(a, b):
    """The fact that both facts imply (None: none)."""
    if a == b:
        return a
    if type(a) is tuple and type(b) is tuple:
        return "A", a[1] if a[1] == b[1] else None, a[2] if a[2] == b[2] \
            else None
    return None


def _meet_all(x, y):
    return {n: m for n, f in x.items() if (m := _meet(f, y.get(n)))}


def _implies(have, want):
    return want is None or have == want or (
        type(have) is tuple and type(want) is tuple
        and want[1] in (None, have[1]) and want[2] in (None, have[2]))


def _fact_of(view, facts):
    """The fact of a view's value: a variable's, or a cell's of an Array
    whose cells have one."""
    if type(view) is VarView:
        return facts.get(view.name)
    if type(view) is IndexView and type(view.base) is VarView:
        a = facts.get(view.base.name)
        if type(a) is tuple:
            return a[2]
    return None


def _float_value(fname, views, facts=None):
    """Whether `fname` over the operands `views` has the run's float type:
    a function of `_FLOAT_FNS` over proven floats, or GVars whose values
    are (without `facts`: every operand but the literals), float literals
    (lowered to that type) and Int literals beside one of them."""
    kinds = [{float: "F", int: "I"}.get(type(v.value)) if type(v) is Lit
             else "F" if facts is None or _fact_of(v, facts) in ("F", "G")
             else None for v in views]
    return fname in _FLOAT_FNS and "F" in kinds and None not in kinds


def _etype(e, facts):
    """The fact of an expression's value: a literal's, a variable's or a
    cell's ("F" for a "G": an expression reads a GVar's value), "I" for Int
    arithmetic, `length` and `size`, or "F" where `_float_value` proves a
    function's (or operator's) operands."""
    t = type(e)
    if t is Lit:
        return {int: "I", float: "F"}.get(type(e.value))
    if t is ViewRef:
        f = _fact_of(e.view, facts)
        return "F" if f == "G" else f
    if t is Un:
        if _etype(e.operand, facts) == "I":
            return "I"
        fname, args = "neg", (e.operand,)
    elif t is Bin:
        fname, args = INSTR_BIN_OPS.get(e.op), (e.left, e.right)
    elif t is Call:
        fname, args = e.fname, e.args
    else:
        return None
    if fname in _INT_OPS and [_etype(a, facts) for a in args] == ["I", "I"]:
        return "I"
    if fname in _FLOAT_FNS and _float_value(
            fname, [a.view if type(a) is ViewRef else a for a in args], facts):
        return "F"
    if fname in ("length", "size") and args and type(args[0]) is ViewRef:
        a = _fact_of(args[0].view, facts)
        if fname == "length" and len(args) == 1 and type(a) is tuple:
            return "I"
        if len(args) == 2 and type(a) is tuple and a[1] and \
                _is_int_lit(args[1]) and 1 <= args[1].value <= a[1]:
            return "I"
    return None


def _reads(e):
    """The views an expression reads."""
    t = type(e)
    if t is ViewRef:
        yield e.view
    elif t is Un:
        yield from _reads(e.operand)
    elif t is Bin:
        yield from _reads(e.left)
        yield from _reads(e.right)
    elif t is Call:
        for a in e.args:
            yield from _reads(a)


def _want(old, new):
    """Two wishes for one parameter as one: Arrays merge, an index beats a
    float, anything else conflicts ("X")."""
    if old is None or old == new:
        return new
    if type(old) is tuple and type(new) is tuple:
        ranks = {old[1], new[1]} - {None}
        return "A", ranks.pop() if len(ranks) == 1 else None, old[2] or new[2]
    return "I" if {old, new} in ({"I", "F"}, {"I", "G"}) else "X"


def _wants(fdef, want_of, real):
    """The facts the specialised body of `fdef` asks of its parameters, in
    order (None: none): the unit's float fact `real` for an operand or
    target of a +=/-= or a ROT/IROT, an Int for an index, a loop bound or
    an INC/DEC, an Array of the rank it is indexed at for a base (whose
    cells have `real` where a cell is such an operand), and what a callee
    asks of a parameter passed to it (`want_of(fname)`: the callee's list,
    or None)."""
    found = {}

    def put(name, fact):
        found[name] = _want(found.get(name), fact)

    def view(v, fact=None):
        if type(v) is BijView:
            view(v.base)
        elif type(v) is VarView:
            if fact:
                put(v.name, fact)
        elif type(v) is IndexView:
            for e in v.indices:
                if type(e) is ViewRef and type(e.view) is VarView:
                    put(e.view.name, "I")
                else:
                    exprs(e)
            if type(v.base) is VarView:
                put(v.base.name, ("A", len(v.indices),
                                  fact if fact in ("F", "G") else None))
            else:
                view(v.base)
        elif type(v) is FieldView:
            view(v.base)

    def exprs(*es):
        for e in es:
            for v in _reads(e):
                view(v)

    def ints(e):   # an Int expression: its variables are Ints
        t = type(e)
        if t is ViewRef and type(e.view) is VarView:
            put(e.view.name, "I")
        elif t is Call and e.fname in ("length", "size") and e.args \
                and type(e.args[0]) is ViewRef \
                and type(e.args[0].view) is VarView:
            put(e.args[0].view.name, ("A", None, None))
            exprs(*e.args[1:])
        elif t is Bin and INSTR_BIN_OPS.get(e.op) in _INT_OPS:
            ints(e.left)
            ints(e.right)
        elif t is Un:
            ints(e.operand)
        else:
            exprs(e)

    for s in _statements(fdef.body.stmts):
        t = type(s)
        if t is InstrCall:
            for v in s.args:
                view(v, real if s.op in ("+=", "-=") else None)
        elif (t is FnCall or t is UncallFn) and s.fname in PRIM_STATEMENTS:
            for v in s.args:
                view(v, "I" if s.fname in ("INC", "DEC") else
                     real if s.fname in ("ROT", "IROT") else None)
        elif t is FnCall or t is UncallFn:
            want = want_of(inverse_name(s.fname) if t is UncallFn
                           else s.fname)
            if want is None or len(want) != len(s.args):
                want = [None] * len(s.args)
            for v, w in zip(s.args, want):
                view(v, w)
        elif t is AncillaAlloc or t is AncillaDealloc:
            exprs(s.expr)
        elif t is For:
            for e in (s.start, s.step, s.stop):
                ints(e)
        elif t is If:
            exprs(s.pre, *[s.post] * (s.post is not SAME_AS_PRE))
        elif t is While:
            exprs(s.pre, s.post)
        elif t is Safe:
            exprs(*s.exprs)
    return [None if (f := found.get(p)) == "X" else f
            for p in fdef.param_names()]


def _typed_update(real, op, fname, views, facts):
    """Whether the facts prove that the +=/-= `op fname(views[1:])` on
    `views[0]` changes no kind (its arm takes no type test): a target with
    the unit's float fact `real` and, forward, a value of the run's float
    type (a Dual value is the only one that changes a Float target); in a
    gradient unit, a function of `_PARTIALS` over operands proven G or Int,
    or Int and float literals."""
    if op not in ("+=", "-=") or real is None \
            or _fact_of(views[0], facts) != real:
        return False
    if real == "F":
        return _float_value(fname, views[1:], facts)
    return fname in _PARTIALS and all(
        type(v.value) in (int, float) if type(v) is Lit
        else _fact_of(v, facts) in ("G", "I") for v in views[1:])


def _typed_rotation(real, views, facts):
    """Whether the facts prove a ROT/IROT's two cells or variables and its
    angle of the unit's float fact `real`: then it changes no kind, and
    its arm (`_Lowering.turn`) takes no test."""
    return real is not None and len(views) == 3 and all(
        _fact_of(v, facts) == real for v in views)


class _Flow:
    """The facts of one body of `fname`: the entry facts `want` (None: at
    none), those that hold before and, for a compound statement, after
    each statement (`at`, by id; the meet where a statement is reached
    twice), and the parameters' facts when the body returns (`exit`). A
    gradient unit's allocations of floats are G facts, GVars it makes.
    The emitter makes a call `direct` only where the facts met over every
    pass prove the callee's guard: a loop's first pass runs with the facts
    before the loop, which later passes weaken."""

    def __init__(self, unit, fname, want=None):
        self.unit, fdef = unit, unit.ir[fname]
        params = fdef.param_names()
        self.want = want or [None] * len(params)
        self.at = {}
        end = self.block(fdef.body.stmts,
                         {p: w for p, w in zip(params, self.want) if w})
        self.exit = [end.get(p) for p in params]

    def block(self, stmts, facts):
        for s in stmts:
            facts = self.stmt(s, facts)
        return facts

    def stmt(self, s, before):
        out, t, real = dict(before), type(s), self.unit.real
        if t is AncillaAlloc:
            out.pop(s.name, None)
            if (f := _etype(s.expr, before)) == "I" or f == "F" and real:
                out[s.name] = f if f == "I" else real
        elif t is AncillaDealloc:
            out.pop(s.name, None)
            if self.unit.grad and not self.carried(s, before):
                self.dirty(out, True)
        elif t is InstrCall:
            if not _typed_update(real, s.op, s.fname, s.args, before):
                self.kill(out, s.args[0], True)
        elif (t is FnCall or t is UncallFn) and s.fname in PRIM_STATEMENTS:
            turn = s.fname in ("ROT", "IROT")
            if not turn or not _typed_rotation(real, s.args, before):
                for v in s.args:
                    if not (s.fname in ("INC", "DEC")
                            and _fact_of(v, before) == "I"):
                        self.kill(out, v, turn)
        elif t is FnCall or t is UncallFn:
            self.call(s, before, out)
        elif t is If:
            out = _meet_all(self.block(s.then_block.stmts, before),
                            self.block(s.else_block.stmts, before))
        elif t is While or t is For:
            out = self.loop(s, before)
        elif t is Block or t is Inlined:
            out = self.block(s.stmts if t is Block else s.body.stmts, before)
        elif t is InvCheckOff:
            out = self.stmt(s.stmt, before)
        old = self.at.get(id(s))
        self.at[id(s)] = (before, out) if old is None else \
            (_meet_all(old[0], before), _meet_all(old[1], out))
        return out

    def loop(self, s, before):
        """The facts at a loop's head: those before it that no iteration
        undoes. The variable of a `for` with Int start and step is an Int
        in its body."""
        var = s.var if type(s) is For else None
        ints = var and _etype(s.start, before) == _etype(s.step, before) == "I"
        head = before
        while True:
            inner = dict(head)
            inner.pop(var, None)
            if ints:
                inner[var] = "I"
            end = dict(self.block(s.body.stmts, inner))
            end.pop(var, None)
            new = _meet_all(head, end)
            if new == head:
                return head
            head = new

    @staticmethod
    def carried(s, facts):
        """Whether the cotangent carry of the release `s` in a gradient
        body (`_Lowering.carry`) changes no kind: it has none to make, or
        it carries a G ancilla's cotangent to G and Int values."""
        views = [*_reads(s.expr)]
        return not views or _etype(s.expr, facts) == "I" or \
            facts.get(s.name) == "G" and all(
                _fact_of(v, facts) in ("G", "I") for v in views)

    def kill(self, facts, view, kinds=False):
        """Drop what a write to `view` may make false: the facts of the
        variable it rebinds or, written in place, every Array's cells (an
        Array may be bound to two names). In a gradient unit a write that
        may change a GVar's kinds in place (`kinds`), other than to a
        proven Int, drops every G fact too: two names, or a name and a
        cell, may share a GVar."""
        name = _rebound(view)
        gvars = kinds and self.unit.grad and (
            name is None or facts.get(name) != "I")
        if name is None or gvars:
            self.dirty(facts, gvars)
        if name is not None:
            facts.pop(name, None)

    @staticmethod
    def dirty(facts, gvars=False):
        """Drop every Array's cell facts and, with `gvars`, every G fact."""
        for n, f in list(facts.items()):
            if type(f) is tuple and f[2]:
                facts[n] = "A", f[1], None
            elif gvars and f == "G":
                del facts[n]

    def direct(self, callee, views, facts):
        """The callee's specialised flow when the facts prove its `want` of
        the call's arguments, so the call goes straight to its specialised
        body; else None."""
        want = self.unit.want(callee)
        if want is not None and len(want) == len(views) and all(
                _implies(_fact_of(v, facts), w) for v, w in zip(views, want)):
            return self.unit.flow(callee)
        return None

    def call(self, s, before, out):
        """A call goes straight to the callee's specialised body when its
        `want` holds, and its arguments then take the callee's `exit`
        facts; a variable it may rebind otherwise loses its facts. Cells
        and G facts keep theirs only when every argument is a proven
        scalar, or an Array or a cell that the callee's body leaves with
        the unit's float fact: only an argument the facts do not prove can
        bring in a value that changes a GVar's kinds in place."""
        callee = inverse_name(s.fname) if type(s) is UncallFn else s.fname
        views, real = s.args, self.unit.real
        flow = self.direct(callee, views, before)
        direct = flow is not None
        rebound = self.unit.defs.rebinds(callee, views)
        for name in rebound:
            out.pop(name, None)
        clean = direct
        for k, v in enumerate(views):
            have, left = _fact_of(v, before), direct and flow.exit[k]
            if type(v) is VarView and v.name in rebound and left:
                out[v.name] = left
            if type(v) is IndexView:
                clean = clean and left == real
            elif have not in ("F", "G", "I"):
                clean = clean and type(have) is tuple and _implies(
                    left, ("A", None, real))
        if not clean:
            _Flow.dirty(out, self.unit.grad)
