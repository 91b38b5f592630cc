"""The reversible instruction set and its numeric semantics.

Instructions have the shape `target op= f(args...)` for op in {+ - * / xor}
plus the statement primitives SWAP/ROT/IROT/NEG/INC/DEC. Every instruction
has a registered inverse, and every differentiable instruction function has
registered partial derivatives, used by the gradient rules (reverse
accumulation while uncomputing). Dual numbers propagate forward through
the Dual branches of the `values.s_*` functions and Dual's operators.

`apply_instr` is the one generic rule: it dispatches on the instruction
kind, GVar values to the gradient rules. What it does with each value
kind it reads from that kind's record in `values._KINDS`, as do
`compare` and the bijectors: how a target takes an update (`cast`), and
the kind's `name`, `real` content and `parts`. The
interpreter's lowered code calls it, looked up as `numerics.apply_instr`
at call time, for every instruction its inline arms do not take.
Expressions share the function table: `expr_fn` resolves an operator or a
call to an expression-only function (`EXPR_FNS`) or to the primal value
of the instruction function, as `y += f(args)` computes it. The
interpreter's adjoint arm, taken only where its facts prove binary64
GVars (a `float` value and cotangent each) and Int or literal operands,
computes the +=/-= gradient rule with the inline expressions of the
partials of `INSTR_FNS` (`analysis._PARTIALS`, tested against them),
and, where a partial is None or would raise or an Int operand has no
template, with the partials and the rule's own cotangent step,
`adjoint_accumulate`, which rounds each step to the kind of the cotangent
with `values.coerce_to_kind`; every other gradient update runs the rule
here. `wrap_gvar` and `unwrap_gvar` act on a value's leaves as
`values.map_leaves` finds them; `carries_gvar` walks the parts of
composites in `values._KINDS`.

Exactness contract:
  * Int and Fixed targets update exactly under += and -= (Fixed wraps mod
    2^64), so invert(apply(x)) == x bitwise.
  * ULog targets update under *= and /= by exponent add/subtract.
  * Float targets are reversible up to roundoff; callers compare against a
    configured tolerance.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import KindError, MissingAdjoint, RevDomainError
from .values import (_KINDS, Array, Complex, Dual, Fixed, GVar, ULog,
                     coerce_to_kind, is_differentiable, is_int, kind_name,
                     leaves, map_leaves, s_abs, s_atan2, s_cos, s_div, s_exp,
                     s_log, s_pow, s_sin, s_sqrt, to_real, zero_like)

OP_INVERSE = {"+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=", "xor=": "xor="}

PRIM_STATEMENTS = {"SWAP": 2, "ROT": 3, "IROT": 3, "NEG": 1, "INC": 1, "DEC": 1}

PRIM_INVERSE = {"SWAP": "SWAP", "ROT": "IROT", "IROT": "ROT", "NEG": "NEG",
                "INC": "DEC", "DEC": "INC"}

# surface operators usable on an instruction's right-hand side
INSTR_BIN_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div",
                 "^": "pow", "%": "mod"}
INSTR_BIN_NAMES = {v: k for k, v in INSTR_BIN_OPS.items()}


@dataclass(frozen=True)
class PrimitiveInstr:
    """An instruction kind: an update operator with its scalar function, or
    a statement primitive (fname is None for those)."""

    kind: str            # one of OP_INVERSE or PRIM_STATEMENTS
    fname: str = None

    def __repr__(self):
        if self.fname is None:
            return f"PrimitiveInstr({self.kind})"
        return f"PrimitiveInstr({self.kind} {self.fname})"


def invert_instr(instr):
    """The registered inverse instruction; an involution."""
    if instr.kind in PRIM_INVERSE:
        return PrimitiveInstr(PRIM_INVERSE[instr.kind])
    return PrimitiveInstr(OP_INVERSE[instr.kind], instr.fname)


@dataclass(frozen=True)
class FnSpec:
    min_arity: int
    max_arity: int
    apply: object              # (*reals) -> real
    partials: object = None    # (*reals) -> tuple of (value | None)


def _mod(a, b):
    if type(a) is Dual or type(b) is Dual:   # a Hessian pass
        raise MissingAdjoint("no gradient rule for 'mod'")
    if b == 0:
        raise RevDomainError("modulo by zero")
    return a % b


def _p_mul(a, b):
    return (b, a)


def _p_div(a, b):
    return (s_div(1.0, b), -s_div(a, b * b))


def _p_pow(a, b):
    first = b * s_pow(a, b - 1)
    if (a.primal if type(a) is Dual else a) > 0:
        second = s_pow(a, b) * s_log(a)
    else:
        second = None
    return (first, second)


def _p_abs(x):
    p = x.primal if type(x) is Dual else x
    if p == 0:
        return (None,)
    return (1.0 if p > 0 else -1.0,)


def _p_atan2(y, x):
    r2 = y * y + x * x
    return (s_div(x, r2), s_div(-y, r2))


INSTR_FNS = {
    "identity": FnSpec(1, 1, lambda x: x, lambda x: (1.0,)),
    "add": FnSpec(2, 2, lambda a, b: a + b, lambda a, b: (1.0, 1.0)),
    "sub": FnSpec(2, 2, lambda a, b: a - b, lambda a, b: (1.0, -1.0)),
    "mul": FnSpec(2, 2, lambda a, b: a * b, _p_mul),
    "div": FnSpec(2, 2, s_div, _p_div),
    "pow": FnSpec(2, 2, s_pow, _p_pow),
    "mod": FnSpec(2, 2, _mod, None),
    "neg": FnSpec(1, 1, lambda x: -x, lambda x: (-1.0,)),
    "abs": FnSpec(1, 1, s_abs, _p_abs),
    "abs2": FnSpec(1, 1, lambda x: x * x, lambda x: (2.0 * x,)),
    "sqrt": FnSpec(1, 1, s_sqrt, lambda x: (s_div(0.5, s_sqrt(x)),)),
    "exp": FnSpec(1, 1, s_exp, lambda x: (s_exp(x),)),
    "log": FnSpec(1, 1, s_log, lambda x: (s_div(1.0, x),)),
    "sin": FnSpec(1, 1, s_sin, lambda x: (s_cos(x),)),
    "cos": FnSpec(1, 1, s_cos, lambda x: (-s_sin(x),)),
    "atan2": FnSpec(2, 2, s_atan2, _p_atan2),
    "angle": FnSpec(1, 1, None),   # complex argument only; handled specially
    "convert": FnSpec(1, 1, None),  # number-system change; handled specially
}

# functions with a complex-valued argument: value and (d/dre, d/dim)
_COMPLEX_FNS = {
    "abs": (lambda a, b: s_sqrt(a * a + b * b),
            lambda a, b, r: (s_div(a, r), s_div(b, r))),
    "abs2": (lambda a, b: a * a + b * b,
             lambda a, b, r: (2.0 * a, 2.0 * b)),
    "angle": (lambda a, b: s_atan2(b, a),
              lambda a, b, r: (s_div(-b, a * a + b * b),
                               s_div(a, a * a + b * b))),
}


# the kinds of cell each statement primitive takes; a bijector views the
# kinds NEG negates
_CELLS = {"NEG": ("int", "float", "fixed"), "INC": ("int", "fixed"),
          "DEC": ("int", "fixed"), "ROT": ("float",), "IROT": ("float",)}


@dataclass(frozen=True)
class Bijector:
    """A view `x |> name(args...)`: `forward` computes the view's value
    from the viewed cell's, `inverse` the cell's from the view's."""

    name: str
    n_args: int
    forward: object
    inverse: object
    valid: object = None

    def valid_args(self, args):
        return len(args) == self.n_args and \
            all(_KINDS[type(a)].name in ("int", "float") for a in args) \
            and (self.valid is None or self.valid(args))

    def fwd(self, v, args):
        self._held(v)
        return self.forward(v, *args)

    def inv(self, v, args, cell):
        """The value the viewed `cell` takes when the view takes `v`: of
        the cell's kind, as a `+=` on the cell would make it."""
        self._held(v)
        return self._held(cell).cast(cell, self.inverse(v, *args))

    def _held(self, v):
        """The kind of a value the bijector can view."""
        if _is_gvar_bearing(v):
            raise MissingAdjoint(f"no gradient rule for bijector "
                                 f"{self.name!r}")
        kind = _KINDS[type(v)]
        if kind.name not in _CELLS["NEG"]:
            raise KindError(f"bijector {self.name!r} cannot view "
                            f"{kind_name(v)}")
        return kind


def _mul_const(v, c):
    kind = _KINDS[type(v)]
    r = kind.real(v) * c
    try:
        return kind.cast(v, r)
    except KindError:   # an Int's view is an Int
        raise KindError("mulconst produced a non-integer for an Int cell") \
            from None


def _div_const(v, c):
    """v / c; `Bijector.inv` casts it to the cell's kind."""
    kind = _KINDS[type(v)]
    if kind.name == "int" and type(c) is int:   # exact, however large
        q, r = divmod(v, c)
        if r:
            raise KindError("mulconst write-back needs an integer-divisible "
                            "value")
        return q
    return kind.real(v) / c


BIJECTORS = {
    "neg": Bijector("neg", 0, lambda v: -v, lambda v: -v),
    # a Fixed cell adds and subtracts the constant as a Fixed
    "addconst": Bijector("addconst", 1, operator.add, operator.sub),
    "mulconst": Bijector("mulconst", 1, _mul_const, _div_const,
                         valid=lambda args: args[0] != 0),
}


# --- functions callable in expressions (conditions, bounds, allocs) ---

def _array_arg(x, fname):
    if type(x) is not Array:
        raise KindError(f"{fname}() needs an array, got {kind_name(x)}")
    return x


def _dim(d):
    if not is_int(d):
        raise KindError(f"size() needs an Int dimension, got {kind_name(d)}")
    return d


_ORDER = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
          "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compare(op, a, b):
    """`a op b` on two GVar-free scalars, as a bool. Complex values only
    compare with == and !=; a Fixed operand compares as Q31.32."""
    if type(a) is int and type(b) is int:
        return _ORDER[op](a, b)
    kinds = (_KINDS[type(a)].name, _KINDS[type(b)].name)
    if "complex" in kinds:
        if op not in ("==", "!="):
            raise KindError("complex values only compare with == and !=")
        eq = (kinds == ("complex", "complex")
              and to_real(a.re) == to_real(b.re)
              and to_real(a.im) == to_real(b.im))
        return eq if op == "==" else not eq
    if "fixed" in kinds:
        a, b = Fixed.from_real(a).raw, Fixed.from_real(b).raw
    else:
        a, b = to_real(a), to_real(b)
    return bool(_ORDER[op](a, b))


# the expression-only functions; see `expr_fn`
EXPR_FNS = {
    "min": FnSpec(2, 2, lambda a, b: b if compare("<", b, a) else a),
    "max": FnSpec(2, 2, lambda a, b: b if compare(">", b, a) else a),
    "length": FnSpec(1, 1, lambda x: len(_array_arg(x, "length").data)),
    "size": FnSpec(2, 2, lambda x, d: _array_arg(x, "size").size(_dim(d))),
    "ulog": FnSpec(1, 1, ULog.from_real),
    "fixed": FnSpec(1, 1, Fixed.from_real),
    "float": FnSpec(1, 1, lambda x: float(to_real(x))),
}


def _primal_spec(fname, s):
    return FnSpec(s.min_arity, s.max_arity,
                  lambda *args: _fn_value(fname, args))


# an expression call resolves to an expression-only function, else to the
# primal value of the instruction function (`_fn_value`), so expressions
# and instructions share one arithmetic
_EXPR_SPECS = {**{f: _primal_spec(f, s) for f, s in INSTR_FNS.items()},
               **EXPR_FNS}


def expr_fn(fname):
    """The FnSpec an expression call `fname(...)` resolves to, or None."""
    return _EXPR_SPECS.get(fname)


# --- instruction application ---

def _is_gvar_bearing(v):
    return type(v) is GVar or type(v) is Complex and carries_gvar(v)


def carries_gvar(v):
    """True when a value has a GVar leaf, i.e. it is being differentiated:
    a walk of the parts of its composites (`values._KINDS`)."""
    if type(v) is GVar:
        return True
    parts = _KINDS[type(v)].parts
    return parts is not None and any(map(carries_gvar, parts(v)))


def _arg_real(v):
    """Real content of an instruction argument (primal part for GVars)."""
    if type(v) is GVar:
        v = v.x
    if type(v) is Complex:
        return complex(float(to_real(v.re)), float(to_real(v.im)))
    return to_real(v)


def _fn_value(fname, argvals):
    """Evaluate the instruction function over argument values (primal).
    Fixed operands of add, sub and neg stay exact; a complex result is a
    Complex, and a real-only function given one raises KindError."""
    spec = INSTR_FNS.get(fname)
    if spec is None:
        raise KindError(f"unknown instruction function {fname!r}")
    if not spec.min_arity <= len(argvals) <= spec.max_arity:
        raise KindError(f"{fname} expects {spec.min_arity} arguments")
    vals = [a.x if type(a) is GVar else a for a in argvals]
    for v in vals:
        if type(v) not in _PLAIN_REALS:
            break
    else:
        if spec.apply is not None:
            return spec.apply(*vals)
    kinds = [_KINDS[type(v)].name for v in vals]
    if fname in _COMPLEX_FNS and kinds[0] == "complex":
        c = vals[0]
        return _COMPLEX_FNS[fname][0](to_real(c.re), to_real(c.im))
    if fname == "angle":
        raise KindError("angle takes a complex argument")
    if fname == "convert":
        return to_real(vals[0])
    if fname == "identity" and kinds[0] in ("bool", "fixed", "ulog",
                                            "complex"):
        return vals[0]
    if fname in ("add", "sub", "neg") and set(kinds) == {"fixed"}:
        return spec.apply(*vals)
    if "complex" in kinds:
        if fname not in _COMPLEX_ARITH:
            raise KindError(f"{fname} is undefined on complex values")
        r = spec.apply(*(complex(_arg_real(v)) for v in vals))
        return Complex(r.real, r.imag)
    return spec.apply(*(_arg_real(v) for v in vals))


# the exact argument types `_fn_value` hands to `apply` unchanged
_PLAIN_REALS = (float, int, np.float32, np.float64)

# the functions whose `apply` also computes on Python complex numbers
_COMPLEX_ARITH = ("add", "sub", "mul", "div", "pow", "neg")


def strip_gvar(v):
    """The primal value of a GVar; any other value as it is."""
    return v.x if type(v) is GVar else v


def _plus_minus_plain(op, fname, vals):
    return [_plus_minus(op, vals[0], _fn_value(fname, vals[1:]))] \
        + list(vals[1:])


def _plus_minus(op, target, fv):
    """`target op fv`, `fv` taken as the target's kind `cast` takes it; a
    Complex target part by part, each part as a target of its own kind."""
    kind = _KINDS[type(target)]
    if kind.cast is None:
        raise KindError(f"cannot apply {op} to {kind_name(target)}")
    d = kind.cast(target, fv)
    if kind.parts is None:
        return target + d if op == "+=" else target - d
    return Complex(*(_plus_minus(op, t, x)
                     for t, x in zip(kind.parts(target), kind.parts(d))))


def _log_contribution(fname, argvals):
    """Exponent-space contribution of the single *=//= argument: convert
    keeps a logarithmic argument's exponent, as identity does."""
    fv = _fn_value("identity" if fname == "convert" else fname, argvals)
    return fv.log_x if type(fv) is ULog else s_log(to_real(fv))


def _mul_div_plain(op, fname, vals):
    target = vals[0]
    if type(target) is not ULog:
        raise KindError(f"{op} target must be a logarithmic number, "
                        f"got {kind_name(target)}")
    contrib = _log_contribution(fname, vals[1:])
    sign = 1 if op == "*=" else -1
    return [ULog(target.log_x + sign * contrib)] + list(vals[1:])


def _xor_plain(fname, vals):
    target = vals[0]
    fv = _fn_value(fname, vals[1:])
    name = _KINDS[type(target)].name
    if name not in ("int", "bool"):
        raise KindError(f"xor= target must be Int or Bool, got "
                        f"{kind_name(target)}")
    if _KINDS[type(fv)].name not in (name, "bool"):   # an Int takes a Bool
        named = "an Int" if name == "int" else "a Bool"
        raise KindError(f"xor= on {named} target needs {named} value")
    return [target ^ fv] + list(vals[1:])


def _rotate(a, b, theta):
    c, s = s_cos(theta), s_sin(theta)
    return a * c - b * s, a * s + b * c


def _prim_plain(kind, vals):
    if kind == "NEG":
        (x,) = _cells(kind, *vals)
        return [-x]
    if kind in ("INC", "DEC"):
        (x,) = _cells(kind, *vals)
        return [x + _KINDS[type(x)].cast(x, 1 if kind == "INC" else -1)]
    if kind in ("ROT", "IROT"):
        a, b = _cells(kind, vals[0], vals[1])
        theta = to_real(vals[2])
        na, nb = _rotate(a, b, theta if kind == "ROT" else -theta)
        return [na, nb, vals[2]]
    raise KindError(f"unknown primitive {kind}")


def _cells(kind, *cells):
    """The cells a statement primitive turns, of the kinds it takes."""
    for x in cells:
        if _KINDS[type(x)].name not in _CELLS[kind]:
            raise KindError(f"{kind} on {kind_name(x)}")
    return cells


# --- gradient rules ---
# a cotangent step `a.g += coerce_to_kind(a.g, delta)` rounds the real
# delta to the kind of the g field


def _plus_minus_adjoint(op, fname, vals):
    y = vals[0]
    if type(y) is not GVar:
        raise MissingAdjoint(
            f"gradient pass reached a {op} whose target is not tracked")
    args = vals[1:]
    # uncompute/advance the primal exactly like the plain instruction
    new_target = _plus_minus_plain(op, fname, [y.x] + [a for a in args])[0]
    y.x = new_target
    sign = 1.0 if op == "-=" else -1.0
    gy = to_real(y.g)

    if fname == "convert":
        (a,) = args
        if type(a) is GVar:   # d value / d exponent = value
            a.g += coerce_to_kind(a.g, sign * gy * s_exp(a.x.log_x)
                                  if type(a.x) is ULog else sign * gy)
        return vals

    spec = INSTR_FNS[fname]
    # the primal update above checked the arity
    if fname in _COMPLEX_FNS and type(strip_gvar(args[0])) is Complex:
        c = strip_gvar(args[0])
        a_re, a_im = to_real(c.re), to_real(c.im)
        r = _COMPLEX_FNS[fname][0](a_re, a_im)
        dre, dim = _COMPLEX_FNS[fname][1](a_re, a_im, r)
        for part, d in ((c.re, dre), (c.im, dim)):
            if type(part) is GVar:
                part.g += coerce_to_kind(part.g, sign * gy * d)
        return vals

    if any(type(strip_gvar(a)) is Complex and _is_gvar_bearing(a)
           for a in args):
        raise MissingAdjoint(f"no complex-argument gradient rule for {fname!r}")
    if spec.partials is None:
        if any(type(a) is GVar for a in args):
            raise MissingAdjoint(f"no gradient rule for {fname!r}")
        return vals
    xs = [_arg_real(a) for a in args]
    adjoint_accumulate(fname, args, spec.partials(*xs), sign * gy)
    return vals


def adjoint_accumulate(fname, args, parts, c):
    """The cotangent step of a +=/-= adjoint: `a.g += c * p` for each GVar
    argument `a` and its partial `p`, in order, where `c` is the signed
    cotangent of the target; a GVar whose partial is None raises."""
    for a, p in zip(args, parts):
        if type(a) is GVar:
            if p is None:
                raise RevDomainError(
                    f"gradient of {fname!r} undefined at this point")
            a.g += coerce_to_kind(a.g, c * p)


def release_adjoint(fname, vals):
    """The cotangent step of releasing the ancilla `vals[0]` against
    `fname(*vals[1:])` in a gradient pass: the adjoint of `vals[0] -=
    fname(*vals[1:])` on a copy of the ancilla, and for `identity` leaf by
    leaf of a composite; without such a rule it raises where a cotangent
    would pass."""
    p, args = vals[0], vals[1:]
    if fname == "identity":
        for (_, a), (_, b) in zip(leaves(p), leaves(args[0])):
            if type(a) is GVar:
                adjoint_accumulate(fname, [b], [1.0], to_real(a.g))
    elif type(p) is GVar and fname in INSTR_FNS:
        _plus_minus_adjoint("-=", fname, [GVar(p.x, p.g), *args])
    elif carries_gvar(p) and any(map(carries_gvar, args)):
        raise MissingAdjoint(f"no gradient rule carries a {kind_name(p)} "
                             f"ancilla's cotangent through {fname!r}")


def _mul_div_adjoint(op, fname, vals):
    y = vals[0]
    if type(y) is not GVar or type(y.x) is not ULog:
        raise MissingAdjoint(f"gradient pass reached an untracked {op}")
    args = vals[1:]
    contrib = _log_contribution(fname, args)
    sign = 1.0 if op == "/=" else -1.0
    y.x = ULog(y.x.log_x - contrib if op == "/=" else y.x.log_x + contrib)
    gy = to_real(y.g)   # exponent-space cotangent
    (a,) = args
    if type(a) is GVar:   # a real `a` contributes log(a) to the exponent
        a.g += coerce_to_kind(a.g, sign * gy if type(a.x) is ULog
                              else sign * gy / to_real(a.x))
    return vals


def _rot_adjoint(kind, vals):
    a, b, theta = vals
    if not (type(a) is GVar and type(b) is GVar):
        raise MissingAdjoint("gradient pass reached a rotation on untracked cells")
    ax, bx = _cells(kind, a.x, b.x)
    ga, gb = to_real(a.g), to_real(b.g)
    if kind == "IROT":
        # reverse of a forward rotation by theta
        th_delta = -bx * ga + ax * gb
        back = -1
    else:
        # reverse of a forward rotation by -theta
        th_delta = bx * ga - ax * gb
        back = 1
    if type(theta) is GVar:
        theta.g += coerce_to_kind(theta.g, th_delta)
    th = to_real(theta.x if type(theta) is GVar else theta)
    na, nb = _rotate(ax, bx, back * th)
    nga, ngb = _rotate(ga, gb, back * th)
    a.x, b.x = coerce_to_kind(a.x, na), coerce_to_kind(b.x, nb)
    a.g, b.g = coerce_to_kind(a.g, nga), coerce_to_kind(b.g, ngb)
    return vals


def _neg_adjoint(vals):
    (x,) = vals
    x.x = -x.x
    x.g = -x.g
    return vals


def apply_instr(instr, vals):
    """Apply an instruction to a value list; returns the updated list.
    The first value is the mutated target for op-style instructions.
    Routes to the gradient rules when tracked (GVar) values are present."""
    kind = instr.kind
    grad = any(_is_gvar_bearing(v) for v in vals)
    if kind in ("+=", "-="):
        if grad:
            return _plus_minus_adjoint(kind, instr.fname, vals)
        return _plus_minus_plain(kind, instr.fname, vals)
    if kind in ("*=", "/="):
        if grad:
            return _mul_div_adjoint(kind, instr.fname, vals)
        return _mul_div_plain(kind, instr.fname, vals)
    if kind == "xor=":
        if grad:
            raise MissingAdjoint("xor= has no gradient rule (discrete kinds)")
        return _xor_plain(instr.fname, vals)
    # statement primitives
    if kind == "SWAP":
        a, b = vals
        return [b, a]
    if kind == "NEG" and grad:
        return _neg_adjoint(vals)
    if kind in ("ROT", "IROT") and grad:
        return _rot_adjoint(kind, vals)
    return _prim_plain(kind, vals)


def wrap_gvar(v):
    """Wrap the differentiable leaves of a value in GVar cells with zero
    gradients. Int and Bool leaves are gradient-free and stay bare."""
    return map_leaves(v, _wrap_leaf)


def _wrap_leaf(x):
    return GVar(x, zero_like(x)) if is_differentiable(x) else x


def unwrap_gvar(v):
    """The value with each GVar leaf replaced by its primal value."""
    return map_leaves(v, strip_gvar)
