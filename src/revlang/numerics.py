"""The reversible instruction set and its numeric semantics.

Instructions have the shape `target op= f(args...)` for op in {+ - * / xor}
plus the statement primitives SWAP/ROT/IROT/NEG/INC/DEC. Every instruction
has a registered inverse, and every differentiable instruction function has
registered partial derivatives, used both for the gradient rules (reverse
accumulation while uncomputing) and for Dual-number forward propagation.

`apply_instr` is the one generic rule: it dispatches on the instruction
kind and the value kinds, GVar values to the gradient rules.
Expressions share the function table: `expr_fn` resolves an operator or a
call to an expression-only function (`EXPR_FNS`) or to the primal value
of the instruction function, as `y += f(args)` computes it.
`instr_rule` resolves an instruction once per statement and runs a +=/-=
on plain real scalars inline, with the rounding `apply_instr` uses; the
interpreter applies every instruction through it.

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
from .values import (Array, Complex, Dual, Fixed, GVar, Record, ULog, is_bool,
                     is_float, is_int, kind_name, s_abs, s_atan2, s_cos, s_div,
                     s_exp, s_log, s_pow, s_sin, s_sqrt, to_real, zero_like)

INSTR_OPS = ("+=", "-=", "*=", "/=", "xor=")

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

    kind: str            # one of INSTR_OPS or PRIM_STATEMENTS
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
    if isinstance(a, Dual) or isinstance(b, Dual):   # a Hessian pass
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
    if (a if not isinstance(a, Dual) else a.primal) > 0:
        second = s_pow(a, b) * s_log(a)
    else:
        second = None
    return (first, second)


def _p_abs(x):
    p = x.primal if isinstance(x, Dual) else x
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


class Bijector:
    def __init__(self, name, n_args, fwd, inv, valid=None):
        self.name = name
        self.n_args = n_args
        self._fwd = fwd
        self._inv = inv
        self._valid = valid

    def valid_args(self, args):
        if len(args) != self.n_args:
            return False
        if any(not isinstance(a, (int, float)) or isinstance(a, bool)
               for a in args):
            return False
        return self._valid(args) if self._valid else True

    def fwd(self, v, args):
        return self._fwd(v, *args)

    def inv(self, v, args):
        return self._inv(v, *args)


def _add_const(v, c):
    if isinstance(v, Fixed):
        return v + Fixed.from_real(c)
    return v + c


def _sub_const(v, c):
    if isinstance(v, Fixed):
        return v - Fixed.from_real(c)
    return v - c


def _mul_const(v, c):
    if isinstance(v, Fixed):
        return Fixed.from_real(v.to_float() * c)
    if is_int(v):
        r = v * c
        if isinstance(r, float) and not r.is_integer():
            raise KindError("mulconst produced a non-integer for an Int cell")
        return int(r) if isinstance(r, float) else r
    return v * c


def _div_const(v, c):
    if isinstance(v, Fixed):
        return Fixed.from_real(v.to_float() / c)
    if is_int(v):
        q = v / c
        if not float(q).is_integer():
            raise KindError("mulconst write-back needs an integer-divisible value")
        return int(q)
    return v / c


BIJECTORS = {
    "neg": Bijector("neg", 0, lambda v: -v, lambda v: -v),
    "addconst": Bijector("addconst", 1, _add_const, _sub_const),
    "mulconst": Bijector("mulconst", 1, _mul_const, _div_const,
                         valid=lambda args: args[0] != 0),
}


# --- functions callable in expressions (conditions, bounds, allocs) ---

def _array_arg(x, fname):
    if not isinstance(x, Array):
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
    if isinstance(a, Complex) or isinstance(b, Complex):
        if op not in ("==", "!="):
            raise KindError("complex values only compare with == and !=")
        eq = (isinstance(a, Complex) and isinstance(b, Complex)
              and to_real(a.re) == to_real(b.re)
              and to_real(a.im) == to_real(b.im))
        return eq if op == "==" else not eq
    if isinstance(a, Fixed) or isinstance(b, Fixed):
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


def expr_fn(fname):
    """The FnSpec an expression call `fname(...)` resolves to, or None: an
    expression-only function, else the primal value of the instruction
    function (`_fn_value`), so expressions and instructions share one
    arithmetic."""
    spec = EXPR_FNS.get(fname)
    if spec is None and fname in INSTR_FNS:
        s = INSTR_FNS[fname]
        spec = FnSpec(s.min_arity, s.max_arity,
                      lambda *args: _fn_value(fname, args))
    return spec


# --- instruction application ---

def _is_gvar_bearing(v):
    if isinstance(v, GVar):
        return True
    if isinstance(v, Complex):
        return isinstance(v.re, GVar) or isinstance(v.im, GVar)
    return False


def carries_gvar(v):
    """True when a value has a GVar leaf, i.e. it is being differentiated."""
    if isinstance(v, Array):
        return any(carries_gvar(e) for e in v.data)
    if isinstance(v, Record):
        return any(carries_gvar(e) for e in v.fields().values())
    return _is_gvar_bearing(v)


def _arg_real(v):
    """Real content of an instruction argument (primal part for GVars)."""
    if isinstance(v, GVar):
        v = v.x
    if isinstance(v, Complex):
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
    vals = [a.x if isinstance(a, GVar) else a for a in argvals]
    for v in vals:
        if type(v) not in _ARM_ARGS:
            break
    else:   # plain reals, as in the inline arm of `instr_rule`
        if spec.apply is not None:
            return spec.apply(*vals)
    if fname in _COMPLEX_FNS and isinstance(vals[0], Complex):
        c = vals[0]
        return _COMPLEX_FNS[fname][0](to_real(c.re), to_real(c.im))
    if fname == "angle":
        raise KindError("angle takes a complex argument")
    if fname == "convert":
        return to_real(vals[0])
    if fname == "identity" and isinstance(vals[0], (Fixed, ULog, Complex)):
        return vals[0]
    if fname in ("add", "sub", "neg") and \
            all(isinstance(v, Fixed) for v in vals):
        return spec.apply(*vals)
    if any(isinstance(v, Complex) for v in vals):
        if fname not in _COMPLEX_ARITH:
            raise KindError(f"{fname} is undefined on complex values")
        r = spec.apply(*(complex(_arg_real(v)) for v in vals))
        return Complex(r.real, r.imag)
    return spec.apply(*(_arg_real(v) for v in vals))


# the functions whose `apply` also computes on Python complex numbers
_COMPLEX_ARITH = ("add", "sub", "mul", "div", "pow", "neg")


def _strip_gvar(v):
    return v.x if isinstance(v, GVar) else v


def _float_update(target, fv, plus):
    """target + fv (or - fv) on a Float target: a numpy target first rounds
    a real fv to its own precision."""
    if isinstance(target, np.floating) and not isinstance(fv, Dual):
        fv = type(target)(fv)
    return target + fv if plus else target - fv


def _plus_minus_plain(op, fname, vals):
    target = vals[0]
    fv = _fn_value(fname, vals[1:])
    sign = 1 if op == "+=" else -1
    if isinstance(target, Fixed):
        inc = Fixed.from_real(fv)
        new = target + inc if sign > 0 else target - inc
    elif isinstance(target, Complex):
        if isinstance(fv, Complex):
            fre, fim = to_real(fv.re), to_real(fv.im)
        else:
            fre, fim = to_real(fv), type(to_real(target.re))(0.0) \
                if isinstance(to_real(target.re), np.floating) else 0.0
        new = Complex(to_real(target.re) + sign * fre,
                      to_real(target.im) + sign * fim)
    elif is_bool(target):
        raise KindError("+=/-= target cannot be Bool (use xor=)")
    elif is_int(target):
        if isinstance(fv, (Fixed, ULog, Complex)):
            raise KindError(f"Int target updated with {kind_name(fv)}")
        if is_float(fv):
            f = float(fv)
            if not f.is_integer():
                raise KindError(f"Int target updated with non-integer {fv}")
            fv = int(f)
        new = target + sign * fv
    elif is_float(target):
        if isinstance(fv, Complex):
            raise KindError("Float target updated with a complex value")
        new = _float_update(target, to_real(fv), sign > 0)
    else:
        raise KindError(f"cannot apply {op} to {kind_name(target)}")
    return [new] + list(vals[1:])


def _log_contribution(fname, argvals):
    """Exponent-space contribution of the single *=//= argument: convert
    keeps a logarithmic argument's exponent, as identity does."""
    fv = _fn_value("identity" if fname == "convert" else fname, argvals)
    return fv.log_x if isinstance(fv, ULog) else s_log(to_real(fv))


def _mul_div_plain(op, fname, vals):
    target = vals[0]
    if not isinstance(target, ULog):
        raise KindError(f"{op} target must be a logarithmic number, "
                        f"got {kind_name(target)}")
    contrib = _log_contribution(fname, vals[1:])
    sign = 1 if op == "*=" else -1
    return [ULog(target.log_x + sign * contrib)] + list(vals[1:])


def _xor_plain(fname, vals):
    target = vals[0]
    fv = _fn_value(fname, vals[1:])
    if is_bool(target):
        if not is_bool(fv):
            raise KindError("xor= on a Bool target needs a Bool value")
        return [target ^ fv] + list(vals[1:])
    if is_int(target):
        if is_bool(fv):
            fv = int(fv)
        if not is_int(fv):
            raise KindError("xor= on an Int target needs an Int value")
        return [target ^ fv] + list(vals[1:])
    raise KindError(f"xor= target must be Int or Bool, got {kind_name(target)}")


def _rotate(a, b, theta):
    c, s = s_cos(theta), s_sin(theta)
    return a * c - b * s, a * s + b * c


def _prim_plain(kind, vals):
    if kind == "SWAP":
        a, b = vals
        return [b, a]
    if kind == "NEG":
        (x,) = vals
        if isinstance(x, (Fixed,)) or is_int(x) or is_float(x):
            return [-x]
        raise KindError(f"NEG on {kind_name(x)}")
    if kind in ("INC", "DEC"):
        (x,) = vals
        d = 1 if kind == "INC" else -1
        if is_int(x):
            return [x + d]
        if isinstance(x, Fixed):
            return [x + Fixed.from_real(d)] if d > 0 else [x - Fixed.from_real(1)]
        raise KindError(f"{kind} on {kind_name(x)}")
    if kind in ("ROT", "IROT"):
        a, b, theta = (to_real(v) for v in vals)
        th = theta if kind == "ROT" else -theta
        na, nb = _rotate(a, b, th)
        return [na, nb, vals[2]]
    raise KindError(f"unknown primitive {kind}")


# --- gradient rules ---

def _g_accum(gv, delta):
    """gv.g += delta, coercing the real-valued delta to the g field's kind."""
    g = gv.g
    if isinstance(g, Fixed):
        gv.g = g + Fixed.from_real(float(delta))
    elif isinstance(g, np.floating) and not isinstance(delta, Dual):
        gv.g = g + type(g)(delta)
    else:
        gv.g = g + delta
    return gv


def _gy_real(y):
    return to_real(y.g) if not isinstance(y.g, Dual) else y.g


def _plus_minus_adjoint(op, fname, vals):
    y = vals[0]
    if not isinstance(y, GVar):
        raise MissingAdjoint(
            f"gradient pass reached a {op} whose target is not tracked")
    args = vals[1:]
    # uncompute/advance the primal exactly like the plain instruction
    new_target = _plus_minus_plain(op, fname, [y.x] + [a for a in args])[0]
    y.x = new_target
    sign = 1.0 if op == "-=" else -1.0
    gy = _gy_real(y)

    if fname == "convert":
        (a,) = args
        if isinstance(a, GVar):
            inner = a.x
            if isinstance(inner, ULog):
                # d value / d exponent = value
                _g_accum(a, sign * gy * s_exp(inner.log_x))
            else:
                _g_accum(a, sign * gy)
        return vals

    spec = INSTR_FNS[fname]
    # the primal update above checked the arity
    if fname in _COMPLEX_FNS and isinstance(_strip_gvar(args[0]), Complex):
        c = _strip_gvar(args[0])
        a_re, a_im = to_real(c.re), to_real(c.im)
        r = _COMPLEX_FNS[fname][0](a_re, a_im)
        dre, dim = _COMPLEX_FNS[fname][1](a_re, a_im, r)
        if isinstance(c.re, GVar):
            _g_accum(c.re, sign * gy * dre)
        if isinstance(c.im, GVar):
            _g_accum(c.im, sign * gy * dim)
        return vals

    if any(isinstance(_strip_gvar(a), Complex) and _is_gvar_bearing(a)
           for a in args):
        raise MissingAdjoint(f"no complex-argument gradient rule for {fname!r}")
    if spec.partials is None:
        if any(isinstance(a, GVar) for a in args):
            raise MissingAdjoint(f"no gradient rule for {fname!r}")
        return vals
    xs = [_arg_real(a) for a in args]
    parts = spec.partials(*xs)
    for a, p in zip(args, parts):
        if isinstance(a, GVar):
            if p is None:
                raise RevDomainError(
                    f"gradient of {fname!r} undefined at this point")
            _g_accum(a, sign * gy * p)
    return vals


def _mul_div_adjoint(op, fname, vals):
    y = vals[0]
    if not isinstance(y, GVar) or not isinstance(y.x, ULog):
        raise MissingAdjoint(f"gradient pass reached an untracked {op}")
    args = vals[1:]
    contrib = _log_contribution(fname, args)
    sign = 1.0 if op == "/=" else -1.0
    y.x = ULog(y.x.log_x - contrib if op == "/=" else y.x.log_x + contrib)
    gy = _gy_real(y)   # exponent-space cotangent
    (a,) = args
    if isinstance(a, GVar):
        if isinstance(a.x, ULog):
            _g_accum(a, sign * gy)
        else:
            # exponent contribution is log(value(a))
            _g_accum(a, sign * gy / to_real(a.x))
    return vals


def _rot_adjoint(kind, vals):
    a, b, theta = vals
    if not (isinstance(a, GVar) and isinstance(b, GVar)):
        raise MissingAdjoint("gradient pass reached a rotation on untracked cells")
    ax, bx = to_real(a.x), to_real(b.x)
    ga, gb = _gy_real(a), _gy_real(b)
    if kind == "IROT":
        # reverse of a forward rotation by theta
        th_delta = -bx * ga + ax * gb
        back = -1
    else:
        # reverse of a forward rotation by -theta
        th_delta = bx * ga - ax * gb
        back = 1
    if isinstance(theta, GVar):
        _g_accum(theta, th_delta)
    th = to_real(theta.x if isinstance(theta, GVar) else theta)
    na, nb = _rotate(ax, bx, back * th)
    nga, ngb = _rotate(ga, gb, back * th)
    a.x, b.x = _retype(a.x, na), _retype(b.x, nb)
    a.g, b.g = _retype(a.g, nga), _retype(b.g, ngb)
    return vals


def _retype(template, v):
    if isinstance(template, np.floating) and not isinstance(v, Dual):
        return type(template)(v)
    return v


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


# exact scalar types that the inline +=/-= arm of `instr_rule` accepts
_ARM_TARGETS = (float, np.float32, np.float64)
_ARM_ARGS = (float, int, np.float32, np.float64)


def instr_rule(instr):
    """The update rule of one instruction, `vals -> updated values` with
    the contract of `apply_instr`, resolved once per statement.

    A +=/-= of a function with `apply` runs inline when the exact types of
    the target (`_ARM_TARGETS`), the arguments and the function's value
    (`_ARM_ARGS`) are plain reals: it computes what `apply_instr` does,
    with the same rounding (`_float_update`). Everything else, GVar values
    included, calls the module-level `apply_instr`, looked up at call
    time."""
    spec = INSTR_FNS.get(instr.fname)
    if instr.kind not in ("+=", "-=") or spec is None or spec.apply is None:
        return lambda vals: apply_instr(instr, vals)
    fn, plus = spec.apply, instr.kind == "+="

    def rule(vals):
        t = vals[0]
        if type(t) in _ARM_TARGETS:
            args = vals[1:]
            for a in args:
                if type(a) not in _ARM_ARGS:
                    break
            else:
                fv = fn(*args)
                if type(fv) in _ARM_ARGS:
                    return [_float_update(t, fv, plus), *args]
        return apply_instr(instr, vals)
    return rule


def wrap_gvar(v):
    """Wrap the differentiable leaves of a value in GVar cells with zero
    gradients. Int and Bool leaves are gradient-free and stay bare."""
    if isinstance(v, GVar):
        return v
    if isinstance(v, Complex):
        return Complex(wrap_gvar(v.re), wrap_gvar(v.im))
    if isinstance(v, Array):
        return Array([wrap_gvar(e) for e in v.data], v.shape)
    if isinstance(v, Record):
        return Record(**{k: wrap_gvar(x) for k, x in v.fields().items()})
    if isinstance(v, (Fixed, ULog)) or is_float(v):
        return GVar(v, zero_like(v))
    return v


def unwrap_gvar(v):
    if isinstance(v, GVar):
        return unwrap_gvar(v.x)
    if isinstance(v, Complex):
        return Complex(unwrap_gvar(v.re), unwrap_gvar(v.im))
    if isinstance(v, Array):
        return Array([unwrap_gvar(e) for e in v.data], v.shape)
    if isinstance(v, Record):
        return Record(**{k: unwrap_gvar(x) for k, x in v.fields().items()})
    return v
