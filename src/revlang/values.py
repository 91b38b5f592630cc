"""Runtime value model: the number systems and composite values the DSL computes with.

Scalar kinds: Int, Bool, Float (binary64 or binary32), Fixed (Q31.32
two's-complement), ULog (positive reals stored as a natural-log exponent),
Complex (mutable re/im pair). Composites: Array (1-D/2-D, 1-based), Record.
Gradient and tangent carriers: GVar (value + cotangent) and Dual
(value + tangent). GVar wraps scalar leaves only; composites hold wrapped
leaves inside.
"""

import math

import numpy as np

from .errors import IndexOutOfBounds, KindError, NoSuchField, RevDomainError

FRAC_BITS = 32
_SCALE = 1 << FRAC_BITS
_WRAP = 1 << 64
_SIGN = 1 << 63


def _wrap64(raw):
    raw &= _WRAP - 1
    return raw - _WRAP if raw & _SIGN else raw


class Fixed:
    """Q31.32 fixed-point number. Addition and subtraction wrap mod 2^64,
    which keeps them exactly invertible; everything else goes through float."""

    __slots__ = ("raw",)

    def __init__(self, raw):
        self.raw = _wrap64(raw)

    @classmethod
    def from_real(cls, v):
        if isinstance(v, Fixed):
            return v
        return cls(round(float(to_real(v)) * _SCALE))

    def to_float(self):
        return self.raw / _SCALE

    def __add__(self, other):
        return Fixed(self.raw + _coerce_fixed(other).raw)

    def __sub__(self, other):
        return Fixed(self.raw - _coerce_fixed(other).raw)

    def __neg__(self):
        return Fixed(-self.raw)

    def __eq__(self, other):
        return isinstance(other, Fixed) and self.raw == other.raw

    def __lt__(self, other):
        return self.raw < _coerce_fixed(other).raw

    def __le__(self, other):
        return self.raw <= _coerce_fixed(other).raw

    def __gt__(self, other):
        return self.raw > _coerce_fixed(other).raw

    def __ge__(self, other):
        return self.raw >= _coerce_fixed(other).raw

    def __hash__(self):
        return hash(("Fixed", self.raw))

    def __repr__(self):
        return f"Fixed({self.to_float()!r})"

    def decimal_str(self):
        """Exact decimal rendering of raw/2^32."""
        neg = self.raw < 0
        mag = -self.raw if neg else self.raw
        ip, fp = divmod(mag, _SCALE)
        if fp == 0:
            frac = ""
        else:
            digits = str(fp * 5**FRAC_BITS).rjust(FRAC_BITS, "0").rstrip("0")
            frac = "." + digits
        return ("-" if neg else "") + str(ip) + frac


def _coerce_fixed(v):
    if isinstance(v, Fixed):
        return v
    if isinstance(v, (int, float)):
        return Fixed.from_real(v)
    raise KindError(f"cannot mix Fixed with {type(v).__name__}")


class ULog:
    """Unsigned logarithmic number: value = e^log_x with the exponent stored
    as a float. Multiply/divide become exponent add/subtract. Cannot
    represent zero or negative values."""

    __slots__ = ("log_x",)

    def __init__(self, log_x):
        self.log_x = log_x

    @classmethod
    def from_real(cls, v):
        x = to_real(v)
        if not x > 0:
            raise RevDomainError(f"logarithmic numbers are positive; got {x}")
        return cls(s_log(x))

    def to_float(self):
        return s_exp(self.log_x)

    def __eq__(self, other):
        return isinstance(other, ULog) and _prim(self.log_x) == _prim(other.log_x)

    def __hash__(self):
        return hash(("ULog", _prim(self.log_x)))

    def __repr__(self):
        return f"ULog(exp={self.log_x!r})"


class Complex:
    """Mutable complex value; re/im hold Float leaves (possibly GVar-wrapped)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def fields(self):
        return {"re": self.re, "im": self.im}

    def __eq__(self, other):
        return isinstance(other, Complex) and self.re == other.re and self.im == other.im

    def __repr__(self):
        return f"Complex({self.re!r}, {self.im!r})"


class Array:
    """Rectangular 1-D or 2-D array with 1-based element access."""

    __slots__ = ("data", "shape")

    def __init__(self, data, shape):
        self.data = data
        self.shape = tuple(shape)
        n = 1
        for s in self.shape:
            n *= s
        if len(data) != n:
            raise KindError(f"array data length {len(data)} != shape {shape}")

    @classmethod
    def vector(cls, values):
        return cls(list(values), (len(values),))

    @classmethod
    def matrix(cls, rows):
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise KindError("matrix rows must have equal length")
        flat = [v for row in rows for v in row]
        return cls(flat, (len(rows), ncols))

    def _offset(self, idx):
        if len(idx) != len(self.shape):
            raise IndexOutOfBounds(
                f"{len(idx)} indices for {len(self.shape)}-d array")
        off = 0
        for i, n in zip(idx, self.shape):
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise IndexOutOfBounds(f"array index must be an integer, got {i!r}")
            if not 1 <= i <= n:
                raise IndexOutOfBounds(f"index {i} out of bounds 1..{n}")
            off = off * n + (i - 1)
        return off

    def get(self, idx):
        return self.data[self._offset(idx)]

    def set(self, idx, v):
        self.data[self._offset(idx)] = v

    def size(self, dim):
        if not 1 <= dim <= len(self.shape):
            raise IndexOutOfBounds(f"size dim {dim} for {len(self.shape)}-d array")
        return self.shape[dim - 1]

    def __len__(self):
        return self.shape[0]

    def __eq__(self, other):
        return (isinstance(other, Array) and self.shape == other.shape
                and self.data == other.data)

    def __repr__(self):
        return f"Array({self.data!r}, shape={self.shape})"


class Record:
    """Mutable named-field record."""

    __slots__ = ("_fields",)

    def __init__(self, **fields):
        self._fields = dict(fields)

    def fields(self):
        return self._fields

    def get(self, name):
        try:
            return self._fields[name]
        except KeyError:
            raise NoSuchField(f"record has no field {name!r}") from None

    def set(self, name, v):
        if name not in self._fields:
            raise NoSuchField(f"record has no field {name!r}")
        self._fields[name] = v

    def __eq__(self, other):
        return isinstance(other, Record) and self._fields == other._fields

    def __repr__(self):
        return f"Record({self._fields!r})"


class GVar:
    """A scalar leaf paired with its accumulated cotangent.

    For ULog leaves the cotangent lives in exponent space and is stored as a
    plain float: a logarithmic number cannot represent the required zero
    initial value (or sign changes), so the gradient field intentionally has
    a different kind there.
    """

    __slots__ = ("x", "g")

    def __init__(self, x, g):
        self.x = x
        self.g = g

    def __eq__(self, other):
        return isinstance(other, GVar) and self.x == other.x and self.g == other.g

    def __repr__(self):
        return f"GVar({self.x!r}, {self.g!r})"


class Dual:
    """Forward-mode scalar: value plus tangent, with operator overloading."""

    __slots__ = ("primal", "tangent")

    def __init__(self, primal, tangent=0.0):
        self.primal = primal
        self.tangent = tangent

    def __add__(self, other):
        o = _as_dual(other)
        return Dual(self.primal + o.primal, self.tangent + o.tangent)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_dual(other)
        return Dual(self.primal - o.primal, self.tangent - o.tangent)

    def __rsub__(self, other):
        o = _as_dual(other)
        return Dual(o.primal - self.primal, o.tangent - self.tangent)

    def __mul__(self, other):
        o = _as_dual(other)
        return Dual(self.primal * o.primal,
                    self.tangent * o.primal + self.primal * o.tangent)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_dual(other)
        p = self.primal / o.primal
        return Dual(p, (self.tangent - p * o.tangent) / o.primal)

    def __rtruediv__(self, other):
        return _as_dual(other).__truediv__(self)

    def __pow__(self, other):
        return s_pow(self, other)

    def __rpow__(self, other):
        return s_pow(other, self)

    def __neg__(self):
        return Dual(-self.primal, -self.tangent)

    def __abs__(self):
        return s_abs(self)

    def __eq__(self, other):
        return _prim(self) == _prim(other)

    def __lt__(self, other):
        return _prim(self) < _prim(other)

    def __le__(self, other):
        return _prim(self) <= _prim(other)

    def __gt__(self, other):
        return _prim(self) > _prim(other)

    def __ge__(self, other):
        return _prim(self) >= _prim(other)

    def __hash__(self):
        return hash(_prim(self))

    def __float__(self):
        return float(self.primal)

    def __repr__(self):
        return f"Dual({self.primal!r}, {self.tangent!r})"


def _as_dual(v):
    return v if isinstance(v, Dual) else Dual(v, 0.0)


def _prim(v):
    return v.primal if isinstance(v, Dual) else v


# --- scalar math that is generic over float / np.float32 / int / Dual ---

def s_sqrt(x):
    if isinstance(x, Dual):
        if _prim(x.primal) <= 0 and x.tangent != 0:
            raise RevDomainError("sqrt tangent undefined at <= 0")
        r = s_sqrt(x.primal)
        return Dual(r, x.tangent / (2.0 * r))
    if isinstance(x, np.floating):
        if x < 0:
            raise RevDomainError(f"sqrt of negative value {x}")
        return np.sqrt(x)
    if x < 0:
        raise RevDomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def s_exp(x):
    if isinstance(x, Dual):
        r = s_exp(x.primal)
        return Dual(r, x.tangent * r)
    if isinstance(x, np.floating):
        return np.exp(x)
    return math.exp(x)


def s_log(x):
    if isinstance(x, Dual):
        return Dual(s_log(x.primal), x.tangent / x.primal)
    if not x > 0:
        raise RevDomainError(f"log of non-positive value {x}")
    if isinstance(x, np.floating):
        return np.log(x)
    return math.log(x)


def s_sin(x):
    if isinstance(x, Dual):
        return Dual(s_sin(x.primal), x.tangent * s_cos(x.primal))
    return np.sin(x) if isinstance(x, np.floating) else math.sin(x)


def s_cos(x):
    if isinstance(x, Dual):
        return Dual(s_cos(x.primal), -x.tangent * s_sin(x.primal))
    return np.cos(x) if isinstance(x, np.floating) else math.cos(x)


def s_atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        yd, xd = _as_dual(y), _as_dual(x)
        r2 = yd.primal * yd.primal + xd.primal * xd.primal
        return Dual(s_atan2(yd.primal, xd.primal),
                    (xd.primal * yd.tangent - yd.primal * xd.tangent) / r2)
    if isinstance(y, np.floating) or isinstance(x, np.floating):
        return np.arctan2(y, x)
    return math.atan2(y, x)


def s_abs(x):
    if isinstance(x, Dual):
        if x.primal == 0 and x.tangent != 0:
            raise RevDomainError("abs tangent undefined at 0")
        return Dual(abs(x.primal), x.tangent if x.primal >= 0 else -x.tangent)
    return abs(x)


def s_pow(a, b):
    if isinstance(a, Dual) or isinstance(b, Dual):
        ad, bd = _as_dual(a), _as_dual(b)
        r = s_pow(ad.primal, bd.primal)
        t = 0.0
        if ad.tangent != 0:
            t = t + bd.primal * s_pow(ad.primal, bd.primal - 1) * ad.tangent
        if bd.tangent != 0:
            t = t + r * s_log(ad.primal) * bd.tangent
        return Dual(r, t)
    try:
        r = a ** b
    except (ArithmeticError, ValueError) as e:
        raise RevDomainError(f"power {a} ^ {b}: {e}") from None
    # a real power with a complex result: a Python complex, or a NaN
    real = not (isinstance(a, complex) or isinstance(b, complex))
    if real and (isinstance(r, complex) or r != r) and a == a and b == b:
        raise RevDomainError(f"power {a} ^ {b} is not real")
    return r


def s_div(a, b):
    if _prim(b) == 0:
        raise RevDomainError("division by zero")
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        q, r = divmod(a, b)
        return q if r == 0 else a / b
    return a / b


# --- kind helpers ---

def is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_bool(v):
    return isinstance(v, bool)


def is_float(v):
    return isinstance(v, (float, np.floating)) or isinstance(v, Dual)


def kind_name(v):
    if isinstance(v, GVar):
        return "gvar[" + kind_name(v.x) + "]"
    if is_bool(v):
        return "bool"
    if is_int(v):
        return "int"
    if is_float(v):
        return "float"
    if isinstance(v, Fixed):
        return "fixed"
    if isinstance(v, ULog):
        return "ulog"
    if isinstance(v, Complex):
        return "complex"
    if isinstance(v, Array):
        return "array"
    if isinstance(v, Record):
        return "record"
    return type(v).__name__


def to_real(v):
    """Numeric (real) content of a scalar value; Duals stay Dual."""
    if isinstance(v, GVar):
        return to_real(v.x)
    if isinstance(v, Fixed):
        return v.to_float()
    if isinstance(v, ULog):
        return v.to_float()
    if is_bool(v):
        return int(v)
    if is_int(v) or is_float(v):
        return v
    raise KindError(f"expected a scalar, got {kind_name(v)}")


def deep_copy(v):
    if isinstance(v, (Complex,)):
        return Complex(deep_copy(v.re), deep_copy(v.im))
    if isinstance(v, Array):
        return Array([deep_copy(e) for e in v.data], v.shape)
    if isinstance(v, Record):
        return Record(**{k: deep_copy(x) for k, x in v.fields().items()})
    if isinstance(v, GVar):
        return GVar(deep_copy(v.x), deep_copy(v.g))
    if isinstance(v, Dual):
        return Dual(v.primal, v.tangent)
    return v  # scalars are immutable


def zero_like(v):
    """A zero of the same scalar kind (used for fresh gradient fields)."""
    if isinstance(v, Dual):
        return Dual(zero_like(v.primal), zero_like(v.primal))
    if isinstance(v, np.floating):
        return type(v)(0.0)
    if isinstance(v, Fixed):
        return Fixed(0)
    if isinstance(v, ULog):
        # exponent-space cotangent; must be able to represent zero
        return zero_like(v.log_x)
    if is_float(v):
        return 0.0
    if is_int(v):
        return 0
    raise KindError(f"no zero for kind {kind_name(v)}")


def deviation(a, b):
    """Max componentwise |a - b| between two structurally equal values."""
    if isinstance(a, GVar) and isinstance(b, GVar):
        return max(deviation(a.x, b.x), deviation(a.g, b.g))
    if isinstance(a, Complex) and isinstance(b, Complex):
        return max(deviation(a.re, b.re), deviation(a.im, b.im))
    if isinstance(a, Array) and isinstance(b, Array):
        if a.shape != b.shape:
            raise KindError("deviation of differently shaped arrays")
        return max((deviation(x, y) for x, y in zip(a.data, b.data)), default=0.0)
    if isinstance(a, Record) and isinstance(b, Record):
        fa, fb = a.fields(), b.fields()
        if fa.keys() != fb.keys():
            raise KindError("deviation of differently shaped records")
        return max((deviation(fa[k], fb[k]) for k in fa), default=0.0)
    if isinstance(a, ULog) and isinstance(b, ULog):
        return _float_distance(a.log_x, b.log_x)
    if isinstance(a, Fixed) and isinstance(b, Fixed):
        return abs(a.raw - b.raw) / _SCALE
    if is_bool(a) != is_bool(b):
        raise KindError("deviation of a bool and a non-bool")
    if is_bool(a):
        return 0.0 if a == b else 1.0
    return _float_distance(a, b)


def _float_distance(a, b):
    """|a - b| as a float; 0 for equal values, infinities included."""
    fa, fb = float(_prim(a)), float(_prim(b))
    return 0.0 if fa == fb else abs(fa - fb)


def values_close(a, b, float_tol):
    """Componentwise equality: exact for discrete kinds, within float_tol
    for float-backed kinds (Float, ULog exponents). Equal values are close,
    infinities included; NaN is close to nothing."""
    if type(a) is float and type(b) is float:
        return a == b or abs(a - b) <= float_tol
    if isinstance(a, GVar) or isinstance(b, GVar):
        if not (isinstance(a, GVar) and isinstance(b, GVar)):
            return False
        return values_close(a.x, b.x, float_tol) and values_close(a.g, b.g, float_tol)
    if isinstance(a, Complex) and isinstance(b, Complex):
        return (values_close(a.re, b.re, float_tol)
                and values_close(a.im, b.im, float_tol))
    if isinstance(a, Array) and isinstance(b, Array):
        return a.shape == b.shape and all(
            values_close(x, y, float_tol) for x, y in zip(a.data, b.data))
    if isinstance(a, Record) and isinstance(b, Record):
        fa, fb = a.fields(), b.fields()
        return fa.keys() == fb.keys() and all(
            values_close(fa[k], fb[k], float_tol) for k in fa)
    if isinstance(a, ULog) and isinstance(b, ULog):
        return _float_distance(a.log_x, b.log_x) <= float_tol
    if isinstance(a, Fixed) or isinstance(b, Fixed):
        return isinstance(a, Fixed) and isinstance(b, Fixed) and a.raw == b.raw
    if is_bool(a) or is_bool(b):
        return is_bool(a) and is_bool(b) and a == b
    if is_int(a) and is_int(b):
        return a == b
    if is_float(a) and is_float(b):
        return _float_distance(a, b) <= float_tol
    return a == b


def coerce_to_kind(template, x):
    """Round a computed real to the kind of `template` (deterministically)."""
    if isinstance(template, Fixed):
        return Fixed.from_real(float(_prim(x)))
    if isinstance(template, Dual) or isinstance(x, Dual):
        return _as_dual(x)
    if isinstance(template, np.floating):
        return type(template)(x)
    if is_float(template):
        return float(x)
    if is_bool(template):
        return bool(x)
    if is_int(template):
        if is_int(x):
            return x
        return round(float(x))
    raise KindError(f"cannot coerce to kind {kind_name(template)}")
