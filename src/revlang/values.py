"""Runtime value model: the number systems and composite values the DSL computes with.

Scalar kinds: Int, Bool, Float (binary64 or binary32), Fixed (Q31.32
two's-complement), ULog (positive reals stored as a natural-log exponent),
Complex (mutable re/im pair). Composites: Array (1-D/2-D, 1-based), Record.
Gradient and tangent carriers: GVar (value + cotangent) and Dual
(value + tangent). GVar wraps scalar leaves only; composites hold wrapped
leaves inside.

Each kind lives in one record of `_KINDS`, found by a value's exact type:
`kind_name`, `to_real`, `zero_like`, `is_differentiable`, `is_int`,
`is_float`, the leaf copy and `coerce_to_kind` read it, and `deviation`
and `values_close` walk the `parts` it gives composites and GVars, with
one rule for a pair of leaves. The instructions and bijectors in
`numerics` read how a kind takes an update (`cast`) and the CLI a kind's
JSON encoding and `check` sample. A type with no record of its own
(np.float64, np.int32, a subclass) takes the record of its nearest base
in its MRO, once; `object` holds the record of a value the table does
not know.

Leaf traversal lives here (`map_leaves`, `leaves`, `get_leaf`,
`set_leaf`); `deep_copy`, the GVar wrappers in `numerics` and autodiff's
walkers are built on it.
"""

import itertools
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
        x = float(to_real(v))
        if not math.isfinite(x * _SCALE):
            raise RevDomainError(f"fixed point cannot hold {x}")
        return cls(round(x * _SCALE))

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
    if isinstance(v, (Fixed, int, float)):
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

    def get(self, name):
        return getattr(self, _complex_field(name))

    def set(self, name, v):
        setattr(self, _complex_field(name), v)

    def __eq__(self, other):
        return isinstance(other, Complex) and self.re == other.re and self.im == other.im

    def __repr__(self):
        return f"Complex({self.re!r}, {self.im!r})"


def _complex_field(name):
    if name not in ("re", "im"):
        raise KindError(f"complex values have fields re/im, not {name!r}")
    return name


class Array:
    """Rectangular 1-D or 2-D array with 1-based element access."""

    __slots__ = ("data", "shape")

    def __init__(self, data, shape):
        self.data = data
        self.shape = tuple(shape)
        if len(data) != math.prod(self.shape):
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
    """Forward-mode scalar: value plus tangent, with operator overloading.

    The tangent is a float, or a float64 vector of one tangent per column
    (vector forward mode, as `autodiff.hessian` seeds it). A vector column
    gets what a float tangent of its value gets: each rule that skips a
    zero tangent skips it per column, a tangent divided by a zero primal
    raises ZeroDivisionError, as a float's does, and no rule changes a
    tangent vector in place, so copies share it."""

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
        return Dual(p, _over(self.tangent - p * o.tangent, o.primal))

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


def _over(t, d):
    """A tangent over a scalar primal `d`; a zero `d` raises for a tangent
    vector too, where numpy would give inf or NaN."""
    if d == 0:
        raise ZeroDivisionError("float division by zero")
    return t / d


def _live(t):
    """Where a tangent is nonzero: None in no column, True in every
    column, else the mask of the columns."""
    live = t != 0
    if type(live) is not np.ndarray:
        return True if live else None
    return True if live.all() else live if live.any() else None


def _masked(live, new, old):
    """`new` in the columns `_live` found, `old` in the others."""
    return new if live is True else np.where(live, new, old)


# --- scalar math that is generic over float / np.float32 / int / Dual ---

def s_sqrt(x):
    if isinstance(x, Dual):
        # at <= 0 every column raises; the first column's error is the
        # one a pass per column meets first
        if _prim(x.primal) <= 0 and np.ravel(x.tangent)[0] != 0:
            raise RevDomainError("sqrt tangent undefined at <= 0")
        r = s_sqrt(x.primal)
        return Dual(r, _over(x.tangent, 2.0 * r))
    if x < 0:
        raise RevDomainError(f"sqrt of negative value {x}")
    return np.sqrt(x) if isinstance(x, np.floating) else math.sqrt(x)


def s_exp(x):
    if isinstance(x, Dual):
        r = s_exp(x.primal)
        return Dual(r, x.tangent * r)
    return np.exp(x) if isinstance(x, np.floating) else math.exp(x)


def s_log(x):
    if isinstance(x, Dual):
        return Dual(s_log(x.primal), _over(x.tangent, x.primal))
    if not x > 0:
        raise RevDomainError(f"log of non-positive value {x}")
    return np.log(x) if isinstance(x, np.floating) else math.log(x)


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
                    _over(xd.primal * yd.tangent - yd.primal * xd.tangent, r2))
    if isinstance(y, np.floating) or isinstance(x, np.floating):
        return np.arctan2(y, x)
    return math.atan2(y, x)


def s_abs(x):
    if isinstance(x, Dual):
        if x.primal == 0 and np.any(x.tangent != 0):
            raise RevDomainError("abs tangent undefined at 0")
        return Dual(abs(x.primal), x.tangent if x.primal >= 0 else -x.tangent)
    return abs(x)


def s_pow(a, b):
    if isinstance(a, Dual) or isinstance(b, Dual):
        ad, bd = _as_dual(a), _as_dual(b)
        r = s_pow(ad.primal, bd.primal)
        # each term only in the columns whose tangent is nonzero: there its
        # partial may be undefined, or infinite (and inf * 0.0 is NaN)
        t = 0.0
        if (live := _live(ad.tangent)) is not None:
            t = _masked(live, t + bd.primal * s_pow(ad.primal, bd.primal - 1)
                        * ad.tangent, t)
        if (live := _live(bd.tangent)) is not None:
            t = _masked(live, t + r * s_log(ad.primal) * bd.tangent, t)
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
    if is_int(a) and is_int(b):
        q, r = divmod(a, b)
        return q if r == 0 else a / b
    return a / b


# --- the kind table (see the module docstring) ---

class _Kind:
    """One kind of value: its kind_name (`name`, "" for the type's own);
    its real content, a zero of its kind, a copy of a mutable leaf and a
    real rounded to its kind (`real`, `zero`, `copy`, `coerce`; None where
    it has none); whether it carries a gradient (`diff`). Composites and
    GVars are made of `parts`, compared pairwise when their `layout`
    agrees; two leaves compare when they share a `gap` (their distance),
    within a tolerance when both are `tolerant`, by == otherwise. A cell
    `t` takes a computed `x` as `cast(t, x)` in an update (None where none
    applies); `encode(v, enc)` is v's JSON value and `sample(v, rng,
    again)` a random value like v (None: a copy), `enc` and `again`
    serving v's parts."""

    __slots__ = ("name", "diff", "tolerant", "real", "zero", "copy",
                 "coerce", "gap", "parts", "layout", "cast", "encode",
                 "sample")

    def __init__(self, name, diff=False, tolerant=False, **fields):
        self.name, self.diff, self.tolerant = name, diff, tolerant
        for slot in self.__slots__[3:]:
            setattr(self, slot, fields.get(slot))


class _Table(dict):
    def __missing__(self, t):
        kind = self[t] = next(self[base] for base in t.__mro__ if base in self)
        return kind


def _float_distance(a, b):
    """|a - b| as a float; 0 for equal values, infinities included. The gap
    of real kinds, and of values the table does not know (read by float());
    two Ints' is their exact difference, converted once. A gap beyond the
    float range is inf."""
    try:
        if _KINDS[type(a)] is _INT is _KINDS[type(b)]:
            return float(abs(int(a) - int(b)))
        fa, fb = float(_prim(a)), float(_prim(b))
    except TypeError:
        raise KindError(f"deviation of {kind_name(a)} and "
                        f"{kind_name(b)}") from None
    except OverflowError:
        return math.inf
    return 0.0 if fa == fb else abs(fa - fb)


def _int_cast(t, x):   # exact: an Int, or a Float's integral value
    kind = _KINDS[type(x)]
    if kind is _INT or kind is _BOOL:
        return x
    if kind.name != "float":
        raise KindError(f"Int target updated with {kind_name(x)}")
    f = float(x)
    if not f.is_integer():
        raise KindError(f"Int target updated with non-integer {x}")
    return int(f)


def _bool_cast(t, x):
    raise KindError("+=/-= target cannot be Bool (use xor=)")


def _float_cast(t, x):
    if type(x) is Complex:
        raise KindError("Float target updated with a complex value")
    x = to_real(x)
    return x if type(x) is Dual else _KINDS[type(t)].coerce(t, x)


def _complex_cast(t, x):   # a real x has a zero of t.re's kind for im
    if type(x) is Complex:
        return Complex(to_real(x.re), to_real(x.im))
    re = to_real(t.re)
    return Complex(to_real(x), _KINDS[type(re)].zero(re))


def json_float(x):
    """`x` as a float for JSON: a finite one as itself, a non-finite one as
    the value literal the CLI reads back ("nan", "inf" or "-inf"), since
    RFC 8259 has no number for it."""
    x = float(x)
    if math.isfinite(x):
        return x
    return "nan" if x != x else "inf" if x > 0 else "-inf"


def _encode_array(v, enc):
    if len(v.shape) == 1:
        return [enc(e) for e in v.data]
    rows, cols = v.shape
    return [[enc(e) for e in v.data[i * cols:(i + 1) * cols]]
            for i in range(rows)]


_INT = _Kind("int", real=lambda v: v, zero=lambda v: 0,
             coerce=lambda t, x: x if is_int(x) else round(float(x)),
             gap=_float_distance, cast=_int_cast,
             encode=lambda v, enc: int(v),
             sample=lambda v, rng, again: rng.randint(0, 6))
_BOOL = _Kind("bool", real=int, coerce=lambda t, x: bool(x),
              gap=lambda a, b: 0.0 if a == b else 1.0, cast=_bool_cast,
              encode=lambda v, enc: bool(v), sample=lambda v, rng, again: v)
_FLOAT_FIELDS = dict(real=lambda v: v, diff=True, gap=_float_distance,
                     tolerant=True, cast=_float_cast,
                     encode=lambda v, enc: json_float(v),
                     sample=lambda v, rng, again: rng.uniform(-2.0, 2.0))

_KINDS = _Table({
    int: _INT,
    np.integer: _INT,
    bool: _BOOL,
    float: _Kind("float", zero=lambda v: 0.0, coerce=lambda t, x: float(x),
                 **_FLOAT_FIELDS),
    np.floating: _Kind("float", zero=lambda v: type(v)(0.0),
                       coerce=lambda t, x: type(t)(x), **_FLOAT_FIELDS),
    Dual: _Kind("float", zero=lambda v: Dual(zero_like(v.primal),
                                             zero_like(v.primal)),
                copy=lambda v: Dual(v.primal, v.tangent),
                coerce=lambda t, x: Dual(x, 0.0), **_FLOAT_FIELDS),
    Fixed: _Kind("fixed", real=Fixed.to_float, zero=lambda v: Fixed(0),
                 coerce=lambda t, x: Fixed.from_real(float(_prim(x))),
                 diff=True, gap=lambda a, b: abs(a.raw - b.raw) / _SCALE,
                 cast=lambda t, x: Fixed.from_real(x),
                 encode=lambda v, enc: {"kind": "fixed",
                                        "value": v.decimal_str()},
                 sample=lambda v, rng, again: Fixed.from_real(
                     rng.uniform(0.25, 2.0))),
    # the zero is an exponent-space cotangent, which must hold zero
    ULog: _Kind("ulog", real=ULog.to_float, zero=lambda v: zero_like(v.log_x),
                diff=True, gap=lambda a, b: _float_distance(a.log_x, b.log_x),
                tolerant=True,
                encode=lambda v, enc: {"kind": "ulog",
                                       "log": json_float(v.log_x)},
                sample=lambda v, rng, again: ULog.from_real(
                    rng.uniform(0.25, 4.0))),
    Complex: _Kind("complex", parts=lambda v: (v.re, v.im), cast=_complex_cast,
                   encode=lambda v, enc: {"kind": "complex", "re": enc(v.re),
                                          "im": enc(v.im)},
                   sample=lambda v, rng, again: Complex(
                       rng.uniform(0.3, 2.0) * rng.choice([-1, 1]),
                       rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))),
    Array: _Kind("array", parts=lambda v: v.data, layout=lambda v: v.shape,
                 encode=_encode_array,
                 sample=lambda v, rng, again: Array(
                     [again(e, rng) for e in v.data], v.shape)),
    # fields pair up by name, whatever their order
    Record: _Kind("record", parts=lambda v: [v.fields()[k]
                                             for k in sorted(v.fields())],
                  layout=lambda v: v.fields().keys(),
                  encode=lambda v, enc: {"kind": "record", **{
                      k: enc(x) for k, x in sorted(v.fields().items())}},
                  sample=lambda v, rng, again: Record(**{
                      k: again(x, rng) for k, x in v.fields().items()})),
    GVar: _Kind("gvar", real=lambda v: to_real(v.x),
                copy=lambda v: GVar(_copy_leaf(v.x), _copy_leaf(v.g)),
                parts=lambda v: (v.x, v.g), encode=lambda v, enc: enc(v.x)),
    type(None): _Kind("", gap=_float_distance, encode=lambda v, enc: None),
    object: _Kind("", gap=_float_distance),
})


def is_int(v):
    return _KINDS[type(v)] is _INT


def is_bool(v):
    return _KINDS[type(v)] is _BOOL


def is_float(v):
    return _KINDS[type(v)].name == "float"


def is_differentiable(v):
    """A leaf that carries a gradient: Float (Dual included), Fixed or ULog."""
    return _KINDS[type(v)].diff


def kind_name(v):
    if type(v) is GVar:
        return "gvar[" + kind_name(v.x) + "]"
    return _KINDS[type(v)].name or type(v).__name__


def to_real(v):
    """Numeric (real) content of a scalar value; Duals stay Dual."""
    real = _KINDS[type(v)].real
    if real is None:
        raise KindError(f"expected a scalar, got {kind_name(v)}")
    return real(v)


# --- leaves ---
# Complex, Array and Record values are composites; every other value, GVar
# and Dual included, is a leaf. A path addresses a leaf by its steps from
# the root: ("idx", (i,)) or ("idx", (i, j)) into an array (1-based) and
# ("field", name) into a record or a complex value ("re", "im").

_COMPOSITES = (Array, Complex, Record)


def map_leaves(v, f):
    """`v` rebuilt with `f` applied to each of its leaves."""
    if not isinstance(v, _COMPOSITES):
        return f(v)
    if isinstance(v, Array):
        # a cell is most often a leaf: apply `f` without a call of this
        return Array([map_leaves(e, f) if isinstance(e, _COMPOSITES) else
                      f(e) for e in v.data], v.shape)
    if isinstance(v, Complex):
        return Complex(map_leaves(v.re, f), map_leaves(v.im, f))
    return Record(**{k: map_leaves(x, f) for k, x in v.fields().items()})


def leaves(v, _prefix=()):
    """(path, leaf) of each leaf of `v`: array cells in row-major order,
    fields in their order (re before im)."""
    if isinstance(v, Array):
        cells = itertools.product(*(range(1, n + 1) for n in v.shape))
        for idx, e in zip(cells, v.data):
            yield from leaves(e, _prefix + (("idx", idx),))
    elif isinstance(v, (Complex, Record)):
        for k, x in v.fields().items():
            yield from leaves(x, _prefix + (("field", k),))
    else:
        yield _prefix, v


def get_leaf(v, path):
    """The component of `v` at `path` (`v` for the empty path); KindError
    when a step does not fit the value it selects from (an index outside
    an array raises IndexOutOfBounds, as in a program)."""
    for kind, key in path:
        if kind == "idx" and isinstance(v, Array) or kind == "field" and \
                isinstance(v, (Complex, Record)) and key in v.fields():
            v = v.get(key)
        else:
            raise KindError(f"path step {kind} {key!r} does not fit "
                            f"a {kind_name(v)} value")
    return v


def set_leaf(v, path, new):
    """`v` with its component at `path` replaced by `new`, in place; for
    the empty path that is `new` itself."""
    if not path:
        return new
    get_leaf(v, path)  # every step must fit, the last one too
    get_leaf(v, path[:-1]).set(path[-1][1], new)
    return v


def leaf_list(v):
    """The leaves of `v` in `leaves` order, without their paths: the k-th
    is the leaf at the k-th path `leaves` gives."""
    if not isinstance(v, _COMPOSITES):
        return [v]
    parts = v.data if isinstance(v, Array) else v.fields().values()
    return [x for p in parts for x in (
        leaf_list(p) if isinstance(p, _COMPOSITES) else (p,))]


def _copy_leaf(v):
    copy = _KINDS[type(v)].copy
    return v if copy is None else copy(v)   # other scalars are immutable


def deep_copy(v):
    """`v` with each mutable part copied; a Python list or tuple (an
    argument list) element by element."""
    if type(v) is list or type(v) is tuple:
        return type(v)(map(deep_copy, v))
    return map_leaves(v, _copy_leaf)


def gvar_copy(v):
    """`numerics.wrap_gvar(deep_copy(v))` in one walk: a copy of `v` with
    each differentiable leaf in a GVar with a zero cotangent."""
    return map_leaves(v, _gvar_copy_leaf)


def _gvar_copy_leaf(x):
    if type(x) is float:   # the common leaf, wrapped without a lookup
        return GVar(x, 0.0)
    x = _copy_leaf(x)
    return GVar(x, zero_like(x)) if _KINDS[type(x)].diff else x


def zero_like(v):
    """A zero of the same scalar kind (used for fresh gradient fields)."""
    zero = _KINDS[type(v)].zero
    if zero is None:
        raise KindError(f"no zero for kind {kind_name(v)}")
    return zero(v)


def worst_deviation(ds):
    """The largest of some deviations, 0.0 of none; NaN when any is NaN,
    in whatever order they come."""
    ds = list(ds)
    return math.nan if any(d != d for d in ds) else max(ds, default=0.0)


def _compared(a, b):
    """(leaf of `a`, leaf of `b` in its place, their gap, whether it is
    tolerant) for each pair of corresponding leaves in order, walking the
    parts of composites and GVars; KindError where the two differ in kind
    or layout, or two leaves share no gap."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        ka = _KINDS[type(a)]
        kb = ka if type(b) is type(a) else _KINDS[type(b)]
        if ka.parts is None and kb.parts is None and ka.gap is kb.gap:
            yield a, b, ka.gap, ka.tolerant and kb.tolerant
        elif ka is not kb:
            raise KindError(f"deviation of {kind_name(a)} and {kind_name(b)}")
        elif ka.layout is not None and ka.layout(a) != ka.layout(b):
            raise KindError(f"deviation of differently shaped {ka.name}s")
        else:
            todo += zip(reversed(ka.parts(a)), reversed(ka.parts(b)))


def deviation(a, b):
    """Max componentwise |a - b| between two structurally equal values;
    KindError for two values it cannot compare."""
    return worst_deviation(gap(x, y) for x, y, gap, _ in _compared(a, b))


def values_close(a, b, float_tol):
    """Componentwise equality: exact for discrete kinds, within float_tol
    for float-backed kinds (Float, ULog exponents). Equal values are close,
    infinities included; NaN is close to nothing, and neither are values
    `deviation` cannot compare."""
    if type(a) is float and type(b) is float:
        return a == b or abs(a - b) <= float_tol
    try:
        for x, y, gap, tolerant in _compared(a, b):
            if not (x == y or tolerant and gap(x, y) <= float_tol):
                return False
    except KindError:
        return False
    return True


def coerce_to_kind(template, x):
    """Round a computed real to the kind of `template` (deterministically).
    A Dual stays a Dual, but in a fixed-point template, which holds no
    tangent."""
    kind = _KINDS[type(template)]
    if type(x) is Dual and type(template) is not Fixed:
        return x
    if kind.coerce is None:
        raise KindError(f"cannot coerce to kind {kind_name(template)}")
    return kind.coerce(template, x)
