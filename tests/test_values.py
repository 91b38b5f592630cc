import itertools
import math
import operator
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revlang.autodiff import leaf_paths
from revlang.cli import _jitter, encode_value
from revlang.errors import KindError, RevDomainError
from revlang.numerics import (BIJECTORS, PrimitiveInstr, apply_instr,
                              carries_gvar, compare, unwrap_gvar, wrap_gvar)
from revlang.values import (Array, Complex, Dual, Fixed, GVar, Record, ULog,
                            coerce_to_kind, deep_copy, deviation, get_leaf,
                            is_differentiable, is_float, is_int, kind_name,
                            leaves, map_leaves, s_abs, s_atan2, s_cos, s_exp,
                            s_log, s_pow, s_sin, s_sqrt, set_leaf, to_real,
                            values_close, zero_like)

fixeds = st.integers(min_value=-(2**63), max_value=2**63 - 1).map(Fixed)

# dyadic exponents on a modest grid stay exactly representable through
# sums bounded by 128, so the log-domain round trip is provably bit-exact
# on this domain (binary64 rounding breaks the unrestricted claim, just as
# float a + b - b is only approximately a)
dyadic_exponents = st.integers(min_value=-(1 << 22), max_value=1 << 22).map(
    lambda n: n / float(1 << 16))


class TestFixed:
    def test_quantization(self):
        assert Fixed.from_real(1.5).to_float() == 1.5
        assert Fixed.from_real(-2.25).to_float() == -2.25

    def test_spec_example_exact_sum(self):
        a, b = Fixed.from_real(1.5), Fixed.from_real(2.25)
        assert (a + b) - b == a

    def test_wraparound_preserves_invertibility(self):
        big = Fixed((1 << 63) - 5)
        w = Fixed.from_real(123.456)
        assert (big + w) - w == big

    @given(fixeds, fixeds)
    def test_roundtrip_bit_exact(self, v, w):
        assert (v + w) - w == v

    def test_decimal_str_exact(self):
        assert Fixed.from_real(1.5).decimal_str() == "1.5"
        assert Fixed(1).decimal_str().startswith("0.0000000002328")
        assert Fixed.from_real(-3).decimal_str() == "-3"

    def test_ordering_uses_raw(self):
        assert Fixed.from_real(1.0) < Fixed.from_real(1.5)
        assert Fixed.from_real(-1.0) < Fixed.from_real(0.5)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e308])
    def test_a_value_it_cannot_hold_is_a_domain_error(self, x):
        with pytest.raises(RevDomainError, match="fixed point cannot hold"):
            Fixed.from_real(x)


class TestULog:
    def test_cannot_be_zero(self):
        with pytest.raises(RevDomainError):
            ULog.from_real(0.0)
        with pytest.raises(RevDomainError):
            ULog.from_real(-2.0)

    def test_spec_example_e2_e3(self):
        v, w = ULog(2.0), ULog(3.0)
        assert ULog((v.log_x + w.log_x) - w.log_x) == v

    @given(dyadic_exponents, dyadic_exponents)
    def test_roundtrip_exact_on_dyadic_grid(self, a, b):
        # (v * w) / w in the log domain: exponent add then subtract
        assert ULog((a + b) - b) == ULog(a)

    def test_float_pm_only_tolerant(self):
        # the documented caveat: float accumulate/subtract is reversible
        # only up to roundoff
        x = 0.1 + 0.2 - 0.2
        assert abs(x - 0.1) <= 1e-9


DUAL_EDGES = (0.0, -0.0, 1.5, -2.0, 0.5, 3.0, math.inf, -math.inf,
              math.nan, 1e308, 5e-324)
DUAL_TANGENTS = (0.0, -0.0, 1.0, -2.5, math.inf, math.nan)
_DUAL_RULES = {"add": (operator.add, 2), "sub": (operator.sub, 2),
               "mul": (operator.mul, 2), "div": (operator.truediv, 2),
               "pow": (s_pow, 2), "atan2": (s_atan2, 2),
               "sqrt": (s_sqrt, 1), "exp": (s_exp, 1), "log": (s_log, 1),
               "sin": (s_sin, 1), "cos": (s_cos, 1), "abs": (s_abs, 1),
               "neg": (operator.neg, 1)}


def _same_float(a, b):
    a, b = float(a), float(b)
    return a != a and b != b or struct.pack("<d", a) == struct.pack("<d", b)


def _check_columns(fname, ops):
    """A rule given a tangent vector gives each column, bit for bit (NaN
    as NaN), what it gives that column's float tangent, and raises when a
    column raises. An operand (primal, kind, tangents) is a float, a Dual
    with the float tangent 0.0 (a constant), or a Dual with a vector."""
    rule = _DUAL_RULES[fname][0]

    def operand(p, kind, ts, col=None):
        if kind == "float":
            return p
        if kind == "const":
            return Dual(p, 0.0)
        return Dual(p, ts[col] if col is not None else np.array(ts))

    def outcome(col=None):
        try:
            # as `autodiff.hessian` runs its pass
            with np.errstate(over="ignore", invalid="ignore"):
                r = rule(*(operand(*o, col) for o in ops))
        except (RevDomainError, ArithmeticError, ValueError):
            return "error"
        return r if type(r) is Dual else Dual(r, 0.0)

    columns = [outcome(col) for col in range(3)]
    got = outcome()
    if "error" in columns:
        assert got == "error"
        return
    assert got != "error" and _same_float(got.primal, columns[0].primal)
    for t, col in zip(np.broadcast_to(got.tangent, (3,)), columns):
        assert _same_float(t, col.tangent)


class TestDual:
    def test_arithmetic_tangents(self):
        x = Dual(2.0, 1.0)
        y = x * x + 3.0 * x
        assert y.primal == 10.0 and y.tangent == 7.0

    def test_division_and_sqrt(self):
        x = Dual(4.0, 1.0)
        assert s_sqrt(x).primal == 2.0
        assert s_sqrt(x).tangent == 0.25
        q = 1.0 / x
        assert q.tangent == pytest.approx(-1 / 16)

    def test_pow_chain(self):
        x = Dual(3.0, 1.0)
        y = s_pow(x, 4)
        assert y.tangent == pytest.approx(4 * 27)

    def test_transcendentals(self):
        x = Dual(0.3, 1.0)
        assert s_exp(x).tangent == pytest.approx(math.exp(0.3))
        assert s_log(x).tangent == pytest.approx(1 / 0.3)
        t = s_atan2(Dual(0.4, 1.0), Dual(0.7, 0.0))
        assert t.tangent == pytest.approx(0.7 / (0.4**2 + 0.7**2))

    def test_comparisons_on_primal(self):
        assert Dual(1.0, 99.0) < 2.0
        assert Dual(2.0, 0.0) == 2.0

    @settings(max_examples=400)
    @given(data=st.data())
    def test_a_tangent_vector_is_its_columns(self, data):
        fname = data.draw(st.sampled_from(sorted(_DUAL_RULES)))
        ops = [(data.draw(st.sampled_from(DUAL_EDGES)),
                data.draw(st.sampled_from(("float", "const", "vector"))),
                data.draw(st.lists(st.sampled_from(DUAL_TANGENTS),
                                   min_size=3, max_size=3)))
               for _ in range(_DUAL_RULES[fname][1])]
        _check_columns(fname, ops)

    @pytest.mark.parametrize("fname, ops", [
        # pow's base partial b a^(b-1) is inf, and NaN: a zero column
        # skips it, where inf * 0.0 would be NaN
        ("pow", [(math.inf, "vector", [1.0, 0.0, -0.0]), (3.0, "float", [])]),
        ("pow", [(math.nan, "vector", [0.0, 1.0, 0.0]), (2.0, "float", [])]),
        # its exponent partial a^b log(a) is inf
        ("pow", [(math.inf, "const", []), (2.0, "vector", [1.0, 0.0, 0.0])]),
        # a^(b-1) and log(a) are undefined at a = 0, where no column needs
        # them
        ("pow", [(0.0, "vector", [0.0, -0.0, 0.0]), (0.5, "float", [])]),
        ("pow", [(0.0, "const", []), (2.0, "vector", [0.0, 0.0, 0.0])]),
        ("pow", [(0.0, "vector", [0.0, 1.0, 0.0]), (0.5, "float", [])]),
        # sqrt and abs need every column's tangent to be zero at 0
        ("sqrt", [(0.0, "vector", [0.0, 0.0, 0.0])]),
        ("sqrt", [(-0.0, "vector", [0.0, 1.0, 0.0])]),
        ("abs", [(0.0, "vector", [0.0, -0.0, 0.0])]),
        ("abs", [(-0.0, "vector", [0.0, 2.0, 0.0])]),
        # a tangent over a zero primal raises, where numpy gives inf or NaN
        ("div", [(1.0, "vector", [1.0, 0.0, 0.0]), (0.0, "const", [])]),
        ("log", [(0.0, "vector", [0.0, 0.0, 0.0])]),
        ("atan2", [(0.0, "vector", [1.0, 0.0, 0.0]), (5e-324, "float", [])]),
    ])
    def test_a_zero_tangent_column_gets_what_a_zero_float_gets(self, fname,
                                                              ops):
        _check_columns(fname, ops)

    def test_copies_share_a_tangent_vector_and_rules_make_new_ones(self):
        t = np.array([1.0, 0.0])
        x = Dual(2.0, t)
        assert deep_copy(x).tangent is t
        for y in (x + x, x * 3.0, -x, s_sqrt(x), s_pow(x, 2.0), x / 2.0):
            assert y.tangent is not t
        assert t.tolist() == [1.0, 0.0]


class TestComposites:
    def test_array_1based_and_bounds(self):
        a = Array.vector([1, 2, 3])
        assert a.get((1,)) == 1 and a.get((3,)) == 3
        m = Array.matrix([[1, 2], [3, 4]])
        assert m.get((2, 1)) == 3
        assert m.size(1) == 2 and m.size(2) == 2
        from revlang.errors import IndexOutOfBounds
        with pytest.raises(IndexOutOfBounds):
            a.get((0,))
        with pytest.raises(IndexOutOfBounds):
            a.get((4,))

    def test_deep_copy_isolates(self):
        a = Array.vector([Complex(1.0, 2.0)])
        b = deep_copy(a)
        b.get((1,)).re = 9.0
        assert a.get((1,)).re == 1.0

    @pytest.mark.parametrize("seq", [list, tuple])
    def test_deep_copy_copies_an_argument_list_element_by_element(self, seq):
        args = seq([Array.vector([1.0]), Complex(1.0, 2.0), 3, [Dual(1.0)]])
        copy = deep_copy(args)
        assert type(copy) is seq and copy == args
        assert copy is not args and copy[3] is not args[3]
        assert not {id(x) for x in args} & {id(x) for x in copy[:2]}
        copy[0].set((1,), 9.0)
        copy[3][0].primal = 9.0
        assert args[0].get((1,)) == 1.0 and args[3][0].primal == 1.0

    def test_deviation_and_closeness(self):
        a = Array.vector([1.0, 2.0])
        b = Array.vector([1.0, 2.0 + 1e-12])
        assert deviation(a, b) == pytest.approx(1e-12)
        assert values_close(a, b, 1e-9)
        assert not values_close(a, b, 1e-15)
        assert deviation(GVar(1.0, 0.5), GVar(1.0, 0.75)) == 0.25

    @pytest.mark.parametrize("x", [math.inf, -math.inf,
                                   ULog(math.inf), Dual(math.inf, 1.0)])
    def test_equal_infinities_are_close(self, x):
        assert values_close(x, x, 1e-9)
        assert deviation(x, x) == 0.0
        assert values_close(Array.vector([x]), Array.vector([x]), 0.0)

    def test_two_ints_deviate_by_their_exact_difference(self):
        big = 2**60
        assert deviation(big, big + 1) == 1.0
        assert not values_close(big, big + 1, 1e-9)
        assert deviation(np.int64(big), big + 3) == 3.0
        assert deviation(-big, big) == float(2**61)
        assert deviation(10**400, 10**400) == 0.0   # beyond any float
        # an Int and a Float share the float gap
        assert deviation(big, float(big)) == 0.0
        assert deviation(float(big), big + 1) == 0.0

    def test_a_gap_beyond_the_float_range_is_inf(self):
        assert deviation(10**400, 0) == float("inf")
        assert deviation(10**400, 1.0) == float("inf")
        assert deviation(0.5, -10**400) == float("inf")
        assert deviation(Array.vector([1, 10**400]), Array.vector([1, 0])) \
            == float("inf")
        assert not values_close(10**400, 0.5, 1e-9)

    def test_nan_and_opposite_infinities_are_not_close(self):
        nan = float("nan")
        assert not values_close(nan, nan, 1e-9)
        assert not values_close(math.inf, -math.inf, 1e-9)
        assert not values_close(math.inf, 1e308, 1e-9)
        assert math.isnan(deviation(nan, nan))

    def test_zero_like_kinds(self):
        assert zero_like(1.5) == 0.0
        assert zero_like(Fixed.from_real(2.0)) == Fixed(0)
        z = zero_like(Dual(3.0, 1.0))
        assert isinstance(z, Dual) and z.primal == 0.0

    def test_record_fields(self):
        r = Record(a=1.0, b=2.0)
        r.set("a", 5.0)
        assert r.get("a") == 5.0
        from revlang.errors import NoSuchField
        with pytest.raises(NoSuchField):
            r.get("c")


# --- the leaf model over generated nested values ---

floats = st.floats(allow_nan=False, width=64)
cell_kinds = st.sampled_from([
    st.integers(-9, 9), floats, fixeds, st.builds(Complex, floats, floats)])


@st.composite
def arrays(draw):
    cell = draw(cell_kinds)
    shape = draw(st.sampled_from([(0,), (1,), (3,), (1, 1), (2, 3), (3, 2)]))
    n = math.prod(shape)
    return Array(draw(st.lists(cell, min_size=n, max_size=n)), shape)


nested_values = st.one_of(
    cell_kinds.flatmap(lambda cell: cell), arrays(),
    st.dictionaries(st.sampled_from("abc"), st.one_of(
        arrays(), cell_kinds.flatmap(lambda cell: cell)), max_size=3).map(
            lambda fields: Record(**fields)))


def _containers(v):
    """Every mutable container inside `v`."""
    if isinstance(v, Array):
        return [v, v.data, *(c for e in v.data for c in _containers(e))]
    if isinstance(v, Record):
        return [v, v.fields(),
                *(c for e in v.fields().values() for c in _containers(e))]
    return [v] if isinstance(v, Complex) else []


def _cells(v):
    """The leaves of `v` in storage order: row-major cells, then fields."""
    if isinstance(v, Array):
        return [x for e in v.data for x in _cells(e)]
    if isinstance(v, (Complex, Record)):
        return [x for e in v.fields().values() for x in _cells(e)]
    return [v]


def _step_fits(step):
    kind, key = step
    return kind == "field" and isinstance(key, str) or kind == "idx" and \
        len(key) in (1, 2) and all(type(i) is int and i >= 1 for i in key)


class TestLeaves:
    @settings(max_examples=200)
    @given(v=nested_values)
    def test_carries_gvar_finds_a_gvar_leaf(self, v):
        for value in (v, wrap_gvar(v)):
            assert carries_gvar(value) == any(
                type(x) is GVar for _, x in leaves(value))

    @settings(max_examples=200)
    @given(v=nested_values, data=st.data())
    def test_leaf_model(self, v, data):
        found = list(leaves(v))
        assert len(found) == len(_cells(v))
        for (path, leaf), cell in zip(found, _cells(v)):
            assert leaf is cell and get_leaf(v, path) is leaf
            assert all(_step_fits(step) for step in path)
        assert unwrap_gvar(wrap_gvar(v)) == v

        copy = deep_copy(v)
        assert copy == v
        assert not {id(c) for c in _containers(v)} & \
            {id(c) for c in _containers(copy)}

        # Int leaves carry no gradient; Float and Fixed leaves do
        assert leaf_paths(v) == [p for p, x in found if not isinstance(x, int)]

        for path in [()] + [p for p, _ in found]:
            new = object()
            assert get_leaf(set_leaf(deep_copy(v), path, new), path) is new

        # wrap a drawn subset of the leaves, skipping Int ones
        picks = data.draw(st.lists(st.booleans(), min_size=len(found),
                                   max_size=len(found)))
        it = iter(picks)
        mixed = map_leaves(v, lambda x: GVar(x, zero_like(x))
                           if next(it) and not isinstance(x, int) else x)
        assert carries_gvar(mixed) == any(
            pick and not isinstance(x, int)
            for pick, (_, x) in zip(picks, found))
        assert carries_gvar(wrap_gvar(v)) == bool(leaf_paths(v))
        assert not carries_gvar(v)
        assert leaf_paths(mixed) == leaf_paths(v)
        assert unwrap_gvar(mixed) == v


# --- the kind matrix: one sample of each registered kind, some subtypes the
# table does not list, and None, with every answer pinned ---

SAMPLES = {
    "int": 2, "bool": True, "float": 2.0, "float32": np.float32(1.0),
    "int64": np.int64(2), "fixed": Fixed.from_real(2.0),
    "ulog": ULog.from_real(1.0), "complex": Complex(1.0, -1.0),
    "array": Array.vector([1.0, 2.0]), "record": Record(a=1, b=2.0),
    "gvar": GVar(0.5, 0.0), "dual": Dual(2.0, 1.0), "int32": np.int32(1),
    "float16": np.float16(1.5), "bool_": np.bool_(True), "none": None,
}

COERCED = (7, -2.5, Dual(1.5, 1.0))

# kind_name, to_real, zero_like, is_differentiable, is_int, is_float and
# coerce_to_kind(sample, x) for each x of COERCED; a result is written as
# its type and repr, an error by its type
KINDS = {
    "int": ("int", "int 2", "int 0", False, True, False,
            ("int 7", "int -2", "Dual Dual(1.5, 1.0)")),
    "bool": ("bool", "int 1", "KindError", False, False, False,
             ("bool True", "bool True", "Dual Dual(1.5, 1.0)")),
    "float": ("float", "float 2.0", "float 0.0", True, False, True,
              ("float 7.0", "float -2.5", "Dual Dual(1.5, 1.0)")),
    "float32": ("float", "float32 np.float32(1.0)",
                "float32 np.float32(0.0)", True, False, True,
                ("float32 np.float32(7.0)", "float32 np.float32(-2.5)",
                 "Dual Dual(1.5, 1.0)")),
    "int64": ("int", "int64 np.int64(2)", "int 0", False, True, False,
              ("int 7", "int -2", "Dual Dual(1.5, 1.0)")),
    "fixed": ("fixed", "float 2.0", "Fixed Fixed(0.0)", True, False, False,
              ("Fixed Fixed(7.0)", "Fixed Fixed(-2.5)", "Fixed Fixed(1.5)")),
    "ulog": ("ulog", "float 1.0", "float 0.0", True, False, False,
             ("KindError", "KindError", "Dual Dual(1.5, 1.0)")),
    "complex": ("complex", "KindError", "KindError", False, False, False,
                ("KindError", "KindError", "Dual Dual(1.5, 1.0)")),
    "array": ("array", "KindError", "KindError", False, False, False,
              ("KindError", "KindError", "Dual Dual(1.5, 1.0)")),
    "record": ("record", "KindError", "KindError", False, False, False,
               ("KindError", "KindError", "Dual Dual(1.5, 1.0)")),
    "gvar": ("gvar[float]", "float 0.5", "KindError", False, False, False,
             ("KindError", "KindError", "Dual Dual(1.5, 1.0)")),
    "dual": ("float", "Dual Dual(2.0, 1.0)", "Dual Dual(0.0, 0.0)", True,
             False, True,
             ("Dual Dual(7, 0.0)", "Dual Dual(-2.5, 0.0)",
              "Dual Dual(1.5, 1.0)")),
    "int32": ("int", "int32 np.int32(1)", "int 0", False, True, False,
              ("int 7", "int -2", "Dual Dual(1.5, 1.0)")),
    "float16": ("float", "float16 np.float16(1.5)",
                "float16 np.float16(0.0)", True, False, True,
                ("float16 np.float16(7.0)", "float16 np.float16(-2.5)",
                 "Dual Dual(1.5, 1.0)")),
    "bool_": ("bool", "KindError", "KindError", False, False, False,
              ("KindError", "KindError", "Dual Dual(1.5, 1.0)")),
    "none": ("NoneType", "KindError", "KindError", False, False, False,
             ("KindError", "KindError", "Dual Dual(1.5, 1.0)")),
}

# values_close(row, column, 1e-9), rows and columns in SAMPLES order
CLOSE = """
T F T F T F F F F F F T F F F F
F T F F F F F F F F F F F F F F
T F T F T F F F F F F T F F F F
F F F T F F F F F F F F T F T F
T F T F T F F F F F F T F F F F
F F F F F T F F F F F F F F F F
F F F F F F T F F F F F F F F F
F F F F F F F T F F F F F F F F
F F F F F F F F T F F F F F F F
F F F F F F F F F T F F F F F F
F F F F F F F F F F T F F F F F
T F T F T F F F F F F T F F F F
F F F T F F F F F F F F T F T F
F F F F F F F F F F F F F T F F
F F F T F F F F F F F F T F T F
F F F F F F F F F F F F F F F T
"""

# deviation(row, column): the float, or K for a KindError
DEVIATION = """
0.0   K 0.0 1.0 0.0   K   K   K   K   K   K 0.0 1.0 0.5 1.0   K
  K 0.0   K   K   K   K   K   K   K   K   K   K   K   K   K   K
0.0   K 0.0 1.0 0.0   K   K   K   K   K   K 0.0 1.0 0.5 1.0   K
1.0   K 1.0 0.0 1.0   K   K   K   K   K   K 1.0 0.0 0.5 0.0   K
0.0   K 0.0 1.0 0.0   K   K   K   K   K   K 0.0 1.0 0.5 1.0   K
  K   K   K   K   K 0.0   K   K   K   K   K   K   K   K   K   K
  K   K   K   K   K   K 0.0   K   K   K   K   K   K   K   K   K
  K   K   K   K   K   K   K 0.0   K   K   K   K   K   K   K   K
  K   K   K   K   K   K   K   K 0.0   K   K   K   K   K   K   K
  K   K   K   K   K   K   K   K   K 0.0   K   K   K   K   K   K
  K   K   K   K   K   K   K   K   K   K 0.0   K   K   K   K   K
0.0   K 0.0 1.0 0.0   K   K   K   K   K   K 0.0 1.0 0.5 1.0   K
1.0   K 1.0 0.0 1.0   K   K   K   K   K   K 1.0 0.0 0.5 0.0   K
0.5   K 0.5 0.5 0.5   K   K   K   K   K   K 0.5 0.5 0.0 0.5   K
1.0   K 1.0 0.0 1.0   K   K   K   K   K   K 1.0 0.0 0.5 0.0   K
  K   K   K   K   K   K   K   K   K   K   K   K   K   K   K   K
"""


def _outcome(f):
    try:
        r = f()
    except KindError:
        return "KindError"
    return f"{type(r).__name__} {r!r}"


def _grid(text):
    rows = text.strip().splitlines()
    return dict(zip(SAMPLES, (row.split() for row in rows)))


class TestKindMatrix:
    @pytest.mark.parametrize("name", SAMPLES)
    def test_kind_questions(self, name):
        v = SAMPLES[name]
        assert (kind_name(v), _outcome(lambda: to_real(v)),
                _outcome(lambda: zero_like(v)), is_differentiable(v),
                is_int(v), is_float(v),
                tuple(_outcome(lambda: coerce_to_kind(v, x))
                      for x in COERCED)) == KINDS[name]
        copy = deep_copy(v)
        assert copy == v or v is None or is_float(v) and v != v
        # composites, GVar and Dual values are mutable, and so copied
        assert (copy is v) == (type(v) not in (Array, Complex, Dual, GVar,
                                               Record))

    @pytest.mark.parametrize("name", SAMPLES)
    def test_pairs(self, name):
        a = SAMPLES[name]
        close, dev = _grid(CLOSE)[name], _grid(DEVIATION)[name]
        for b, want_close, want_dev in zip(SAMPLES.values(), close, dev):
            got = values_close(a, b, 1e-9)
            assert type(got) is bool and got == (want_close == "T")
            if want_dev == "K":
                with pytest.raises(KindError):
                    deviation(a, b)
            else:
                d = deviation(a, b)
                assert type(d) is float and d == float(want_dev)

    def test_generic_rule(self):
        """The instructions, comparisons, bijectors and the CLI's encoding
        and sampling over SAMPLES, against kind_matrix.txt."""
        want = dict(line.split(" => ", 1)
                    for line in MATRIX.read_text().splitlines())
        got = dict(_generic_cases())
        assert list(got) == list(want)
        assert [f"{c} => {got[c]}" for c in got if got[c] != want[c]] == []


# --- the generic rule's kind matrix: instructions, comparisons, bijectors
# and the CLI's encoding and sampling over SAMPLES; the outcomes are
# pinned in kind_matrix.txt, one `case => outcome` line each, in the order
# `_generic_cases` makes them ---

MATRIX = Path(__file__).with_name("kind_matrix.txt")

BIJECTOR_ARGS = (("neg", ()), ("addconst", (1.5,)), ("addconst", (2,)),
                 ("mulconst", (3,)), ("mulconst", (0.5,)))


def _result(f):
    """A result as its type and repr (each value of a list, in order), or
    an error as its type and message."""
    try:
        r = f()
    except Exception as err:
        return f"{type(err).__name__}: {getattr(err, 'message', err)}"
    if type(r) is list:
        return "; ".join(f"{type(x).__name__} {x!r}" for x in r)
    return f"{type(r).__name__} {r!r}"


def _generic_cases():
    def fresh(name):   # the instructions update GVar and Dual samples
        return deep_copy(SAMPLES[name])

    pairs = list(itertools.product(SAMPLES, repeat=2))
    for op in ("+=", "-=", "xor=", "*="):
        instr = PrimitiveInstr(op, "identity")
        for t, x in pairs:
            yield f"{op} {t} {x}", _result(
                lambda: apply_instr(instr, [fresh(t), fresh(x)]))
    for prim in ("NEG", "INC", "DEC"):
        for x in SAMPLES:
            yield f"{prim} {x}", _result(
                lambda: apply_instr(PrimitiveInstr(prim), [fresh(x)]))
    for op in ("<", "=="):
        for a, b in pairs:
            yield f"{a} {op} {b}", _result(
                lambda: compare(op, SAMPLES[a], SAMPLES[b]))
    for name, args in BIJECTOR_ARGS:
        bij = BIJECTORS[name]
        for x in SAMPLES:
            view = f"{name}{args}".replace(",)", ")")
            yield f"{view}.fwd {x}", _result(
                lambda: bij.fwd(fresh(x), args))
            # the view's value written back to a cell of its own kind
            yield f"{view}.inv {x}", _result(
                lambda: bij.inv(fresh(x), args, fresh(x)))
    for x in SAMPLES:
        yield f"encode {x}", _result(lambda: encode_value(SAMPLES[x]))
        yield f"jitter {x}", _result(
            lambda: _jitter(SAMPLES[x], random.Random(0)))
