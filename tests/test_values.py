import math

import pytest
from hypothesis import given, strategies as st

from revlang.errors import RevDomainError
from revlang.values import (Array, Complex, Dual, Fixed, GVar, Record, ULog,
                            deep_copy, deviation, s_atan2, s_exp, s_log,
                            s_pow, s_sqrt, values_close, zero_like)

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
