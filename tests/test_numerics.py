import itertools
import math
import random
import zlib

import numpy as np
import pytest

from revlang.errors import KindError, MissingAdjoint
from revlang.numerics import (INSTR_FNS, PrimitiveInstr, _plus_minus_plain,
                              apply_instr, instr_rule, invert_instr)
from revlang.values import Complex, Dual, Fixed, GVar, ULog, to_real


def PI(kind, fname=None):
    return PrimitiveInstr(kind, fname)


class TestApply:
    def test_multiplier_update(self):
        assert apply_instr(PI("+=", "mul"), [2, 3, 5]) == [17, 3, 5]

    def test_xor_involution(self):
        once = apply_instr(PI("xor=", "identity"), [9, 5])
        twice = apply_instr(PI("xor=", "identity"), once)
        assert twice == [9, 5]

    def test_rot_quarter_turn(self):
        a, b, th = apply_instr(PI("ROT"), [1.0, 0.0, math.pi / 2])
        assert a == pytest.approx(0.0, abs=1e-12)
        assert b == pytest.approx(1.0)
        assert th == math.pi / 2

    def test_mul_div_need_log_target(self):
        with pytest.raises(KindError):
            apply_instr(PI("*=", "identity"), [2.0, 3.0])
        out = apply_instr(PI("*=", "identity"), [ULog(1.0), ULog(2.5)])
        assert out[0].log_x == 3.5

    def test_int_target_rejects_fractions(self):
        with pytest.raises(KindError):
            apply_instr(PI("+=", "identity"), [3, 0.5])

    def test_fixed_target_quantizes_once(self):
        t = Fixed.from_real(1.0)
        out = apply_instr(PI("+=", "mul"), [t, Fixed.from_real(1.5),
                                            Fixed.from_real(2.0)])
        assert out[0] == Fixed.from_real(4.0)


class TestInverse:
    def test_table(self):
        assert invert_instr(PI("+=", "log")) == PI("-=", "log")
        assert invert_instr(PI("-=", "log")) == PI("+=", "log")
        assert invert_instr(PI("*=", "convert")) == PI("/=", "convert")
        assert invert_instr(PI("xor=", "identity")) == PI("xor=", "identity")
        assert invert_instr(PI("SWAP")) == PI("SWAP")
        assert invert_instr(PI("INC")) == PI("DEC")
        assert invert_instr(PI("ROT")) == PI("IROT")

    def test_involution(self):
        for instr in (PI("+=", "sqrt"), PI("/=", "identity"), PI("DEC"),
                      PI("IROT"), PI("NEG")):
            assert invert_instr(invert_instr(instr)) == instr

    @pytest.mark.parametrize("kind,fname,argmaker", [
        ("+=", "mul", lambda r: [r.uniform(-2, 2), r.uniform(-2, 2), r.uniform(-2, 2)]),
        ("+=", "sqrt", lambda r: [r.uniform(-2, 2), r.uniform(0.1, 4)]),
        ("-=", "exp", lambda r: [r.uniform(-2, 2), r.uniform(-1, 1)]),
        ("+=", "atan2", lambda r: [r.uniform(-2, 2), r.uniform(0.2, 2), r.uniform(0.2, 2)]),
        ("xor=", "identity", lambda r: [r.randrange(1 << 16), r.randrange(1 << 16)]),
    ])
    def test_apply_then_inverse_is_identity(self, kind, fname, argmaker):
        rng = random.Random(zlib.crc32(repr((kind, fname)).encode()) & 0xFFFF)
        instr = PI(kind, fname)
        for _ in range(100):
            args = argmaker(rng)
            mid = apply_instr(instr, list(args))
            back = apply_instr(invert_instr(instr), mid)
            for a, b in zip(args, back):
                if isinstance(a, int):
                    assert a == b
                else:
                    assert abs(a - b) <= 1e-9

    def test_fixed_identity_roundtrip_bit_exact(self):
        rng = random.Random(3)
        instr = PI("+=", "identity")
        for _ in range(100):
            t = Fixed(rng.getrandbits(64) - (1 << 63))
            w = Fixed(rng.getrandbits(64) - (1 << 63))
            mid = apply_instr(instr, [t, w])
            back = apply_instr(invert_instr(instr), mid)
            assert back[0] == t and back[1] == w

    def test_rot_roundtrip(self):
        rng = random.Random(4)
        for _ in range(100):
            args = [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3)]
            mid = apply_instr(PI("ROT"), list(args))
            back = apply_instr(PI("IROT"), mid)
            for a, b in zip(args, back):
                assert abs(a - b) <= 1e-9


def _fd_partials(f, xs, h=1e-6):
    out = []
    for i in range(len(xs)):
        up = list(xs)
        dn = list(xs)
        up[i] += h
        dn[i] -= h
        out.append((f(*up) - f(*dn)) / (2 * h))
    return out


SMOOTH_FNS = {
    "mul": (2, lambda r: [r.uniform(0.3, 2), r.uniform(0.3, 2)]),
    "div": (2, lambda r: [r.uniform(0.3, 2), r.uniform(0.4, 2)]),
    "pow": (2, lambda r: [r.uniform(0.4, 2), r.uniform(0.5, 2.5)]),
    "add": (2, lambda r: [r.uniform(-2, 2), r.uniform(-2, 2)]),
    "sub": (2, lambda r: [r.uniform(-2, 2), r.uniform(-2, 2)]),
    "sqrt": (1, lambda r: [r.uniform(0.2, 4)]),
    "exp": (1, lambda r: [r.uniform(-1.5, 1.5)]),
    "log": (1, lambda r: [r.uniform(0.2, 4)]),
    "sin": (1, lambda r: [r.uniform(-3, 3)]),
    "cos": (1, lambda r: [r.uniform(-3, 3)]),
    "abs": (1, lambda r: [r.uniform(0.3, 2) * r.choice([-1, 1])]),
    "abs2": (1, lambda r: [r.uniform(-2, 2)]),
    "atan2": (2, lambda r: [r.uniform(0.3, 2), r.uniform(0.3, 2)]),
    "identity": (1, lambda r: [r.uniform(-2, 2)]),
    "neg": (1, lambda r: [r.uniform(-2, 2)]),
}


class TestAdjointRules:
    @pytest.mark.parametrize("fname", sorted(SMOOTH_FNS))
    def test_partials_match_central_differences(self, fname):
        arity, sample = SMOOTH_FNS[fname]
        spec = INSTR_FNS[fname]
        rng = random.Random(zlib.crc32(fname.encode()) & 0xFFFF)
        for _ in range(100):
            xs = sample(rng)
            got = spec.partials(*xs)
            want = _fd_partials(spec.apply, xs)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-5, abs=1e-7)

    def test_minus_sqrt_spec_example(self):
        out = GVar(3.0, 1.0)
        x = GVar(9.0, 0.0)
        apply_instr(PI("-=", "sqrt"), [out, x])
        assert out.x == 0.0 and out.g == 1.0
        assert x.x == 9.0
        assert x.g == pytest.approx(1.0 / 6.0)

    def test_minus_mul_spec_rule(self):
        y = GVar(17.0, 2.0)
        a = GVar(3.0, 0.0)
        b = GVar(5.0, 0.0)
        apply_instr(PI("-=", "mul"), [y, a, b])
        assert y.x == 2.0
        assert a.g == 10.0 and b.g == 6.0

    def test_zero_cotangent_leaves_gradients(self):
        y = GVar(17.0, 0.0)
        a = GVar(3.0, 0.25)
        b = GVar(5.0, -1.0)
        apply_instr(PI("-=", "mul"), [y, a, b])
        assert a.g == 0.25 and b.g == -1.0

    def test_complex_log_adjoint_matches_fd(self):
        # statement pair: y.re -= log|x| ; y.im -= atan2(x.im, x.re)
        def run_adjoint(xre, xim, gre, gim):
            n = GVar(math.hypot(xre, xim), 0.0)
            x = Complex(GVar(xre, 0.0), GVar(xim, 0.0))
            yre = GVar(0.1, gre)
            yim = GVar(0.2, gim)
            apply_instr(PI("-=", "log"), [yre, n])
            apply_instr(PI("-=", "atan2"), [yim, x.im, x.re])
            apply_instr(PI("-=", "abs"), [n, x])
            return to_real(x.re.g), to_real(x.im.g)

        xre, xim = 1.0, 1.2
        h = 1e-6
        for seed in ((1.0, 0.0), (0.0, 1.0)):
            got = run_adjoint(xre, xim, *seed)

            def scalar(a, b, s=seed):
                return s[0] * math.log(math.hypot(a, b)) + s[1] * math.atan2(b, a)

            want = _fd_partials(scalar, [xre, xim], h)
            assert got[0] == pytest.approx(want[0], rel=1e-6)
            assert got[1] == pytest.approx(want[1], rel=1e-6)

    def test_rot_adjoint_theta_and_vectors(self):
        rng = random.Random(11)
        h = 1e-6
        for _ in range(50):
            a0, b0, th = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3)
            ga, gb = rng.uniform(-1, 1), rng.uniform(-1, 1)

            def fwd(a, b, t):
                c, s = math.cos(t), math.sin(t)
                return a * c - b * s, a * s + b * c

            def seeded(a, b, t):
                ra, rb = fwd(a, b, t)
                return ga * ra + gb * rb

            a1, b1 = fwd(a0, b0, th)
            va = GVar(a1, ga)
            vb = GVar(b1, gb)
            vt = GVar(th, 0.0)
            apply_instr(PI("IROT"), [va, vb, vt])
            want = _fd_partials(seeded, [a0, b0, th], h)
            assert va.x == pytest.approx(a0, abs=1e-9)
            assert vb.x == pytest.approx(b0, abs=1e-9)
            assert va.g == pytest.approx(want[0], rel=1e-5, abs=1e-7)
            assert vb.g == pytest.approx(want[1], rel=1e-5, abs=1e-7)
            assert vt.g == pytest.approx(want[2], rel=1e-5, abs=1e-7)

    def test_adjoint_inverse_commutation(self):
        # applying the rule for f then for its inverse restores both the
        # values and the gradients
        rng = random.Random(12)
        for kind, fname, nargs in (("-=", "mul", 2), ("-=", "sqrt", 1),
                                   ("+=", "exp", 1), ("-=", "atan2", 2)):
            for _ in range(50):
                y = GVar(rng.uniform(-2, 2), rng.uniform(-1, 1))
                xs = [GVar(rng.uniform(0.3, 2), rng.uniform(-1, 1))
                      for _ in range(nargs)]
                snapshot = [(y.x, y.g)] + [(x.x, x.g) for x in xs]
                apply_instr(PI(kind, fname), [y] + xs)
                apply_instr(invert_instr(PI(kind, fname)), [y] + xs)
                for (vx, vg), cell in zip(snapshot, [y] + xs):
                    assert cell.x == pytest.approx(vx, abs=1e-9)
                    assert cell.g == pytest.approx(vg, abs=1e-9)

    def test_real_valued_kinds_convert_for_complex_and_fixed_targets(self):
        out = apply_instr(PI("+=", "identity"),
                          [Complex(1.0, 2.0), Fixed.from_real(0.5)])
        assert out[0] == Complex(1.5, 2.0)
        out = apply_instr(PI("+=", "identity"), [Fixed(0), ULog(0.0)])
        assert out[0] == Fixed.from_real(1.0)

    def test_missing_adjoint(self):
        with pytest.raises(MissingAdjoint):
            apply_instr(PI("+=", "mod"), [GVar(1.0, 0.0), GVar(5.0, 0.0),
                                          GVar(3.0, 0.0)])

    def test_ulog_convert_gradient(self):
        # target /= convert(x): exponent loses log(x); x gains gy / x
        t = GVar(ULog(2.0), 0.5)
        x = GVar(4.0, 0.0)
        apply_instr(PI("/=", "convert"), [t, x])
        assert t.x.log_x == pytest.approx(2.0 - math.log(4.0))
        assert x.g == pytest.approx(0.5 / 4.0)


# the inline +=/-= arm of instr_rule against the generic Float rule
ARM_TARGETS = (float, np.float32, np.float64)
ARM_ARG_KINDS = {
    "float": lambda v: float(v),
    "int": lambda v: int(v),
    "float32": np.float32,
    "float64": np.float64,
    "bool": lambda v: v != 0,
    "fixed": lambda v: Fixed.from_real(v),
    "dual": lambda v: Dual(float(v), 1.0),
}
ARM_ARG_VALUES = (3.0, -2.0, 0.0, 0.5)


def _bits(v):
    if isinstance(v, Dual):
        return ("Dual", _bits(v.primal), _bits(v.tangent))
    if isinstance(v, Fixed):
        return ("Fixed", v.raw)
    return (type(v), np.asarray(v).tobytes() if not isinstance(v, int)
            else v)


def _outcome(fn, vals):
    try:
        out = fn(list(vals))
    except Exception as err:
        return type(err)
    return [_bits(v) for v in out]


class TestInstrRule:
    @pytest.mark.parametrize(
        "fname", sorted(f for f, s in INSTR_FNS.items() if s.apply))
    def test_inline_arm_matches_generic_rule(self, fname):
        arity = INSTR_FNS[fname].min_arity
        args = [ARM_ARG_KINDS[k](v) for k in ARM_ARG_KINDS
                for v in ARM_ARG_VALUES]
        with np.errstate(all="ignore"):
            for op in ("+=", "-="):
                rule = instr_rule(PI(op, fname))
                for ttype in ARM_TARGETS:
                    t = ttype(1.25)
                    for xs in itertools.product(args, repeat=arity):
                        vals = [t, *xs]
                        generic = _outcome(
                            lambda v: _plus_minus_plain(op, fname, v), vals)
                        assert _outcome(rule, vals) == generic, (op, vals)
