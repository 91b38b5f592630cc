import math
import random
import zlib
from decimal import Decimal, getcontext

import pytest

from revlang.errors import UnknownExample
from revlang.interpreter import ExecOptions, Interpreter, check_reversibility, run
from revlang.stdlib import (CATALOG, entry_function, leapfrog_simulate,
                            load_example, roundoff_table, sample_args,
                            two_body_config)
from revlang.values import Fixed


class TestCatalog:
    def test_every_entry_loads_and_validates(self):
        for name in CATALOG:
            assert load_example(name) is not None

    def test_unknown_example(self):
        with pytest.raises(UnknownExample):
            load_example("not_a_thing")

    def test_multiplier_values(self):
        p = load_example("multiplier")
        assert run(p, "multiplier", [2, 3, 5]) == [17, 3, 5]

    def test_mypower_value(self):
        p = load_example("mypower_log")
        out = run(p, "mypower", [Fixed.from_real(0), Fixed.from_real(2.0), 10])
        assert abs(out[0].to_float() - 1024.0) <= 1e-9
        assert out[1] == Fixed.from_real(2.0) and out[2] == 10

    def test_umm_preserves_column_norms(self, rng):
        p = load_example("i_umm")
        x, theta = sample_args("i_umm", rng)
        m, n = x.shape
        before = [math.sqrt(sum(x.get((i, l)) ** 2 for i in range(1, m + 1)))
                  for l in range(1, n + 1)]
        out = run(p, "i_umm", [x, theta])
        after = [math.sqrt(sum(out[0].get((i, l)) ** 2 for i in range(1, m + 1)))
                 for l in range(1, n + 1)]
        assert max(abs(a - b) for a, b in zip(before, after)) <= 1e-9

    @pytest.mark.parametrize("trial", range(20))
    def test_round_trip_20_random_inputs(self, catalog_name, trial):
        rng = random.Random(1000 * trial + zlib.crc32(catalog_name.encode()) % 997)
        program = load_example(catalog_name)
        args = sample_args(catalog_name, rng)
        rep = check_reversibility(program, entry_function(catalog_name), args)
        assert rep.ok, rep.error
        discrete = catalog_name in ("mypower_log", "rrfib_corrected")
        if discrete:
            assert rep.max_deviation == 0.0
        else:
            assert rep.max_deviation <= 1e-9


class TestLeapfrog:
    def test_zero_steps_is_identity(self):
        cfg = two_body_config(steps=0)
        _, err = leapfrog_simulate(cfg, "clean", "binary64")
        assert err == 0.0

    def test_clean_short_horizon_vs_decimal_reference(self):
        # high-precision reference of the same kick-drift-kick scheme
        getcontext().prec = 50
        steps = 200
        cfg = two_body_config(steps=steps)
        final, _ = leapfrog_simulate(cfg, "clean", "binary64")
        got = final[0]

        def dsqrt(x):
            return x.sqrt()

        G = Decimal(cfg.gravity)
        dt = Decimal(repr(cfg.dt))
        masses = [Decimal(repr(m)) for m, _, _ in cfg.bodies]
        xs = [[Decimal(repr(c)) for c in pos] for _, pos, _ in cfg.bodies]
        vs = [[Decimal(repr(c)) for c in vel] for _, _, vel in cfg.bodies]

        def kick(scale):
            for i in range(len(masses)):
                for j in range(len(masses)):
                    if i == j:
                        continue
                    r = [xs[j][c] - xs[i][c] for c in range(3)]
                    d = sum(c * c for c in r)
                    inv = G * masses[j] / (d * dsqrt(d))
                    for c in range(3):
                        vs[i][c] += inv * r[c] * scale

        kick(dt / 2)
        for s in range(steps - 1):
            for i in range(len(masses)):
                for c in range(3):
                    xs[i][c] += vs[i][c] * dt
            kick(dt)
        for i in range(len(masses)):
            for c in range(3):
                xs[i][c] += vs[i][c] * dt
        kick(dt / 2)

        worst = 0.0
        for i in range(len(masses)):
            for c in range(3):
                worst = max(worst, abs(float(xs[i][c]) - got.get((i + 1, c + 1))))
        # forward trajectory error stays within a generous per-step budget
        assert worst <= 1e3 * 2.2e-16 * steps

    def test_comparative_roundoff_small(self):
        # short-horizon table rows come back well-formed
        rows = roundoff_table([10, 50], "binary64")
        assert [r[0] for r in rows] == [10, 50]
        assert all(r[3] == "binary64" for r in rows)

    def test_clean_release_checks_run_and_pass(self):
        cfg = two_body_config(steps=25)
        program = load_example("leapfrog_clean")
        from revlang.stdlib import _leapfrog_args
        interp = Interpreter(program, ExecOptions(float_tolerance=1e-9))
        x, v, m, g, dt, steps = _leapfrog_args(cfg, None)
        interp.run_function("leapfrog_clean", [x, v, m, g, dt, steps])
        assert interp.stats.checks_passed["ancilla"] > 0

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            leapfrog_simulate(two_body_config(steps=1), "sloppy", "binary64")
        with pytest.raises(ValueError):
            leapfrog_simulate(two_body_config(steps=1), "clean", "binary128")


class TestSamplers:
    def test_samplers_deterministic_per_seed(self):
        a = sample_args("i_affine", random.Random(9))
        b = sample_args("i_affine", random.Random(9))
        assert a[1].data == b[1].data

    def test_mypower_sampler_respects_domain(self):
        for seed in range(30):
            out, x, n = sample_args("mypower_log", random.Random(seed))
            assert x.to_float() > 0 and n >= 1
