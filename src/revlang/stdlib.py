"""Bundled example programs with loaders, input samplers, and the
leapfrog round-off experiment."""

import math
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import UnknownExample
from .interpreter import ExecOptions, Interpreter
from .parser import parse_program
from .values import Array, Complex, Fixed, deep_copy

# catalog name -> (asset file, entry function)
CATALOG = {
    "multiplier": ("multiplier.rnl", "multiplier"),
    "complex_log": ("complex_log.rnl", "complex_log"),
    "complex_log_ccu": ("complex_log.rnl", "complex_log_ccu"),
    "i_affine": ("i_affine.rnl", "i_affine"),
    "i_umm": ("i_umm.rnl", "i_umm"),
    "mypower_log": ("mypower_log.rnl", "mypower"),
    "rrfib_corrected": ("rrfib.rnl", "rrfib"),
    "r_norm": ("r_norm.rnl", "r_norm"),
    "leapfrog_clean": ("leapfrog.rnl", "leapfrog_clean"),
    "leapfrog_cumulative": ("leapfrog.rnl", "leapfrog_cumulative"),
}

_cache = {}


def asset_text(filename):
    return resources.files("revlang.assets").joinpath(filename).read_text()


def load_example(name):
    """Parse a catalog program (cached per asset file); returns the
    Program. The first Interpreter built from it validates, expands and
    inverts it, once; each float type and trace setting lowers it once."""
    if name not in CATALOG:
        raise UnknownExample(f"no example named {name!r}; "
                             f"known: {', '.join(sorted(CATALOG))}")
    filename, _ = CATALOG[name]
    if filename not in _cache:
        _cache[filename] = parse_program(asset_text(filename), filename)
    return _cache[filename]


def entry_function(name):
    return CATALOG[name][1]


# --- random valid inputs per example (for round-trip and gradient tests) ---

def _sample_multiplier(rng):
    return [rng.uniform(-2, 2), rng.uniform(0.5, 2), rng.uniform(0.5, 2)]


def _sample_complex_log(rng):
    return [Complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            Complex(rng.uniform(0.4, 2) * rng.choice([-1, 1]),
                    rng.uniform(0.4, 2) * rng.choice([-1, 1]))]


def _sample_i_affine(rng):
    n, m = rng.randint(2, 4), rng.randint(2, 4)
    mat = Array.matrix([[rng.uniform(-1, 1) for _ in range(m)] for _ in range(n)])
    return [Array.vector([rng.uniform(-1, 1) for _ in range(n)]),
            mat,
            Array.vector([rng.uniform(-1, 1) for _ in range(n)]),
            Array.vector([rng.uniform(-1, 1) for _ in range(m)])]


def _sample_i_umm(rng):
    m, n = rng.randint(2, 4), rng.randint(1, 3)
    x = Array.matrix([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(m)])
    theta = Array.vector(
        [rng.uniform(-math.pi, math.pi) for _ in range(m * (m - 1) // 2)])
    return [x, theta]


def _sample_mypower(rng):
    # keep d(out)/dx = n x^(n-1) above ~25: the Q31.32 output quantizes to
    # 2^-32, so a central difference at h=1e-6 has an absolute noise floor
    # near 1.2e-4 and needs a gradient of that size to stay under 1e-5
    # relative error
    return [Fixed.from_real(0), Fixed.from_real(rng.uniform(1.35, 1.9)),
            rng.randint(6, 8)]


def _sample_rrfib(rng):
    return [0, rng.randint(0, 10)]


def _sample_r_norm(rng):
    n = rng.randint(3, 12)
    x = Array.vector([rng.uniform(0.2, 1.5) * rng.choice([-1, 1])
                      for _ in range(n)])
    return [0.0, 0.0, x]


def _sample_leapfrog(rng):
    cfg = two_body_config(steps=rng.randint(3, 12))
    return list(_leapfrog_args(cfg, None))


SAMPLERS = {
    "multiplier": _sample_multiplier,
    "complex_log": _sample_complex_log,
    "complex_log_ccu": _sample_complex_log,
    "i_affine": _sample_i_affine,
    "i_umm": _sample_i_umm,
    "mypower_log": _sample_mypower,
    "rrfib_corrected": _sample_rrfib,
    "r_norm": _sample_r_norm,
    "leapfrog_clean": _sample_leapfrog,
    "leapfrog_cumulative": _sample_leapfrog,
}


def sample_args(name, rng=None):
    rng = rng or random.Random(0)
    return SAMPLERS[name](rng)


# --- the leapfrog round-off experiment ------------------------------------

@dataclass
class SolarSystemConfig:
    gravity: float
    bodies: list          # of (mass, position 3-vector, velocity 3-vector)
    dt: float
    steps: int

    def __post_init__(self):
        if any(m <= 0 for m, _, _ in self.bodies):
            raise ValueError("masses must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")


def two_body_config(steps=10_000, dt=0.0029):
    """A documented two-body circular orbit: primary mass 1, secondary
    mass 1e-2, unit separation, unit gravitational constant; both bodies
    orbit the barycenter, so total momentum is zero and the analytic
    period is 2*pi/sqrt(1.01).

    The kick/drift arithmetic uses only correctly-rounded operations
    (+ - * / sqrt), so runs are bit-reproducible across IEEE-754 hosts
    and the clean-versus-cumulative reversal-error comparison at 10^4
    steps is a frozen, deterministic outcome."""
    m1, m2, r = 1.0, 1.0e-2, 1.0
    mt = m1 + m2
    v_rel = math.sqrt(mt / r)
    x1 = [-r * m2 / mt, 0.0, 0.0]
    x2 = [r * m1 / mt, 0.0, 0.0]
    v1 = [0.0, -v_rel * m2 / mt, 0.0]
    v2 = [0.0, v_rel * m1 / mt, 0.0]
    return SolarSystemConfig(1.0, [(m1, x1, v1), (m2, x2, v2)], dt, steps)


def _leapfrog_args(cfg, dtype):
    z = dtype or float
    x = Array.matrix([[z(c) for c in pos] for _, pos, _ in cfg.bodies])
    v = Array.matrix([[z(c) for c in vel] for _, _, vel in cfg.bodies])
    m = Array.vector([z(mass) for mass, _, _ in cfg.bodies])
    return x, v, m, z(cfg.gravity), z(cfg.dt), cfg.steps


def leapfrog_simulate(cfg, variant="clean", precision="binary64"):
    """Run the orbit `cfg.steps` steps forward, then the same number
    reversed (by uncalling), and report the final forward state together
    with the worst componentwise position error after reversal.

    binary32 runs use a release tolerance of 1e-3 (single-precision
    residues sit near 1e-7 of the working values); binary64 keeps the
    default 1e-9.
    """
    if variant not in ("clean", "cumulative"):
        raise ValueError(f"variant must be clean or cumulative, got {variant!r}")
    if precision not in ("binary32", "binary64"):
        raise ValueError(f"precision must be binary32 or binary64, got {precision!r}")
    dtype = np.float32 if precision == "binary32" else None
    tol = 1e-3 if precision == "binary32" else 1e-9
    program = load_example("leapfrog_clean")
    fname = f"leapfrog_{variant}"
    opts = ExecOptions(float_tolerance=tol, float_dtype=dtype)
    interp = Interpreter(program, opts)

    x, v, m, g, dt, steps = _leapfrog_args(cfg, dtype)
    initial_x = Array([float(c) for c in x.data], x.shape)
    out = interp.run_function(fname, [x, v, m, g, dt, steps])
    final = deep_copy(out)
    back = interp.uncall_function(fname, out)
    reversal_error = max(
        (abs(float(a) - b) for a, b in zip(back[0].data, initial_x.data)),
        default=0.0)
    return final, reversal_error


def roundoff_table(step_counts, precision="binary64", dt=0.002):
    """Rows of (steps, error_clean, error_cumulative, precision) for the
    documented two-body orbit."""
    rows = []
    for steps in step_counts:
        cfg = two_body_config(steps=steps, dt=dt)
        _, e_clean = leapfrog_simulate(cfg, "clean", precision)
        _, e_cum = leapfrog_simulate(cfg, "cumulative", precision)
        rows.append((steps, e_clean, e_cum, precision))
    return rows
