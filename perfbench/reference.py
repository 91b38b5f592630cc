"""Plain-Python versions of the bundled programs, written from their
`.rnl` sources and used as references that do not go through revlang.

Each function mirrors the statement order of its program, so where the
program uses only correctly rounded operations the reference is expected
to agree bit for bit. Values are plain Python: floats (or numpy.float32
scalars for binary32), nested lists for matrices, `complex` for complex
numbers.
"""

import math

import numpy as np


# --- forward references, one per catalog entry ------------------------------

def multiplier(y, a, b):
    return [y + a * b, a, b]


def complex_log(y, x):
    n = math.sqrt(x.real * x.real + x.imag * x.imag)
    return [complex(y.real + math.log(n), y.imag + math.atan2(x.imag, x.real)), x]


def i_affine(y, w, b, x):
    y = list(y)
    for j in range(len(x)):
        for i in range(len(y)):
            y[i] = y[i] + w[i][j] * x[j]
    for i in range(len(y)):
        y[i] = y[i] + b[i]
    return [y, w, b, x]


def givens_sequence(m):
    """(row, angle index) of each ROT in i_umm, 0-based, in program order."""
    seq, k = [], 0
    for j in range(m):
        for i in range(m - 2, j - 1, -1):
            seq.append((i, k))
            k += 1
    return seq


def i_umm(x, theta):
    x = [list(row) for row in x]
    m, n = len(x), len(x[0])
    for col in range(n):
        for i, k in givens_sequence(m):
            a, b = x[i][col], x[i + 1][col]
            c, s = math.cos(theta[k]), math.sin(theta[k])
            x[i][col], x[i + 1][col] = a * c - b * s, a * s + b * c
    return [x, theta]


def mypower(out, x, n):
    """Fixed-point `out + x^n`; the program goes through a log-domain
    product, so this agrees to rounding, not bit for bit."""
    return [out + x ** n, x, n] if x != 0 else [out, x, n]


def rrfib(out, n):
    """Counting convention out(0) = out(1) = 1."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return [out + a, n]


def r_norm(out, out2, x):
    for xi in x:
        out2 = out2 + xi ** 2
    return [out + math.sqrt(out2), out2, x]


def _kick(v, x, m, g, dtk, cumulative):
    n = len(m)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if cumulative:
                for c in range(3):
                    x[j][c] = x[j][c] - x[i][c]
                r = x[j]
            else:
                r = [x[j][c] - x[i][c] for c in range(3)]
            d = r[0] * r[0]
            d = d + r[1] * r[1]
            d = d + r[2] * r[2]
            anc1 = _sqrt(d)
            anc2 = d * anc1
            anc3 = g * m[j]
            anc4 = anc3 / anc2
            anc5 = anc4 * dtk
            for c in range(3):
                v[i][c] = v[i][c] + anc5 * r[c]
            if cumulative:
                # the routine's uncompute shifts the row back, rounding twice
                for c in (2, 1, 0):
                    x[j][c] = x[j][c] + x[i][c]


def _sqrt(d):
    # numpy.float32 stays in binary32, as revlang's s_sqrt keeps it
    return math.sqrt(d) if isinstance(d, float) else np.sqrt(d)


def _drift(x, v, dt):
    for i in range(len(x)):
        for c in range(3):
            x[i][c] = x[i][c] + v[i][c] * dt


def leapfrog(x, v, m, g, dt, steps, variant="clean"):
    """Kick-drift-kick as in leapfrog.rnl. Works on the scalar type of
    its inputs (float or numpy.float32). Returns [x, v, m, g, dt, steps]."""
    x = [list(r) for r in x]
    v = [list(r) for r in v]
    cumulative = variant == "cumulative"
    if steps >= 1:
        hdt = dt / 2
        _kick(v, x, m, g, hdt, cumulative)
        for _ in range(steps - 1):
            _drift(x, v, dt)
            _kick(v, x, m, g, dt, cumulative)
        _drift(x, v, dt)
        _kick(v, x, m, g, hdt, cumulative)
    return [x, v, m, g, dt, steps]


FORWARD = {
    "multiplier": multiplier,
    "complex_log": complex_log,
    "complex_log_ccu": complex_log,
    "i_affine": i_affine,
    "i_umm": i_umm,
    "mypower_log": mypower,
    "rrfib_corrected": rrfib,
    "r_norm": r_norm,
    "leapfrog_clean": lambda *a: leapfrog(*a, variant="clean"),
    "leapfrog_cumulative": lambda *a: leapfrog(*a, variant="cumulative"),
}


# --- derivative references --------------------------------------------------

def flatten(value):
    """Differentiable leaves of a plain value in revlang's leaf order
    (row-major for matrices, re before im); ints carry none."""
    if isinstance(value, bool) or isinstance(value, int):
        return []
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, list):
        return [leaf for e in value for leaf in flatten(e)]
    return [float(value)]


def unflatten(template, leaves):
    """Inverse of `flatten`: a value shaped like `template`."""
    it = iter(leaves)

    def build(t):
        if isinstance(t, bool) or isinstance(t, int):
            return t
        if isinstance(t, complex):
            return complex(next(it), next(it))
        if isinstance(t, list):
            return [build(e) for e in t]
        return next(it)
    return [build(a) for a in template]


def central_jacobian(fn, args, h=1e-6):
    """d(flattened outputs)/d(flattened inputs) by central differences
    with a step relative to each input's size."""
    x0 = flatten(args)
    cols = []
    for c, xc in enumerate(x0):
        step = h * max(1.0, abs(xc))
        up, dn = list(x0), list(x0)
        up[c], dn[c] = xc + step, xc - step
        f_up = flatten(fn(*unflatten(args, up)))
        f_dn = flatten(fn(*unflatten(args, dn)))
        cols.append([(a - b) / (2 * step) for a, b in zip(f_up, f_dn)])
    return [list(row) for row in zip(*cols)]


def identity_rows(n_before, n, n_total):
    return [[1.0 if c == n_before + r else 0.0 for c in range(n_total)]
            for r in range(n)]


def jacobian_i_affine(y, w, b, x):
    """Explicit entries: y'_i = y_i + sum_j w_ij x_j + b_i."""
    n, m = len(y), len(x)
    total = n + n * m + n + m
    rows = []
    for i in range(n):
        row = [0.0] * total
        row[i] = 1.0
        for j in range(m):
            row[n + i * m + j] = x[j]
            row[n + n * m + n + j] = w[i][j]
        row[n + n * m + i] = 1.0
        rows.append(row)
    rows += identity_rows(n, total - n, total)
    return rows


def givens_product(theta, m):
    """The m x m product of i_umm's rotations, applied in program order."""
    g = [[1.0 if r == c else 0.0 for c in range(m)] for r in range(m)]
    for i, k in givens_sequence(m):
        c, s = math.cos(theta[k]), math.sin(theta[k])
        for col in range(m):
            a, b = g[i][col], g[i + 1][col]
            g[i][col], g[i + 1][col] = a * c - b * s, a * s + b * c
    return g


def jacobian_i_umm(x, theta):
    """x-block: the Givens product per column (closed form); theta-block:
    central differences of the plain i_umm."""
    m, n = len(x), len(x[0])
    nx, nt = m * n, len(theta)
    total = nx + nt
    g = givens_product(theta, m)
    fd = central_jacobian(i_umm, [x, theta])
    rows = []
    for i in range(m):
        for col in range(n):
            row = [0.0] * total
            for p in range(m):
                row[p * n + col] = g[i][p]
            row[nx:] = fd[i * n + col][nx:]
            rows.append(row)
    rows += identity_rows(nx, nt, total)
    return rows


def jacobian_r_norm(out, out2, x):
    """out' = out + sqrt(s), out2' = s, s = out2 + |x|^2."""
    s = out2 + sum(xi * xi for xi in x)
    r = math.sqrt(s)
    total = 2 + len(x)
    rows = [[1.0, 0.5 / r] + [xi / r for xi in x],
            [0.0, 1.0] + [2.0 * xi for xi in x]]
    rows += identity_rows(2, len(x), total)
    return rows


def hessian_r_norm(out, out2, x):
    """Hessian of out' over (out, out2, x); with out2 = 0 the x-block is
    (I - x^ x^T)/|x|."""
    s = out2 + sum(xi * xi for xi in x)
    r = math.sqrt(s)
    r3 = s * r
    n = 2 + len(x)
    h = [[0.0] * n for _ in range(n)]
    h[1][1] = -0.25 / r3
    for i, xi in enumerate(x):
        h[1][2 + i] = h[2 + i][1] = -0.5 * xi / r3
        for j, xj in enumerate(x):
            h[2 + i][2 + j] = (1.0 / r if i == j else 0.0) - xi * xj / r3
    return h


def jacobian_leapfrog(*args):
    return central_jacobian(FORWARD["leapfrog_clean"], list(args))


def gradient_multiplier(y, a, b):
    return {"y!": 1.0, "a": b, "b": a}


def gradient_complex_log(y, x):
    r2 = x.real * x.real + x.imag * x.imag
    return {"y!": complex(1.0, 0.0), "x": complex(x.real / r2, x.imag / r2)}


def gradient_mypower(out, x, n):
    return {"out!": 1.0, "x": n * x ** (n - 1), "n": None}
