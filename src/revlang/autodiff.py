"""Gradients by reverse computing.

The pipeline: run the function forward, wrap every differentiable leaf of
the results in a GVar with a zero cotangent, seed the chosen outputs, and
execute the mechanically inverted function. That pass carries GVars, so
it runs the gradient bodies of the lowered code, whose updates apply the
gradient rules (inline for binary64 GVars): it both uncomputes the primal
values (restoring the original arguments) and accumulates cotangents.
A Hessian comes from running the same pipeline once over Dual-number
leaves whose tangents are vectors, one entry per column (forward over
reverse, in vector forward mode). A central finite-difference estimator
serves as the independent oracle.

Each public call builds one Interpreter under the caller's options and
runs every pass of the call on it: a pass whose arguments carry GVar
values is a gradient pass. The program is validated, expanded and
inverted once, and each function lowered once per float type, trace
setting and kind of body; it keeps that work, so repeated calls reuse it.
A Jacobian shares a single forward pass among its rows. `jacobian`,
`hessian` and `finite_difference` list their arguments' differentiable
leaves once, as a table of (parameter index, name, path); `jacobian`
and `seeded_scalar` read a leaf out as a float through `_leaf_float`.
Leaves and their paths are the ones `values` defines; `get_leaf` and
`set_leaf` are re-exported here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import KindError, RevError, UnknownFunction
from .interpreter import ExecOptions, Interpreter
from .numerics import strip_gvar, unwrap_gvar, wrap_gvar
from .values import (Complex, Dual, GVar, coerce_to_kind, deep_copy,
                     get_leaf, is_differentiable, is_float, kind_name, leaves,
                     map_leaves, set_leaf, to_real, values_close)


@dataclass
class GradRequest:
    fname: str
    args: list
    # each seed is (param_name, leaf_path, cotangent); default: first
    # parameter's scalar (or real-part) leaf with cotangent 1.0
    seeds: list = None
    wrt: list = None     # parameter names to report (default: all)


@dataclass
class HessianResult:
    matrix: np.ndarray
    symmetry_error: float


def leaf_paths(value):
    """Paths of the differentiable leaves of a value, bare or in a GVar, in
    `leaves` order. Int and Bool components are gradient-free and never
    listed."""
    return [p for p, x in leaves(value) if is_differentiable(strip_gvar(x))]


def default_seeds(args, param_names):
    """Seed the first argument: its scalar leaf, or its real part."""
    first = args[0]
    paths = leaf_paths(first)
    if not paths:
        raise KindError(
            f"first argument {param_names[0]!r} has no differentiable leaf; "
            "pass explicit seeds")
    if len(paths) > 1 and type(first) is not Complex:
        raise KindError(
            f"first argument {param_names[0]!r} is not scalar; pass explicit seeds")
    return [(param_names[0], paths[0], 1.0)]


def _apply_seed(wrapped_arg, path, seed_value):
    leaf = get_leaf(wrapped_arg, path)
    if type(leaf) is not GVar:
        raise KindError("seed target is not a differentiable leaf")
    if isinstance(seed_value, complex):
        raise KindError("seed complex outputs per component (re/im paths)")
    leaf.g = coerce_to_kind(leaf.g, seed_value)


def _grad_structure(value):
    """Same-shaped value holding cotangents; gradient-free leaves -> None."""
    return map_leaves(value, lambda x: x.g if type(x) is GVar else None)


def _interpreter(program, fname, opts):
    """The Interpreter for every pass of one call, under the caller's
    options, and `fname`'s parameter names."""
    interp = Interpreter(program, opts or ExecOptions())
    fdef = interp.defs.get(fname)
    if fdef is None:
        raise UnknownFunction(f"no function named {fname!r}")
    return interp, fdef.param_names()


def _gradient(interp, fname, names, args, outputs, seeds, wrt):
    """One backward pass from the forward results `outputs` of `args`:
    wrap a copy of the results in GVars, seed them, uncall, check that the
    arguments' primal parts are restored, and collect the cotangents by
    parameter name. `outputs` is left untouched, so several seeds can
    share one forward pass."""
    wrapped = [wrap_gvar(deep_copy(v)) for v in outputs]
    for pname, path, seed in seeds:
        if pname not in names:
            raise KindError(f"seed names unknown parameter {pname!r}")
        _apply_seed(wrapped[names.index(pname)], path, seed)

    back = interp.uncall_function(fname, wrapped)

    tol = interp.opts.float_tolerance
    for pname, orig, bk in zip(names, args, back):
        if not values_close(orig, unwrap_gvar(bk), tol):
            raise RevError(f"backward pass failed to restore the primal "
                           f"value of {pname!r}", interp.defs[fname].span)

    report = wrt if wrt is not None else names
    grads = {}
    for pname in report:
        if pname not in names:
            raise KindError(f"wrt names unknown parameter {pname!r}")
        grads[pname] = _grad_structure(back[names.index(pname)])
    return grads


def gradient(program, req, opts=None):
    """Returns (primal outputs, gradients-by-parameter-name).

    The backward pass is an uncomputation: afterwards the arguments'
    primal parts must equal their pre-forward values to within the float
    tolerance, which is verified here.
    """
    interp, names = _interpreter(program, req.fname, opts)
    outputs = interp.run_function(req.fname, deep_copy(req.args))
    seeds = req.seeds if req.seeds is not None else default_seeds(outputs, names)
    grads = _gradient(interp, req.fname, names, req.args, outputs, seeds,
                      req.wrt)
    return outputs, grads


def _leaf_table(names, args):
    """(parameter index, parameter name, path) of each differentiable leaf
    of `args`, in parameter order."""
    return [(pi, pname, path) for pi, pname in enumerate(names)
            for path in leaf_paths(args[pi])]


def _leaf_float(value, path):
    """The float at `path` of `value`: its real content (a Dual's primal).
    A gradient-free (None) leaf reads 0.0."""
    leaf = get_leaf(value, path)
    return 0.0 if leaf is None else float(to_real(leaf))


def jacobian(program, fname, args, opts=None):
    """Sensitivities of every differentiable output leaf with respect to
    every differentiable input leaf: one forward pass, then one backward
    pass per output row, all from that pass's results."""
    interp, names = _interpreter(program, fname, opts)
    outputs = interp.run_function(fname, deep_copy(args))
    # each leaf seeds a row and is a column of every row
    table = _leaf_table(names, args)
    rows = []
    for _, pname, path in table:
        grads = _gradient(interp, fname, names, args, outputs,
                          [(pname, path, 1.0)], None)
        rows.append([_leaf_float(grads[n], p) for _, n, p in table])
    return np.array(rows, dtype=float)


def hessian(program, fname, args, opts=None):
    """Forward-over-reverse in one forward and one backward pass: input
    leaf k becomes Dual(x_k, e_k), e_k row k of the identity, so each Dual
    carries every column's tangent (vector forward mode), and row i of H
    is the tangent of leaf i's cotangent. Returns the raw matrix and its
    asymmetry max |H - H^T|."""
    interp, names = _interpreter(program, fname, opts)
    table = _leaf_table(names, args)
    if not all(is_float(get_leaf(args[pi], path)) for pi, _, path in table):
        raise KindError("Hessians need Float inputs")
    n = len(table)
    H = np.zeros((n, n))
    if not n:
        return HessianResult(H, 0.0)
    dargs = deep_copy(list(args))
    for (pi, _, path), e in zip(table, np.eye(n)):
        dual = Dual(float(get_leaf(dargs[pi], path)), e)
        dargs[pi] = set_leaf(dargs[pi], path, dual)
    # a tangent vector's inf and NaN arise as quietly as a float's
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = interp.run_function(fname, deep_copy(dargs))
        grads = _gradient(interp, fname, names, dargs, outputs,
                          default_seeds(outputs, names), None)
    for i, (_, pname, path) in enumerate(table):
        leaf = get_leaf(grads[pname], path)
        if type(leaf) is Dual:
            H[i] = leaf.tangent
    return HessianResult(H, float(np.max(np.abs(H - H.T))))


def seeded_scalar(outputs, seeds, param_names):
    """The scalar the seeds select: sum of seed * output-leaf values."""
    total = 0.0    # summed in order: `sum` compensates on Python 3.12+
    for pname, path, seed in seeds:
        v = outputs[param_names.index(pname)]
        total += float(seed) * _leaf_float(v, path)
    return total


def finite_difference(program, fname, args, h, seeds=None, opts=None):
    """Central differences (f(a + h e_i) - f(a - h e_i)) / 2h of the seeded
    scalar output, per differentiable input leaf. The step is measured
    after kind quantization (a Fixed leaf stores h to 2^-32), so the
    estimate divides by the step actually taken."""
    if not h > 0:
        raise KindError("finite differences need h > 0")
    interp, names = _interpreter(program, fname, opts)
    if seeds is None:
        outs = interp.run_function(fname, deep_copy(args))
        seeds = default_seeds(outs, names)

    def run_at(pargs):
        outs = interp.run_function(fname, pargs)
        return seeded_scalar(outs, seeds, names)

    grads = {pname: deep_copy(a) if leaf_paths(a) else None
             for pname, a in zip(names, args)}
    for pi, pname, path in _leaf_table(names, args):
        leaf = get_leaf(args[pi], path)
        if kind_name(leaf) == "ulog":
            raise KindError("finite differences over ULog inputs "
                            "are not defined here")
        x = to_real(leaf)
        up, dn = coerce_to_kind(leaf, x + h), coerce_to_kind(leaf, x - h)
        measured = to_real(up) - to_real(dn)
        plus, minus = deep_copy(list(args)), deep_copy(list(args))
        plus[pi] = set_leaf(plus[pi], path, up)
        minus[pi] = set_leaf(minus[pi], path, dn)
        grad = (run_at(plus) - run_at(minus)) / measured
        grads[pname] = set_leaf(grads[pname], path, grad)
    return grads
