"""Gradients by reverse computing.

The pipeline: run the function forward, copy the results with every
differentiable leaf in a GVar with a zero cotangent, seed the chosen
outputs, and execute the mechanically inverted function. That pass
carries GVars, so it runs the gradient bodies of the lowered code, whose
updates apply the gradient rules (inline for binary64 GVars): it both
uncomputes the primal values (restoring the original arguments) and
accumulates cotangents. A Hessian comes from running the same pipeline
once over Dual-number leaves whose tangents are vectors, one entry per
column (forward over reverse, in vector forward mode). A central
finite-difference estimator serves as the independent oracle.

Each public call builds one Interpreter under the caller's options and
runs every pass of the call on it: a pass whose arguments carry GVar
values is a gradient pass. The program is validated, expanded and
inverted once, and each function lowered once per float type, trace
setting and kind of body; it keeps that work, so repeated calls reuse it.
A Jacobian shares a single forward pass among its rows.

`jacobian`, `hessian` and `finite_difference` build one leaf table per
call: for each parameter, the differentiable leaves of its argument,
each as its position among the argument's leaves in `leaves` order and
its path. A backward pass copies and wraps each forward result in one
walk (`values.gvar_copy`) and seeds it at a path: a result may differ
in shape from its argument (`SWAP` exchanges whole values). Once the
pass has restored the arguments, which the restore check confirms
value by value, a Jacobian row is read by position in one
`values.leaf_list` walk of each uncalled argument. A Hessian seeds its
Duals and reads its rows by position in the same way, and a finite
difference steps each leaf by position. `gradient` takes its seeds and
gives its result by path, so it needs no table. Leaves and their paths
are the ones `values` defines; `get_leaf` and `set_leaf` are re-exported
here.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import KindError, RevError, UnknownFunction
from .interpreter import ExecOptions, Interpreter
from .numerics import strip_gvar, unwrap_gvar
from .values import (Complex, Dual, GVar, coerce_to_kind, deep_copy,
                     get_leaf, gvar_copy, is_differentiable, is_float,
                     kind_name, leaf_list, leaves, map_leaves, set_leaf,
                     to_real, values_close)


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


def _cotangent(leaf):
    """The cotangent of an uncalled leaf as a float (a Dual's primal); a
    gradient-free (bare) leaf has 0.0."""
    if type(leaf) is not GVar:
        return 0.0
    g = leaf.g
    return g if type(g) is float else float(to_real(g))


def _interpreter(program, fname, opts):
    """The Interpreter for every pass of one call, under the caller's
    options, and `fname`'s parameter names."""
    interp = Interpreter(program, opts or ExecOptions())
    fdef = interp.defs.get(fname)
    if fdef is None:
        raise UnknownFunction(f"no function named {fname!r}")
    return interp, fdef.param_names()


def _leaf_table(names, args):
    """Per parameter, (position, path) of each differentiable leaf of its
    argument: its place among the argument's leaves in `leaves` order,
    and its path, as `leaf_paths` lists them."""
    return [[(k, p) for k, (p, x) in enumerate(leaves(a))
             if is_differentiable(strip_gvar(x))]
            for _, a in zip(names, args)]


def _replaced(value, new):
    """`value` rebuilt with its k-th leaf in `leaves` order replaced by
    new[k], for each key k of `new`."""
    position = itertools.count()
    return map_leaves(value, lambda x: new.get(next(position), x))


def _backward(interp, fname, names, args, outputs, seeds):
    """One backward pass from the forward results `outputs` of `args`:
    copy each result with its differentiable leaves in fresh GVars, one
    walk each, seed them at the seeds' paths, uncall, and check that the
    arguments' primal parts are restored. Returns the uncalled values.
    `outputs` is left untouched, so several seeds can share one forward
    pass."""
    wrapped = [gvar_copy(v) for v in outputs]
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
    return back


def _gradient(interp, fname, names, args, outputs, seeds, wrt):
    """`_backward`'s cotangents collected by parameter name."""
    back = _backward(interp, fname, names, args, outputs, seeds)
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


def _table_leaves(values, table):
    """The leaves of `values` at the table's positions, in table order:
    one `leaf_list` walk of each value that has any."""
    found = []
    for v, cols in zip(values, table):
        if cols:
            flat = leaf_list(v)
            found += [flat[k] for k, _ in cols]
    return found


def jacobian(program, fname, args, opts=None):
    """Sensitivities of every differentiable output leaf with respect to
    every differentiable input leaf: one forward pass, then one backward
    pass per output row, all from that pass's results."""
    interp, names = _interpreter(program, fname, opts)
    outputs = interp.run_function(fname, deep_copy(args))
    # each leaf seeds a row and is a column of every row
    table = _leaf_table(names, args)
    rows = []
    for pname, cols in zip(names, table):
        for _, path in cols:
            back = _backward(interp, fname, names, args, outputs,
                             [(pname, path, 1.0)])
            rows.append([_cotangent(x) for x in _table_leaves(back, table)])
    return np.array(rows, dtype=float)


def hessian(program, fname, args, opts=None):
    """Forward-over-reverse in one forward and one backward pass: input
    leaf k becomes Dual(x_k, e_k), e_k row k of the identity, so each Dual
    carries every column's tangent (vector forward mode), and row i of H
    is the tangent of leaf i's cotangent. Returns the raw matrix and its
    asymmetry max |H - H^T|."""
    interp, names = _interpreter(program, fname, opts)
    table = _leaf_table(names, args)
    inputs = _table_leaves(args, table)
    if not all(is_float(x) for x in inputs):
        raise KindError("Hessians need Float inputs")
    n = len(inputs)
    H = np.zeros((n, n))
    if not n:
        return HessianResult(H, 0.0)
    duals = iter([Dual(float(x), e) for x, e in zip(inputs, np.eye(n))])
    dargs = deep_copy(list(args))
    for pi, cols in enumerate(table):
        dargs[pi] = _replaced(dargs[pi], {k: next(duals) for k, _ in cols})
    # a tangent vector's inf and NaN arise as quietly as a float's
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = interp.run_function(fname, deep_copy(dargs))
        back = _backward(interp, fname, names, dargs, outputs,
                         default_seeds(outputs, names))
    for i, x in enumerate(_table_leaves(back, table)):
        if type(x) is GVar and type(x.g) is Dual:
            H[i] = x.g.tangent
    return HessianResult(H, float(np.max(np.abs(H - H.T))))


def seeded_scalar(outputs, seeds, param_names):
    """The scalar the seeds select: sum of seed * output-leaf values (a
    gradient-free None leaf reads 0.0)."""
    total = 0.0    # summed in order: `sum` compensates on Python 3.12+
    for pname, path, seed in seeds:
        leaf = get_leaf(outputs[param_names.index(pname)], path)
        total += float(seed) * (0.0 if leaf is None else float(to_real(leaf)))
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

    grads = {}
    for pi, (pname, cols) in enumerate(zip(names, _leaf_table(names, args))):
        flat, column = leaf_list(args[pi]), {}
        for k, _ in cols:
            leaf = flat[k]
            if kind_name(leaf) == "ulog":
                raise KindError("finite differences over ULog inputs "
                                "are not defined here")
            x = to_real(leaf)
            up, dn = coerce_to_kind(leaf, x + h), coerce_to_kind(leaf, x - h)
            measured = to_real(up) - to_real(dn)
            plus, minus = deep_copy(list(args)), deep_copy(list(args))
            plus[pi] = _replaced(plus[pi], {k: up})
            minus[pi] = _replaced(minus[pi], {k: dn})
            column[k] = (run_at(plus) - run_at(minus)) / measured
        grads[pname] = _replaced(deep_copy(args[pi]), column) if cols \
            else None
    return grads
