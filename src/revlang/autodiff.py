"""Gradients by reverse computing.

The pipeline: run the function forward, wrap every differentiable leaf of
the results in a GVar with a zero cotangent, seed the chosen outputs, and
execute the mechanically inverted function. Instruction dispatch sees the
GVar values and applies the gradient rules, so the backward pass both
uncomputes the primal values (restoring the original arguments) and
accumulates cotangents. Hessians come from running the same pipeline over
Dual-number leaves (forward over reverse). A central finite-difference
estimator serves as the independent oracle.

Each public call builds one Interpreter under the caller's options, which
validates, inverts and compiles the program once and runs every pass of
the call: a pass whose arguments carry GVar values is a gradient pass. A
Jacobian shares a single forward pass among its rows.
"""

from dataclasses import dataclass

import numpy as np

from .errors import KindError, RevError, UnknownFunction
from .interpreter import ExecOptions, Interpreter
from .numerics import unwrap_gvar, wrap_gvar
from .values import (Array, Complex, Dual, Fixed, GVar, Record, ULog,
                     coerce_to_kind, deep_copy, is_float, kind_name, to_real,
                     values_close)


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


def leaf_paths(value, _prefix=()):
    """Paths of all differentiable leaves inside a value, in a stable order.
    Int and Bool components are gradient-free and never listed."""
    if isinstance(value, GVar):
        yield from leaf_paths(value.x, _prefix)
    elif isinstance(value, Complex):
        yield _prefix + (("field", "re"),)
        yield _prefix + (("field", "im"),)
    elif isinstance(value, Array):
        if len(value.shape) == 1:
            for i in range(1, value.shape[0] + 1):
                yield from leaf_paths(value.get((i,)), _prefix + (("idx", (i,)),))
        else:
            rows, cols = value.shape
            for i in range(1, rows + 1):
                for j in range(1, cols + 1):
                    yield from leaf_paths(value.get((i, j)),
                                          _prefix + (("idx", (i, j)),))
    elif isinstance(value, Record):
        for k in value.fields():
            yield from leaf_paths(value.fields()[k], _prefix + (("field", k),))
    elif isinstance(value, (Fixed, ULog)) or is_float(value):
        yield _prefix


def get_leaf(value, path):
    """The component of `value` at `path`; KindError when a step does not
    fit the value it selects from (an index outside an array raises
    IndexOutOfBounds, as in a program)."""
    for kind, key in path:
        if isinstance(value, GVar):
            value = value.x
        if kind == "field" and isinstance(value, (Complex, Record)) \
                and key in value.fields():
            value = value.fields()[key]
        elif kind == "idx" and isinstance(value, Array):
            value = value.get(key)
        else:
            raise KindError(f"path step {kind} {key!r} does not fit "
                            f"a {kind_name(value)} value")
    return value


def set_leaf(value, path, new):
    if not path:
        raise KindError("cannot replace a whole argument leaflessly")
    parent = get_leaf(value, path[:-1])
    if isinstance(parent, GVar):
        parent = parent.x
    step = path[-1]
    if step[0] == "field":
        if isinstance(parent, Complex):
            if step[1] == "re":
                parent.re = new
            else:
                parent.im = new
        else:
            parent.fields()[step[1]] = new
    else:
        parent.set(step[1], new)


def default_seeds(args, param_names):
    """Seed the first argument: its scalar leaf, or its real part."""
    first = args[0]
    paths = list(leaf_paths(first))
    if not paths:
        raise KindError(
            f"first argument {param_names[0]!r} has no differentiable leaf; "
            "pass explicit seeds")
    if len(paths) > 1 and not isinstance(first, Complex):
        raise KindError(
            f"first argument {param_names[0]!r} is not scalar; pass explicit seeds")
    return [(param_names[0], paths[0], 1.0)]


def _apply_seed(wrapped_arg, path, seed_value):
    leaf = get_leaf(wrapped_arg, path) if path else wrapped_arg
    if not isinstance(leaf, GVar):
        raise KindError("seed target is not a differentiable leaf")
    if isinstance(seed_value, complex):
        raise KindError("seed complex outputs per component (re/im paths)")
    leaf.g = coerce_to_kind(leaf.g, seed_value)


def _grad_structure(value):
    """Same-shaped value holding cotangents; gradient-free leaves -> None."""
    if isinstance(value, GVar):
        return value.g
    if isinstance(value, Complex):
        return Complex(_grad_structure(value.re), _grad_structure(value.im))
    if isinstance(value, Array):
        return Array([_grad_structure(e) for e in value.data], value.shape)
    if isinstance(value, Record):
        return Record(**{k: _grad_structure(v)
                         for k, v in value.fields().items()})
    return None


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
    for orig, bk in zip(args, back):
        if not values_close(orig, unwrap_gvar(bk), tol):
            raise RevError(
                "backward pass failed to restore an argument's primal value")

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
    outputs = interp.run_function(req.fname, [deep_copy(a) for a in req.args])
    seeds = req.seeds if req.seeds is not None else default_seeds(outputs, names)
    grads = _gradient(interp, req.fname, names, req.args, outputs, seeds,
                      req.wrt)
    return outputs, grads


def _flatten(value_by_param, params, structure_args):
    out = []
    for pname, arg in zip(params, structure_args):
        g = value_by_param[pname]
        for path in leaf_paths(arg):
            leaf = get_leaf(g, path) if path else g
            out.append(0.0 if leaf is None else float(to_real(_strip_dual(leaf))))
    return out


def _strip_dual(v):
    return v.primal if isinstance(v, Dual) else v


def jacobian(program, fname, args, opts=None):
    """Sensitivities of every differentiable output leaf with respect to
    every differentiable input leaf: one forward pass, then one backward
    pass per output row, all from that pass's results."""
    interp, names = _interpreter(program, fname, opts)
    outputs = interp.run_function(fname, [deep_copy(a) for a in args])
    rows = []
    for pi, pname in enumerate(names):
        for path in leaf_paths(args[pi]):
            grads = _gradient(interp, fname, names, args, outputs,
                              [(pname, path, 1.0)], None)
            rows.append(_flatten(grads, names, args))
    return np.array(rows, dtype=float)


def hessian(program, fname, args, opts=None):
    """Forward-over-reverse: gradient passes over Dual-number leaves, one
    unit tangent per input column, each with its own forward pass. Returns
    the raw matrix and its asymmetry max |H - H^T|."""
    interp, names = _interpreter(program, fname, opts)
    in_leaves = []
    for pi, pname in enumerate(names):
        for path in leaf_paths(args[pi]):
            leaf = get_leaf(args[pi], path) if path else args[pi]
            if isinstance(leaf, (Fixed, ULog)):
                raise KindError("Hessians need Float inputs")
            in_leaves.append((pi, pname, path))

    def dualized(tangent_index):
        dargs = [deep_copy(a) for a in args]
        for k, (pi, _, path) in enumerate(in_leaves):
            t = 1.0 if k == tangent_index else 0.0
            if path:
                leaf = get_leaf(dargs[pi], path)
                set_leaf(dargs[pi], path, Dual(float(leaf), t))
            else:
                dargs[pi] = Dual(float(dargs[pi]), t)
        return dargs

    n = len(in_leaves)
    H = np.zeros((n, n))
    for j in range(n):
        dargs = dualized(j)
        outputs = interp.run_function(fname, [deep_copy(a) for a in dargs])
        grads = _gradient(interp, fname, names, dargs, outputs,
                          default_seeds(outputs, names), None)
        for k, (pi, pname, path) in enumerate(in_leaves):
            g = grads[pname]
            leaf = get_leaf(g, path) if path else g
            if leaf is None:
                H[k, j] = 0.0
            elif isinstance(leaf, Dual):
                H[k, j] = float(leaf.tangent)
            else:
                H[k, j] = 0.0
    sym_err = float(np.max(np.abs(H - H.T))) if n else 0.0
    return HessianResult(H, sym_err)


def seeded_scalar(outputs, seeds, param_names):
    """The scalar the seeds select: sum of seed * output-leaf values."""
    total = 0.0
    for pname, path, seed in seeds:
        v = outputs[param_names.index(pname)]
        leaf = get_leaf(v, path) if path else v
        total += float(seed) * float(to_real(_strip_dual(leaf)))
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
        outs = interp.run_function(fname, [deep_copy(a) for a in args])
        seeds = default_seeds(outs, names)

    def run_at(pargs):
        outs = interp.run_function(fname, pargs)
        return seeded_scalar(outs, seeds, names)

    grads = {}
    for pi, pname in enumerate(names):
        g = deep_copy(args[pi])
        paths = list(leaf_paths(args[pi]))
        for path in paths:
            leaf = get_leaf(args[pi], path) if path else args[pi]
            if isinstance(leaf, ULog):
                raise KindError("finite differences over ULog inputs "
                                "are not defined here")
            x = to_real(leaf)
            if isinstance(leaf, Fixed):
                up, dn = Fixed.from_real(x + h), Fixed.from_real(x - h)
                measured = up.to_float() - dn.to_float()
            else:
                up, dn = x + h, x - h
                measured = up - dn
            plus = [deep_copy(a) for a in args]
            minus = [deep_copy(a) for a in args]
            if path:
                set_leaf(plus[pi], path, up)
                set_leaf(minus[pi], path, dn)
            else:
                plus[pi] = up
                minus[pi] = dn
            grad = (run_at(plus) - run_at(minus)) / measured
            if path:
                set_leaf(g, path, grad)
            else:
                g = grad
        if not paths:
            g = None
        grads[pname] = g
    return grads
