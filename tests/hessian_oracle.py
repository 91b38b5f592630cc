"""The per-column Hessian, the oracle of `autodiff.hessian`'s single pass.

Column j is one forward and one backward pass over Dual leaves whose
tangents are the floats of the unit vector e_j, and H[i, j] is the tangent
of leaf i's cotangent. `autodiff.hessian` carries every column in one pass
and must agree with this bit for bit (NaN as NaN); where this raises, it
raises the same type of error at the same span.
"""

import numpy as np

from revlang.autodiff import (HessianResult, _gradient, _interpreter,
                              default_seeds, leaf_paths)
from revlang.errors import KindError, RevLangError
from revlang.values import Dual, deep_copy, get_leaf, is_float, set_leaf


def hessian_by_columns(program, fname, args, opts=None):
    interp, names = _interpreter(program, fname, opts)
    # by path, apart from the leaf table that `hessian` reads by position
    table = [(pi, pname, path)
             for pi, (pname, a) in enumerate(zip(names, args))
             for path in leaf_paths(a)]
    if not all(is_float(get_leaf(args[pi], path)) for pi, _, path in table):
        raise KindError("Hessians need Float inputs")
    n = len(table)
    H = np.zeros((n, n))
    for j in range(n):
        dargs = deep_copy(list(args))
        for k, (pi, _, path) in enumerate(table):
            dual = Dual(float(get_leaf(dargs[pi], path)), 1.0 if k == j else 0.0)
            dargs[pi] = set_leaf(dargs[pi], path, dual)
        outputs = interp.run_function(fname, deep_copy(dargs))
        grads = _gradient(interp, fname, names, dargs, outputs,
                          default_seeds(outputs, names), None)
        for i, (_, pname, path) in enumerate(table):
            leaf = get_leaf(grads[pname], path)
            H[i, j] = float(leaf.tangent) if type(leaf) is Dual else 0.0
    sym_err = float(np.max(np.abs(H - H.T))) if n else 0.0
    return HessianResult(H, sym_err)


def outcome(f, program, fname, args):
    """What the Hessian function `f` gives: its matrix, or its error's
    type and span."""
    try:
        return f(program, fname, args).matrix
    except RevLangError as err:
        return type(err).__name__, err.span


def same_outcome(got, want):
    """Equal errors, or matrices of equal shapes and bits, every NaN
    equal to every NaN."""
    if not (isinstance(got, np.ndarray) and isinstance(want, np.ndarray)):
        return type(got) is type(want) and got == want
    nan = np.isnan(want)
    return got.shape == want.shape and bool(
        (nan == np.isnan(got)).all()
        and want[~nan].tobytes() == got[~nan].tobytes())
