"""One SHA-256 over what the catalog computes, pinned bit for bit.

The digest covers the forward run, the uncall of its result, `jacobian`
and `hessian` (or the error either raises) of each entry below on
`sample_args` seeds 0-2 in binary64, and the leapfrog entries' forward
run, uncall and `jacobian` in binary32 on the same seeds. Floats are
written with `float.hex` and their type, every NaN as one token, and
errors by type and message, so a change to any value's bits or kind, or
to an error, changes the digest.

Only entries whose arithmetic is correctly rounded (+ - * / and sqrt on
IEEE-754 floats, r_norm's `x ^ 2`, integer and fixed-point updates) are
covered. Entries that call sin, cos, exp, log or atan2 (`complex_log`,
`complex_log_ccu`, `i_umm`, `mypower_log`) are left out: libm may round
those differently by an ulp from one host to another, and the digest
would pin the host.
"""

import hashlib
import random

import numpy as np
import pytest

from revlang.autodiff import hessian, jacobian
from revlang.interpreter import ExecOptions, Interpreter
from revlang.stdlib import entry_function, load_example, sample_args
from revlang.values import (Array, Complex, Dual, Fixed, GVar, Record, ULog,
                            map_leaves)

ENTRIES = ("i_affine", "leapfrog_clean", "leapfrog_cumulative", "multiplier",
           "r_norm", "rrfib_corrected")
SEEDS = (0, 1, 2)
BINARY32 = ExecOptions(float_dtype=np.float32, float_tolerance=1e-3)

DIGEST = "7662a0ab0bc14b2872c5f2c91fba4dcaf514107b3413215380958c84d65236a8"


def _enc(v):
    """A canonical text for a value: kinds and exact bits."""
    if isinstance(v, (float, np.floating)):
        return "nan" if v != v else f"{type(v).__name__}:{float(v).hex()}"
    if isinstance(v, (bool, int, np.integer)):
        return f"{type(v).__name__}:{int(v)}"
    if isinstance(v, Fixed):
        return f"fixed:{v.raw}"
    if isinstance(v, ULog):
        return f"ulog:{_enc(v.log_x)}"
    if isinstance(v, Dual):
        return f"dual({_enc(v.primal)},{_enc(v.tangent)})"
    if isinstance(v, GVar):
        return f"gvar({_enc(v.x)},{_enc(v.g)})"
    if isinstance(v, Complex):
        return f"complex({_enc(v.re)},{_enc(v.im)})"
    if isinstance(v, Array):
        return f"array{v.shape}[{','.join(map(_enc, v.data))}]"
    if isinstance(v, Record):
        return "record{" + ",".join(f"{k}={_enc(x)}"
                                    for k, x in v.fields().items()) + "}"
    if isinstance(v, np.ndarray):
        return f"ndarray{v.shape}[{','.join(map(_enc, v.ravel()))}]"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(map(_enc, v)) + "]"
    raise AssertionError(f"no encoding for {type(v).__name__}")


def _outcome(f):
    try:
        return _enc(f())
    except Exception as err:  # an error is an outcome, by type and message
        return f"{type(err).__name__}: {err}"


def _lines(name, seed, args, opts, label, with_hessian):
    program, fname = load_example(name), entry_function(name)
    interp = Interpreter(program, opts)
    out = []

    def forward():
        out.append(interp.run_function(fname, list(args)))
        return out[0]

    yield f"{label} {seed} forward {_outcome(forward)}"
    if out:
        yield f"{label} {seed} uncall " + _outcome(
            lambda: interp.uncall_function(fname, out[0]))
    yield f"{label} {seed} jacobian " + _outcome(
        lambda: jacobian(program, fname, args, opts))
    if with_hessian:
        yield f"{label} {seed} hessian " + _outcome(
            lambda: [hessian(program, fname, args, opts).matrix])


def _binary32(v):
    return map_leaves(v, lambda x: np.float32(x) if type(x) is float else x)


def catalog_lines():
    for name in ENTRIES:
        for seed in SEEDS:
            args = sample_args(name, random.Random(seed))
            yield from _lines(name, seed, args, None, name, True)
            if name.startswith("leapfrog"):
                yield from _lines(name, seed, [_binary32(a) for a in args],
                                  BINARY32, name + "/binary32", False)


def catalog_digest():
    h = hashlib.sha256()
    for line in catalog_lines():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_catalog_digest_is_pinned():
    assert catalog_digest() == DIGEST


def test_the_digest_reads_every_outcome():
    lines = list(catalog_lines())
    # forward, uncall, jacobian and hessian per binary64 case; forward,
    # uncall and jacobian per binary32 leapfrog case
    assert len(lines) == len(ENTRIES) * len(SEEDS) * 4 + 2 * len(SEEDS) * 3
    assert not any("Error" in line for line in lines
                   if " forward " in line or " uncall " in line)
