"""Batch command-line front end.

    revlang run FILE -f NAME -a 2,3,5
    revlang invert FILE [-f NAME]
    revlang grad FILE -f NAME -a 0.0,3.0,5.0 [--seed PARAM[=V]] [--wrt P,...]
    revlang hessian FILE -f NAME -a ...
    revlang check FILE -f NAME -a ... [--trials N] [--json]
    revlang bench bennett -k K -n N | bench treeverse -T T -d D
    revlang roundoff --steps N --precision 32|64

Argument literals carry kind suffixes: `5` Int, `2.0` Float, `3fx` Fixed,
`1+2im` Complex, `2.5ul` positive log-domain, `true`/`false` Bool, and
`[..]`/`[[..],..]` arrays. Exit codes: 0 ok, 1 usage, 2 parse/validate,
3 runtime reversibility error.
"""

import argparse
import functools
import json
import random
import re
import sys

from .autodiff import GradRequest, gradient, hessian
from .errors import (RevLangError, RnlSyntaxError, UnknownFunction,
                     ValidationFailed)
from .interpreter import ExecOptions, Interpreter, check_reversibility
from .ir import Program, validate
from .parser import parse_program, pretty_print
from .reverser import invert_function
from .stdlib import roundoff_table
from .tradeoff import (StepProgram, bennett_counts, bennett_run, eta,
                       treeverse_run, treeverse_time_bound)
from .values import (Array, Complex, Fixed, GVar, Record, ULog, deep_copy,
                     is_bool, is_float, is_int)

_COMPLEX_RE = re.compile(
    r"^([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?([+-]\d*(?:\.\d+)?(?:[eE][+-]?\d+)?)?im$")


def parse_value(text):
    """One CLI value literal -> runtime value. Digits are ASCII only, as in
    `.rnl` literals (Python's `int` and `float` also take any Unicode digit
    and '_' separators)."""
    s = text.strip()
    if not s.isascii() or "_" in s:
        raise ValueError(f"bad value literal {s!r}: ASCII digits only, "
                         f"without '_'")
    if s.startswith("["):
        return _parse_array(s)
    if s in ("true", "false"):
        return s == "true"
    if s.endswith("fx"):
        return Fixed.from_real(float(s[:-2]))
    if s.endswith("ul"):
        return ULog.from_real(float(s[:-2]))
    if s.endswith("im"):
        m = _COMPLEX_RE.match(s)
        if not m:
            raise ValueError(f"bad complex literal {s!r}")
        re_part = float(m.group(1)) if m.group(1) else 0.0
        im_text = m.group(2)
        if im_text is None:
            im_part = re_part
            re_part = 0.0
        elif im_text in ("+", "-"):
            im_part = float(im_text + "1")
        else:
            im_part = float(im_text)
        return Complex(re_part, im_part)
    try:
        return int(s)
    except ValueError:
        pass
    return float(s)


def _parse_array(s):
    data = json.loads(s)
    if data and isinstance(data[0], list):
        if any(not isinstance(row, list) or len(row) != len(data[0])
               for row in data):
            raise ValueError(f"matrix literal rows must be lists of equal "
                             f"length: {s}")
        return Array.matrix([[_coerce_num(v) for v in row] for row in data])
    return Array.vector([_coerce_num(v) for v in data])


def _coerce_num(v):
    if isinstance(v, bool) or isinstance(v, (int, float)):
        return v
    raise ValueError(f"array literals hold numbers, got {v!r}")


def split_args(text):
    """Split a comma-separated -a string, honoring brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


def encode_value(v):
    """Deterministic JSON encoding of a runtime value."""
    if isinstance(v, GVar):
        return encode_value(v.x)
    if v is None:
        return None
    if is_bool(v):
        return bool(v)
    if is_int(v):
        return int(v)
    if is_float(v):
        return float(v)
    if isinstance(v, Fixed):
        return {"kind": "fixed", "value": v.decimal_str()}
    if isinstance(v, ULog):
        return {"kind": "ulog", "log": float(v.log_x)}
    if isinstance(v, Complex):
        return {"kind": "complex", "re": encode_value(v.re),
                "im": encode_value(v.im)}
    if isinstance(v, Array):
        if len(v.shape) == 1:
            return [encode_value(e) for e in v.data]
        rows, cols = v.shape
        return [[encode_value(v.get((i, j))) for j in range(1, cols + 1)]
                for i in range(1, rows + 1)]
    if isinstance(v, Record):
        return {"kind": "record",
                **{k: encode_value(x) for k, x in sorted(v.fields().items())}}
    raise ValueError(f"cannot encode {v!r}")


def _load(path):
    """Parse only: `Interpreter` validates the programs it runs."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return parse_program(text, path)


def _exec_options(ns):
    return ExecOptions(invcheck=not getattr(ns, "no_invcheck", False))


def _parse_seed(spec):
    # PARAM or PARAM=VALUE (path selectors: name.re / name[3]); ASCII only,
    # and no '_' in the value
    name, _, val = spec.partition("=")
    if not spec.isascii() or "_" in val:
        raise ValueError(f"bad seed selector {spec!r}")
    seed = float(val) if val else 1.0
    path = ()
    m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*!*)((\.\w+)|(\[\d+(,\d+)*\]))?$", name)
    if not m:
        raise ValueError(f"bad seed selector {spec!r}")
    pname = m.group(1)
    sel = m.group(2)
    if sel:
        if sel.startswith("."):
            path = (("field", sel[1:]),)
        else:
            idx = tuple(int(x) for x in sel[1:-1].split(","))
            path = (("idx", idx),)
    return (pname, path, seed)


@functools.cache
def _parser():
    """The argument parser, built once per process: a parse fills a new
    namespace, so calls share no state."""
    ap = argparse.ArgumentParser(prog="revlang", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, needs_args=True):
        p.add_argument("file")
        p.add_argument("-f", "--function", required=True)
        if needs_args:
            p.add_argument("-a", "--args", required=True,
                           help="comma-separated value literals")
        p.add_argument("--no-invcheck", action="store_true",
                       help="disable reversibility checks")

    p_run = sub.add_parser("run", help="execute a function forward")
    common(p_run)
    p_inv = sub.add_parser("invert", help="print the inverted program")
    p_inv.add_argument("file")
    p_inv.add_argument("-f", "--function")
    p_grad = sub.add_parser("grad", help="gradient by reverse computing")
    common(p_grad)
    p_grad.add_argument("--seed", action="append", default=None,
                        help="PARAM[.field|[i]][=value]; default first param = 1")
    p_grad.add_argument("--wrt", default=None, help="comma-separated params")
    p_hess = sub.add_parser("hessian", help="forward-over-reverse Hessian")
    common(p_hess)
    p_chk = sub.add_parser("check", help="run f then ~f and report deviations")
    common(p_chk)
    p_chk.add_argument("--trials", type=int, default=1)
    p_chk.add_argument("--json", action="store_true")
    p_chk.add_argument("--rng-seed", type=int, default=0)
    p_bench = sub.add_parser("bench", help="trade-off schedule counters")
    bench_sub = p_bench.add_subparsers(dest="scheme", required=True)
    p_ben = bench_sub.add_parser("bennett")
    p_ben.add_argument("-k", type=int, required=True)
    p_ben.add_argument("-n", type=int, required=True)
    p_tv = bench_sub.add_parser("treeverse")
    p_tv.add_argument("-T", type=int, required=True)
    p_tv.add_argument("-d", type=int, required=True)
    p_ro = sub.add_parser("roundoff", help="leapfrog reversal-error table (CSV)")
    p_ro.add_argument("--steps", type=int, default=10_000)
    p_ro.add_argument("--precision", choices=("32", "64"), default="64")
    return ap


def main(argv=None):
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1

    try:
        return _dispatch(ns)
    except (RnlSyntaxError, ValidationFailed) as err:
        print(str(err), file=sys.stderr)
        return 2
    except RevLangError as err:
        print(str(err), file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(str(err), file=sys.stderr)
        return 1


def _dispatch(ns):
    if ns.cmd == "run":
        program = _load(ns.file)
        args = [parse_value(t) for t in split_args(ns.args)]
        out = Interpreter(program, _exec_options(ns)).run_function(
            ns.function, args)
        print(json.dumps({"args": [encode_value(v) for v in out]},
                         sort_keys=True))
        return 0

    if ns.cmd == "invert":
        program = _load(ns.file)
        diags = validate(program)
        if diags:
            raise ValidationFailed(diags)
        if ns.function and ns.function not in program:
            raise UnknownFunction(f"no function named {ns.function!r}")
        names = [ns.function] if ns.function else list(program.functions)
        inverted = Program([invert_function(program.get(n)) for n in names])
        sys.stdout.write(pretty_print(inverted))
        return 0

    if ns.cmd == "grad":
        program = _load(ns.file)
        args = [parse_value(t) for t in split_args(ns.args)]
        seeds = [_parse_seed(s) for s in ns.seed] if ns.seed else None
        wrt = ns.wrt.split(",") if ns.wrt else None
        primal, grads = gradient(
            program, GradRequest(ns.function, args, seeds=seeds, wrt=wrt),
            opts=_exec_options(ns))
        print(json.dumps({
            "primal": [encode_value(v) for v in primal],
            "grads": {k: encode_value(v) for k, v in sorted(grads.items())},
        }, sort_keys=True))
        return 0

    if ns.cmd == "hessian":
        program = _load(ns.file)
        args = [parse_value(t) for t in split_args(ns.args)]
        res = hessian(program, ns.function, args, opts=_exec_options(ns))
        print(json.dumps({
            "hessian": [[float(x) for x in row] for row in res.matrix],
            "symmetry_error": res.symmetry_error,
        }, sort_keys=True))
        return 0

    if ns.cmd == "check":
        program = _load(ns.file)
        base_args = [parse_value(t) for t in split_args(ns.args)]
        rng = random.Random(ns.rng_seed)
        reports = []
        ok = True
        for trial in range(max(1, ns.trials)):
            args = base_args if trial == 0 else \
                [_jitter(a, rng) for a in base_args]
            rep = check_reversibility(program, ns.function, args,
                                      _exec_options(ns))
            ok = ok and rep.ok
            reports.append(rep)
        if ns.json:
            print(json.dumps({
                "function": ns.function,
                "ok": ok,
                "trials": [json.loads(r.to_json()) for r in reports],
            }, sort_keys=True))
        else:
            for i, r in enumerate(reports):
                status = "ok" if r.ok else \
                    f"FAILED ({r.error or 'not restored within tolerance'})"
                print(f"trial {i}: {status}, max deviation {r.max_deviation}")
        return 0 if ok else 3

    if ns.cmd == "bench":
        if ns.scheme == "bennett":
            length = ns.k ** ns.n
            prog = StepProgram(length=length, step=lambda i, s: 2.0 * s,
                               initial=1.0)
            final, counters = bennett_run(prog, k=ns.k)
            steps, peak = bennett_counts(ns.k, ns.n)
            print(json.dumps({
                "scheme": "bennett", "k": ns.k, "n": ns.n, "length": length,
                "measured": counters.to_dict(),
                "analytic": {"total_steps": steps, "peak_states": peak},
            }, sort_keys=True))
        else:
            prog = StepProgram(length=ns.T, step=lambda i, s: s + 1, initial=0)
            _, counters = treeverse_run(prog, ns.d, lambda i, s, acc: acc)
            bound = treeverse_time_bound(ns.T, ns.d)
            t = bound // ns.T
            print(json.dumps({
                "scheme": "treeverse", "T": ns.T, "d": ns.d,
                "measured": counters.to_dict(),
                "analytic": {"t": t, "forward_bound": bound,
                             "eta": eta(t, ns.d)},
            }, sort_keys=True))
        return 0

    if ns.cmd == "roundoff":
        precision = "binary32" if ns.precision == "32" else "binary64"
        ladder = [10, 100, 1000, 10_000]
        counts = sorted({c for c in ladder if c <= ns.steps} | {ns.steps})
        print("steps,error_clean,error_cumulative,precision")
        for steps, e_clean, e_cum, prec in roundoff_table(counts, precision):
            print(f"{steps},{e_clean!r},{e_cum!r},{prec}")
        return 0

    return 1


def _jitter(value, rng):
    """Fresh random values of the same shape/kind as the example input."""
    if isinstance(value, Fixed):
        return Fixed.from_real(rng.uniform(0.25, 2.0))
    if is_bool(value):
        return value
    if is_int(value):
        return rng.randint(0, 6)
    if is_float(value):
        return rng.uniform(-2.0, 2.0)
    if isinstance(value, ULog):
        return ULog.from_real(rng.uniform(0.25, 4.0))
    if isinstance(value, Complex):
        return Complex(rng.uniform(0.3, 2.0) * rng.choice([-1, 1]),
                       rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))
    if isinstance(value, Array):
        return Array([_jitter(e, rng) for e in value.data], value.shape)
    if isinstance(value, Record):
        return Record(**{k: _jitter(x, rng) for k, x in value.fields().items()})
    return deep_copy(value)


if __name__ == "__main__":
    sys.exit(main())
