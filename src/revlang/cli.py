"""Batch command-line front end.

    revlang run FILE -f NAME -a 2,3,5
    revlang invert FILE [-f NAME]
    revlang grad FILE -f NAME -a 0.0,3.0,5.0 [--seed PARAM[=V]] [--wrt P,...]
    revlang hessian FILE -f NAME -a ...
    revlang check FILE -f NAME -a ... [--trials N] [--json]
    revlang bench bennett -k K -n N | bench treeverse -T T -d D
    revlang roundoff --steps N --precision 32|64

`run`, `grad`, `hessian` and `check` also take `--no-invcheck` and
`--max-steps N`, the statement budget. Argument literals carry kind
suffixes: `5` Int, `2.0` Float, `3fx` Fixed, `1+2im` Complex, `2.5ul`
positive log-domain, `true`/`false` Bool, and `[..]`/`[[..],..]` arrays.
Exit codes: 0 ok, 1 usage, 2 parse/validate, 3 runtime reversibility
error. JSON outputs are strict (RFC 8259): a non-finite float prints as
the literal that reads it back, "nan", "inf" or "-inf".
"""

import argparse
import functools
import json
import random
import re
import sys

from .autodiff import GradRequest, gradient, hessian
from .errors import (RevDomainError, RevLangError, RnlSyntaxError,
                     UnknownFunction, ValidationFailed)
from .interpreter import ExecOptions, Interpreter, check_reversibility
from .ir import Program, validate
from .parser import parse_program, pretty_print
from .reverser import invert_function
from .stdlib import roundoff_table
from .tradeoff import (StepProgram, bennett_counts, bennett_run, eta,
                       treeverse_run, treeverse_time_bound)
from .values import _KINDS, Array, Complex, Fixed, ULog, deep_copy, json_float

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
    if s.endswith(("fx", "ul")):
        try:
            return (Fixed if s.endswith("fx") else ULog).from_real(
                float(s[:-2]))
        except RevDomainError as err:   # a value its kind cannot hold
            raise ValueError(f"bad value literal {s!r}: {err.message}") \
                from None
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
    items = _items(s)
    if items and isinstance(items[0], list):
        if any(not isinstance(row, list) or len(row) != len(items[0])
               for row in items):
            raise ValueError(f"matrix literal rows must be lists of equal "
                             f"length: {s}")
        return Array.matrix([[_cell(t) for t in row] for row in items])
    return Array.vector([_cell(t) for t in items])


def _items(s):
    """The items of a bracketed literal, a nested literal as a list."""
    if not s.endswith("]"):
        raise ValueError(f"bad array literal {s!r}")
    inner = s[1:-1]
    return [_items(t) if t.startswith("[") else t
            for t in _split(inner)] if inner.strip() else []


def _cell(t):
    """An array cell: an Int, Float or Bool literal as `parse_value` reads
    it."""
    try:
        v = parse_value(t) if isinstance(t, str) else t
    except ValueError:
        v = t
    if isinstance(v, (int, float)):   # a bool too
        return v
    raise ValueError(f"array literals hold numbers, got {v!r}")


def _split(text):
    """Split at the commas outside brackets; parts are stripped, and empty
    ones kept."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    return [*parts, "".join(cur).strip()]


def split_args(text):
    """Split a comma-separated -a string, honoring brackets; a blank
    string is no argument, and an empty part a usage error."""
    if not text.strip():
        return []
    parts = _split(text)
    if "" in parts:
        raise ValueError(f"empty argument in {text!r}")
    return parts


def encode_value(v):
    """Deterministic JSON encoding of a runtime value."""
    encode = _KINDS[type(v)].encode
    if encode is None:
        raise ValueError(f"cannot encode {v!r}")
    return encode(v, encode_value)


def _load(path):
    """Parse only: `Interpreter` validates the programs it runs."""
    with open(path, "r", encoding="utf-8-sig") as f:
        text = f.read()
    return parse_program(text, path)


def _exec_options(ns):
    """The options of `run`, `grad`, `hessian` and `check`: a bad
    `--max-steps` raises `ValueError` (exit 1)."""
    budget = {} if ns.max_steps is None else {"max_steps": ns.max_steps}
    return ExecOptions(invcheck=not ns.no_invcheck, **budget)


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
        p.add_argument("--max-steps", type=int, metavar="N",
                       help="statement executions before FuelExhausted "
                            "(default 500000000)")

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
    if ns.cmd in ("run", "grad", "hessian", "check"):
        program = _load(ns.file)
        args = [parse_value(t) for t in split_args(ns.args)]
    if ns.cmd == "run":
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
        res = hessian(program, ns.function, args, opts=_exec_options(ns))
        print(json.dumps({
            "hessian": [[json_float(x) for x in row] for row in res.matrix],
            "symmetry_error": json_float(res.symmetry_error),
        }, sort_keys=True))
        return 0

    if ns.cmd == "check":
        rng = random.Random(ns.rng_seed)
        reports = []
        ok = True
        for trial in range(max(1, ns.trials)):
            trial_args = args if trial == 0 else \
                [_jitter(a, rng) for a in args]
            rep = check_reversibility(program, ns.function, trial_args,
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
            # the closed forms reject k < 2 and n < 0 before k ** n is taken
            steps, peak = bennett_counts(ns.k, ns.n)
            length = ns.k ** ns.n
            prog = StepProgram(length=length, step=lambda i, s: 2.0 * s,
                               initial=1.0)
            final, counters = bennett_run(prog, k=ns.k)
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
        rows = roundoff_table(counts, precision)   # may raise: print after
        print("steps,error_clean,error_cumulative,precision")
        for steps, e_clean, e_cum, prec in rows:
            print(f"{steps},{e_clean!r},{e_cum!r},{prec}")
        return 0

    return 1


def _jitter(value, rng):
    """Fresh random values of the same shape/kind as the example input."""
    sample = _KINDS[type(value)].sample
    return deep_copy(value) if sample is None else sample(value, rng, _jitter)


if __name__ == "__main__":
    sys.exit(main())
