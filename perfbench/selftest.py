"""Self-test of the tracer: run with `python3 perfbench/run.py --selftest`.

It checks that every wrapper sits on the bindings callers look up, that
uninstalling restores them, and that the traced counts reproduce the
orchestration revlang's autodiff had when this benchmark was written:
`gradient` builds two Interpreters (two validations) and makes one
forward and one backward pass; `jacobian` and `hessian` over L input
leaves build 2L+1 Interpreters and make 2L passes, L of them forward.
A change to that orchestration changes these expectations with it.
"""

import random

from revlang import autodiff, cli, interpreter, ir, numerics, stdlib, values
from revlang.autodiff import GradRequest

from tracer import Tracer

# key -> modules whose `from .x import y` binding must be wrapped
EXPECTED_BINDINGS = {
    "ir.validate": ["revlang.interpreter", "revlang.stdlib", "revlang.cli"],
    "numerics.apply_instr": ["revlang.interpreter"],
    "values.deep_copy": ["revlang.autodiff", "revlang.stdlib",
                         "revlang.interpreter"],
}


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        fn()
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.end_job()
    return tracer


def _expect(label, got, want, failures):
    status = "ok" if got == want else "FAILED"
    print(f"{status}: {label}: {got} (expected {want})")
    if got != want:
        failures.append(label)


def selftest():
    failures = []
    originals = (ir.validate, numerics.apply_instr, values.deep_copy,
                 interpreter.validate, cli.validate,
                 interpreter.Interpreter.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        for key, modules in EXPECTED_BINDINGS.items():
            owners = {o for o, _ in tracer.bindings(key)}
            _expect(f"{key} wrapped in {modules}",
                    sorted(set(modules) - owners), [], failures)
    finally:
        tracer.uninstall()
    restored = (ir.validate, numerics.apply_instr, values.deep_copy,
                interpreter.validate, cli.validate,
                interpreter.Interpreter.__init__)
    _expect("uninstall restores the originals",
            all(a is b for a, b in zip(originals, restored)), True, failures)

    rng = random.Random(0)
    prog = stdlib.load_example("multiplier")
    args = stdlib.sample_args("multiplier", rng)
    tr = _traced(lambda: autodiff.gradient(prog, GradRequest("multiplier", args)))
    _expect("gradient(multiplier) constructions",
            tr.calls["interpreter.Interpreter.__init__"], 2, failures)
    _expect("gradient(multiplier) validations",
            tr.calls["ir.validate"], 2, failures)
    _expect("gradient(multiplier) passes",
            tr.calls["interpreter.Interpreter.run_function"], 2, failures)

    for req, name in (("jacobian", "i_affine"), ("jacobian", "r_norm"),
                      ("jacobian", "leapfrog_clean"), ("hessian", "r_norm")):
        prog = stdlib.load_example(name)
        fname = stdlib.entry_function(name)
        args = stdlib.sample_args(name, rng)
        leaves = sum(len(list(autodiff.leaf_paths(a))) for a in args)
        call = getattr(autodiff, req)
        tr = _traced(lambda: call(prog, fname, args))
        label = f"{req}({name}) over L={leaves} leaves"
        _expect(f"{label}: constructions",
                tr.calls["interpreter.Interpreter.__init__"],
                2 * leaves + 1, failures)
        _expect(f"{label}: validations", tr.calls["ir.validate"],
                2 * leaves + 1, failures)
        _expect(f"{label}: passes",
                tr.calls["interpreter.Interpreter.run_function"],
                2 * leaves, failures)
        _expect(f"{label}: forward passes",
                tr.counts["autodiff.forward_passes"], leaves, failures)
    print("selftest", "FAILED: " + ", ".join(failures) if failures else "ok")
    return 1 if failures else 0
