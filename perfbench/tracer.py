"""Outside-in layer tracing for revlang.

`Tracer.install()` replaces each traced function with a wrapper on every
binding a caller looks up: the defining module's attribute, every
`from .x import y` copy in the other revlang modules, and the package
namespace. Methods are replaced on their class. Nothing under `src/`
changes, and `uninstall()` puts every original back.

A wrapper opens a span when the tracer is active: it counts the call and
measures its inclusive time and its self time (inclusive time minus the
spans it caused). A direct re-entry of the same function (recursion such
as `deep_copy` walking an array) runs inside the outer span and is not
counted again. Spans are aggregated in memory per function; a layer's
self time is the sum over its functions.

Scalar helpers that run once per operand (`values.is_float`,
`values.s_sqrt`, ...) are not traced: a wrapper would cost more than the
call.
"""

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer -> traced functions ("Class.method" for methods)
LAYERS = {
    "parser": ["parse_program", "pretty_print", "tokenize", "fmt_expr",
               "fmt_view"],
    "ir": ["validate", "view_root"],
    "reverser": ["expand_routines", "invert_function", "invert_statement"],
    "interpreter": ["Interpreter.__init__", "Interpreter.run_function",
                    "run", "uncall", "check_reversibility", "read_view",
                    "write_view", "canonical_view_identity"],
    "numerics": ["apply_instr", "wrap_gvar", "unwrap_gvar", "invert_instr"],
    "values": ["deep_copy", "values_close", "deviation", "coerce_to_kind",
               "zero_like"],
    "autodiff": ["gradient", "jacobian", "hessian", "finite_difference"],
    "stdlib": ["load_example", "entry_function", "asset_text", "sample_args",
               "two_body_config", "leapfrog_simulate", "roundoff_table"],
    "tradeoff": ["bennett_run", "treeverse_run", "bennett_counts",
                 "treeverse_time_bound", "eta", "analytic_rev_cost"],
    "cli": ["main", "parse_value", "split_args", "encode_value"],
}

CHECK_KINDS = ("postcondition", "ancilla", "iterator", "alias")

RUN_FUNCTION = "interpreter.Interpreter.run_function"
GRADIENT = "autodiff.gradient"


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []                 # [key, time of child spans]
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()         # event counts observed by hooks
        self.grad_forward_s = 0.0       # forward passes inside gradient()
        self._job_interps = {}          # id -> (interpreter, steps, checks)
        self._patched = []              # (owner, attribute, original)

    # --- installation ---

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "revlang" or name.startswith("revlang.")]
        hooks = {
            "interpreter.Interpreter.__init__": (None, self._after_construct),
            RUN_FUNCTION: (self._before_pass, self._after_pass),
            "parser.parse_program": (self._before_parse, None),
            "tradeoff.bennett_run": (None, self._after_schedule),
            "tradeoff.treeverse_run": (None, self._after_schedule),
        }
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"revlang.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                before, after = hooks.get(key, (None, None))
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    orig = vars(cls)[meth]
                    self._patch(cls, meth, self._wrap(key, orig, before, after))
                    continue
                orig = getattr(module, name)
                wrapper = self._wrap(key, orig, before, after)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def bindings(self, key):
        """(owner name, attribute) of every binding replaced for `key`."""
        return [(owner.__name__, attr) for owner, attr, _ in self._patched
                if getattr(getattr(owner, attr), "_trace_key", None) == key]

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, key, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1][0] == key):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                tracer.calls[key] += 1
                tracer.incl[key] += dt
                tracer.self_time[key] += dt - frame[1]
            if after is not None:
                after(args, result, dt)
            return result

        wrapper._trace_key = key
        return wrapper

    # --- hooks ---

    def _after_construct(self, args, result, dt):
        self._note_interp(args[0])

    def _note_interp(self, interp):
        if id(interp) not in self._job_interps:
            st = interp.stats
            self._job_interps[id(interp)] = (
                interp, st.steps, dict(st.checks_passed))

    def _before_pass(self, args):
        self._note_interp(args[0])

    def _after_pass(self, args, result, dt):
        backward = args[1].startswith("~")
        in_autodiff = any(k.startswith("autodiff.") for k, _ in self.stack)
        if in_autodiff:
            self.counts["autodiff.backward_passes" if backward
                        else "autodiff.forward_passes"] += 1
        if not backward and any(k == GRADIENT for k, _ in self.stack):
            self.grad_forward_s += dt

    def _before_parse(self, args):
        self.counts["parser.chars"] += len(args[0])

    def _after_schedule(self, args, result, dt):
        counters = result[1]
        self.counts["tradeoff.forward_steps"] += counters.forward_steps
        self.counts["tradeoff.inverse_steps"] += counters.inverse_steps
        self.counts["tradeoff.peak_states"] += counters.peak_states

    # --- per-job bookkeeping ---

    def end_job(self):
        """Statements and passed checks of every Interpreter that the job
        built or ran, as deltas over the job; adds them to the totals."""
        stmts, checks = 0, Counter()
        for interp, steps0, checks0 in self._job_interps.values():
            st = interp.stats
            stmts += st.steps - steps0
            for k in CHECK_KINDS:
                checks[k] += st.checks_passed[k] - checks0[k]
        self._job_interps.clear()
        self.counts["interpreter.stmts"] += stmts
        for k in CHECK_KINDS:
            self.counts[f"interpreter.checks.{k}"] += checks[k]
        return stmts

    def exact_counts(self):
        """Every count the tracer holds: equal for two runs of the same jobs."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update(self.counts)
        return out

    def layer_self_ms(self, layer):
        return 1e3 * sum(t for k, t in self.self_time.items()
                         if k.startswith(layer + "."))


def per_layer_metrics(tr, jobs):
    """The per-layer metrics, per job, from one traced pass of `jobs` jobs.
    Ratios are given with their bases in `bases`."""
    c, calls, st = tr.counts, tr.calls, tr.self_time
    ms = lambda key: 1e3 * st[key]
    per = lambda x: x / jobs
    parse_ms = ms("parser.parse_program")
    stmts = c["interpreter.stmts"]
    dispatch = calls["numerics.apply_instr"]
    grad_ms = 1e3 * tr.incl[GRADIENT]
    grad_fwd_ms = 1e3 * tr.grad_forward_s
    metrics = {
        "parser.calls": (per(calls["parser.parse_program"]), "count"),
        "parser.self_ms": (per(tr.layer_self_ms("parser")), "ms"),
        "parser.chars_per_ms": (
            c["parser.chars"] / parse_ms if parse_ms else 0.0, "chars/ms"),
        "parser.pretty_print_ms": (
            per(1e3 * tr.incl["parser.pretty_print"]), "ms"),
        "ir.validate_calls": (per(calls["ir.validate"]), "count"),
        "ir.validate_self_ms": (per(ms("ir.validate")), "ms"),
        "reverser.expand_calls": (
            per(calls["reverser.expand_routines"]), "count"),
        "reverser.invert_calls": (
            per(calls["reverser.invert_function"]), "count"),
        "reverser.self_ms": (per(tr.layer_self_ms("reverser")), "ms"),
        "interpreter.constructs": (
            per(calls["interpreter.Interpreter.__init__"]), "count"),
        "interpreter.construct_self_ms": (
            per(ms("interpreter.Interpreter.__init__")), "ms"),
        "interpreter.passes": (per(calls[RUN_FUNCTION]), "count"),
        "interpreter.exec_self_ms": (
            per(tr.layer_self_ms("interpreter")
                - ms("interpreter.Interpreter.__init__")), "ms"),
        "interpreter.stmts": (per(stmts), "count"),
        "numerics.generic_dispatch_calls": (per(dispatch), "count"),
        "numerics.generic_dispatch_per_stmt": (
            dispatch / stmts if stmts else 0.0, "ratio"),
        "numerics.generic_dispatch_self_ms": (
            per(ms("numerics.apply_instr")), "ms"),
        "values.deep_copy_calls": (per(calls["values.deep_copy"]), "count"),
        "values.deep_copy_self_ms": (per(ms("values.deep_copy")), "ms"),
        "autodiff.forward_passes": (
            per(c["autodiff.forward_passes"]), "count"),
        "autodiff.backward_passes": (
            per(c["autodiff.backward_passes"]), "count"),
        "autodiff.self_ms": (per(tr.layer_self_ms("autodiff")), "ms"),
        "autodiff.grad_to_fwd_ratio": (
            grad_ms / grad_fwd_ms if grad_fwd_ms else 0.0, "ratio"),
        "tradeoff.self_ms": (per(tr.layer_self_ms("tradeoff")), "ms"),
        "tradeoff.forward_steps": (per(c["tradeoff.forward_steps"]), "count"),
        "tradeoff.inverse_steps": (per(c["tradeoff.inverse_steps"]), "count"),
        "tradeoff.peak_states": (per(c["tradeoff.peak_states"]), "count"),
        "stdlib.self_ms": (per(tr.layer_self_ms("stdlib")), "ms"),
        "cli.calls": (per(calls["cli.main"]), "count"),
        "cli.self_ms": (per(tr.layer_self_ms("cli")), "ms"),
    }
    for k in CHECK_KINDS:
        metrics[f"interpreter.checks.{k}"] = (
            per(c[f"interpreter.checks.{k}"]), "count")
    bases = {
        "jobs": jobs,
        "parser.chars": c["parser.chars"],
        "parser.parse_ms": parse_ms,
        "interpreter.stmts": stmts,
        "numerics.generic_dispatch_calls": dispatch,
        "autodiff.gradient_ms": grad_ms,
        "autodiff.gradient_forward_ms": grad_fwd_ms,
    }
    return metrics, bases
