"""The three benchmark workloads.

A workload makes its jobs from a seed, one *cycle* at a time. Every cycle
of a workload holds the same mix of job kinds and input sizes; the seed
varies the input values (and, in `cold-cli`, the program texts). Inputs
and references are made before a cycle runs and are not timed. `run`
is the timed call into revlang; `check` compares its output with a
reference computed without revlang and raises `Mismatch` on a
difference.

Import this module only after revlang is imported: the harness times that
import as part of set-up.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from revlang import autodiff, cli, stdlib
from revlang.autodiff import GradRequest
from revlang.interpreter import ExecOptions, Interpreter
from revlang.values import Array, Complex, Fixed, deep_copy


class Mismatch(Exception):
    pass


@dataclass
class Job:
    kind: str                 # label the per-kind statistics use
    payload: object           # what `run` needs
    expect: object = None     # what `check` compares against
    meta: dict = field(default_factory=dict)
    stratum: object = None    # the same job kind and size in every cycle


def cycle_rng(seed, workload, index):
    return random.Random(f"{seed}:{workload}:{index}")


def to_plain(v):
    """A revlang value as plain Python (see reference.py)."""
    if isinstance(v, Array):
        if len(v.shape) == 1:
            return [to_plain(e) for e in v.data]
        rows, cols = v.shape
        return [[to_plain(v.data[i * cols + j]) for j in range(cols)]
                for i in range(rows)]
    if isinstance(v, Complex):
        return complex(float(v.re), float(v.im))
    if isinstance(v, Fixed):
        return v.to_float()
    return v


def assert_close(got, want, rtol, what):
    """Same structure, ints equal, floats within rtol * (1 + |want|)."""
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            raise Mismatch(f"{what}: shape {got!r} != {want!r}")
        for g, w in zip(got, want):
            assert_close(g, w, rtol, what)
    elif want is None or isinstance(want, (bool, int)):
        if got != want or type(got) is not type(want):
            raise Mismatch(f"{what}: {got!r} != {want!r}")
    elif isinstance(want, complex):
        if not isinstance(got, complex):
            raise Mismatch(f"{what}: {got!r} is not complex")
        assert_close([got.real, got.imag], [want.real, want.imag], rtol, what)
    else:
        if not abs(float(got) - float(want)) <= rtol * (1 + abs(float(want))):
            raise Mismatch(f"{what}: {got!r} != {want!r} (rtol {rtol})")


def perturbed_two_body(rng, steps, rel=1e-3):
    """The documented two-body orbit with every position and velocity
    component scaled by 1 + u, |u| <= rel."""
    cfg = stdlib.two_body_config(steps=steps)
    bodies = [(m, [c * (1 + rel * rng.uniform(-1, 1)) for c in x],
               [c * (1 + rel * rng.uniform(-1, 1)) for c in v])
              for m, x, v in cfg.bodies]
    return stdlib.SolarSystemConfig(cfg.gravity, bodies, cfg.dt, cfg.steps)


def plain_leapfrog_args(cfg, z=float):
    x = [[z(c) for c in pos] for _, pos, _ in cfg.bodies]
    v = [[z(c) for c in vel] for _, _, vel in cfg.bodies]
    m = [z(mass) for mass, _, _ in cfg.bodies]
    return [x, v, m, z(cfg.gravity), z(cfg.dt), cfg.steps]


# --- leapfrog-roundoff -----------------------------------------------------

class LeapfrogRoundoff:
    """One job: the two-body orbit, perturbed, STEPS steps forward and then
    uncalled back. Jobs cycle through the five configurations below."""

    name = "leapfrog-roundoff"
    why = ("long straight-line runs: time goes to interpreter execution "
           "and numerics; parse and compile are paid once in set-up")
    STEPS = 200
    # label -> (variant, precision, reversibility checks on)
    CONFIGS = {
        "b64": ("clean", "binary64", True),
        "b64_cumulative": ("cumulative", "binary64", True),
        "b32": ("clean", "binary32", True),
        "b32_cumulative": ("cumulative", "binary32", True),
        "b64_nocheck": ("clean", "binary64", False),
    }
    # largest accepted reversal error per precision
    REVERSAL_BOUND = {"binary64": 1e-12, "binary32": 1e-5}

    def __init__(self, seed, workdir):
        self.seed = seed

    def prepare(self):
        self.program = stdlib.load_example("leapfrog_clean")
        self.nocheck = Interpreter(
            self.program, ExecOptions(invcheck=False))

    def warmup_job(self):
        return self._job("b64", cycle_rng(self.seed, self.name, "warmup"))

    def cycle(self, index, tag=None):
        rng = cycle_rng(self.seed, self.name, index)
        return [self._job(label, rng) for label in self.CONFIGS]

    def _job(self, label, rng):
        variant, precision, _ = self.CONFIGS[label]
        cfg = perturbed_two_body(rng, self.STEPS)
        z = np.float32 if precision == "binary32" else float
        final = ref.leapfrog(*plain_leapfrog_args(cfg, z), variant=variant)
        return Job(label, cfg, expect=final[:2], stratum=label)

    def run(self, job):
        variant, precision, checks = self.CONFIGS[job.kind]
        if checks:
            return stdlib.leapfrog_simulate(job.payload, variant, precision)
        x, v, m, g, dt, steps = plain_leapfrog_args(job.payload)
        x0 = [c for row in x for c in row]
        args = [Array.matrix(x), Array.matrix(v), Array.vector(m), g, dt, steps]
        out = self.nocheck.run_function("leapfrog_clean", args)
        final = [deep_copy(a) for a in out]
        back = self.nocheck.uncall_function("leapfrog_clean", out)
        err = max(abs(float(a) - b) for a, b in zip(back[0].data, x0))
        return final, err

    def check(self, job, output):
        final, err = output
        got = [to_plain(final[0]), to_plain(final[1])]
        # every configuration uses correctly rounded operations only, in
        # the reference's order: demand bit equality, including the type
        if got != job.expect or any(
                type(a) is not type(b)
                for a, b in zip(got[0][0], job.expect[0][0])):
            raise Mismatch(f"{job.kind}: forward state differs from reference")
        bound = self.REVERSAL_BOUND[self.CONFIGS[job.kind][1]]
        if not 0 <= err <= bound:
            raise Mismatch(f"{job.kind}: reversal error {err} > {bound}")

    def info(self):
        return {"steps": self.STEPS, "configs": list(self.CONFIGS),
                "perturbation": 1e-3}


# --- grad-catalog ----------------------------------------------------------

def _stratified(name, rng, size, sizes, copies):
    """Draws of stdlib.sample_args until each input size in `sizes` has
    `copies` of them; draws of other sizes are dropped. Returned in the
    order of `sizes`."""
    buckets = {k: [] for k in sizes}
    for _ in range(100_000):
        args = stdlib.sample_args(name, rng)
        b = buckets.get(size(args))
        if b is not None and len(b) < copies:
            b.append(args)
        if all(len(b) == copies for b in buckets.values()):
            return [a for k in sizes for a in buckets[k]]
    raise RuntimeError(f"could not draw every input size of {name}")


_GRID = lambda xs, ys: tuple((x, y) for x in xs for y in ys)


class GradCatalog:
    """One job: one autodiff request on a bundled program. A cycle holds
    the same input sizes for every request kind; the seed draws the
    values."""

    name = "grad-catalog"
    why = ("autodiff orchestration: each Jacobian row rebuilds Interpreters "
           "over the same parsed programs, so a compiled-program cache shows")
    # (request, catalog name, input size of the sampled args, the sizes a
    # cycle holds, copies of each). Every size the sampler draws is held,
    # except that the leapfrog Jacobian, the costliest request, takes two
    # of its ten step counts, so that a cycle stays short and a run repeats
    # each job many times.
    REQUESTS = [
        ("jacobian", "i_affine", lambda a: a[1].shape,
         _GRID(range(2, 5), range(2, 5)), 1),
        ("jacobian", "i_umm", lambda a: a[0].shape,
         _GRID(range(2, 5), range(1, 4)), 1),
        ("jacobian", "r_norm", lambda a: a[2].shape,
         tuple((n,) for n in range(3, 13)), 1),
        ("jacobian", "leapfrog_clean", lambda a: a[5], (3, 7), 1),
        ("hessian", "r_norm", lambda a: a[2].shape,
         tuple((n,) for n in range(3, 13)), 1),
        ("gradient", "multiplier", lambda a: 0, (0,), 10),
        ("gradient", "complex_log", lambda a: 0, (0,), 10),
        ("gradient", "mypower_log", lambda a: a[2], (6, 7, 8), 3),
    ]
    REFERENCES = {
        ("jacobian", "i_affine"): ref.jacobian_i_affine,
        ("jacobian", "i_umm"): ref.jacobian_i_umm,
        ("jacobian", "r_norm"): ref.jacobian_r_norm,
        ("jacobian", "leapfrog_clean"): ref.jacobian_leapfrog,
        ("hessian", "r_norm"): ref.hessian_r_norm,
        ("gradient", "multiplier"): ref.gradient_multiplier,
        ("gradient", "complex_log"): ref.gradient_complex_log,
        ("gradient", "mypower_log"): ref.gradient_mypower,
    }
    CLOSED_FORM_RTOL = 1e-12
    RTOL = {
        "i_umm": 1e-7,              # theta-block by central differences
        "leapfrog_clean": 1e-7,     # central differences
        "mypower_log": 1e-9,        # the result is a Q31.32 number
    }

    def __init__(self, seed, workdir):
        self.seed = seed

    def prepare(self):
        self.programs = {name: stdlib.load_example(name)
                         for _, name, *_ in self.REQUESTS}

    def warmup_job(self):
        args = stdlib.sample_args(
            "i_affine", cycle_rng(self.seed, self.name, "warmup"))
        return self._job("jacobian", "i_affine", args)

    def cycle(self, index, tag=None):
        rng = cycle_rng(self.seed, self.name, index)
        jobs = []
        for req, name, size, sizes, copies in self.REQUESTS:
            for i, args in enumerate(
                    _stratified(name, rng, size, sizes, copies)):
                jobs.append(self._job(req, name, args))
                jobs[-1].stratum = (req, name, i)
        rng.shuffle(jobs)
        return jobs

    def _job(self, req, name, args):
        expect = self.REFERENCES[req, name](*[to_plain(a) for a in args])
        return Job(f"{req}:{name}", (req, name, args), expect=expect)

    def run(self, job):
        req, name, args = job.payload
        program, fname = self.programs[name], stdlib.entry_function(name)
        if req == "jacobian":
            return autodiff.jacobian(program, fname, args)
        if req == "hessian":
            return autodiff.hessian(program, fname, args).matrix
        return autodiff.gradient(program, GradRequest(fname, args))[1]

    def check(self, job, output):
        req, name, _ = job.payload
        rtol = self.RTOL.get(name, self.CLOSED_FORM_RTOL)
        if req == "gradient":
            if sorted(output) != sorted(job.expect):
                raise Mismatch(f"{job.kind}: parameters {sorted(output)}")
            for p, want in job.expect.items():
                assert_close(to_plain(output[p]), want, rtol,
                             f"{job.kind} d/d{p}")
        else:
            assert_close(np.asarray(output, dtype=float).tolist(),
                         job.expect, rtol, job.kind)

    def info(self):
        return {"requests": [f"{r}:{n} x{len(s) * c}"
                             for r, n, _, s, c in self.REQUESTS]}


# --- cold-cli --------------------------------------------------------------

_FN_RE = re.compile(r"^fn\s+(~?[A-Za-z_][A-Za-z0-9_]*)", re.M)
_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*!?|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?(?:fx|ul|im)?|\S")


def rnl_tokens(text):
    return _TOKEN_RE.findall(re.sub(r"#[^\n]*", "", text))


def fmt_literal(v):
    """A plain value in the CLI's literal syntax."""
    if isinstance(v, complex):
        im = repr(v.imag)
        return f"{v.real!r}{im if im.startswith('-') else '+' + im}im"
    if isinstance(v, list):
        return json.dumps(v)
    return repr(v)


def _fixed(x):
    """x rounded to Q31.32, so that the `fx` literal is exact."""
    return round(x * 2**32) / 2**32


def _vec(rng, n, lo=-1.0, hi=1.0):
    return [rng.uniform(lo, hi) for _ in range(n)]


def cli_args(entry, rng, k):
    """Tiny plain inputs for a catalog entry, and their literal texts. The
    values are drawn from rng; the sizes rotate through their range with
    the cycle index k, so that every run holds the same mix of sizes."""
    u = rng.uniform
    sign = lambda: rng.choice([-1, 1])
    size = lambda lo, hi, stride=1: lo + (k // stride) % (hi - lo + 1)
    if entry == "multiplier":
        args = [u(-2, 2), u(0.5, 2), u(0.5, 2)]
    elif entry in ("complex_log", "complex_log_ccu"):
        args = [complex(u(-1, 1), u(-1, 1)),
                complex(u(0.4, 2) * sign(), u(0.4, 2) * sign())]
    elif entry == "i_affine":
        n, m = size(2, 4), size(2, 4, 3)
        args = [_vec(rng, n), [_vec(rng, m) for _ in range(n)],
                _vec(rng, n), _vec(rng, m)]
    elif entry == "i_umm":
        m, n = size(2, 4), size(1, 3, 3)
        args = [[_vec(rng, n) for _ in range(m)],
                _vec(rng, m * (m - 1) // 2, -math.pi, math.pi)]
    elif entry == "mypower_log":
        args = [0.0, _fixed(u(1.35, 1.9)), size(6, 8)]
        return args, ["0fx", f"{args[1]!r}fx", str(args[2])]
    elif entry == "rrfib_corrected":
        args = [0, size(0, 10)]
    elif entry == "r_norm":
        args = [0.0, 0.0, [u(0.2, 1.5) * sign()
                           for _ in range(size(3, 12))]]
    else:
        args = plain_leapfrog_args(perturbed_two_body(rng, size(2, 4)))
    return args, [fmt_literal(a) for a in args]


def decode_output(v):
    """`revlang run` JSON -> plain values."""
    if isinstance(v, dict):
        if v.get("kind") == "fixed":
            return float(v["value"])
        if v.get("kind") == "complex":
            return complex(v["re"], v["im"])
        raise Mismatch(f"unexpected value {v!r}")
    if isinstance(v, list):
        return [decode_output(e) for e in v]
    return v


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class ColdCli:
    """One job: one in-process `revlang` command. check, run and invert each
    get a program file no earlier job used; bench runs the two trade-off
    schedules at seeded sizes."""

    name = "cold-cli"
    why = ("front end on fresh programs: parse, validate, invert and cli "
           "per command, with no program shared, so caches cannot help")
    MAX_COPIES = 4
    RUN_RTOL = 1e-12
    FIXED_RTOL = 1e-9
    CHECK_MAX_DEVIATION = 1e-9
    # bench bennett: k -> largest n; bench treeverse: d values, T range
    BENNETT_NMAX = {2: 6, 3: 4, 4: 3}
    TREEVERSE_D = (1, 2, 3, 4)
    TREEVERSE_T = (10, 150)
    BENCH_REPEATS = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.token = hashlib.sha256(str(seed).encode()).hexdigest()[:6]
        self.assets = {}
        for entry, (filename, _) in stdlib.CATALOG.items():
            self.assets.setdefault(filename, []).append(entry)
        self.texts_seen = set()
        self.sizes = []
        self.command_counts = {}

    def prepare(self):
        pass    # every job loads its own program: nothing to share

    def warmup_job(self):
        rng = cycle_rng(self.seed, self.name, "warmup")
        return self._program_job(rng, "check", "multiplier.rnl", 1, "w", 0)

    def cycle(self, index, tag=None):
        rng = cycle_rng(self.seed, self.name, index)
        tag = index if tag is None else tag
        jobs = []
        for filename in sorted(self.assets):
            for copies in range(1, self.MAX_COPIES + 1):
                for command in ("check", "run", "invert"):
                    name = f"{tag}n{len(jobs):03d}"
                    jobs.append(self._program_job(
                        rng, command, filename, copies, name, index))
                    jobs[-1].stratum = (command, filename, copies)
        for rep in range(self.BENCH_REPEATS):
            for k, nmax in self.BENNETT_NMAX.items():
                n = 1 + (index + rep) % nmax
                jobs.append(Job("bench", ["bench", "bennett", "-k", str(k),
                                          "-n", str(n)], meta={"k": k, "n": n},
                                stratum=("bennett", k, rep)))
            for d in self.TREEVERSE_D:
                t_len = rng.randint(*self.TREEVERSE_T)
                jobs.append(Job("bench", ["bench", "treeverse", "-T",
                                          str(t_len), "-d", str(d)],
                                meta={"T": t_len, "d": d},
                                stratum=("treeverse", d, rep)))
        rng.shuffle(jobs)
        for job in jobs:
            self.command_counts[job.kind] = \
                self.command_counts.get(job.kind, 0) + 1
        return jobs

    def _program_job(self, rng, command, filename, copies, name, k):
        """Write `copies` renamed copies of a bundled asset to a fresh file
        and make the job that runs `command` on one of them. The entry
        point and its input sizes rotate with the cycle index k."""
        text = stdlib.asset_text(filename)
        fnames = _FN_RE.findall(text)
        pattern = re.compile(r"\b(" + "|".join(fnames) + r")\b")
        parts = []
        for c in range(copies):
            suffix = f"_{self.token}{name}c{c}"
            parts.append(pattern.sub(lambda m: m.group(1) + suffix, text))
        source = "\n".join(parts)
        digest = hashlib.sha256(source.encode()).digest()
        if digest in self.texts_seen:
            raise RuntimeError("two jobs share a program text")
        self.texts_seen.add(digest)
        self.sizes.append(len(source))
        path = self.workdir / f"{name}_{self.token}.rnl"
        path.write_text(source)
        entry = self.assets[filename][k % len(self.assets[filename])]
        target = f"{stdlib.entry_function(entry)}_{self.token}{name}" \
                 f"c{rng.randrange(copies)}"
        meta = {"path": path, "source": source, "entry": entry}
        if command == "invert":
            return Job("invert", ["invert", str(path)], meta=meta)
        args, literals = cli_args(entry, rng, k)
        # --args=... keeps a leading minus sign from reading as an option
        argv = [command, str(path), "-f", target,
                "--args=" + ",".join(literals)]
        if command == "check":
            argv.append("--json")
        return Job(command, argv, expect=ref.FORWARD[entry](*args), meta=meta)

    def run(self, job):
        return call_cli(job.payload)

    def check(self, job, output):
        rc, out, err = output
        if rc != 0:
            raise Mismatch(f"{job.payload[:2]} exited {rc}: {err.strip()}")
        check = getattr(self, "_check_" + job.kind)
        check(job, out)

    def _check_run(self, job, out):
        got = decode_output(json.loads(out)["args"])
        rtol = self.FIXED_RTOL if job.meta["entry"] == "mypower_log" \
            else self.RUN_RTOL
        assert_close(got, job.expect, rtol, f"run {job.meta['entry']}")

    def _check_check(self, job, out):
        # check runs f then ~f: the round trip must restore the inputs
        res = json.loads(out)
        dev = res["trials"][0]["max_deviation"]
        if not (res["ok"] and 0 <= dev <= self.CHECK_MAX_DEVIATION):
            raise Mismatch(f"check {job.meta['entry']}: {res}")

    def _check_invert(self, job, out):
        # ~f for every f, in order; and inverting f and ~f together gives
        # back ~f and f (inversion is an involution)
        source = job.meta["source"]
        want = ["~" + n for n in _FN_RE.findall(source)]
        if _FN_RE.findall(out) != want:
            raise Mismatch("invert: wrong set of inverted functions")
        both = job.meta["path"].with_suffix(".both.rnl")
        both.write_text(source + "\n" + out)
        rc, again, err = call_cli(["invert", str(both)])
        both.unlink()
        if rc != 0 or rnl_tokens(again) != rnl_tokens(out) + rnl_tokens(source):
            raise Mismatch(f"invert: round trip differs ({err.strip()})")

    def _check_bench(self, job, out):
        res = json.loads(out)
        measured = res["measured"]
        if res["scheme"] == "bennett":
            k, n = job.meta["k"], job.meta["n"]
            ok = (res["length"] == k ** n
                  and measured["total_steps"] == (2 * k - 1) ** n
                  and measured["peak_states"] == n * (k - 1) + 2)
        else:
            t_len, d = job.meta["T"], job.meta["d"]
            t = 1
            while math.comb(t + d, d) < t_len:
                t += 1
            ok = (res["analytic"]["forward_bound"] == t * t_len
                  and measured["forward_steps"] <= t * t_len
                  and measured["peak_states"] <= d + 1)
        if not ok:
            raise Mismatch(f"bench {job.meta}: {res}")

    def cleanup(self, jobs):
        for job in jobs:
            if "path" in job.meta:
                job.meta["path"].unlink(missing_ok=True)

    def info(self):
        total = sum(self.command_counts.values())
        sizes = sorted(self.sizes)
        q = lambda p: sizes[min(len(sizes) - 1, int(p * len(sizes)))]
        return {
            "command_share": {k: round(v / total, 4)
                              for k, v in sorted(self.command_counts.items())},
            "source_chars": {"files": len(sizes), "min": sizes[0],
                             "p50": q(0.5), "p90": q(0.9), "max": sizes[-1]},
            "distinct_program_texts": len(self.texts_seen),
        }


WORKLOADS = {w.name: w for w in (LeapfrogRoundoff, GradCatalog, ColdCli)}
