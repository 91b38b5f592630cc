"""revlang benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a revlang checkout; the program is imported from its
`src/`. One process, one client, closed loop: each job starts when the
previous one has returned. Whole cycles of jobs (see workloads.py), at
least three, run until the timed calls add up to S seconds. Each cycle
runs the same strata (job kind and input size) with fresh values; a
stratum's latency is the trimmed mean of its repeats.

The machine is shared, and the speed it gives the process changes by up
to a third from one moment to the next. A fixed plain-Python probe (see
SpeedProbe) is timed between jobs, and --trace 0 reports the timings at
the reference speed, at which the probe takes REF_PROBE_MS; the
wall-clock figures are recorded in the info line.

--trace 0 reports the end-to-end metrics. --trace 1 replays one cycle
four times, alternately untraced and traced, reports the per-layer
metrics of the first traced pass, and fails unless both traced passes
give the same exact counts. The last line of standard output is the
result as one JSON object; the line before it records the environment
and the samples behind each figure.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
MIN_CYCLES = 3
REF_PROBE_MS = 4.0
TRIM = 0.1
WORKLOAD_NAMES = ("leapfrog-roundoff", "grad-catalog", "cold-cli")

Row = namedtuple("Row", "kind stratum seconds ok stmts")

E2E_UNITS = {"jobs_per_ref_s": "1/ref_s", "job_ref_ms_p50": "ref_ms",
             "job_ref_ms_p90": "ref_ms", "setup_s": "s", "peak_rss_mb": "MB"}


def import_revlang():
    """Import revlang from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "revlang" / "__init__.py").is_file():
        sys.exit(f"error: no revlang sources under {src}")
    sys.path.insert(0, str(src))
    import revlang
    import revlang.cli
    import revlang.stdlib
    if Path(revlang.__file__).resolve().parent != src / "revlang":
        sys.exit(f"error: imported revlang from {revlang.__file__}")


def timed_setup(workload_name, seed, workdir):
    """Import revlang, build the workload, prepare it and run one warm-up
    job. Returns (workload, seconds); making the warm-up input and
    checking its output are not counted."""
    t0 = time.perf_counter()
    import_revlang()
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS
    wl = WORKLOADS[workload_name](seed, workdir)
    job = wl.warmup_job()
    t1 = time.perf_counter()
    wl.prepare()
    output = wl.run(job)
    setup_s = import_s + time.perf_counter() - t1
    wl.check(job, output)
    return wl, setup_s


def setup_probe(workload_name, seed, workdir):
    """One cold set-up in a fresh interpreter; prints its seconds."""
    _, setup_s = timed_setup(workload_name, seed, workdir)
    print(json.dumps({"setup_s": setup_s}))


def probe_setups(workload_name, seed, workdir, count):
    samples = []
    for i in range(count):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             workload_name, "--seed", str(seed), "--setup-probe",
             "--workdir", str(probe_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{res.stderr}")
        samples.append(json.loads(res.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


class _Node:
    __slots__ = ("op", "kids", "value")

    def __init__(self, op, kids=(), value=0.0):
        self.op, self.kids, self.value = op, kids, value


_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b}


def _tree(rng, depth):
    if depth == 0:
        return _Node("c", value=rng.random())
    return _Node(rng.choice("+-*"),
                 (_tree(rng, depth - 1), _tree(rng, depth - 1)))


def _evaluate(node, counts):
    """A tree-walking evaluator: the kind of work an interpreter does."""
    if node.op == "c":
        return node.value
    a, b = _evaluate(node.kids[0], counts), _evaluate(node.kids[1], counts)
    counts[node.op] = counts.get(node.op, 0) + 1
    return _OPS[node.op](a, b)


class SpeedProbe:
    """Fixed plain-Python work that does not touch revlang, a few
    milliseconds: the benchmark's own kick-drift-kick integrator on one
    fixed orbit (float arithmetic on lists) and a tree-walking evaluator
    over a fixed expression (attribute and dict look-ups, calls). Timed
    before a job once every EVERY_S seconds of job time, it samples the
    speed the machine gives the process over the same span as the jobs.
    The garbage collector is off while it runs, so that the size of
    revlang's heap does not change its time."""

    EVERY_S = 0.2
    STEPS = 400
    DEPTH = 12

    def __init__(self):
        import random
        import reference
        from workloads import perturbed_two_body, plain_leapfrog_args
        rng = random.Random(0)
        args = plain_leapfrog_args(perturbed_two_body(rng, self.STEPS))
        tree = _tree(rng, self.DEPTH)

        def work():
            reference.leapfrog(*args)
            _evaluate(tree, {})
        self.work = work
        self.work()                     # warm-up, not recorded
        self.ms = []
        self.since = self.EVERY_S

    def before_job(self):
        if self.since < self.EVERY_S:
            return
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.work()
            self.ms.append(1e3 * (time.perf_counter() - t0))
        finally:
            gc.enable()
        self.since = 0.0

    def after_job(self, seconds):
        self.since += seconds


def run_jobs(wl, jobs, tracer=None, probe=None):
    """Run and check each job; returns a Row per job."""
    from workloads import Mismatch
    rows = []
    for job in jobs:
        if probe is not None:
            probe.before_job()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            output = wl.run(job)
            error = None
        except Exception as exc:    # a raised error is a failed job
            output, error = None, exc
        dt = time.perf_counter() - t0
        if probe is not None:
            probe.after_job(dt)
        stmts = 0
        if tracer is not None:
            tracer.active = False
            stmts = tracer.end_job()
        if error is None:
            try:
                wl.check(job, output)
            except Mismatch as exc:
                error = exc
        if error is not None:
            print(f"job failed: {job.kind}: {type(error).__name__}: {error}",
                  file=sys.stderr)
        rows.append(Row(job.kind, job.stratum, dt, error is None, stmts))
    if hasattr(wl, "cleanup"):
        wl.cleanup(jobs)
    return rows


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(),
            "note": "CPUs are neither pinned nor clock-fixed"}


def measure(wl, seconds, probe):
    """Whole cycles, at least MIN_CYCLES, until the timed calls reach
    `seconds`."""
    rows, cycles = [], 0
    while cycles < MIN_CYCLES or sum(r.seconds for r in rows) < seconds:
        rows += run_jobs(wl, wl.cycle(cycles), probe=probe)
        cycles += 1
    return rows, cycles


def trimmed_mean(values, cut=TRIM):
    """Mean of the values left when the lowest and the highest `cut`
    share are dropped."""
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k:len(v) - k])


def latency_figures(rows):
    """Jobs per second, and p50 and p90 over the strata of the
    per-stratum latency in ms."""
    by_stratum = {}
    for r in rows:
        by_stratum.setdefault(r.stratum, []).append(1e3 * r.seconds)
    ms = [trimmed_mean(v) for v in by_stratum.values()]
    failed = sum(1 for r in rows if not r.ok)
    return ((1 - failed / len(rows)) * 1e3 * len(ms) / sum(ms),
            statistics.median(ms), percentile(ms, 90), len(ms))


def end_to_end(args, workdir):
    wl, setup_s = timed_setup(args.workload, args.seed, workdir)
    setups = [setup_s] + probe_setups(
        args.workload, args.seed, workdir, SETUP_SAMPLES - 1)
    probe = SpeedProbe()
    rows, cycles = measure(wl, args.seconds, probe)
    failed = sum(1 for r in rows if not r.ok)
    # Every cycle runs the same strata (job kind and input size). A
    # stratum's latency is the trimmed mean of its repeats, which are
    # spread over the run; the probes are spread over it too. The shared
    # machine switches between a fast and a slow speed, a third apart, in
    # phases of milliseconds to minutes; means over the same run take much
    # the same share of each, so their ratio depends on it far less than
    # either does.
    per_s, p50, p90, strata = latency_figures(rows)
    probe_ms = trimmed_mean(probe.ms)
    scale = REF_PROBE_MS / probe_ms
    metrics = {
        "jobs_per_ref_s": per_s / scale,
        "job_ref_ms_p50": p50 * scale,
        "job_ref_ms_p90": p90 * scale,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"workload": args.workload, "why": wl.why, "seed": args.seed,
            "environment": environment(), "jobs": len(rows),
            "cycles": cycles, "strata": strata,
            "wall_clock": {"jobs_per_s": per_s, "job_ms_p50": p50,
                           "job_ms_p90": p90},
            "probe_ms": {"samples": len(probe.ms), "min": min(probe.ms),
                         "trimmed_mean": probe_ms, "max": max(probe.ms)},
            "busy_s": sum(r.seconds for r in rows),
            "fail_ratio": failed / len(rows), "setup_samples_s": setups,
            "workload_info": wl.info()}
    return rows, failed, metrics, E2E_UNITS, info


def traced(args, workdir):
    wl, _ = timed_setup(args.workload, args.seed, workdir)
    from tracer import Tracer, per_layer_metrics
    from workloads import LeapfrogRoundoff
    # untraced and traced passes alternate, so that warming up does not
    # show as tracing overhead
    plain, passes = [], []
    for plain_tag, traced_tag in (("A", "B"), ("C", "D")):
        plain.append(run_jobs(wl, wl.cycle(0, plain_tag)))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(
                (run_jobs(wl, wl.cycle(0, traced_tag), tracer), tracer))
        finally:
            tracer.uninstall()
    (rows, tracer), (rows2, tracer2) = passes
    counts, counts2 = tracer.exact_counts(), tracer2.exact_counts()
    if counts != counts2:
        diff = {k: (counts.get(k), counts2.get(k))
                for k in set(counts) | set(counts2)
                if counts.get(k) != counts2.get(k)}
        sys.exit(f"error: exact counts differ between two traced runs: {diff}")
    layer, bases = per_layer_metrics(tracer, len(rows))
    metrics = {k: v for k, (v, _) in layer.items()}
    units = {k: u for k, (_, u) in layer.items()}
    plain_s = sum(r.seconds for r in plain[0] + plain[1])
    traced_s = sum(r.seconds for r in rows + rows2)
    metrics["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    units["trace.overhead_pct"] = "%"
    # per leapfrog configuration: untraced time over exact statement counts
    for label in LeapfrogRoundoff.CONFIGS:
        t = sum(r.seconds for r in plain[0] + plain[1] if r.kind == label)
        n = sum(r.stmts for r in rows + rows2 if r.kind == label)
        key = f"interpreter.us_per_stmt.{label}"
        metrics[key], units[key] = (1e6 * t / n if n else 0.0), "us"
    all_rows = plain[0] + plain[1] + rows + rows2
    failed = sum(1 for r in all_rows if not r.ok)
    info = {"workload": args.workload, "why": wl.why, "seed": args.seed,
            "environment": environment(), "traced_jobs": len(rows),
            "bases": bases, "untraced_s": plain_s, "traced_s": traced_s,
            "exact_counts": counts, "workload_info": wl.info()}
    return all_rows, failed, metrics, units, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.selftest:
        import_revlang()
        from selftest import selftest
        return selftest()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.workdir))
        return 0

    if args.workload not in WORKLOAD_NAMES:
        ap.error(f"--workload must be one of {', '.join(WORKLOAD_NAMES)}")
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        rows, failed, metrics, units, info = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(info, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
