#!/usr/bin/env python3
"""The polymf benchmark.

    python3 perfbench/run.py --workload paper_small --seed 1 --seconds 40 --trace 0

Runs one workload (see spec.json) against the polymf sources in ``src/``
of the repository this file sits in, as a closed loop with one client,
for at least ``--seconds`` seconds of whole rounds.  With ``--trace 0``
it reports the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` it runs each round twice, plain and traced, and reports
the per-layer metrics.  Every operation's output is checked outside the
timed call.  End-to-end times are calibrated against a reference kernel
run next to each operation (see ``reference_kernel_s``).  The last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the full result, with the environment, goes to
``perfbench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of this many fresh processes.
SETUP_SAMPLES = 7
# The reference kernel's median time on the machine the benchmark was
# written on (2-core Xeon at 2.0 GHz, Python 3.11), in its fast phase.
REFERENCE_S = 2.35e-4


def reference_kernel_s() -> float:
    """Time one run of a fixed piece of Fraction and dict arithmetic, the
    operations Polynomial arithmetic is made of.

    The shared host this benchmark was written on changes speed by up to
    1.8x in phases of seconds to hours, which moves wall times of whole
    runs by more than the regression bounds.  Each timed operation is
    followed by one run of this kernel, and its time is reported as
    ``wall * REFERENCE_S / kernel``: the wall time at the reference
    speed.  The kernel uses no polymf code, so a change to the library
    moves the calibrated times as it moves the wall times.  The garbage
    collector is off while it runs, so that collections of the library's
    garbage stay in the library's time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[tuple, Fraction] = {}
        x = Fraction(1, 3)
        for i in range(60):
            key = (("x", i % 3), ("y", i % 5))
            table[key] = table.get(key, Fraction(0)) + x * i
        return time.perf_counter() - t0
    finally:
        gc.enable()


def reference_speed() -> float:
    """The reference kernel's median over 25 runs, as a factor: seconds
    measured now times this factor are seconds at the reference speed."""
    return REFERENCE_S / statistics.median(reference_kernel_s() for _ in range(25))


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready <unix time> <speed factor>' and exit (times setup_s)")
    return parser.parse_args(argv)


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(polymf, numpy) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "polymf": polymf.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _fresh_setup_seconds(args: argparse.Namespace) -> tuple[float, float]:
    """Wall time from starting a new process to its 'ready' line, and that
    time at the reference speed, taken as the mean of the speeds measured
    just before the start here and just after 'ready' in the new process."""
    speed_before = reference_speed()
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 3 or lines[0] != "ready":
        raise RuntimeError(f"setup process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    wall = float(lines[1]) - start
    return wall, wall * (speed_before + float(lines[2])) / 2


def _execute(job, tracer=None, job_id: int = 0) -> tuple[float, str | None]:
    """Run one operation; returns its wall time and failure reason (or None)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = job.run()
        else:
            with tracer.job(job_id, job.kind):
                result = job.run()
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.settle()
    if error is None:
        error = job.check(result)
    return seconds, error


class Run:
    """Samples and failures of one benchmark run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {"factorize": [], "verify": [], "control": []}
        self.failures: list[str] = []
        self.output_bytes: list[int] = []
        self.factorize_inputs = 0
        self.rational_inputs = 0
        self.per_operation_s: dict[str, float] = {}  # calibrated median per operation

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.samples.values())

    def record(self, job, seconds: float, error: str | None) -> None:
        self.samples[job.kind].append(seconds)
        if error is not None:
            self.failures.append(f"{job.label}: {error}")
        if job.kind == "factorize":
            self.factorize_inputs += 1
            self.rational_inputs += job.rational
            if job.output is not None and error is None:
                self.output_bytes.append(job.output.stat().st_size)


def _latency_metrics(times: list[list[float]], jobs) -> dict[str, float]:
    """An operation's latency is its median over the rounds, so a slow
    phase that covers less than half of the run does not move it; the
    percentiles are taken over these per-operation medians.  jobs_per_s
    is every completed operation over the seconds spent in all of them."""
    typical = [statistics.median(t) for t in times]
    fact = [t for t, job in zip(typical, jobs) if job.kind == "factorize"]
    ver = [t for t, job in zip(typical, jobs) if job.kind == "verify"]
    return {
        "jobs_per_s": sum(map(len, times)) / sum(map(sum, times)),
        "factorize_s.p50": statistics.median(fact),
        "factorize_s.p90": statistics.quantiles(fact, n=10, method="inclusive")[8],
        "verify_s.p50": statistics.median(ver),
    }


def timed_run(workload, seconds: float, setup: list[tuple[float, float]]) -> tuple[Run, dict]:
    """Repeat whole rounds for `seconds`.  The metrics use calibrated
    times; the same figures from wall times are kept as ``wall.*``."""
    run = Run()
    jobs = workload.jobs
    wall: list[list[float]] = [[] for _ in jobs]
    calibrated: list[list[float]] = [[] for _ in jobs]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for i, job in enumerate(jobs):
            dt, error = _execute(job)
            speed = REFERENCE_S / reference_kernel_s()
            run.record(job, dt, error)
            wall[i].append(dt)
            calibrated[i].append(dt * speed)
    metrics = _latency_metrics(calibrated, jobs)
    metrics["setup_s"] = statistics.median(c for _, c in setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["failed_ratio"] = len(run.failures) / run.attempted
    metrics.update({f"wall.{k}": v for k, v in _latency_metrics(wall, jobs).items()})
    metrics["wall.setup_s"] = statistics.median(w for w, _ in setup)
    run.per_operation_s = {job.label: statistics.median(t) for job, t in zip(jobs, calibrated)}
    return run, metrics


def traced_run(workload, seconds: float, tracer, spans_path: Path) -> tuple[Run, dict, list[str]]:
    run = Run()
    traced = Run()
    untraced_s = traced_s = 0.0
    jobs = workload.jobs
    start = time.perf_counter()
    traced_first = False
    while time.perf_counter() - start < seconds:
        # Each round runs twice; alternating which copy goes first keeps
        # first-run effects out of the overhead ratio.
        for traced_copy in (traced_first, not traced_first):
            if not traced_copy:
                for job in jobs:
                    dt, error = _execute(job)
                    run.record(job, dt, error)
                    untraced_s += dt
                continue
            with tracer.installed():
                for job in jobs:
                    dt, error = _execute(job, tracer, traced.attempted)
                    traced.record(job, dt, error)
                    traced_s += dt
        traced_first = not traced_first
    metrics = tracer.summary(traced.attempted)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["poly.rational_share"] = traced.rational_inputs / max(traced.factorize_inputs, 1)
    metrics["cli.output_bytes"] = statistics.fmean(traced.output_bytes) if traced.output_bytes else 0.0
    tracer.write_spans(spans_path)
    for kind, values in traced.samples.items():
        run.samples[kind] += values
    run.failures += traced.failures
    return run, metrics, tracer.alias_check(workload.name)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import numpy
        import polymf
        from tracer import Tracer
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import polymf from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(polymf.__file__).resolve().parent.parent != src:
        print(f"error: polymf was imported from {polymf.__file__}, not {src}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            workload.setup()
            ready = time.time()
            print("ready", ready, reference_speed(), flush=True)
            return 0
        setup = [] if args.trace else [_fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES)]
        workload.setup()
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        problems: list[str] = []
        if args.trace:
            run, metrics, problems = traced_run(
                workload, args.seconds, Tracer(spec["layers"]), OUT / f"spans-{stem}.jsonl"
            )
            listed = bench["per_layer"]
        else:
            run, metrics = timed_run(workload, args.seconds, setup)
            listed = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(polymf, numpy)
    counts = {kind: len(v) for kind, v in run.samples.items()}
    for m in listed:
        print(f"{m['name']:<40} {metrics[m['name']]:<14.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_ratio':<40} {metrics['failed_ratio']:<14.6g} ratio")
        for m in listed:
            if "wall." + m["name"] in metrics:
                print(f"{'wall.' + m['name']:<40} {metrics['wall.' + m['name']]:<14.6g} {m['unit']}, uncalibrated")
    print("operations", json.dumps(counts))
    print("environment", json.dumps(env))
    for line in run.failures[:20] + [f"alias check: {p}" for p in problems]:
        print("FAILED", line, file=sys.stderr)
    correct = not run.failures and not problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                all_metrics=metrics, per_operation_s=run.per_operation_s, operations=counts, setup_samples_s=setup,
                failures=run.failures, alias_problems=problems, environment=env)
    (OUT / f"result-{stem}.json").write_text(json.dumps(full, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
