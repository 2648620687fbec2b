"""Run one workload's CLI invocations in a warm process; print a JSON report.

run.py starts this with the thread pools pinned. After one untimed warm-up
invocation it calls nonlocal_pme.cli.main back to back (closed loop, one
invocation at a time) for at least --seconds seconds and MIN_SAMPLES
invocations, checking every invocation's outputs outside the timed region.
With --trace 1 it alternates untraced and traced invocations, so the tracing
overhead is measured in the same process, and writes the spans to --spans.

    python3 bench/worker.py --workload simulate-1d --seed 0 --seconds 5 \
        --trace 0 --workdir DIR --spans FILE
DIR holds config.json from workloads.write_config; FILE receives the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads

# wall_tail_s is the highest sample with ten samples beyond it.
MIN_SAMPLES = 11
# The exact-count self-check compares at least two traced invocations.
MIN_TRACED = 2
EXACT_COUNTS = ("atom_points", "raw_evals", "steps", "natoms")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    from nonlocal_pme import cli

    import_s = time.perf_counter() - start
    import numpy
    import scipy

    reference = workloads.load_reference()
    outdir = args.workdir / "out"
    argv = workloads.cli_argv(args.workload, args.seed, args.workdir / "config.json", outdir)
    failures: list[str] = []
    attempted = 0

    def invoke() -> float:
        nonlocal attempted
        shutil.rmtree(outdir, ignore_errors=True)
        attempted += 1
        begin = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - begin
        try:
            problems = workloads.check(args.workload, args.seed, outdir, code, reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures.append("; ".join(problems))
        return elapsed

    invoke()  # warm-up: lazy imports and first-touch allocations
    samples: list[float] = []
    report: dict = {}
    deadline = time.perf_counter() + args.seconds
    if args.trace == 0:
        while time.perf_counter() < deadline or len(samples) < MIN_SAMPLES:
            samples.append(invoke())
    else:
        import tracing

        tracer = tracing.Tracer()
        while time.perf_counter() < deadline or len(samples) < MIN_TRACED:
            samples.append(invoke())
            with tracer.installed():
                tracer.begin()
                invoke()
        rollups = tracer.rollup()
        report["layers"] = tracing.layer_metrics(rollups, samples, import_s)
        report["counts"] = [{name: r["counts"].get(name, 0) for name in EXACT_COUNTS} for r in rollups]
        tracer.write(args.spans)
    shutil.rmtree(outdir, ignore_errors=True)

    report.update(
        samples=samples,
        attempted=attempted,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment={
            "cores": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
