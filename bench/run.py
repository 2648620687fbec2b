"""Benchmark of the nonlocal-pme command line on three workloads.

Run from the repository root:

    python3 bench/run.py --workload simulate-1d --seed 3 --seconds 30 --trace 0

Workloads (see workloads.py): simulate-1d, where flux evaluation dominates;
simulate-2d, where operator application dominates; verify-1d, where the Lp
companion map and the energy forms dominate.

--trace 0 prints the end-to-end metrics, measured without tracing:
  wall_s             median wall time of one cli.main invocation, warm process
  wall_tail_s        highest sample with ten samples beyond it; the percentile
                     that is depends on the sample count: in 30 s it is
                     ~p95 on simulate-1d, ~p65 on simulate-2d and at or
                     below the median on verify-1d (14-22 samples)
  setup_s            median time from spawning a fresh interpreter until
                     load_experiment returns, over SETUP_SPAWNS spawns
  point_steps_per_s  grid points x time steps of one invocation / wall_s
  peak_rss_mb        peak resident memory of the process running the loop
--trace 1 prints the per-layer metrics of tracing.py from a separate traced
run, checks that the exact counts repeat, and saves the spans under
.bench_work/.

Every invocation's outputs are checked against reference.json; a failed
check counts in "failed" (fail_ratio = failed / attempted). Child processes
get OMP/OPENBLAS/MKL_NUM_THREADS=1 before numpy loads. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

SETUP_SPAWNS = 7
CHILD_TIMEOUT_S = 150
WORK_ROOT = Path(".bench_work")
_PROBE = (
    "import sys\n"
    "from nonlocal_pme.cli import load_experiment\n"
    "load_experiment(sys.argv[1])\n"
    "print('loaded', flush=True)\n"
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("NONLOCAL_PME_THREADS", None)
    return env


def setup_seconds(config: Path, env: dict[str, str]) -> float:
    """Time from spawning an interpreter until load_experiment has returned."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(config)], env=env, stdout=subprocess.PIPE, text=True
    ) as probe:
        try:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            code = probe.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
    if line.strip() != "loaded" or code != 0:
        raise BenchmarkError(f"setup probe failed with exit code {code}")
    return elapsed


def run_worker(args: argparse.Namespace, workdir: Path, env: dict[str, str]) -> dict:
    command = [
        sys.executable, str(workloads.BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
        "--spans", str(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"),
    ]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker did not finish within {CHILD_TIMEOUT_S} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"worker failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample with ten samples beyond it, and its percentile."""
    ordered = sorted(samples)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(args: argparse.Namespace, report: dict, setups: list[float], reference: dict) -> dict:
    samples = report["samples"]
    wall = statistics.median(samples)
    tail_value, percentile = tail(samples)
    work = workloads.grid_points(args.workload) * reference["steps"]
    print(f"wall_s            {wall:.6f} s      median of {len(samples)} invocations")
    print(f"wall_tail_s       {tail_value:.6f} s      p{percentile:.1f} of {len(samples)}, 10 samples beyond it")
    print(f"setup_s           {statistics.median(setups):.6f} s      median of {len(setups)} spawns")
    print(f"point_steps_per_s {work / wall:.1f} 1/s    {work} point-steps per invocation")
    print(f"peak_rss_mb       {report['peak_rss_mb']:.3f} MB")
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "wall_tail_s": {"value": tail_value, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "point_steps_per_s": {"value": work / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def check_counts(report: dict, reference: dict) -> None:
    """Exact counts must repeat between traced invocations and match across seeds."""
    first = report["counts"][0]
    for other in report["counts"][1:]:
        if other != first:
            raise BenchmarkError(f"exact counts differ between traced invocations: {first} vs {other}")
    for name in ("steps", "natoms"):
        if first[name] != reference[name]:
            raise BenchmarkError(f"{name} = {first[name]}, every seed of this workload gives {reference[name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not Path("src/nonlocal_pme/cli.py").is_file():
        print("error: run from the repository root; src/nonlocal_pme is missing", file=sys.stderr)
        return 2

    reference = workloads.load_reference()[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        env = child_env()
        config = workdir / "config.json"
        workloads.write_config(args.workload, args.seed, config)
        if args.trace == 0:
            setups = [setup_seconds(config, env) for _ in range(SETUP_SPAWNS)]
        report = run_worker(args, workdir, env)
        attempted = report["attempted"]
        failed = len(report["failures"])
        for failure in report["failures"][:5]:
            print(f"failed invocation: {failure}", file=sys.stderr)
        print(f"# {args.workload} seed {args.seed} (variant {workloads.variant_of(args.seed)}),"
              f" environment {json.dumps(report['environment'])}")
        if args.trace == 0:
            metrics = end_to_end(args, report, setups, reference)
        else:
            check_counts(report, reference)
            metrics = report["layers"]
            for name, metric in metrics.items():
                print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
        print(f"fail_ratio        {failed / attempted:.6g}      {failed} failed of {attempted} attempted")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
