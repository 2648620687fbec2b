"""Steadiness report: run workloads repeatedly, print quartiles of every metric.

Runs the command from BENCHMARK.json RUNS times for every workload it lists
(seeds first-seed, first-seed+1, ...), one run at a time, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound. With --trace it adds one
traced run per workload and reports its layer split and tracing overhead.
With --write it saves all of that as a baseline file. From the repository
root:

    python3 bench/steadiness.py --trace --write bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
_SPLIT = (
    "operators.apply_s", "nonlinearity.value_s", "nonlinearity.primitive_s",
    "nonlinearity.companion_s", "energy.bilinear_s", "energy.parabolic_s",
    "measures.atomize_s", "solver.step_loop_s", "solver.diagnose_s",
    "solver.oleinik_s", "cli.load_s", "cli.write_s", "cli.other_s",
)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    environment = next((line for line in lines if line.startswith("# ")), "")
    result["environment"] = json.loads(environment.split(" environment ", 1)[1]) if environment else {}
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--write", type=Path, default=None, help="save the report as JSON here")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    report = {"run_seconds": bench["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload, why in ((w["name"], w["why"]) for w in bench["workloads"]):
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
        results = [run_once(bench, workload, seed, 0) for seed in seeds]
        report["environment"] = results[-1]["environment"]
        entry = {
            "why": why,
            "seeds": seeds,
            "attempted_per_run": [r["attempted"] for r in results],
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        print(f"{workload}: {RUNS} runs, seeds {seeds[0]}..{seeds[-1]},"
              f" {entry['failed']} failed invocations")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["metrics"][name] = stats
            verdict = "ok" if stats["spread"] <= metric["bound"] / 3 else (
                "within bound" if stats["spread"] <= metric["bound"] else "OVER BOUND")
            print(f"  {name:18s} median {stats['median']:.6g} {metric['unit']:4s}"
                  f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                  f" spread {stats['spread']:.4f} (bound {metric['bound']}) {verdict}")
        if args.trace:
            layers = run_once(bench, workload, args.first_seed, 1)["metrics"]
            wall = layers["trace.wall_s"]["value"]
            entry["trace"] = {
                "wall_s": wall,
                "overhead_ratio": layers["trace.overhead_ratio"]["value"],
                "self_time_share": {k: layers[k]["value"] / wall for k in _SPLIT if layers[k]["value"]},
                "exact_counts": {k: v["value"] for k, v in layers.items() if v["unit"] == "count"},
            }
            print(f"  traced wall {wall:.4f} s, overhead ratio {entry['trace']['overhead_ratio']:.4f}")
            for key, share in entry["trace"]["self_time_share"].items():
                print(f"    {key:28s} {share:7.2%}")
        report["workloads"][workload] = entry
    if args.write is not None:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
