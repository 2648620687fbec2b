"""Capture bench/reference.json: the outputs every seed variant must reproduce.

Runs each workload once per input variant with tracing on, records the values
workloads.extract() reads and the run's step and atom counts, and refuses to
write the file if those counts differ between variants. Run it from the
repository root on a commit whose outputs are trusted:

    PYTHONPATH=src python3 bench/capture_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import tracing
import workloads
from nonlocal_pme import cli


def capture(workload: str, scratch: Path) -> dict:
    variants = {}
    counts = set()
    config = scratch / "config.json"
    outdir = scratch / "out"
    for variant in range(workloads.VARIANTS):
        workloads.write_config(workload, variant, config)
        tracer = tracing.Tracer()
        with tracer.installed():
            tracer.begin()
            code = cli.main(workloads.cli_argv(workload, variant, config, outdir))
        if code != 0:
            raise SystemExit(f"{workload} variant {variant}: exit code {code}")
        rollup = tracer.rollup()[0]["counts"]
        counts.add((rollup["steps"], rollup["natoms"]))
        variants[str(variant)] = workloads.extract(workload, outdir)
    if len(counts) != 1:
        raise SystemExit(f"{workload}: step and atom counts differ between variants: {sorted(counts)}")
    steps, natoms = counts.pop()
    return {"steps": steps, "natoms": natoms, "variants": variants}


def main() -> int:
    with tempfile.TemporaryDirectory(dir=".") as scratch:
        reference = {name: capture(name, Path(scratch)) for name in workloads.WORKLOADS}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
