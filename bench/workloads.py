"""Workload table, seeded inputs and output checks shared by the benchmark scripts.

Imports only the standard library, so the orchestrator can use it without
loading numpy.

The seed picks one of VARIANTS input variants. For the simulate workloads the
variant moves the Gaussian centre along the first axis by variant/(2*VARIANTS)
of a cell. The shifts stay below half a cell, so no two variants mirror each
other on the symmetric periodic grid, and the step and atom counts of the run
stay unchanged. For verify-1d the variant is passed to the CLI as --seed.
Reference values for every variant live in reference.json (see
capture_reference.py).
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"
REFERENCE_PATH = BENCH_DIR / "reference.json"

VARIANTS = 16
# A changed summation order (a spectral operator, say) moves these values by
# ~1e-14 relative; a wrong operator or flux moves them by far more.
RELATIVE_TOLERANCE = 1e-10

WORKLOADS = {
    "simulate-1d": {"command": "simulate", "config": "experiment-1d.json", "shift": True},
    "simulate-2d": {"command": "simulate", "config": "experiment-2d.json", "shift": True},
    "verify-1d": {"command": "verify", "config": "experiment-1d.json", "shift": False},
}

_SUMMARY_NORMS = ("l1", "l2", "l4", "linf")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def write_config(workload: str, seed: int, destination: Path) -> None:
    """Write the workload's experiment config for this seed."""
    spec = WORKLOADS[workload]
    raw = json.loads((CONFIG_DIR / spec["config"]).read_text())
    if spec["shift"]:
        grid = raw["grid"]
        cell = 2.0 * grid["halfwidth"] / grid["points"]
        center = [0.0] * grid["dims"]
        center[0] = cell * variant_of(seed) / (2 * VARIANTS)
        raw["initial"].setdefault("params", {})["center"] = center
    destination.write_text(json.dumps(raw, indent=2))


def cli_argv(workload: str, seed: int, config: Path, outdir: Path) -> list[str]:
    """Arguments of one CLI invocation of the workload."""
    return [
        WORKLOADS[workload]["command"], "--config", str(config), "--out", str(outdir),
        "--seed", str(variant_of(seed)), "--quiet",
    ]


def grid_points(workload: str) -> int:
    grid = json.loads((CONFIG_DIR / WORKLOADS[workload]["config"]).read_text())["grid"]
    return grid["points"] ** grid["dims"]


def expected_files(workload: str) -> list[str]:
    raw = json.loads((CONFIG_DIR / WORKLOADS[workload]["config"]).read_text())
    if WORKLOADS[workload]["command"] == "verify":
        return [f"verify_{suite}.json" for suite in raw["checks"]]
    names = {"csv": "diagnostics.csv", "json": "summary.json", "binary": "frames.bin"}
    return [names[fmt] for fmt in raw["output"]["formats"]]


def extract(workload: str, outdir: Path) -> dict[str, float]:
    """The output values compared against the reference, by name."""
    if WORKLOADS[workload]["command"] == "simulate":
        summary = json.loads((outdir / "summary.json").read_text())
        values = {name: summary["final_norms"][name] for name in _SUMMARY_NORMS}
        values["mass_drift"] = summary["mass_drift"]
        return values
    energy = json.loads((outdir / "verify_energy.json").read_text())
    oleinik = json.loads((outdir / "verify_oleinik.json").read_text())
    sv = json.loads((outdir / "verify_stroock-varopoulos.json").read_text())
    density = json.loads((outdir / "verify_density.json").read_text())
    values = {
        "energy.quadratic_form": energy["quadratic_form"],
        "oleinik.min_quadratic_form": oleinik["min_quadratic_form"],
    }
    values.update({f"stroock-varopoulos.{k}": v for k, v in sv["min_gaps"].items()})
    values.update({f"density.sup_error.{i}": v for i, v in enumerate(density["sup_errors"])})
    return values


def check(workload: str, seed: int, outdir: Path, returncode: int | None, reference: dict) -> list[str]:
    """Problems with one invocation's outputs; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = [f"missing output {name}" for name in expected_files(workload) if not (outdir / name).is_file()]
    if problems:
        return problems
    ref = reference[workload]
    if WORKLOADS[workload]["command"] == "simulate":
        summary = json.loads((outdir / "summary.json").read_text())
        if summary["violation_flags"]:
            problems.append(f"violation flags {summary['violation_flags']}")
        if summary["frames"] != ref["steps"] + 1:
            problems.append(f"{summary['frames']} frames, expected {ref['steps'] + 1}")
        frames_bin = outdir / "frames.bin"
        if frames_bin.is_file():
            size = (ref["steps"] + 1) * (32 + 8 * grid_points(workload))
            if frames_bin.stat().st_size != size:
                problems.append(f"frames.bin has {frames_bin.stat().st_size} bytes, expected {size}")
    else:
        for name in expected_files(workload):
            if not json.loads((outdir / name).read_text())["ok"]:
                problems.append(f"{name} has ok: false")
    expected = ref["variants"][str(variant_of(seed))]
    got = extract(workload, outdir)
    for key, want in expected.items():
        # Mass drift is roundoff-sized, so it is held to the mass scale.
        scale = abs(expected["l1"]) if key == "mass_drift" else abs(want)
        if abs(got[key] - want) > RELATIVE_TOLERANCE * scale:
            problems.append(f"{key} = {got[key]!r}, reference {want!r}")
    return problems
