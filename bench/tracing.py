"""Spans around the library's layer entry points, recorded from outside.

Tracer.installed() replaces each entry point below with a wrapper in every
module that holds it (the defining module and every module that imported the
name), and puts the originals back on exit. A span records its name, start,
end, parent span and the invocation it belongs to; spans stay in memory until
write() saves them.

Self time of a span is its duration minus the durations of its child spans
(one thread, so children never overlap). It is charged to the span's metric
key, except that an "inner" entry point called from another entry point of
the same layer charges its parent's key: raw_value inside primitive counts as
primitive time, bilinear inside parabolic_bilinear as parabolic time, and
the quadrature passes inside LpCompanion.value as companion time.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from pathlib import Path
from statistics import median

import numpy as np

from nonlocal_pme import cli, energy, measures, nonlinearity, operators, solver
from nonlocal_pme.nonlinearity import LpCompanion, NonlinearitySpec

# Per atom the roll loop of _apply_atoms reads and writes five float64 arrays
# of the grid's size: roll (read, write), difference (2 reads, write), weight
# (read, write) and accumulate (2 reads, write) -- 10 x 8 bytes per point.
_ROLL_BYTES_PER_ATOM_POINT = 80


def _size(name: str):
    return lambda args, kwargs, result: {name: int(np.size(args[1]))}


def _atomize(args, kwargs, result):
    return {"atomize_calls": 1, "natoms": result.natoms}


def _apply(args, kwargs, result):
    atoms = args[0]
    return {"apply_calls": 1, "atom_points": atoms.natoms * atoms.grid.npoints}


def _bilinear(args, kwargs, result):
    measure = args[0]
    return {"bilinear_calls": 1, "form_atom_points": measure.offsets.shape[0] * measure.grid.npoints}


def _run(args, kwargs, result):
    path = result[0].path
    return {"steps": path.nsteps, "frames_bytes": path.frames.nbytes}


def _written(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        destination = signature.bind(*args, **kwargs).arguments["destination"]
        return {"bytes_written": Path(destination).stat().st_size}

    return count


# (owner, attribute, metric key charged with self time, inner, counter)
_TARGETS = [
    (cli, "main", "cli.other_s", False, None),
    (cli, "load_experiment", "cli.load_s", False, None),
    (measures, "truncate_and_atomize", "measures.atomize_s", False, _atomize),
    (operators, "apply_truncated", "operators.apply_s", False, None),
    (operators, "_apply_atoms", "operators.apply_s", True, _apply),
    (NonlinearitySpec, "value", "nonlinearity.value_s", True, _size("value_points")),
    (NonlinearitySpec, "raw_value", "nonlinearity.value_s", True, _size("raw_evals")),
    (NonlinearitySpec, "primitive", "nonlinearity.primitive_s", False, _size("primitive_points")),
    (nonlinearity, "_cumulative_integral", "nonlinearity.primitive_s", True,
     lambda args, kwargs, result: {"quadrature_passes": 1}),
    (LpCompanion, "value", "nonlinearity.companion_s", False, None),
    (energy, "bilinear", "energy.bilinear_s", True, _bilinear),
    (energy, "parabolic_bilinear", "energy.parabolic_s", False, None),
    (solver, "run", "solver.step_loop_s", False, _run),
    (solver, "_diagnose", "solver.diagnose_s", False, None),
    (solver, "oleinik_report", "solver.oleinik_s", False, None),
    (solver, "write_diagnostics_csv", "cli.write_s", False, _written(solver.write_diagnostics_csv)),
    (solver, "write_summary_json", "cli.write_s", False, _written(solver.write_summary_json)),
    (solver, "write_frames_binary", "cli.write_s", False, _written(solver.write_frames_binary)),
]
_MODULES = [cli, energy, measures, nonlinearity, operators, solver]
SUITES = tuple(cli._SUITE_RUNNERS)

_INCLUSIVE = {"solver.run": "solver.run_s", **{f"cli.suite.{s}": f"cli.suite.{s}_s" for s in SUITES}}
_MAX_COUNTS = {"natoms"}

# Every per-layer metric, with its unit; a layer a workload does not use reads 0.
PER_LAYER_UNITS = {
    "measures.atomize_s": "s",
    "measures.atomize_calls": "count",
    "measures.natoms": "count",
    "operators.apply_s": "s",
    "operators.apply_calls": "count",
    "operators.atom_points": "count",
    "operators.ns_per_atom_point": "ns",
    "operators.bytes_computed": "B",
    "nonlinearity.value_s": "s",
    "nonlinearity.value_points": "count",
    "nonlinearity.raw_evals": "count",
    "nonlinearity.primitive_s": "s",
    "nonlinearity.primitive_points": "count",
    "nonlinearity.companion_s": "s",
    "nonlinearity.quadrature_passes": "count",
    "nonlinearity.companion_kept_ratio": "ratio",
    "energy.bilinear_s": "s",
    "energy.bilinear_calls": "count",
    "energy.parabolic_s": "s",
    "energy.form_atom_points": "count",
    "solver.run_s": "s",
    "solver.steps": "count",
    "solver.step_loop_s": "s",
    "solver.diagnose_s": "s",
    "solver.frames_mb_computed": "MB",
    "solver.oleinik_s": "s",
    "cli.import_s": "s",
    "cli.load_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.other_s": "s",
    **{f"cli.suite.{s}_s": "s" for s in SUITES},
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "share.operators": "ratio",
    "share.nonlinearity": "ratio",
    "share.companion_energy": "ratio",
}


def _layer(key: str) -> str:
    return key.split(".", 1)[0]


class Tracer:
    """Records spans while installed; one invocation id per begin() call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [invocation, name, start, end, parent, counts]
        self._stack: list[int] = []
        self._invocation = -1
        self._keys: dict[str, tuple[str, bool]] = {}

    def begin(self) -> None:
        self._invocation += 1

    def _wrap(self, name: str, fn, count):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [self._invocation, name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        restore = []
        try:
            for owner, attribute, key, inner, count in _TARGETS:
                original = getattr(owner, attribute)
                name = f"{getattr(owner, '__name__', '').rsplit('.', 1)[-1]}.{attribute}"
                self._keys[name] = (key, inner)
                wrapped = self._wrap(name, original, count)
                holders = [owner] if inspect.isclass(owner) else [
                    module for module in _MODULES if module.__dict__.get(attribute) is original
                ]
                for holder in holders:
                    restore.append((holder, attribute, original))
                    setattr(holder, attribute, wrapped)
            for suite, runner in list(cli._SUITE_RUNNERS.items()):
                name = f"cli.suite.{suite}"
                self._keys[name] = ("cli.other_s", False)
                restore.append((cli._SUITE_RUNNERS, suite, runner))
                cli._SUITE_RUNNERS[suite] = self._wrap(name, runner, None)
            yield self
        finally:
            for holder, attribute, original in reversed(restore):
                if isinstance(holder, dict):
                    holder[attribute] = original
                else:
                    setattr(holder, attribute, original)

    def rollup(self) -> list[dict]:
        """Per invocation: wall time, self time by key, inclusive times, counts."""
        out: dict[int, dict] = {}
        keys: list[str] = []
        child_time = [0.0] * len(self.spans)
        for index, (invocation, name, start, end, parent, _) in enumerate(self.spans):
            key, inner = self._keys[name]
            if inner and parent >= 0 and _layer(keys[parent]) == _layer(key):
                key = keys[parent]
            keys.append(key)
            if parent >= 0:
                child_time[parent] += end - start
        kept_parents: dict[int, set[int]] = {}
        for index, (invocation, name, start, end, parent, counts) in enumerate(self.spans):
            inv = out.setdefault(invocation, {"wall": 0.0, "self": {}, "inclusive": {}, "counts": {}})
            duration = end - start
            if parent < 0:
                inv["wall"] += duration
            inv["self"][keys[index]] = inv["self"].get(keys[index], 0.0) + duration - child_time[index]
            if name in _INCLUSIVE:
                metric = _INCLUSIVE[name]
                inv["inclusive"][metric] = inv["inclusive"].get(metric, 0.0) + duration
            for count, value in (counts or {}).items():
                previous = inv["counts"].get(count, 0)
                inv["counts"][count] = max(previous, value) if count in _MAX_COUNTS else previous + value
            if name == "nonlinearity._cumulative_integral" and keys[index] == "nonlinearity.companion_s":
                inv["counts"]["companion_passes"] = inv["counts"].get("companion_passes", 0) + 1
                kept_parents.setdefault(invocation, set()).add(parent)
        for invocation, parents in kept_parents.items():
            out[invocation]["counts"]["companion_kept"] = len(parents)
        return [out[k] for k in sorted(out)]

    def write(self, path: Path) -> None:
        fields = ("invocation", "name", "start", "end", "parent", "counts")
        path.write_text(json.dumps([dict(zip(fields, span)) for span in self.spans]))


def layer_metrics(rollups: list[dict], untraced_walls: list[float], import_s: float) -> dict[str, dict]:
    """Per-layer metrics of one invocation, with units: times are means over
    the traced invocations, counts are exact (they repeat, see run.py)."""
    n = len(rollups)

    def mean_self(key: str) -> float:
        return sum(r["self"].get(key, 0.0) for r in rollups) / n

    def mean_inclusive(key: str) -> float:
        return sum(r["inclusive"].get(key, 0.0) for r in rollups) / n

    counts = rollups[0]["counts"]

    def count(name: str) -> int:
        return counts.get(name, 0)

    wall = sum(r["wall"] for r in rollups) / n
    apply_s = mean_self("operators.apply_s")
    atom_points = count("atom_points")
    passes = count("companion_passes")
    nonlinear = sum(mean_self(f"nonlinearity.{k}_s") for k in ("value", "primitive", "companion"))
    energy_s = mean_self("energy.bilinear_s") + mean_self("energy.parabolic_s")
    metrics = {
        "measures.atomize_s": mean_self("measures.atomize_s"),
        "measures.atomize_calls": count("atomize_calls"),
        "measures.natoms": count("natoms"),
        "operators.apply_s": apply_s,
        "operators.apply_calls": count("apply_calls"),
        "operators.atom_points": atom_points,
        "operators.ns_per_atom_point": 1e9 * apply_s / atom_points if atom_points else 0.0,
        "operators.bytes_computed": _ROLL_BYTES_PER_ATOM_POINT * atom_points,
        "nonlinearity.value_s": mean_self("nonlinearity.value_s"),
        "nonlinearity.value_points": count("value_points"),
        "nonlinearity.raw_evals": count("raw_evals"),
        "nonlinearity.primitive_s": mean_self("nonlinearity.primitive_s"),
        "nonlinearity.primitive_points": count("primitive_points"),
        "nonlinearity.companion_s": mean_self("nonlinearity.companion_s"),
        "nonlinearity.quadrature_passes": count("quadrature_passes"),
        "nonlinearity.companion_kept_ratio": count("companion_kept") / passes if passes else 0.0,
        "energy.bilinear_s": mean_self("energy.bilinear_s"),
        "energy.bilinear_calls": count("bilinear_calls"),
        "energy.parabolic_s": mean_self("energy.parabolic_s"),
        "energy.form_atom_points": count("form_atom_points"),
        "solver.run_s": mean_inclusive("solver.run_s"),
        "solver.steps": count("steps"),
        "solver.step_loop_s": mean_self("solver.step_loop_s"),
        "solver.diagnose_s": mean_self("solver.diagnose_s"),
        "solver.frames_mb_computed": count("frames_bytes") / 1e6,
        "solver.oleinik_s": mean_self("solver.oleinik_s"),
        "cli.import_s": import_s,
        "cli.load_s": mean_self("cli.load_s"),
        "cli.write_s": mean_self("cli.write_s"),
        "cli.bytes_written": count("bytes_written"),
        "cli.other_s": mean_self("cli.other_s"),
        **{f"cli.suite.{s}_s": mean_inclusive(f"cli.suite.{s}_s") for s in SUITES},
        "trace.wall_s": wall,
        "trace.overhead_ratio": median(r["wall"] for r in rollups) / median(untraced_walls),
        "share.operators": apply_s / wall,
        "share.nonlinearity": nonlinear / wall,
        "share.companion_energy": (mean_self("nonlinearity.companion_s") + energy_s) / wall,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
