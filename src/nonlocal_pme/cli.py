"""Command line front end: simulate, verify, convergence.

Experiments are described by a JSON file with the sections grid, measure,
truncation, nonlinearity, time, initial, and optionally checks, output and
refinement. Every section rejects keys it does not know, and every numeric
assumption is re-checked on load, so a config that parses is a config that
runs. Exit codes: 0 all checks passed, 1 a check failed, 2 the config or
command line was unusable.

Identical config and seed give bit-identical outputs; the seed is recorded
in every report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .bump import standard_bump
from .energy import (
    PathFunction,
    bilinear,
    density_approximation,
    parabolic_bilinear,
    sobolev_seminorm_direct,
    sobolev_seminorm_fourier,
)
from .grid import Grid, GridFunction
from .measures import AtomMeasure, LevyMeasureSpec
from .nonlinearity import NonlinearitySpec, PowerEntropy, lp_companion, stroock_varopoulos_gap
from .operators import apply_truncated, fourier_fractional, operator_report
from .solver import (
    SolverConfig,
    _atomize,
    convergence_study,
    oleinik_report,
    read_frames_binary,
    run,
    write_diagnostics_csv,
    write_frames_binary,
    write_summary_json,
)

_FORMATS = ("csv", "json", "binary")
_SUITES = ("operator", "energy", "stroock-varopoulos", "oleinik", "density", "sobolev")


class ConfigError(ValueError):
    """The experiment description is malformed or breaks an assumption."""


def _section(raw: dict, name: str, allowed: set[str], required: set[str]) -> dict:
    body = raw.get(name)
    if body is None:
        if required:
            raise ConfigError(f"missing config section {name!r}")
        return {}
    if not isinstance(body, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(body) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section {name!r}")
    missing = required - set(body)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in section {name!r}")
    return body


def _number(value, where: str) -> float:
    """A finite real from the config; JSON booleans and strings are not numbers."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer too large for a double
        pass
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _positive(value, where: str) -> float:
    out = _number(value, where)
    if not out > 0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    return out


def _nonneg_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{where} must be a nonnegative integer, got {value!r}")
    return value


def _parse_grid(raw: dict) -> Grid:
    body = _section(raw, "grid", {"dims", "points", "halfwidth"}, {"dims", "points", "halfwidth"})
    dims = _nonneg_int(body["dims"], "grid.dims")
    points = _nonneg_int(body["points"], "grid.points")
    if dims < 1 or points < 2:
        raise ConfigError("grid needs dims >= 1 and points >= 2")
    return Grid(dims=dims, points_per_axis=points, halfwidth=_positive(body["halfwidth"], "grid.halfwidth"))


def _parse_measure(raw: dict, dims: int) -> LevyMeasureSpec:
    body = _section(raw, "measure", {"kind", "alpha", "multiplier", "atoms"}, {"kind"})
    kind = body["kind"]
    if kind == "fractional":
        if "atoms" in body:
            raise ConfigError("measure.atoms does not apply to the fractional kind")
        if "alpha" not in body:
            raise ConfigError("fractional measure needs measure.alpha")
        alpha = _positive(body["alpha"], "measure.alpha")
        multiplier = body.get("multiplier")
        if multiplier is not None:
            multiplier = _positive(multiplier, "measure.multiplier")
        return LevyMeasureSpec.fractional(alpha=alpha, dims=dims, multiplier=multiplier)
    if kind == "atomic":
        if "alpha" in body or "multiplier" in body:
            raise ConfigError("measure.alpha/multiplier do not apply to the atomic kind")
        atoms = body.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ConfigError("atomic measure needs a nonempty measure.atoms list")
        pairs = []
        for entry in atoms:
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)):
                raise ConfigError("each atom must be [[offset components], weight]")
            offset = [_number(c, "atom offset component") for c in entry[0]]
            if len(offset) != dims:
                raise ConfigError(f"atom offset {entry[0]!r} does not have {dims} components")
            pairs.append((offset, _positive(entry[1], "atom weight")))
        return LevyMeasureSpec.atomic(pairs, dims=dims)
    raise ConfigError(f"unknown measure kind {kind!r}")


def _parse_nonlinearity(raw: dict) -> NonlinearitySpec:
    body = _section(
        raw, "nonlinearity", {"kind", "m", "a", "knots", "values", "n"}, {"kind"}
    )
    index = _nonneg_int(body.get("n", 0), "nonlinearity.n")
    kind = body["kind"]
    extras = {"pme": {"m"}, "stefan": {"a"}, "linear": set(), "table": {"knots", "values"}}
    if kind not in extras:
        raise ConfigError(f"unknown nonlinearity kind {kind!r}")
    stray = (set(body) - {"kind", "n"}) - extras[kind]
    if stray:
        raise ConfigError(f"key(s) {sorted(stray)} do not apply to nonlinearity kind {kind!r}")
    if kind == "pme":
        if "m" not in body:
            raise ConfigError("pme nonlinearity needs nonlinearity.m")
        return NonlinearitySpec.pme(_positive(body["m"], "nonlinearity.m"), index)
    if kind == "stefan":
        if "a" not in body:
            raise ConfigError("stefan nonlinearity needs nonlinearity.a")
        return NonlinearitySpec.stefan(_positive(body["a"], "nonlinearity.a"), index)
    if kind == "linear":
        return NonlinearitySpec.linear(index)
    knots = body.get("knots")
    values = body.get("values")
    if not isinstance(knots, list) or not isinstance(values, list):
        raise ConfigError("table nonlinearity needs knots and values lists")
    knots = [_number(v, "nonlinearity.knots entry") for v in knots]
    values = [_number(v, "nonlinearity.values entry") for v in values]
    return NonlinearitySpec.table(knots, values, index)


def _initial_values(grid: Grid, kind: str, params: dict) -> np.ndarray:
    coords = grid.coordinates()
    center = params.get("center", 0.0)
    if isinstance(center, list):
        center = np.asarray([_number(c, "initial center entry") for c in center])
    else:
        center = np.full(grid.dims, _number(center, "initial center"))
    if center.shape != (grid.dims,):
        raise ConfigError(f"initial center needs {grid.dims} components")
    amplitude = _number(params.get("amplitude", 1.0), "initial amplitude")
    if kind == "gaussian":
        width = _positive(params.get("width", 1.0), "initial width")
        sq = np.sum((coords - center) ** 2, axis=1)
        return amplitude * np.exp(-sq / (2.0 * width * width))
    if kind == "box":
        radius = _positive(params.get("radius", 1.0), "initial radius")
        inside = np.max(np.abs(coords - center), axis=1) <= radius
        return amplitude * inside.astype(np.float64)
    if kind == "two_bumps":
        width = _positive(params.get("width", 1.0), "initial width")
        gap = _positive(params.get("separation", 2.0), "initial separation")
        lobe = np.zeros(grid.dims)
        lobe[0] = 0.5 * gap
        left = np.linalg.norm(coords - (center - lobe), axis=1) / width
        right = np.linalg.norm(coords - (center + lobe), axis=1) / width
        return amplitude * np.e * (standard_bump(left) + standard_bump(right))
    raise ConfigError(f"unknown initial kind {kind!r}")


_INITIAL_PARAMS = {
    "gaussian": {"amplitude", "width", "center"},
    "box": {"amplitude", "radius", "center"},
    "two_bumps": {"amplitude", "width", "separation", "center"},
    "file": {"path"},
}


def _parse_initial(raw: dict, grid: Grid, config_dir: Path) -> GridFunction:
    body = _section(raw, "initial", {"kind", "params"}, {"kind"})
    kind = body["kind"]
    if kind not in _INITIAL_PARAMS:
        raise ConfigError(f"unknown initial kind {kind!r}")
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("initial.params must be an object")
    unknown = set(params) - _INITIAL_PARAMS[kind]
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in initial.params for {kind!r}")
    if kind == "file":
        if "path" not in params:
            raise ConfigError("initial kind file needs initial.params.path")
        path = Path(params["path"])
        if not path.is_absolute():
            path = config_dir / path
        if not path.exists():
            raise ConfigError(f"initial data file not found: {path}")
        if path.suffix == ".npy":
            values = np.load(path)
        else:
            file_grid, _, frames = read_frames_binary(path)
            if file_grid != grid:
                raise ConfigError(
                    f"frame file grid {file_grid} does not match the configured grid"
                )
            values = frames[-1]
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.shape != (grid.npoints,):
            raise ConfigError(
                f"initial data has {values.size} values, grid has {grid.npoints} nodes"
            )
        return GridFunction(grid, values)
    return GridFunction(grid, _initial_values(grid, kind, params))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: the run's SolverConfig plus what
    the command line does with it."""

    solver: SolverConfig
    checks: tuple[str, ...]
    output_dir: Path
    formats: tuple[str, ...]
    refinement: tuple[tuple[float, ...], tuple[int, ...]] | None


def load_experiment(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {
        "grid", "measure", "truncation", "nonlinearity",
        "time", "initial", "checks", "output", "refinement",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown top-level section(s) {sorted(unknown)}")

    grid = _parse_grid(raw)
    measure = _parse_measure(raw, grid.dims)

    trunc = _section(raw, "truncation", {"r", "tail_cutoff"}, {"r"})
    radius = _positive(trunc["r"], "truncation.r")
    tail = trunc.get("tail_cutoff")
    if tail is not None:
        tail = _positive(tail, "truncation.tail_cutoff")
        if tail <= radius:
            raise ConfigError("truncation.tail_cutoff must exceed truncation.r")

    nonlinearity = _parse_nonlinearity(raw)

    time_body = _section(raw, "time", {"T", "dt", "theta"}, {"T"})
    duration = _positive(time_body["T"], "time.T")
    dt = time_body.get("dt", "auto")
    if dt == "auto":
        dt = None
    else:
        dt = _positive(dt, "time.dt")
    theta = _number(time_body.get("theta", 0.5), "time.theta")
    if not (0.0 < theta <= 1.0):
        raise ConfigError(f"time.theta must lie in (0, 1], got {theta!r}")

    initial = _parse_initial(raw, grid, path.parent)

    checks_body = raw.get("checks", list(_SUITES))
    if not isinstance(checks_body, list) or not all(isinstance(c, str) for c in checks_body):
        raise ConfigError("checks must be a list of suite names")
    for name in checks_body:
        if name not in _SUITES:
            raise ConfigError(f"unknown check suite {name!r}; known: {', '.join(_SUITES)}")

    out_body = _section(raw, "output", {"dir", "formats"}, set())
    out_dir = Path(out_body.get("dir", "."))
    formats = out_body.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError("output.formats must be a nonempty list")
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ConfigError(f"unknown output format {fmt!r}; known: {', '.join(_FORMATS)}")

    refinement = None
    ref_body = _section(raw, "refinement", {"r", "n"}, set())
    if ref_body:
        if not all(isinstance(ref_body.get(key), list) for key in ("r", "n")):
            raise ConfigError("refinement needs both r and n lists")
        radii = tuple(_positive(v, "refinement.r entry") for v in ref_body["r"])
        indices = tuple(_nonneg_int(v, "refinement.n entry") for v in ref_body["n"])
        refinement = (radii, indices)

    # Building the SolverConfig checks the solver-level assumptions, so a
    # bad combination fails at load time with a named message, not mid-run.
    return ExperimentConfig(
        solver=SolverConfig(
            measure=measure,
            truncation_radius=radius,
            nonlinearity=nonlinearity,
            grid=grid,
            duration=duration,
            initial=initial,
            dt=dt,
            cfl_theta=theta,
            tail_cutoff=tail,
        ),
        checks=tuple(checks_body),
        output_dir=out_dir,
        formats=tuple(formats),
        refinement=refinement,
    )


def _resolve_outdir(exp: ExperimentConfig, override: str | None) -> Path:
    out = Path(override) if override else exp.output_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_simulate(args: argparse.Namespace) -> int:
    exp = load_experiment(args.config)
    traj, report = run(exp.solver)
    out = _resolve_outdir(exp, args.out)
    if "csv" in exp.formats:
        target = out / "diagnostics.csv"
        write_diagnostics_csv(report, target)
        _say(args.quiet, f"wrote {target}")
    if "json" in exp.formats:
        target = out / "summary.json"
        write_summary_json(traj, report, target, seed=args.seed)
        _say(args.quiet, f"wrote {target}")
    if "binary" in exp.formats:
        target = out / "frames.bin"
        write_frames_binary(traj, target)
        _say(args.quiet, f"wrote {target}")
    if report.violation_flags:
        for flag in report.violation_flags:
            print(f"check failed: {flag}", file=sys.stderr)
        return 1
    _say(args.quiet, f"simulate ok: {traj.path.times.size} frames, no invariant violations")
    return 0


def _random_path(grid: Grid, rng: np.random.Generator, nframes: int) -> PathFunction:
    frames = rng.standard_normal((nframes, grid.npoints))
    return PathFunction.from_frames(grid, frames, duration=1.0)


def _suite_operator(config: SolverConfig, seed: int, atoms: AtomMeasure) -> tuple[bool, dict]:
    rep = operator_report(atoms, samples=20, seed=seed)
    tol = 1e-12 * rep.scale
    failures = []
    if rep.symmetry_defect > tol:
        failures.append(
            f"self-adjointness defect {rep.symmetry_defect:.3e} exceeds {tol:.3e}"
        )
    if rep.row_sum_defect > tol:
        failures.append(f"constant-annihilation defect {rep.row_sum_defect:.3e} exceeds {tol:.3e}")
    if rep.dissipativity_defect > tol:
        failures.append(f"dissipativity defect {rep.dissipativity_defect:.3e} exceeds {tol:.3e}")
    # The FFT route against the stencil; the defect is relative to ||Lf||_inf.
    spectral_tol = 1e-12
    if rep.spectral_defect > spectral_tol:
        failures.append(
            f"spectral route defect {rep.spectral_defect:.3e} exceeds {spectral_tol:.3e}"
        )
    return not failures, {
        "samples": rep.samples,
        "symmetry_defect": rep.symmetry_defect,
        "row_sum_defect": rep.row_sum_defect,
        "dissipativity_defect": rep.dissipativity_defect,
        "spectral_defect": rep.spectral_defect,
        "scale": rep.scale,
        "tolerance": tol,
        "spectral_tolerance": spectral_tol,
        "failures": failures,
    }


def _suite_energy(config: SolverConfig, seed: int, atoms: AtomMeasure) -> tuple[bool, dict]:
    rng = np.random.default_rng(seed)
    cell = config.grid.cell_volume
    worst_pairing = worst_symmetry = 0.0
    scale = 1e-300
    for _ in range(8):
        f = GridFunction(config.grid, rng.standard_normal(config.grid.npoints))
        g = GridFunction(config.grid, rng.standard_normal(config.grid.npoints))
        # Lf by the shift stencil, B by the spectral form: two independent routes.
        lf = apply_truncated(atoms, f).values
        pairing = cell * float(np.dot(g.values, lf))
        efg = bilinear(atoms, f, g)
        worst_pairing = max(worst_pairing, abs(pairing + efg))
        worst_symmetry = max(worst_symmetry, abs(efg - bilinear(atoms, g, f)))
        scale = max(scale, abs(pairing), abs(efg))
    path = _random_path(config.grid, rng, nframes=4)
    quad = parabolic_bilinear(atoms, path, path)
    flat = PathFunction.from_frames(
        config.grid, np.repeat(path.frames[:1], 4, axis=0), duration=path.duration
    )
    single = bilinear(atoms, path.frame(0), path.frame(0))
    worst_parabolic = abs(parabolic_bilinear(atoms, flat, flat) - flat.duration * single)
    tol = 1e-12 * scale
    failures = []
    if worst_pairing > tol:
        failures.append(f"pairing identity defect {worst_pairing:.3e} exceeds {tol:.3e}")
    if worst_symmetry > tol:
        failures.append(f"bilinear symmetry defect {worst_symmetry:.3e} exceeds {tol:.3e}")
    if quad < -tol:
        failures.append(f"quadratic form came out negative: {quad:.3e}")
    parabolic_tol = 1e-12 * max(abs(single) * flat.duration, 1.0)
    if worst_parabolic > parabolic_tol:
        failures.append(
            f"time-constant path defect {worst_parabolic:.3e} exceeds {parabolic_tol:.3e}"
        )
    return not failures, {
        "pairing_defect": worst_pairing,
        "symmetry_defect": worst_symmetry,
        "quadratic_form": quad,
        "time_constant_defect": worst_parabolic,
        "scale": scale,
        "failures": failures,
    }


def _smoothed(spec: NonlinearitySpec) -> NonlinearitySpec:
    """spec at smoothing index max(n, 1): the companion map needs n >= 1."""
    return replace(spec, mollification_index=max(spec.mollification_index, 1))


def _suite_stroock_varopoulos(config: SolverConfig, seed: int, atoms: AtomMeasure) -> tuple[bool, dict]:
    spec = _smoothed(config.nonlinearity)
    rng = np.random.default_rng(seed)
    gaps = {}
    failures = []
    for order in (1.5, 2.0, 3.0):
        companion = lp_companion(spec, order)
        entropy_slope = PowerEntropy(order).slope_map()
        worst = np.inf
        for _ in range(6):
            psi = _random_path(config.grid, rng, nframes=4)
            gap = stroock_varopoulos_gap(entropy_slope, spec, companion, psi, atoms)
            worst = min(worst, gap)
        gaps[f"p={order:g}"] = worst
        if worst < -1e-10:
            failures.append(f"slope-product inequality failed at p={order:g}: gap {worst:.3e}")
    return not failures, {"min_gaps": gaps, "paths_per_order": 6, "failures": failures}


def _suite_oleinik(config: SolverConfig, seed: int, atoms: AtomMeasure | None) -> tuple[bool, dict]:
    spec = _smoothed(config.nonlinearity)
    del atoms  # the run below brings the atoms it stepped with
    traj, _ = run(replace(config, nonlinearity=spec, dt=None))
    same = oleinik_report(traj, traj, spec, traj.atoms)
    failures = []
    zero_scale = 1e-12 * max(abs(same.monotone_integral), abs(same.quadratic_form), 1.0)
    if abs(same.monotone_integral) > zero_scale or abs(same.quadratic_form) > zero_scale:
        failures.append(
            "identical trajectories should give a vanishing increment form, got "
            f"I={same.monotone_integral:.3e} Q={same.quadratic_form:.3e}"
        )
    if abs(same.balance_defect) > zero_scale:
        failures.append(f"identical-pair balance defect {same.balance_defect:.3e}")
    rng = np.random.default_rng(seed)
    min_quadratic = np.inf
    for _ in range(8):
        first = _random_path(config.grid, rng, nframes=5)
        second = _random_path(config.grid, rng, nframes=5)
        rep = oleinik_report(first, second, spec, traj.atoms)
        min_quadratic = min(min_quadratic, rep.quadratic_form)
    if min_quadratic < 0.0:
        failures.append(f"quadratic form went negative on a random pair: {min_quadratic:.3e}")
    return not failures, {
        "identical_pair": {
            "monotone_integral": same.monotone_integral,
            "quadratic_form": same.quadratic_form,
            "balance_defect": same.balance_defect,
        },
        "random_pairs": 8,
        "min_quadratic_form": min_quadratic,
        "failures": failures,
    }


def _suite_density(config: SolverConfig, seed: int, atoms: AtomMeasure | None) -> tuple[bool, dict]:
    del seed, atoms  # deterministic construction, no operator
    profile = config.initial.values
    peak = float(np.max(np.abs(profile)))
    if peak == 0.0:
        raise ConfigError("density suite needs a nonzero initial profile")
    duration = config.duration

    def pulse(coords: np.ndarray, t: float) -> np.ndarray:
        del coords
        return profile * float(standard_bump(2.0 * t / duration - 1.0)) * np.e

    path = PathFunction.sampled(config.grid, duration, nsteps=40, func=pulse)
    deltas = [duration / 5.0, duration / 10.0, duration / 20.0]
    errors = []
    for delta in deltas:
        approx = density_approximation(path, delta)
        errors.append(float(np.max(np.abs(approx.frames - path.frames))))
        if float(np.max(np.abs(approx.frames))) > float(np.max(np.abs(path.frames))) + 1e-12:
            return False, {"failures": [f"approximation overshot the path at delta={delta:g}"]}
    failures = []
    if not all(b < a for a, b in zip(errors, errors[1:])):
        failures.append(f"errors did not decrease along the delta sequence: {errors}")
    return not failures, {
        "deltas": deltas,
        "sup_errors": errors,
        "failures": failures,
    }


def _suite_sobolev(config: SolverConfig, seed: int, atoms: AtomMeasure | None) -> tuple[bool, dict]:
    del seed, atoms  # deterministic construction, no operator
    if config.grid.dims != 1:
        raise ConfigError("sobolev suite needs a one-dimensional grid for the direct route")
    if config.measure.kind != "fractional" or config.measure.alpha is None:
        raise ConfigError("sobolev suite needs a fractional measure to fix the order")
    alpha = config.measure.alpha
    f = config.initial
    if float(np.max(np.abs(f.values))) == 0.0:
        raise ConfigError("sobolev suite needs a nonzero initial profile")
    spectral = sobolev_seminorm_fourier(alpha, f)
    direct = sobolev_seminorm_direct(alpha, f)
    gap = abs(spectral - direct) / max(spectral, 1e-300)
    failures = []
    if gap > 0.01:
        failures.append(
            f"independent seminorm routes disagree by {gap:.3%} (spectral {spectral:.6e},"
            f" direct {direct:.6e})"
        )
    return not failures, {
        "alpha": alpha,
        "spectral": spectral,
        "direct": direct,
        "relative_gap": gap,
        "failures": failures,
    }


_SUITE_RUNNERS = {
    "operator": _suite_operator,
    "energy": _suite_energy,
    "stroock-varopoulos": _suite_stroock_varopoulos,
    "oleinik": _suite_oleinik,
    "density": _suite_density,
    "sobolev": _suite_sobolev,
}
# Suites that use the atoms cmd_verify builds once from the configured operator.
_ATOM_SUITES = ("operator", "energy", "stroock-varopoulos")


def cmd_verify(args: argparse.Namespace) -> int:
    exp = load_experiment(args.config)
    if args.suite is not None:
        if args.suite not in _SUITE_RUNNERS:
            raise ConfigError(f"unknown suite {args.suite!r}; known: {', '.join(_SUITES)}")
        suites = (args.suite,)
    else:
        suites = exp.checks
    out = _resolve_outdir(exp, args.out)
    atoms = _atomize(exp.solver) if any(name in _ATOM_SUITES for name in suites) else None
    all_ok = True
    for name in suites:
        ok, report = _SUITE_RUNNERS[name](exp.solver, args.seed, atoms)
        report = {"suite": name, "seed": args.seed, "ok": ok, **report}
        target = out / f"verify_{name}.json"
        with open(target, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True, default=float)
            handle.write("\n")
        if ok:
            _say(args.quiet, f"suite {name}: ok ({target})")
        else:
            all_ok = False
            for message in report.get("failures", []):
                print(f"suite {name}: {message}", file=sys.stderr)
            print(f"suite {name}: FAILED ({target})", file=sys.stderr)
    return 0 if all_ok else 1


def cmd_convergence(args: argparse.Namespace) -> int:
    exp = load_experiment(args.config)
    if exp.refinement is None:
        raise ConfigError("convergence needs a refinement section with r and n lists")
    radii, indices = exp.refinement
    config = exp.solver
    report = convergence_study(config, radii, indices)
    out = _resolve_outdir(exp, args.out)

    rows = []
    _say(args.quiet, f"{'level':>5} {'radius':>12} {'smoothing':>9} {'sup-L1 diff':>14}")
    for j, (radius, index) in enumerate(zip(report.radii, report.indices)):
        if j < len(report.sup_ball_l1_differences):
            diff = f"{report.sup_ball_l1_differences[j]:.6e}"
        else:
            diff = "(reference)"
        _say(args.quiet, f"{j:>5} {radius:>12.6g} {index:>9} {diff:>14}")
        rows.append({"level": j, "radius": radius, "smoothing": index})

    payload = {
        "dt": report.dt,
        "levels": rows,
        "sup_ball_l1_differences": list(report.sup_ball_l1_differences),
        "decreasing": report.decreasing,
        "seed": args.seed,
    }
    if config.nonlinearity.kind == "linear" and config.measure.kind == "fractional":
        reference = report.trajectories[-1]
        exact = fourier_fractional(config.measure.alpha, config.duration, config.initial)
        oracle_gap = float(np.max(np.abs(reference.path.frames[-1] - exact.values)))
        payload["untruncated_spectral_sup_error"] = oracle_gap
        _say(
            args.quiet,
            f"linear-case spectral comparison: sup error {oracle_gap:.6e} at t={config.duration:g}",
        )
    target = out / "convergence.json"
    with open(target, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=float)
        handle.write("\n")
    _say(args.quiet, f"wrote {target}")
    if not report.decreasing:
        print("successive differences are not strictly decreasing", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocal-pme",
        description="Monotone finite-difference schemes for nonlocal degenerate diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed recorded in reports")
        p.add_argument("--quiet", action="store_true", help="suppress progress messages")

    sim = sub.add_parser("simulate", help="run the scheme and write diagnostics")
    common(sim)
    sim.set_defaults(handler=cmd_simulate)

    ver = sub.add_parser("verify", help="run structural check suites")
    common(ver)
    ver.add_argument("--suite", default=None, help=f"one of: {', '.join(_SUITES)}")
    ver.set_defaults(handler=cmd_verify)

    conv = sub.add_parser("convergence", help="run the refinement study")
    common(conv)
    conv.set_defaults(handler=cmd_convergence)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # ConfigError and AssumptionError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
