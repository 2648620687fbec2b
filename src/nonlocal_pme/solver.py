"""Explicit time stepping for the truncated-and-smoothed diffusion problem.

The state solves du/dt = L[phi_n(u)] with L a truncated jump operator on the
periodic grid and phi_n a (possibly smoothed) monotone nonlinearity. Forward
Euler under the step-size bound dt <= theta / (2 Lip(phi_n) mass(L)) keeps
the update monotone in each input, which delivers the conservation,
contraction, comparison, and decay properties the reports check.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .energy import PathFunction
from .grid import Grid, GridFunction, lp_norms, translated
from .measures import AssumptionError, AtomMeasure, KernelField, LevyMeasureSpec, truncate_and_atomize
from .nonlinearity import NonlinearitySpec, lipschitz_bound, lp_companion
from .operators import _apply_atoms

_INF = float("inf")


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run needs; dt = None means auto from the step-size bound.

    The mollification_index here overrides the one carried by the
    nonlinearity, so refinement studies can vary it without rebuilding specs.
    tail_cutoff bounds the jump quadrature; None means half the domain
    halfwidth, keeping wrap-around interactions modest.
    """

    measure: LevyMeasureSpec
    truncation_radius: float
    mollification_index: int
    nonlinearity: NonlinearitySpec
    grid: Grid
    duration: float
    initial: GridFunction
    dt: float | None = None
    cfl_theta: float = 0.5
    tail_cutoff: float | None = None
    lp_orders: tuple[float, ...] = (1.0, 2.0, 4.0, _INF)

    def __post_init__(self) -> None:
        if self.initial.grid != self.grid:
            raise ValueError("initial data lives on a different grid")
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if not 0.0 < self.cfl_theta <= 1.0:
            raise ValueError(f"cfl_theta must lie in (0, 1], got {self.cfl_theta!r}")
        if self.truncation_radius < self.grid.spacing:
            raise AssumptionError(
                f"truncation radius {self.truncation_radius} is below the grid spacing "
                f"{self.grid.spacing}; jumps shorter than one cell cannot be resolved"
            )
        n = self.mollification_index
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise ValueError(f"mollification_index must be a nonnegative integer, got {n!r}")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive when given, got {self.dt!r}")
        for p in self.lp_orders:
            if not p >= 1.0:
                raise ValueError(f"norm orders must be >= 1, got {p!r}")

    @property
    def effective_nonlinearity(self) -> NonlinearitySpec:
        return replace(self.nonlinearity, mollification_index=self.mollification_index)

    @property
    def tail(self) -> float:
        return self.tail_cutoff if self.tail_cutoff is not None else 0.5 * self.grid.halfwidth


@dataclass(frozen=True)
class EnergyBudgetReport:
    """Energy-balance residuals of a trajectory and their convexity bounds.

    cumulative_energy[k] is the left-rule sum of dt times the diagonal energy
    of phi_n(u^j) for j < k. residuals[k] is the energy-balance defect
    Phi-integral(k) + cumulative_energy(k) - Phi-integral(0); the convexity
    of the antiderivative pins it inside [0, residual_bounds[k]] up to the
    roundoff allowance, so enclosure_ok needs no tuned tolerance. The largest
    |residual| shrinks first order under dt halving.
    """

    times: np.ndarray
    phi_integrals: np.ndarray
    cumulative_energy: np.ndarray
    residuals: np.ndarray
    residual_bounds: np.ndarray
    max_abs_residual: float
    enclosure_ok: bool
    roundoff_allowance: float


@dataclass(frozen=True)
class Trajectory:
    """The computed frames plus the configuration that produced them.

    atoms is the measure the scheme stepped with, and budget the energy
    balance built from the frame energies and flux squares of those steps;
    energy_budget and lp_budget reuse both instead of re-atomizing the
    measure or re-applying the operator.
    """

    path: PathFunction
    config: SolverConfig
    atoms: AtomMeasure
    budget: EnergyBudgetReport


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-frame conserved/decaying quantities and any violation flags.

    The energy columns are those of the run's EnergyBudgetReport.
    """

    times: np.ndarray
    masses: np.ndarray
    norms: dict[float, np.ndarray]
    phi_integrals: np.ndarray
    cumulative_energy: np.ndarray
    residuals: np.ndarray
    residual_bounds: np.ndarray
    violation_flags: tuple[str, ...]

    def __post_init__(self) -> None:
        rows = self.times.shape[0]
        arrays = [self.masses, self.phi_integrals, self.cumulative_energy,
                  self.residuals, self.residual_bounds, *self.norms.values()]
        if any(a.shape != (rows,) for a in arrays):
            raise ValueError("diagnostic columns must have one row per frame")


def cfl_dt(atoms: AtomMeasure, lipschitz_phi_n: float, theta: float) -> float:
    """theta / (2 * Lip(phi_n) * total jump mass).

    At theta = 1 the update keeps a positive coefficient on u(x) and
    nonnegative coefficients on the neighbors, so it is monotone; smaller
    theta just adds margin.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta!r}")
    if not atoms.total_mass > 0:
        raise AssumptionError(
            "the truncated measure has zero mass: the equation is du/dt = 0 at this "
            "resolution, so there is no step-size constraint to satisfy (and nothing to step)"
        )
    if not lipschitz_phi_n > 0:
        raise AssumptionError(
            "the nonlinearity has zero slope on the state range: the flux never moves, "
            "so the evolution is stationary and a step-size bound is meaningless"
        )
    return theta / (2.0 * lipschitz_phi_n * atoms.total_mass)


def _checked_dt(
    atoms: AtomMeasure,
    spec: NonlinearitySpec,
    amplitude: float,
    theta: float,
    dt: float | None,
    refusal: str,
) -> tuple[float, float]:
    """(dt, Lip(phi_n)) for states in [-amplitude, amplitude].

    dt = None takes the step-size bound itself; a dt above the bound raises,
    with refusal appended to the message. Zero amplitude (identically zero
    data) falls back to the unit range so a step size still exists for the
    trivial evolution.
    """
    lip = lipschitz_bound(spec, amplitude if amplitude > 0 else 1.0)
    bound = cfl_dt(atoms, lip, theta)
    if dt is None:
        dt = bound
    if dt > bound * (1.0 + 1e-12):
        raise AssumptionError(f"dt = {dt:.6g} exceeds the monotonicity bound {bound:.6g}{refusal}")
    return dt, lip


def step(u: GridFunction, atoms: AtomMeasure, spec: NonlinearitySpec, dt: float) -> GridFunction:
    """One forward-Euler update u + dt * L[phi_n(u)].

    Refuses (hard error) when dt exceeds the theta = 1 monotonicity bound for
    the current state amplitude; mass is conserved exactly because the
    operator annihilates constants row by row.
    """
    if u.grid != atoms.grid:
        raise ValueError("state and operator grids differ")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    amplitude = float(np.max(np.abs(u.values)))
    if amplitude > 0:
        _checked_dt(atoms, spec, amplitude, 1.0, dt,
                    " for this state; refusing to take a potentially oscillatory step")
    flux = _apply_atoms(atoms, spec.value(u.values))
    return u.with_values(u.values + dt * flux)


def run(config: SolverConfig) -> tuple[Trajectory, DiagnosticsReport]:
    """March the explicit scheme over [0, duration] and audit the frames.

    The step-size bound is evaluated once, on the initial amplitude: the
    monotone update cannot enlarge the state range, so the one bound covers
    every step. Non-finite values abort with the offending frame index.
    """
    return _run(config, _atomize(config))


def _atomize(config: SolverConfig) -> AtomMeasure:
    return truncate_and_atomize(config.measure, config.grid, config.truncation_radius, config.tail)


def _run(config: SolverConfig, atoms: AtomMeasure) -> tuple[Trajectory, DiagnosticsReport]:
    """run with the atoms of config.measure already built."""
    grid = config.grid
    spec = config.effective_nonlinearity
    amplitude = float(np.max(np.abs(config.initial.values)))
    dt, lip = _checked_dt(atoms, spec, amplitude, config.cfl_theta, config.dt,
                          f" (theta = {config.cfl_theta}); pick dt at or below the bound")
    nsteps = max(1, math.ceil(config.duration / dt - 1e-9))
    dt = config.duration / nsteps

    frames = np.empty((nsteps + 1, grid.npoints), dtype=np.float64)
    frames[0] = config.initial.values
    u = config.initial.values.copy()
    frame_energy = np.zeros(nsteps, dtype=np.float64)
    flux_square = np.zeros(nsteps, dtype=np.float64)
    for k in range(nsteps):
        pv = spec.value(u)
        flux = _apply_atoms(atoms, pv)
        frame_energy[k] = -grid.cell_volume * float(np.dot(pv, flux))
        flux_square[k] = grid.cell_volume * float(np.dot(flux, flux))
        u = u + dt * flux
        if not np.all(np.isfinite(u)):
            raise FloatingPointError(
                f"state became non-finite at frame {k + 1} (t = {(k + 1) * dt:.6g})"
            )
        frames[k + 1] = u

    path = PathFunction(grid, np.linspace(0.0, config.duration, nsteps + 1), frames)
    budget = _energy_balance(path, spec, lip, frame_energy, flux_square)
    traj = Trajectory(path=path, config=config, atoms=atoms, budget=budget)
    return traj, _diagnose(traj, frame_energy)


def _energy_balance(
    path: PathFunction,
    spec: NonlinearitySpec,
    lip: float,
    frame_energy: np.ndarray,
    flux_square: np.ndarray,
) -> EnergyBudgetReport:
    hN = path.grid.cell_volume
    dt = path.dt
    phi_integrals = hN * spec.primitive(path.frames).sum(axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(dt * frame_energy)])
    residuals = phi_integrals + cumulative - phi_integrals[0]
    bounds = np.concatenate([[0.0], np.cumsum(0.5 * lip * dt * dt * flux_square)])
    fp_tol = 1e-10 * (1.0 + abs(float(phi_integrals[0])) + float(cumulative[-1]))
    return EnergyBudgetReport(
        times=path.times.copy(),
        phi_integrals=phi_integrals,
        cumulative_energy=cumulative,
        residuals=residuals,
        residual_bounds=bounds,
        max_abs_residual=float(np.max(np.abs(residuals))),
        enclosure_ok=bool(np.min(residuals) >= -fp_tol and np.max(residuals - bounds) <= fp_tol),
        roundoff_allowance=fp_tol,
    )


def _diagnose(traj: Trajectory, frame_energy: np.ndarray) -> DiagnosticsReport:
    path = traj.path
    budget = traj.budget
    hN = path.grid.cell_volume
    frames = path.frames

    masses = hN * frames.sum(axis=1)
    norms = {p: lp_norms(frames, hN, p) for p in traj.config.lp_orders}

    flags: list[str] = []
    l1_initial = norms[1.0][0] if 1.0 in norms else lp_norms(frames[0], hN, 1.0)
    drift = float(np.max(np.abs(masses - masses[0])))
    mass_tol = 1e-12 * max(l1_initial, 1e-300)
    if drift > mass_tol:
        flags.append(f"mass drift {drift:.3e} exceeds {mass_tol:.3e}")
    for p, series in norms.items():
        tol = 1e-10 * (1.0 + series[0])
        increase = float(np.max(np.diff(series), initial=0.0))
        if increase > tol:
            flags.append(f"L^{p:g} norm increased by {increase:.3e} (tolerance {tol:.3e})")
    minima = np.min(frames, axis=1)
    min_drop = float(np.max(minima[:-1] - minima[1:], initial=0.0))
    min_tol = 1e-10 * (1.0 + abs(float(minima[0])))
    if min_drop > min_tol:
        flags.append(f"pointwise minimum decreased by {min_drop:.3e} (tolerance {min_tol:.3e})")
    energy_floor = float(np.min(frame_energy, initial=0.0))
    energy_tol = 1e-12 * (1.0 + float(np.max(np.abs(frame_energy), initial=0.0)))
    if energy_floor < -energy_tol:
        flags.append(f"frame energy went negative: {energy_floor:.3e}")
    if not budget.enclosure_ok:
        flags.append(
            f"energy residual left its convexity enclosure: min {np.min(budget.residuals):.3e}, "
            f"max overshoot {np.max(budget.residuals - budget.residual_bounds):.3e} "
            f"(roundoff allowance {budget.roundoff_allowance:.3e})"
        )

    return DiagnosticsReport(
        times=path.times.copy(),
        masses=masses,
        norms=norms,
        phi_integrals=budget.phi_integrals,
        cumulative_energy=budget.cumulative_energy,
        residuals=budget.residuals,
        residual_bounds=budget.residual_bounds,
        violation_flags=tuple(flags),
    )


def energy_budget(traj: Trajectory) -> EnergyBudgetReport:
    """The energy balance of a trajectory: the one run recorded from its own
    step loop, so nothing is re-atomized or re-stepped."""
    return traj.budget


def energy_budget_pair(config: SolverConfig) -> tuple[EnergyBudgetReport, EnergyBudgetReport, float]:
    """Run config at its step size and at half that step; return both budget
    reports and the ratio of their largest residuals (first-order scheme:
    expect about 2)."""
    coarse_traj, _ = run(config)
    fine_config = replace(config, dt=0.5 * coarse_traj.path.dt)
    fine_traj, _ = run(fine_config)
    coarse = energy_budget(coarse_traj)
    fine = energy_budget(fine_traj)
    if fine.max_abs_residual == 0.0:
        ratio = _INF if coarse.max_abs_residual > 0 else 1.0
    else:
        ratio = coarse.max_abs_residual / fine.max_abs_residual
    return coarse, fine, ratio


@dataclass(frozen=True)
class LpBudgetReport:
    """Norm decay along a trajectory, with the companion-energy inequality.

    summed_slack is the smallest, over the frames after the first, of
    (initial p-th power) - (frame p-th power) - (companion energy so far);
    the decay estimate predicts it stays nonnegative.
    """

    p: float
    norms: np.ndarray
    max_increase: float
    monotone: bool
    min_values: np.ndarray | None = None
    min_max_drop: float | None = None
    companion_energy: np.ndarray | None = None
    summed_slack: float | None = None
    note: str = ""


def lp_budget(traj: Trajectory, p: float, tolerance: float = 1e-10) -> LpBudgetReport:
    """Check that the p-norm never increases, and for finite p > 1 with a
    smoothed nonlinearity also accumulate the companion energy and the summed
    decay inequality, applying the operator with the atoms the run stepped
    with."""
    path = traj.path
    hN = path.grid.cell_volume
    frames = path.frames
    norms = lp_norms(frames, hN, p)
    increases = np.diff(norms)
    max_increase = float(np.max(increases, initial=0.0))
    monotone = max_increase <= tolerance * (1.0 + float(norms[0]))

    min_values = None
    min_max_drop = None
    if p == _INF:
        min_values = np.min(frames, axis=1)
        min_max_drop = float(np.max(min_values[:-1] - min_values[1:], initial=0.0))

    companion_energy = None
    summed_slack = None
    note = ""
    spec = traj.config.effective_nonlinearity
    if p != _INF and p > 1.0:
        if spec.mollification_index >= 1:
            companion = lp_companion(spec, p)
            xi_frames = companion.value(frames)
            dt = path.dt
            energies = np.zeros(path.nsteps)
            for k in range(path.nsteps):
                xi = xi_frames[k]
                energies[k] = -hN * float(np.dot(xi, _apply_atoms(traj.atoms, xi)))
            companion_energy = np.concatenate([[0.0], np.cumsum(dt * energies)])
            powers = hN * np.sum(np.abs(frames) ** p, axis=1)
            # Frame 0 has slack exactly zero by construction; the later frames
            # carry the information.
            slack = powers[0] - powers - companion_energy
            summed_slack = float(np.min(slack[1:])) if slack.size > 1 else 0.0
        else:
            note = "companion energy skipped: needs a smoothed nonlinearity (mollification_index >= 1)"
    elif p == 1.0:
        note = "companion energy defined for p > 1 only"

    return LpBudgetReport(
        p=p,
        norms=norms,
        max_increase=max_increase,
        monotone=monotone,
        min_values=min_values,
        min_max_drop=min_max_drop,
        companion_energy=companion_energy,
        summed_slack=summed_slack,
        note=note,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Cauchy-style refinement table; the last trajectory is the reference."""

    radii: tuple[float, ...]
    indices: tuple[int, ...]
    dt: float
    sup_ball_l1_differences: tuple[float, ...]
    decreasing: bool
    trajectories: tuple[Trajectory, ...]


def convergence_study(
    base: SolverConfig, r_seq: Sequence[float], n_seq: Sequence[int]
) -> ConvergenceReport:
    """Run the scheme for each (radius, smoothing) level on one grid and one
    step size, and measure successive sup-in-time L1 distances on the ball
    |x| <= halfwidth / 2.

    The common step size is the most restrictive level's bound, so every
    level steps monotonically and the frames align in time.
    """
    if len(r_seq) != len(n_seq):
        raise ValueError("radius and smoothing sequences must have equal length")
    if len(r_seq) < 3:
        raise ValueError("need at least 3 refinement levels for a Cauchy-style claim")
    if np.any(np.diff(r_seq) >= 0):
        raise ValueError("truncation radii must strictly decrease")
    if np.any(np.diff(n_seq) <= 0):
        raise ValueError("smoothing indices must strictly increase")

    grid = base.grid
    amplitude = float(np.max(np.abs(base.initial.values)))
    levels = [
        replace(base, truncation_radius=float(r), mollification_index=int(n), dt=None)
        for r, n in zip(r_seq, n_seq)
    ]
    level_atoms = [_atomize(cfg) for cfg in levels]
    dt = min(
        _checked_dt(atoms, cfg.effective_nonlinearity, amplitude, cfg.cfl_theta, None, "")[0]
        for cfg, atoms in zip(levels, level_atoms)
    )
    nsteps = max(1, math.ceil(base.duration / dt - 1e-9))
    dt = base.duration / nsteps
    trajectories = [_run(replace(cfg, dt=dt), atoms)[0] for cfg, atoms in zip(levels, level_atoms)]

    coords = grid.coordinates()
    ball = np.sqrt(np.sum(coords * coords, axis=1)) <= 0.5 * grid.halfwidth
    hN = grid.cell_volume
    diffs = []
    for a, b in zip(trajectories, trajectories[1:]):
        gap = np.abs(a.path.frames[:, ball] - b.path.frames[:, ball]).sum(axis=1) * hN
        diffs.append(float(np.max(gap)))
    decreasing = all(x > y for x, y in zip(diffs, diffs[1:]))
    return ConvergenceReport(
        radii=tuple(float(r) for r in r_seq),
        indices=tuple(int(n) for n in n_seq),
        dt=dt,
        sup_ball_l1_differences=tuple(diffs),
        decreasing=decreasing,
        trajectories=tuple(trajectories),
    )


@dataclass(frozen=True)
class OleinikReport:
    """Sign and balance data for the ordering functional of two evolutions.

    monotone_integral is the space-time integral of (u - v)(phi(u) - phi(v)),
    nonnegative for any pair because the nonlinearity is nondecreasing.
    tail_square and pointwise_square are the two quarter-square sums; their
    difference balances the integral exactly when both trajectories follow
    the same scheme from the same initial data, so balance_defect measures
    scheme consistency rather than a new estimate.
    """

    monotone_integral: float
    tail_square: float
    pointwise_square: float
    quadratic_form: float
    balance_defect: float
    initial_gap: float


def oleinik_report(
    first: Trajectory | PathFunction,
    second: Trajectory | PathFunction,
    spec: NonlinearitySpec,
    measure: AtomMeasure | KernelField,
) -> OleinikReport:
    """Evaluate the ordering functional and its quarter-square decomposition.

    Works for arbitrary same-shape path pairs; the balance defect is only
    meaningful when both follow the scheme from identical initial data.
    """
    pa = first.path if isinstance(first, Trajectory) else first
    pb = second.path if isinstance(second, Trajectory) else second
    grid = pa.grid
    if pb.grid != grid or not np.array_equal(pa.times, pb.times):
        raise ValueError("trajectories must share grid and time levels")
    if measure.grid != grid:
        raise ValueError("measure lives on a different grid")

    dt = pa.dt
    hN = grid.cell_volume
    nsteps = pa.nsteps
    diff_state = pa.frames[:nsteps] - pb.frames[:nsteps]
    diff_flux = spec.value(pa.frames[:nsteps]) - spec.value(pb.frames[:nsteps])
    integral = dt * hN * float(np.sum(diff_state * diff_flux))

    tail_sq = 0.0
    point_sq = 0.0
    for k in range(measure.offsets.shape[0]):
        delta = translated(diff_flux, grid, measure.offsets[k]) - diff_flux
        tail_sq += measure.weighted_sum(k, (delta.sum(axis=0) * dt) ** 2)
        point_sq += measure.weighted_sum(k, (delta * delta).sum(axis=0) * dt * dt)
    tail_sq *= 0.25 * hN
    point_sq *= 0.25 * hN

    initial_gap = hN * float(np.sum(np.abs(pa.frames[0] - pb.frames[0])))
    return OleinikReport(
        monotone_integral=integral,
        tail_square=tail_sq,
        pointwise_square=point_sq,
        quadratic_form=tail_sq + point_sq,
        balance_defect=abs(integral + tail_sq - point_sq),
        initial_gap=initial_gap,
    )


# -- report emission ----------------------------------------------------------


def _norm_label(p: float) -> str:
    return "linf" if p == _INF else f"l{p:g}"


def write_diagnostics_csv(report: DiagnosticsReport, destination: str | Path) -> None:
    """One row per frame: t, mass, each configured norm, antiderivative
    integral, cumulative energy, residual, residual bound."""
    orders = sorted(report.norms, key=lambda p: (p == _INF, p))
    header = (
        ["t", "mass"]
        + [_norm_label(p) for p in orders]
        + ["phi_integral", "cumulative_energy", "residual", "residual_bound"]
    )
    with open(destination, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for k in range(report.times.shape[0]):
            row = [report.times[k], report.masses[k]]
            row += [report.norms[p][k] for p in orders]
            row += [
                report.phi_integrals[k],
                report.cumulative_energy[k],
                report.residuals[k],
                report.residual_bounds[k],
            ]
            writer.writerow([f"{x:.17g}" for x in row])


def _config_echo(config: SolverConfig, dt_effective: float) -> dict:
    spec = config.nonlinearity
    return {
        "grid": {
            "dims": config.grid.dims,
            "points_per_axis": config.grid.points_per_axis,
            "halfwidth": config.grid.halfwidth,
        },
        "measure": {
            "kind": config.measure.kind,
            "alpha": config.measure.alpha,
            "multiplier": config.measure.effective_multiplier,
        },
        "truncation_radius": config.truncation_radius,
        "tail_cutoff": config.tail,
        "mollification_index": config.mollification_index,
        "nonlinearity": {
            "kind": spec.kind,
            "exponent": spec.exponent,
            "latent_width": spec.latent_width,
        },
        "duration": config.duration,
        "dt": dt_effective,
        "cfl_theta": config.cfl_theta,
    }


def write_summary_json(
    traj: Trajectory,
    report: DiagnosticsReport,
    destination: str | Path,
    seed: int | None = None,
    extra: dict | None = None,
) -> None:
    """Machine-readable run summary: config echo, final norms, flags."""
    norms_final = {_norm_label(p): float(series[-1]) for p, series in report.norms.items()}
    payload = {
        "config": _config_echo(traj.config, traj.path.dt),
        "frames": int(traj.path.times.shape[0]),
        "final_time": float(traj.path.times[-1]),
        "mass_drift": float(np.max(np.abs(report.masses - report.masses[0]))),
        "final_norms": norms_final,
        "max_abs_residual": float(np.max(np.abs(report.residuals))),
        "violation_flags": list(report.violation_flags),
        "seed": seed,
    }
    if extra:
        payload.update(extra)
    with open(destination, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_frames_binary(traj: Trajectory, destination: str | Path) -> None:
    """Concatenated little-endian records: int64 dims, int64 points_per_axis,
    float64 halfwidth, float64 t, then the frame values as float64."""
    grid = traj.config.grid
    with open(destination, "wb") as handle:
        for k, t in enumerate(traj.path.times):
            np.array([grid.dims, grid.points_per_axis], dtype="<i8").tofile(handle)
            np.array([grid.halfwidth, t], dtype="<f8").tofile(handle)
            traj.path.frames[k].astype("<f8").tofile(handle)


def read_frames_binary(source: str | Path) -> tuple[Grid, np.ndarray, np.ndarray]:
    """Inverse of write_frames_binary: (grid, times, frames)."""
    raw = Path(source).read_bytes()
    offset = 0
    times = []
    frames = []
    grid = None
    while offset < len(raw):
        dims, points = np.frombuffer(raw, dtype="<i8", count=2, offset=offset)
        offset += 16
        halfwidth, t = np.frombuffer(raw, dtype="<f8", count=2, offset=offset)
        offset += 16
        if grid is None:
            grid = Grid(dims=int(dims), points_per_axis=int(points), halfwidth=float(halfwidth))
        count = int(points) ** int(dims)
        values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        times.append(float(t))
        frames.append(values.astype(np.float64))
    if grid is None:
        raise ValueError("empty frame file")
    return grid, np.asarray(times), np.stack(frames)
