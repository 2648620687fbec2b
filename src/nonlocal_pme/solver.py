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

from .energy import PathFunction, _jump_form
from .grid import _BLOCK_POINTS, Grid, GridFunction, lp_norms
from .measures import (
    AssumptionError,
    AtomMeasure,
    KernelField,
    LevyMeasureSpec,
    _check_truncation,
    truncate_and_atomize,
)
from .nonlinearity import NonlinearitySpec, lipschitz_bound, lp_companion
from .operators import _apply_atoms

_INF = float("inf")
# The norms every run reports.
_LP_ORDERS = (1.0, 2.0, 4.0, _INF)


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run needs; dt = None means auto from the step-size bound.

    The nonlinearity carries the smoothing index n of the flux phi_n the
    scheme steps. tail_cutoff bounds the jump quadrature; None means half the
    domain halfwidth, keeping wrap-around interactions modest. Construction
    checks the run's assumptions, h <= truncation_radius < tail <= halfwidth
    included; only the step-size bound, which needs the atoms, waits for run.
    """

    measure: LevyMeasureSpec
    truncation_radius: float
    nonlinearity: NonlinearitySpec
    grid: Grid
    duration: float
    initial: GridFunction
    dt: float | None = None
    cfl_theta: float = 0.5
    tail_cutoff: float | None = None

    def __post_init__(self) -> None:
        if self.initial.grid != self.grid:
            raise ValueError("initial data lives on a different grid")
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if not 0.0 < self.cfl_theta <= 1.0:
            raise ValueError(f"cfl_theta must lie in (0, 1], got {self.cfl_theta!r}")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive when given, got {self.dt!r}")
        _check_truncation(self.measure, self.grid, self.truncation_radius, self.tail)

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
    the diagnostics hold that same budget, and lp_budget applies the
    operator with those atoms instead of re-atomizing the measure.
    """

    path: PathFunction
    config: SolverConfig
    atoms: AtomMeasure
    budget: EnergyBudgetReport


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-frame conserved/decaying quantities and any violation flags.

    budget is the run's EnergyBudgetReport (the same object as the
    trajectory's); its times index the frames.
    """

    budget: EnergyBudgetReport
    masses: np.ndarray
    norms: dict[float, np.ndarray]
    violation_flags: tuple[str, ...]

    def __post_init__(self) -> None:
        rows = self.budget.times.shape[0]
        if any(a.shape != (rows,) for a in (self.masses, *self.norms.values())):
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
) -> tuple[float, float]:
    """(dt, Lip(phi_n)) for states in [-amplitude, amplitude].

    dt = None takes the step-size bound itself; a dt above the bound raises.
    Zero amplitude (identically zero data) falls back to the unit range so a
    step size still exists for the trivial evolution.
    """
    lip = lipschitz_bound(spec, amplitude if amplitude > 0 else 1.0)
    bound = cfl_dt(atoms, lip, theta)
    if dt is None:
        dt = bound
    if dt > bound * (1.0 + 1e-12):
        raise AssumptionError(f"dt = {dt:.6g} exceeds the monotonicity bound {bound:.6g} "
                              f"(theta = {theta}); pick dt at or below the bound")
    return dt, lip


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
    """run with the atoms of config.measure already built.

    Each step writes its frame straight into the stack. Once a block of
    whole frames of at most _BLOCK_POINTS values (one frame if a frame is
    larger) is complete, or the last frame is made, the block is reduced to
    its primitive integrals, masses, minima and _LP_ORDERS norms. Every value
    is a reduction over its own row, and the primitive is pointwise, so the
    table equals the whole-stack expressions bit for bit.
    """
    grid = config.grid
    spec = config.nonlinearity
    hN = grid.cell_volume
    amplitude = float(np.max(np.abs(config.initial.values)))
    dt, lip = _checked_dt(atoms, spec, amplitude, config.cfl_theta, config.dt)
    nsteps = max(1, math.ceil(config.duration / dt - 1e-9))
    dt = config.duration / nsteps

    frames = np.empty((nsteps + 1, grid.npoints), dtype=np.float64)
    frames[0] = config.initial.values
    frame_energy = np.zeros(nsteps, dtype=np.float64)
    flux_square = np.zeros(nsteps, dtype=np.float64)
    rows = max(1, _BLOCK_POINTS // grid.npoints)
    phi_integrals, masses, minima = np.empty(nsteps + 1), np.empty(nsteps + 1), np.empty(nsteps + 1)
    norms = {p: np.empty(nsteps + 1) for p in _LP_ORDERS}
    for k in range(nsteps + 1):
        if k:
            pv = spec.value(frames[k - 1])
            flux = _apply_atoms(atoms, pv)
            frame_energy[k - 1] = -hN * float(np.dot(pv, flux))
            flux_square[k - 1] = hN * float(np.dot(flux, flux))
            np.add(frames[k - 1], dt * flux, out=frames[k])
            if not np.all(np.isfinite(frames[k])):
                raise FloatingPointError(f"state became non-finite at frame {k} (t = {k * dt:.6g})")
        if k % rows == rows - 1 or k == nsteps:
            lo = k - k % rows
            block = frames[lo : k + 1]
            phi_integrals[lo : k + 1] = hN * spec.primitive(block).sum(axis=1)
            masses[lo : k + 1] = hN * block.sum(axis=1)
            minima[lo : k + 1] = np.min(block, axis=1)
            for p, series in norms.items():
                series[lo : k + 1] = lp_norms(block, hN, p)

    # Read-only, the stack is adopted by the path instead of copied.
    frames.flags.writeable = False
    path = PathFunction(grid, np.linspace(0.0, config.duration, nsteps + 1), frames)
    budget = _energy_balance(path, phi_integrals, lip, frame_energy, flux_square)
    traj = Trajectory(path=path, config=config, atoms=atoms, budget=budget)
    table = {"masses": masses, "minima": minima, "norms": norms}
    return traj, _diagnose(budget, table, frame_energy)


def _energy_balance(
    path: PathFunction,
    phi_integrals: np.ndarray,
    lip: float,
    frame_energy: np.ndarray,
    flux_square: np.ndarray,
) -> EnergyBudgetReport:
    dt = path.dt
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


def _first_failure(failed: np.ndarray, times: np.ndarray, first: int = 0) -> str:
    """Where a violation first shows: failed[i] is the test at frame first + i."""
    k = first + int(np.argmax(failed))
    return f", first at frame {k} (t = {times[k]:.6g})"


def _diagnose(
    budget: EnergyBudgetReport, table: dict, frame_energy: np.ndarray
) -> DiagnosticsReport:
    """Check the frame table and the run's energies against the scheme's
    conservation, decay and minimum principles; each flag names the first
    frame at which its test failed."""
    times = budget.times
    masses = table["masses"]
    norms = table["norms"]

    flags: list[str] = []
    l1_initial = norms[1.0][0]
    deviation = np.abs(masses - masses[0])
    drift = float(np.max(deviation))
    mass_tol = 1e-12 * max(l1_initial, 1e-300)
    if drift > mass_tol:
        flags.append(f"mass drift {drift:.3e} exceeds {mass_tol:.3e}"
                     + _first_failure(deviation > mass_tol, times))
    for p, series in norms.items():
        tol = 1e-10 * (1.0 + series[0])
        steps = np.diff(series)
        increase = float(np.max(steps, initial=0.0))
        if increase > tol:
            flags.append(f"L^{p:g} norm increased by {increase:.3e} (tolerance {tol:.3e})"
                         + _first_failure(steps > tol, times, 1))
    minima = table["minima"]
    drops = minima[:-1] - minima[1:]
    min_drop = float(np.max(drops, initial=0.0))
    min_tol = 1e-10 * (1.0 + abs(float(minima[0])))
    if min_drop > min_tol:
        flags.append(f"pointwise minimum decreased by {min_drop:.3e} (tolerance {min_tol:.3e})"
                     + _first_failure(drops > min_tol, times, 1))
    energy_floor = float(np.min(frame_energy, initial=0.0))
    energy_tol = 1e-12 * (1.0 + float(np.max(np.abs(frame_energy), initial=0.0)))
    if energy_floor < -energy_tol:
        flags.append(f"frame energy went negative: {energy_floor:.3e}"
                     + _first_failure(frame_energy < -energy_tol, times))
    if not budget.enclosure_ok:
        residuals = budget.residuals
        overshoot = residuals - budget.residual_bounds
        allowance = budget.roundoff_allowance
        flags.append(
            f"energy residual left its convexity enclosure: min {np.min(residuals):.3e}, "
            f"max overshoot {np.max(overshoot):.3e} (roundoff allowance {allowance:.3e})"
            + _first_failure((residuals < -allowance) | (overshoot > allowance), times)
        )

    return DiagnosticsReport(budget=budget, masses=masses, norms=norms, violation_flags=tuple(flags))


def energy_budget_pair(config: SolverConfig) -> tuple[EnergyBudgetReport, EnergyBudgetReport, float]:
    """Run config at its step size and at half that step; return both budget
    reports and the ratio of their largest residuals (first-order scheme:
    expect about 2). Both runs step with the same atoms."""
    coarse_traj, _ = run(config)
    fine_traj, _ = _run(replace(config, dt=0.5 * coarse_traj.path.dt), coarse_traj.atoms)
    coarse, fine = coarse_traj.budget, fine_traj.budget
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
    the decay estimate predicts it stays nonnegative. Both companion fields
    are None unless 1 < p < inf and the nonlinearity is smoothed (n >= 1).
    """

    p: float
    norms: np.ndarray
    max_increase: float
    monotone: bool
    companion_energy: np.ndarray | None = None
    summed_slack: float | None = None


def lp_budget(traj: Trajectory, p: float) -> LpBudgetReport:
    """Check that the p-norm never increases (to 1e-10 relative), and for
    finite p > 1 with a smoothed nonlinearity also accumulate the companion
    energy and the summed decay inequality.

    The companion energy of frame k is the jump-difference form B[xi_k, xi_k]
    of the companion map xi applied to the frame, with the atoms the run
    stepped with; all frames but the last are taken in one stacked call.
    """
    path = traj.path
    hN = path.grid.cell_volume
    frames = path.frames
    norms = lp_norms(frames, hN, p)
    increases = np.diff(norms)
    max_increase = float(np.max(increases, initial=0.0))
    monotone = max_increase <= 1e-10 * (1.0 + float(norms[0]))

    companion_energy = None
    summed_slack = None
    spec = traj.config.nonlinearity
    if 1.0 < p < _INF and spec.mollification_index >= 1:
        xi = lp_companion(spec, p).value(frames)[:-1]
        energies = _jump_form(traj.atoms, xi, xi)
        companion_energy = np.concatenate([[0.0], np.cumsum(path.dt * energies)])
        powers = hN * np.sum(np.abs(frames) ** p, axis=1)
        # Frame 0 has slack exactly zero by construction; the later frames
        # carry the information.
        slack = powers[0] - powers - companion_energy
        summed_slack = float(np.min(slack[1:])) if slack.size > 1 else 0.0

    return LpBudgetReport(
        p=p,
        norms=norms,
        max_increase=max_increase,
        monotone=monotone,
        companion_energy=companion_energy,
        summed_slack=summed_slack,
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
        replace(
            base,
            truncation_radius=float(r),
            nonlinearity=replace(base.nonlinearity, mollification_index=int(n)),
            dt=None,
        )
        for r, n in zip(r_seq, n_seq)
    ]
    level_atoms = [_atomize(cfg) for cfg in levels]
    dt = min(
        _checked_dt(atoms, cfg.nonlinearity, amplitude, cfg.cfl_theta, None)[0]
        for cfg, atoms in zip(levels, level_atoms)
    )
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
        dt=trajectories[0].path.dt,
        sup_ball_l1_differences=tuple(diffs),
        decreasing=decreasing,
        trajectories=tuple(trajectories),
    )


@dataclass(frozen=True)
class OleinikReport:
    """Sign and balance data for the ordering functional of two evolutions.

    monotone_integral is the space-time integral of (u - v)(phi(u) - phi(v)),
    nonnegative for any pair because the nonlinearity is nondecreasing. With
    d^k = phi(u^k) - phi(v^k) and psi = dt sum_{k<K} d^k, tail_square is
    B[psi, psi] / 2 and pointwise_square is (dt^2 / 2) sum_{k<K} B[d^k, d^k],
    B the jump-difference form of the measure. Their difference balances the
    integral exactly when both trajectories follow the same scheme from the
    same initial data, so balance_defect measures scheme consistency rather
    than a new estimate.
    """

    monotone_integral: float
    tail_square: float
    pointwise_square: float
    quadratic_form: float
    balance_defect: float
    initial_gap: float


def oleinik_report(
    first: PathFunction,
    second: PathFunction,
    spec: NonlinearitySpec,
    measure: AtomMeasure | KernelField,
) -> OleinikReport:
    """Evaluate the ordering functional and its quarter-square decomposition.

    Both squares are jump-difference forms of the flux differences, one per
    frame and one of their time sum, taken in a single stacked call. Works
    for arbitrary same-shape path pairs; the balance defect is only
    meaningful when both follow the scheme from identical initial data.
    """
    grid = first.grid
    if second.grid != grid or not np.array_equal(first.times, second.times):
        raise ValueError("trajectories must share grid and time levels")
    if measure.grid != grid:
        raise ValueError("measure lives on a different grid")

    dt = first.dt
    hN = grid.cell_volume
    nsteps = first.nsteps
    diff_state = first.frames[:nsteps] - second.frames[:nsteps]
    diff_flux = spec.value(first.frames[:nsteps]) - spec.value(second.frames[:nsteps])
    integral = dt * hN * float(np.sum(diff_state * diff_flux))

    flux_and_psi = np.vstack([diff_flux, dt * diff_flux.sum(axis=0)])
    forms = _jump_form(measure, flux_and_psi, flux_and_psi)
    tail_sq = 0.5 * float(forms[-1])
    point_sq = 0.5 * dt * dt * float(forms[:-1].sum())

    initial_gap = hN * float(np.sum(np.abs(first.frames[0] - second.frames[0])))
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
    budget = report.budget
    header = (
        ["t", "mass"]
        + [_norm_label(p) for p in orders]
        + ["phi_integral", "cumulative_energy", "residual", "residual_bound"]
    )
    with open(destination, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for k in range(budget.times.shape[0]):
            row = [budget.times[k], report.masses[k]]
            row += [report.norms[p][k] for p in orders]
            row += [
                budget.phi_integrals[k],
                budget.cumulative_energy[k],
                budget.residuals[k],
                budget.residual_bounds[k],
            ]
            writer.writerow([f"{x:.17g}" for x in row])


def _config_echo(config: SolverConfig, dt_effective: float) -> dict:
    spec = config.nonlinearity
    measure = config.measure
    if measure.kind == "fractional":
        measure_echo = {
            "kind": measure.kind,
            "alpha": measure.alpha,
            "multiplier": measure.effective_multiplier,
        }
    else:
        measure_echo = {"kind": measure.kind, "atoms": measure.atoms}
    flux_echo = {"kind": spec.kind, "exponent": spec.exponent, "latent_width": spec.latent_width}
    if spec.kind == "table":
        flux_echo.update(knots=spec.knots, values=spec.knot_values)
    return {
        "grid": {
            "dims": config.grid.dims,
            "points_per_axis": config.grid.points_per_axis,
            "halfwidth": config.grid.halfwidth,
        },
        "measure": measure_echo,
        "truncation_radius": config.truncation_radius,
        "tail_cutoff": config.tail,
        "mollification_index": spec.mollification_index,
        "nonlinearity": flux_echo,
        "duration": config.duration,
        "dt": dt_effective,
        "cfl_theta": config.cfl_theta,
    }


def write_summary_json(
    traj: Trajectory,
    report: DiagnosticsReport,
    destination: str | Path,
    seed: int | None = None,
) -> None:
    """Machine-readable run summary: config echo, final norms, flags."""
    norms_final = {_norm_label(p): float(series[-1]) for p, series in report.norms.items()}
    payload = {
        "config": _config_echo(traj.config, traj.path.dt),
        "frames": int(traj.path.times.shape[0]),
        "final_time": float(traj.path.times[-1]),
        "mass_drift": float(np.max(np.abs(report.masses - report.masses[0]))),
        "final_norms": norms_final,
        "max_abs_residual": report.budget.max_abs_residual,
        "violation_flags": list(report.violation_flags),
        "seed": seed,
    }
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
    """Inverse of write_frames_binary: (grid, times, frames).

    Every record must repeat the first record's grid header and hold the
    whole frame; a mismatched header or a short record raises ValueError
    naming the record's index.
    """
    raw = Path(source).read_bytes()
    offset = 0
    times = []
    frames = []
    grid = None
    while offset < len(raw):
        record = len(times)
        if offset + 32 > len(raw):
            raise ValueError(f"frame record {record} is cut short in its 32-byte header")
        dims, points = np.frombuffer(raw, dtype="<i8", count=2, offset=offset).tolist()
        halfwidth, t = np.frombuffer(raw, dtype="<f8", count=2, offset=offset + 16).tolist()
        offset += 32
        if grid is None:
            grid = Grid(dims=dims, points_per_axis=points, halfwidth=halfwidth)
            header = (dims, points, halfwidth)
        elif (dims, points, halfwidth) != header:
            raise ValueError(f"frame record {record} has grid header (dims, points, halfwidth) "
                             f"{(dims, points, halfwidth)}, record 0 has {header}")
        left = (len(raw) - offset) // 8
        # With points > 1, points**dims exceeds left once 2**dims does; the
        # first test keeps a corrupt header from computing a huge power.
        if (points > 1 and dims >= left.bit_length()) or grid.npoints > left:
            raise ValueError(f"frame record {record} is cut short: {left} values remain "
                             f"for a grid of {points}**{dims} points")
        count = grid.npoints
        times.append(t)
        frames.append(np.frombuffer(raw, dtype="<f8", count=count, offset=offset).astype(np.float64))
        offset += 8 * count
    if grid is None:
        raise ValueError("empty frame file")
    return grid, np.asarray(times), np.stack(frames)
