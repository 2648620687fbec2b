"""The explicit monotone scheme and its diagnostic reports."""

import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nonlocal_pme import (
    AssumptionError,
    Grid,
    GridFunction,
    LevyMeasureSpec,
    NonlinearitySpec,
    PathFunction,
    SolverConfig,
    cfl_dt,
    convergence_study,
    energy_budget_pair,
    lipschitz_bound,
    lp_budget,
    lp_companion,
    lp_norm,
    oleinik_report,
    read_frames_binary,
    run,
    truncate_and_atomize,
    write_diagnostics_csv,
    write_frames_binary,
    write_summary_json,
)
from nonlocal_pme import cli, energy, measures, operators, solver
from nonlocal_pme.grid import lp_norms

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "experiment.json"


def two_cell_atoms():
    grid = Grid(dims=1, points_per_axis=8, halfwidth=4.0)
    spec = LevyMeasureSpec.atomic([((2.0,), 0.5), ((-2.0,), 0.5)], dims=1)
    return grid, truncate_and_atomize(spec, grid, 1.0, 4.0)


def gaussian_config(**overrides):
    grid = Grid(dims=1, points_per_axis=128, halfwidth=8.0)
    x = grid.axis_coordinates()
    settings = dict(
        measure=LevyMeasureSpec.fractional(1.0, dims=1),
        truncation_radius=0.25,
        nonlinearity=NonlinearitySpec.pme(2.0, mollification_index=2),
        grid=grid,
        duration=0.25,
        initial=GridFunction(grid, np.exp(-(x**2))),
        cfl_theta=0.4,
    )
    settings.update(overrides)
    return SolverConfig(**settings)


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param(
            {"initial": GridFunction(Grid(1, 64, 8.0), np.zeros(64))},
            "initial data lives on a different grid",
            id="initial-grid",
        ),
        pytest.param({"duration": 0.0}, "duration must be positive", id="duration"),
        pytest.param({"cfl_theta": 0.0}, r"cfl_theta must lie in \(0, 1\]", id="theta"),
        pytest.param({"dt": -0.1}, "dt must be positive", id="dt"),
        pytest.param(
            {"measure": LevyMeasureSpec.fractional(1.0, dims=2)},
            "measure dims 2 != grid dims 1",
            id="measure-dims",
        ),
        pytest.param({"truncation_radius": 0.1}, "below the mesh width h = 0.125", id="radius-below-h"),
        pytest.param(
            {"tail_cutoff": 0.25},
            "tail cutoff 0.25 does not exceed the truncation radius",
            id="tail-not-beyond-radius",
        ),
        pytest.param(
            {"tail_cutoff": 9.0}, "tail cutoff 9.0 exceeds the grid halfwidth 8.0", id="tail-beyond-box"
        ),
    ],
)
def test_solver_config_checks_its_assumptions_at_construction(overrides, message):
    with pytest.raises(ValueError, match=message):
        gaussian_config(**overrides)


def test_cfl_bound_by_hand():
    # unit jump mass, unit slope: dt = theta / 2
    _, atoms = two_cell_atoms()
    assert atoms.total_mass == 1.0
    assert cfl_dt(atoms, 1.0, 1.0) == 0.5
    assert cfl_dt(atoms, 1.0, 0.5) == 0.25
    assert cfl_dt(atoms, 2.0, 1.0) == 0.25
    with pytest.raises(ValueError):
        cfl_dt(atoms, 1.0, 1.5)


def test_step_by_hand():
    # theta = 1 takes dt = 1 / (2 * Lip * mass) = 0.5 in one step
    grid, atoms = two_cell_atoms()
    config = SolverConfig(
        measure=LevyMeasureSpec.atomic([((2.0,), 0.5), ((-2.0,), 0.5)], dims=1),
        truncation_radius=1.0,
        nonlinearity=NonlinearitySpec.linear(),
        grid=grid,
        duration=0.5,
        initial=GridFunction(grid, np.eye(8)[0]),
        cfl_theta=1.0,
        tail_cutoff=4.0,
    )
    traj, _ = run(config)
    assert traj.path.nsteps == 1 and traj.path.dt == 0.5
    np.testing.assert_array_equal(traj.atoms.offsets, atoms.offsets)
    np.testing.assert_array_equal(traj.path.frames[1], [0.5, 0.0, 0.25, 0.0, 0.0, 0.0, 0.25, 0.0])


def test_a_non_finite_state_aborts_the_run_at_its_frame(tmp_path, monkeypatch, capsys):
    apply_atoms = solver._apply_atoms
    calls = []

    def poisoned(atoms, values):
        # the third operator application, and so frame 3, is non-finite
        calls.append(None)
        flux = apply_atoms(atoms, values)
        return np.full_like(flux, np.inf) if len(calls) == 3 else flux

    monkeypatch.setattr(solver, "_apply_atoms", poisoned)
    with pytest.raises(FloatingPointError, match=r"^state became non-finite at frame 3 \(t = "):
        run(gaussian_config())

    calls.clear()
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "grid": {"dims": 1, "points": 64, "halfwidth": 8.0},
        "measure": {"kind": "fractional", "alpha": 1.0},
        "truncation": {"r": 0.25, "tail_cutoff": 4.0},
        "nonlinearity": {"kind": "pme", "m": 2.0, "n": 2},
        "time": {"T": 0.1, "theta": 0.4},
        "initial": {"kind": "gaussian"},
    }))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("check failed: state became non-finite at frame 3 (t = ")


def test_run_reports_no_violations_and_conserves_mass():
    traj, report = run(gaussian_config())
    assert report.violation_flags == ()
    drift = np.max(np.abs(report.masses - report.masses[0]))
    assert drift <= 1e-12 * report.norms[1.0][0]
    assert traj.path.times[-1] == pytest.approx(0.25, rel=1e-14)


def test_run_respects_the_maximum_principle():
    traj, _ = run(gaussian_config())
    low = traj.path.frames.min(axis=1)
    high = traj.path.frames.max(axis=1)
    assert np.all(low >= traj.path.frames[0].min() - 1e-15)
    assert np.all(high <= traj.path.frames[0].max() + 1e-15)


def test_explicit_dt_above_bound_is_rejected_with_the_bound():
    with pytest.raises(AssumptionError, match="monotonicity bound"):
        run(gaussian_config(dt=0.5))


def test_energy_budget_enclosure():
    traj, _ = run(gaussian_config())
    budget = traj.budget
    assert budget.enclosure_ok
    fp_slack = 1e-10 * (1.0 + np.max(np.abs(budget.residuals)))
    assert np.all(budget.residuals >= -fp_slack)
    assert np.all(budget.residuals <= budget.residual_bounds + fp_slack)


def test_energy_budget_pair_halves_the_residual():
    coarse, fine, ratio = energy_budget_pair(gaussian_config())
    assert coarse.enclosure_ok and fine.enclosure_ok
    assert 1.5 < ratio < 2.6


def _recomputed_budget(traj):
    """Independent route to the energy balance: re-atomize, re-step the
    stored frames and redo the arithmetic from scratch."""
    config = traj.config
    spec = config.nonlinearity
    grid = config.grid
    atoms = truncate_and_atomize(config.measure, grid, config.truncation_radius, config.tail)
    lip = lipschitz_bound(spec, float(np.max(np.abs(traj.path.frames[0]))))
    frames = traj.path.frames
    dt = traj.path.dt
    hN = grid.cell_volume
    frame_energy = np.zeros(traj.path.nsteps)
    flux_square = np.zeros(traj.path.nsteps)
    for k in range(traj.path.nsteps):
        pv = spec.value(frames[k])
        flux = operators._apply_atoms(atoms, pv)
        frame_energy[k] = -hN * float(np.dot(pv, flux))
        flux_square[k] = hN * float(np.dot(flux, flux))
    phi_integrals = hN * spec.primitive(frames).sum(axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(dt * frame_energy)])
    residuals = phi_integrals + cumulative - phi_integrals[0]
    bounds = np.concatenate([[0.0], np.cumsum(0.5 * lip * dt * dt * flux_square)])
    fp_tol = 1e-10 * (1.0 + abs(float(phi_integrals[0])) + float(cumulative[-1]))
    return {
        "times": traj.path.times,
        "phi_integrals": phi_integrals,
        "cumulative_energy": cumulative,
        "residuals": residuals,
        "residual_bounds": bounds,
        "max_abs_residual": float(np.max(np.abs(residuals))),
        "enclosure_ok": bool(np.min(residuals) >= -fp_tol and np.max(residuals - bounds) <= fp_tol),
        "roundoff_allowance": fp_tol,
    }


def _count_calls(monkeypatch, name, module):
    """Replace module.name in every package module that holds it; return the call counter."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for holder in (cli, energy, measures, operators, solver):
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counted)
    return calls


def test_budgets_reuse_the_run_record(monkeypatch):
    atomized = _count_calls(monkeypatch, "truncate_and_atomize", measures)
    applied = _count_calls(monkeypatch, "_apply_atoms", operators)
    traj, report = run(gaussian_config())
    # one atomization per run and one operator application per step
    assert len(atomized) == 1
    assert len(applied) == traj.path.nsteps

    atomized.clear()
    applied.clear()
    for p in (1.0, 2.0, 4.0, np.inf):
        lp_budget(traj, p)
    assert atomized == [] and applied == []

    expected = _recomputed_budget(traj)
    for name, value in expected.items():
        assert np.array_equal(getattr(traj.budget, name), value), name
    for name in ("phi_integrals", "cumulative_energy", "residuals", "residual_bounds"):
        assert np.array_equal(getattr(report.budget, name), expected[name]), name


def gaussian_2d_config(**overrides):
    """The 96^2 shape of the 2-D benchmark config: 9,216 points a frame."""
    grid = Grid(dims=2, points_per_axis=96, halfwidth=8.0)
    coords = grid.coordinates()
    settings = dict(
        measure=LevyMeasureSpec.fractional(1.0, dims=2),
        truncation_radius=0.25,
        nonlinearity=NonlinearitySpec.pme(2.0),
        grid=grid,
        duration=0.5,
        initial=GridFunction(grid, np.exp(-np.sum(coords * coords, axis=1))),
        cfl_theta=0.4,
        tail_cutoff=4.0,
    )
    settings.update(overrides)
    return SolverConfig(**settings)


def _whole_stack_table(path):
    """The frame table of solver.run, from whole-stack expressions."""
    hN = path.grid.cell_volume
    frames = path.frames
    return {
        "masses": hN * frames.sum(axis=1),
        "minima": np.min(frames, axis=1),
        "norms": {p: lp_norms(frames, hN, p) for p in solver._LP_ORDERS},
    }


@pytest.mark.parametrize("case", ["2d-row-blocks", "1d-one-block", "short-last-block"])
def test_frame_table_matches_the_whole_stack_formulas(monkeypatch, case):
    if case == "2d-row-blocks":
        config, rows = gaussian_2d_config(nonlinearity=NonlinearitySpec.pme(2.0, mollification_index=2)), 1
    elif case == "1d-one-block":
        config, rows = gaussian_config(), None
    else:
        config, rows = gaussian_config(dt=0.25 / 16), 3
        monkeypatch.setattr(solver, "_BLOCK_POINTS", 3 * config.grid.npoints)
    blocks = []
    primitive = NonlinearitySpec.primitive

    def recorded(self, w):
        blocks.append(np.shape(w))
        return primitive(self, w)

    tables = []
    diagnose = solver._diagnose

    def captured(budget, table, frame_energy):
        tables.append(table)
        return diagnose(budget, table, frame_energy)

    monkeypatch.setattr(NonlinearitySpec, "primitive", recorded)
    monkeypatch.setattr(solver, "_diagnose", captured)
    traj, report = run(config)
    frames = traj.path.frames
    nframes, npoints = frames.shape
    rows = rows or nframes
    assert blocks == [(min(rows, nframes - lo), npoints) for lo in range(0, nframes, rows)]
    if case == "short-last-block":
        assert nframes == 17

    hN = config.grid.cell_volume
    spec = config.nonlinearity
    phi_integrals = hN * spec.primitive(frames).sum(axis=1)
    (table,) = tables
    expected = _whole_stack_table(traj.path)
    assert np.array_equal(table["masses"], expected["masses"])
    assert np.array_equal(table["minima"], expected["minima"])
    for p in solver._LP_ORDERS:
        assert np.array_equal(table["norms"][p], expected["norms"][p]), p
    assert report.masses is table["masses"] and report.norms is table["norms"]
    assert np.array_equal(traj.budget.phi_integrals, phi_integrals)
    residuals = phi_integrals + traj.budget.cumulative_energy - phi_integrals[0]
    assert np.array_equal(traj.budget.residuals, residuals)


def test_run_holds_little_beyond_its_frame_stack():
    # The diagnostics reduce the frames in blocks and the path adopts the
    # run's stack, so the traced peak stays near one stack; whole-stack
    # temporaries and a copy of the stack put it above 4 stacks.
    config = gaussian_2d_config()
    tracemalloc.start()
    try:
        traj, _ = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * traj.path.frames.nbytes


def test_run_hands_over_a_read_only_frame_stack():
    traj, _ = run(gaussian_config())
    assert not traj.path.frames.flags.writeable


def _break_mass(budget, table, energy):
    masses = table["masses"].copy()
    masses[3:] += 1e-6 * masses[0]
    return budget, {**table, "masses": masses}, energy


def _break_norm(budget, table, energy):
    series = table["norms"][2.0].copy()
    series[3] = series[2] + 1e-6
    return budget, {**table, "norms": {**table["norms"], 2.0: series}}, energy


def _break_minimum(budget, table, energy):
    minima = table["minima"].copy()
    minima[3] = minima[2] - 1e-6
    return budget, {**table, "minima": minima}, energy


def _break_energy(budget, table, energy):
    energy = energy.copy()
    energy[3] = -1e-6
    return budget, table, energy


def _residual_below_zero(budget, table, energy):
    residuals = budget.residuals.copy()
    residuals[3] = -1e-6
    return replace(budget, residuals=residuals, enclosure_ok=False), table, energy


def _residual_above_bound(budget, table, energy):
    residuals = budget.residuals.copy()
    residuals[3] = budget.residual_bounds[3] + 1e-6
    return replace(budget, residuals=residuals, enclosure_ok=False), table, energy


@pytest.mark.parametrize(
    "broken, message",
    [
        (_break_mass, "mass drift"),
        (_break_norm, "L^2 norm increased"),
        (_break_minimum, "pointwise minimum decreased"),
        (_break_energy, "frame energy went negative"),
        (_residual_below_zero, "energy residual left its convexity enclosure"),
        (_residual_above_bound, "energy residual left its convexity enclosure"),
    ],
    ids=["mass", "norm", "minimum", "energy", "residual-below-zero", "residual-above-bound"],
)
def test_violation_flag_names_the_first_failing_frame(broken, message):
    traj, report = run(gaussian_config())
    table = _whole_stack_table(traj.path)
    energy = np.full(traj.path.nsteps, 1e-3)
    assert solver._diagnose(traj.budget, table, energy).violation_flags == ()
    flags = solver._diagnose(*broken(traj.budget, table, energy)).violation_flags
    t3 = traj.path.times[3]
    assert len(flags) == 1
    assert flags[0].startswith(message)
    assert flags[0].endswith(f", first at frame 3 (t = {t3:.6g})")


def test_companion_energy_matches_the_operator_pairing():
    # oracle: the time-cumulated -h^N <xi, L xi> of each frame but the last,
    # with L applied through _apply_atoms
    traj, _ = run(gaussian_config())
    hN = traj.config.grid.cell_volume
    for p in (1.5, 2.0, 4.0):
        xi = lp_companion(traj.config.nonlinearity, p).value(traj.path.frames)
        energies = [-hN * float(np.dot(x, operators._apply_atoms(traj.atoms, x))) for x in xi[:-1]]
        want = np.concatenate([[0.0], np.cumsum(traj.path.dt * np.array(energies))])
        got = lp_budget(traj, p).companion_energy
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("order", [1.0, 2.0, 4.0, np.inf])
def test_lp_budget_is_monotone(order):
    traj, _ = run(gaussian_config())
    budget = lp_budget(traj, order)
    assert budget.monotone
    assert budget.max_increase <= 1e-10 * (1.0 + budget.norms[0])


def test_lp_budget_slack_is_nonnegative_at_small_steps():
    # the decay inequality carries an O(dt^2)-per-step Euler remainder of the
    # wrong sign, so the nonnegative-slack form needs a small enough step
    traj, _ = run(gaussian_config(cfl_theta=0.1))
    for order in (2.0, 4.0):
        budget = lp_budget(traj, order)
        assert budget.monotone
        assert budget.summed_slack >= 0.0


def test_l1_contraction_and_ordering():
    rng = np.random.default_rng(17)
    grid = Grid(dims=1, points_per_axis=64, halfwidth=8.0)
    x = grid.axis_coordinates()
    base = np.exp(-(x**2))
    for trial in range(3):
        bump = 0.3 * np.abs(rng.standard_normal(64)) * np.exp(-(x**2) / 4.0)
        u0 = GridFunction(grid, base)
        v0 = GridFunction(grid, base + bump)  # v0 >= u0 everywhere
        amplitude = float(np.abs(v0.values).max())
        config_u = gaussian_config(grid=grid, initial=u0, dt=0.002)
        config_v = gaussian_config(grid=grid, initial=v0, dt=0.002)
        tu, _ = run(config_u)
        tv, _ = run(config_v)
        gap0 = lp_norm(GridFunction(grid, u0.values - v0.values), 1)
        for k in range(tu.path.nsteps + 1):
            diff = GridFunction(grid, tu.path.frames[k] - tv.path.frames[k])
            assert lp_norm(diff, 1) <= gap0 + 1e-10
            assert np.all(tv.path.frames[k] >= tu.path.frames[k] - 1e-15)


def test_convergence_study_validation():
    config = gaussian_config()
    with pytest.raises(ValueError):
        convergence_study(config, [0.5, 0.25], [1, 2])
    with pytest.raises(ValueError):
        convergence_study(config, [0.5, 0.25, 0.5], [1, 2, 3])
    with pytest.raises(ValueError):
        convergence_study(config, [0.5, 0.25, 0.125], [1, 2, 2])


def test_convergence_study_atomizes_each_level_once(monkeypatch):
    atomized = _count_calls(monkeypatch, "truncate_and_atomize", measures)
    radii = (0.5, 0.25, 0.125)
    study = convergence_study(gaussian_config(duration=0.05), radii, (1, 2, 3))
    assert len(atomized) == len(radii)
    assert [t.atoms.truncation_radius for t in study.trajectories] == list(radii)


def test_convergence_study_steps_each_level_at_its_smoothing_index():
    base = gaussian_config(duration=0.05)
    study = convergence_study(base, (0.5, 0.25, 0.125), (1, 3, 4))
    for traj, r, n in zip(study.trajectories, study.radii, study.indices):
        spec = NonlinearitySpec.pme(2.0, mollification_index=n)
        level, _ = run(replace(base, truncation_radius=r, nonlinearity=spec, dt=study.dt))
        assert traj.config.nonlinearity == spec
        assert np.array_equal(traj.path.frames, level.path.frames)


@pytest.mark.parametrize("k", [40, 60, 100])
def test_convergence_study_takes_a_common_step_just_above_a_whole_count(k):
    # theta puts T / dt within 1e-9 above the integer k: the run rounds the
    # step up to T / k, beyond the bound by 5e-10 / k relative, and the study
    # must still accept the bound it met
    exp = cli.load_experiment(DEMO_CONFIG)
    base = exp.solver
    radii, indices = exp.refinement
    amplitude = float(np.max(np.abs(base.initial.values)))
    unit_bound = min(
        cfl_dt(
            truncate_and_atomize(base.measure, base.grid, r, base.tail),
            lipschitz_bound(replace(base.nonlinearity, mollification_index=n), amplitude),
            1.0,
        )
        for r, n in zip(radii, indices)
    )
    theta = base.duration / ((k + 5e-10) * unit_bound)
    study = convergence_study(replace(base, cfl_theta=theta), radii, indices)
    assert all(t.path.nsteps == k for t in study.trajectories)
    assert study.dt == base.duration / k


def test_energy_budget_pair_atomizes_once(monkeypatch):
    atomized = _count_calls(monkeypatch, "truncate_and_atomize", measures)
    energy_budget_pair(gaussian_config())
    assert len(atomized) == 1


def test_oleinik_identical_pair_vanishes():
    traj, _ = run(gaussian_config(duration=0.05))
    atoms = truncate_and_atomize(
        LevyMeasureSpec.fractional(1.0, dims=1), traj.config.grid, 0.25, 4.0
    )
    spec = traj.config.nonlinearity
    rep = oleinik_report(traj.path, traj.path, spec, atoms)
    assert rep.monotone_integral == 0.0
    assert rep.quadratic_form == 0.0
    assert rep.balance_defect == 0.0
    assert rep.initial_gap == 0.0


def test_oleinik_quadratic_form_is_nonnegative_on_random_pairs():
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)
    atoms = truncate_and_atomize(LevyMeasureSpec.fractional(1.0, dims=1), grid, 0.25, 2.0)
    spec = NonlinearitySpec.pme(2.0, mollification_index=2)
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = PathFunction.from_frames(grid, rng.standard_normal((5, 32)), duration=1.0)
        b = PathFunction.from_frames(grid, rng.standard_normal((5, 32)), duration=1.0)
        rep = oleinik_report(a, b, spec, atoms)
        assert rep.quadratic_form >= 0.0
        assert rep.tail_square >= 0.0
        assert rep.pointwise_square >= 0.0
        # (a-b) and (phi(a)-phi(b)) share signs pointwise, so the
        # monotonicity integral is nonnegative for arbitrary pairs
        assert rep.monotone_integral >= 0.0


def test_quarter_square_identity_brute_force():
    # sum_i sum_{j>=i} F_i F_j = (1/2)(sum F)^2 + (1/2) sum F_i^2
    rng = np.random.default_rng(31)
    for size in range(1, 7):
        for _ in range(20):
            f = rng.standard_normal(size)
            lhs = sum(f[i] * f[j] for i in range(size) for j in range(i, size))
            rhs = 0.5 * f.sum() ** 2 + 0.5 * float(np.dot(f, f))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_frames_binary_round_trip(tmp_path):
    traj, _ = run(gaussian_config(duration=0.05))
    target = tmp_path / "frames.bin"
    write_frames_binary(traj, target)
    grid, times, frames = read_frames_binary(target)
    assert grid == traj.config.grid
    np.testing.assert_array_equal(times, traj.path.times)
    np.testing.assert_array_equal(frames, traj.path.frames)


def _frame_record(header, t, values):
    dims, points, halfwidth = header
    return (
        np.array([dims, points], dtype="<i8").tobytes()
        + np.array([halfwidth, t], dtype="<f8").tobytes()
        + np.asarray(values, dtype="<f8").tobytes()
    )


@pytest.mark.parametrize("header", [(2, 8, 8.0), (1, 64, 4.0)], ids=["8x8", "halfwidth"])
def test_read_frames_binary_rejects_a_record_on_another_grid(tmp_path, header):
    # Both records hold 64 values, so only the header tells the grids apart.
    target = tmp_path / "frames.bin"
    target.write_bytes(
        _frame_record((1, 64, 8.0), 0.0, np.zeros(64)) + _frame_record(header, 0.1, np.ones(64))
    )
    message = f"frame record 1 has grid header (dims, points, halfwidth) {header}, record 0 has (1, 64, 8.0)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_frames_binary(target)


@pytest.mark.parametrize("cut", ["values", "header", "huge-grid"])
def test_read_frames_binary_rejects_a_short_record(tmp_path, monkeypatch, cut):
    traj, _ = run(gaussian_config(duration=0.05))
    target = tmp_path / "frames.bin"
    write_frames_binary(traj, target)
    raw = target.read_bytes()
    nframes = traj.path.times.size
    if cut == "values":
        target.write_bytes(raw[:-8])
        message = f"frame record {nframes - 1} is cut short: 127 values remain for a grid of 128**1 points"
    elif cut == "header":
        target.write_bytes(raw + raw[:20])
        message = f"frame record {nframes} is cut short in its 32-byte header"
    else:
        # A corrupt header: 3**(2**40) points is a count too large to compute.
        target.write_bytes(_frame_record((2**40, 3, 8.0), 0.0, np.zeros(4)))
        monkeypatch.setattr(Grid, "npoints", property(lambda grid: pytest.fail("counted the points")))
        message = "frame record 0 is cut short: 4 values remain for a grid of 3**1099511627776 points"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_frames_binary(target)


def test_diagnostics_csv_and_summary_json(tmp_path):
    traj, report = run(gaussian_config(duration=0.05))
    csv_path = tmp_path / "diag.csv"
    write_diagnostics_csv(report, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["t", "mass", "l1"]
    assert len(lines) == 1 + report.budget.times.shape[0]

    json_path = tmp_path / "summary.json"
    write_summary_json(traj, report, json_path, seed=42)
    import json

    payload = json.loads(json_path.read_text())
    assert payload["seed"] == 42
    assert payload["violation_flags"] == []
    assert payload["config"]["grid"]["points_per_axis"] == 128


def test_a_table_flux_echoes_its_knots():
    def echo(knots):
        spec = NonlinearitySpec.table(knots, [-1.0, 0.0, 2.0], mollification_index=2)
        return solver._config_echo(gaussian_config(nonlinearity=spec), 0.01)["nonlinearity"]

    first, second = echo([-1.0, 0.0, 1.0]), echo([-1.0, 0.0, 1.5])
    assert first["knots"] == (-1.0, 0.0, 1.0) and first["values"] == (-1.0, 0.0, 2.0)
    assert first != second
    assert "knots" not in solver._config_echo(gaussian_config(), 0.01)["nonlinearity"]
