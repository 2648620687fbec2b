"""Acceptance gate: one test per release criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured numbers.
Every tolerance here is frozen; loosening one is a release decision, not a fix.
"""

import time

import numpy as np
import pytest

from nonlocal_pme import (
    Grid,
    GridFunction,
    LevyMeasureSpec,
    NonlinearitySpec,
    PathFunction,
    SolverConfig,
    apply_truncated,
    bilinear,
    convergence_study,
    density_approximation,
    energy_budget_pair,
    fourier_fractional,
    lp_budget,
    lp_companion,
    lp_norm,
    oleinik_report,
    parabolic_seminorm,
    run,
    sobolev_seminorm_direct,
    sobolev_seminorm_fourier,
    standard_bump,
    stroock_varopoulos_gap,
    truncate_and_atomize,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def decay_config() -> SolverConfig:
    # medium-resolution porous-medium run shared by the mass, budget, and
    # norm-decay criteria; theta = 0.2 keeps the first-order remainder of the
    # explicit step small enough that the companion-energy slack stays positive
    grid = Grid(dims=1, points_per_axis=256, halfwidth=8.0)
    x = grid.coordinates()[:, 0]
    return SolverConfig(
        measure=LevyMeasureSpec.fractional(alpha=1.0, dims=1),
        truncation_radius=0.25,
        nonlinearity=NonlinearitySpec.pme(2.0, mollification_index=2),
        grid=grid,
        duration=0.5,
        initial=GridFunction(grid, np.exp(-x * x)),
        dt=None,
        cfl_theta=0.2,
        tail_cutoff=4.0,
    )


@pytest.fixture(scope="module")
def decay_run():
    config = decay_config()
    traj, diag = run(config)
    return config, traj, diag


def test_summation_by_parts_identity():
    start = time.perf_counter()
    grid = Grid(dims=1, points_per_axis=128, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(alpha=1.0, dims=1)
    atoms = truncate_and_atomize(spec, grid, r=0.25, tail_cutoff=4.0)
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(50):
        f = GridFunction(grid, rng.standard_normal(grid.npoints))
        g = GridFunction(grid, rng.standard_normal(grid.npoints))
        lhs = grid.cell_volume * float(np.dot(g.values, apply_truncated(atoms, f).values))
        rhs = -bilinear(atoms, f, g)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    elapsed = time.perf_counter() - start
    report(
        "summation by parts",
        worst <= 1e-12 and elapsed < 1.0,
        f"max relative defect {worst:.3e} over 50 pairs in {elapsed:.3f}s",
    )


def test_mass_is_conserved_along_the_run(decay_run):
    config, traj, _ = decay_run
    grid = config.grid
    masses = grid.cell_volume * traj.path.frames.sum(axis=1)
    drift = float(np.max(np.abs(masses - masses[0])))
    bound = 1e-12 * lp_norm(config.initial, 1.0)
    report(
        "mass conservation",
        drift <= bound,
        f"max drift {drift:.3e} vs bound {bound:.3e} over {len(masses)} frames",
    )


def test_energy_budget_residual_halves_with_the_step():
    start = time.perf_counter()
    rep_a, rep_b, ratio = energy_budget_pair(decay_config())
    elapsed = time.perf_counter() - start
    report(
        "energy budget step refinement",
        1.7 <= ratio <= 2.3 and elapsed < 30.0,
        f"residual ratio {ratio:.4f} (coarse {rep_a.max_abs_residual:.3e},"
        f" fine {rep_b.max_abs_residual:.3e}) in {elapsed:.2f}s",
    )


def test_lp_norms_decay_with_nonnegative_slack(decay_run):
    _, traj, _ = decay_run
    details = []
    ok = True
    for p in (1.0, 2.0, 4.0, np.inf):
        budget = lp_budget(traj, p)
        scale = max(1.0, budget.norms[0])
        ok = ok and budget.monotone and budget.max_increase <= 1e-10 * scale
        details.append(f"p={p:g} incr {budget.max_increase:.1e}")
        if budget.summed_slack is not None:
            ok = ok and budget.summed_slack >= 0.0
            details[-1] += f" slack {budget.summed_slack:+.3e}"
    report("Lp norm decay", ok, "; ".join(details))


def test_entropy_companion_gap_is_nonnegative():
    start = time.perf_counter()
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)
    atoms = truncate_and_atomize(
        LevyMeasureSpec.fractional(alpha=1.0, dims=1), grid, r=0.25, tail_cutoff=2.0
    )
    # the mollified stefan map only certifies a companion for p >= 2, so the
    # p = 1.5 pool drops it
    pme_and_linear = (
        NonlinearitySpec.pme(1.5, mollification_index=1),
        NonlinearitySpec.pme(2.0, mollification_index=2),
        NonlinearitySpec.pme(3.0, mollification_index=1),
        NonlinearitySpec.linear(mollification_index=1),
    )
    pools = {
        1.5: pme_and_linear,
        2.0: pme_and_linear + (NonlinearitySpec.stefan(1.0, mollification_index=2),),
        3.0: pme_and_linear + (NonlinearitySpec.stefan(1.0, mollification_index=2),),
    }
    companions = {
        (p, i): lp_companion(spec, p)
        for p, pool in pools.items()
        for i, spec in enumerate(pool)
    }
    rng = np.random.default_rng(55)
    orders = (1.5, 2.0, 3.0)
    worst = np.inf
    for i in range(100):
        p = orders[i % 3]
        pool = pools[p]
        psi = PathFunction.from_frames(
            grid, rng.standard_normal((4, grid.npoints)), duration=1.0
        )
        gap = stroock_varopoulos_gap(companions[(p, i % len(pool))], psi, atoms)
        worst = min(worst, gap)
    elapsed = time.perf_counter() - start
    report(
        "entropy companion gap",
        worst >= -1e-12 and elapsed < 10.0,
        f"min gap {worst:+.4f} over 100 triples in {elapsed:.2f}s",
    )


def test_flux_pair_quadratic_form_is_nonnegative():
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)
    atoms = truncate_and_atomize(
        LevyMeasureSpec.fractional(alpha=1.0, dims=1), grid, r=0.25, tail_cutoff=2.0
    )
    spec = NonlinearitySpec.pme(2.0, mollification_index=2)
    rng = np.random.default_rng(606)
    min_q = np.inf
    for _ in range(100):
        a = PathFunction.from_frames(grid, rng.standard_normal((5, grid.npoints)), 0.5)
        b = PathFunction.from_frames(grid, rng.standard_normal((5, grid.npoints)), 0.5)
        rep = oleinik_report(a, b, spec, atoms)
        assert rep.tail_square >= 0.0 and rep.pointwise_square >= 0.0
        min_q = min(min_q, rep.quadratic_form)

    # algebraic backbone: the ordered double sum equals the quarter-square form
    worst_rel = 0.0
    for size in range(1, 7):
        for _ in range(20):
            values = rng.standard_normal(size)
            brute = sum(values[i] * values[j] for i in range(size) for j in range(i, size))
            closed = 0.5 * values.sum() ** 2 + 0.5 * float(values @ values)
            worst_rel = max(worst_rel, abs(brute - closed) / max(abs(closed), 1e-300))
    report(
        "flux pair quadratic form",
        min_q >= 0.0 and worst_rel <= 1e-12,
        f"min Q {min_q:.4f} over 100 pairs; double-sum identity defect {worst_rel:.3e}",
    )


def test_linear_diffusion_matches_the_spectral_oracle():
    start = time.perf_counter()
    errors = []
    steps = []
    for points, tail in ((512, 4.0), (1024, 8.0), (2048, 16.0)):
        grid = Grid(dims=1, points_per_axis=points, halfwidth=16.0)
        x = grid.coordinates()[:, 0]
        u0 = GridFunction(grid, np.exp(-x * x))
        h = 2.0 * grid.halfwidth / points
        config = SolverConfig(
            measure=LevyMeasureSpec.fractional(alpha=1.0, dims=1),
            truncation_radius=h,
            nonlinearity=NonlinearitySpec.linear(),
            grid=grid,
            duration=0.5,
            initial=u0,
            dt=None,
            cfl_theta=0.4,
            tail_cutoff=tail,
        )
        traj, _ = run(config)
        steps.append(float(traj.path.times[1] - traj.path.times[0]))
        exact = fourier_fractional(1.0, 0.5, u0)
        errors.append(float(np.max(np.abs(traj.path.frames[-1] - exact.values))))
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    refined = all(b < a for a, b in zip(steps, steps[1:]))
    report(
        "linear spectral oracle",
        decreasing and refined,
        "sup errors " + " -> ".join(f"{e:.4e}" for e in errors)
        + f", final error {errors[-1]:.4e} in {elapsed:.2f}s",
    )


def test_l1_contraction_and_comparison():
    grid = Grid(dims=1, points_per_axis=128, halfwidth=8.0)
    x = grid.coordinates()[:, 0]
    measure = LevyMeasureSpec.fractional(alpha=1.0, dims=1)
    phi = NonlinearitySpec.pme(2.0, mollification_index=2)

    def trig_profile(rng):
        weights = rng.standard_normal(4) / (1 + np.arange(4))
        phases = rng.uniform(0.0, 2.0 * np.pi, 4)
        vals = sum(
            w * np.cos((k + 1) * np.pi * x / 8.0 + ph)
            for k, (w, ph) in enumerate(zip(weights, phases))
        )
        return vals ** 2 / max(1.0, float(np.max(vals ** 2)))

    def solve(values):
        config = SolverConfig(
            measure=measure,
            truncation_radius=0.25,
            nonlinearity=phi,
            grid=grid,
            duration=0.25,
            initial=GridFunction(grid, values),
            dt=0.005,
            cfl_theta=0.4,
            tail_cutoff=4.0,
        )
        traj, _ = run(config)
        return traj.path.frames

    rng = np.random.default_rng(2718)
    worst_excess = -np.inf
    worst_order = np.inf
    for _ in range(20):
        u0 = trig_profile(rng)
        v0 = u0 + 0.4 * trig_profile(rng)
        fu = solve(u0)
        fv = solve(v0)
        gap0 = grid.cell_volume * float(np.abs(v0 - u0).sum())
        gaps = grid.cell_volume * np.abs(fv - fu).sum(axis=1)
        worst_excess = max(worst_excess, float(np.max(gaps) - gap0))
        worst_order = min(worst_order, float(np.min(fv - fu)))
    report(
        "L1 contraction and comparison",
        worst_excess <= 1e-10 and worst_order >= -1e-12,
        f"worst contraction excess {worst_excess:.3e},"
        f" worst ordering margin {worst_order:.3e} over 20 pairs",
    )


def test_seminorm_routes_agree_on_gaussians():
    grid = Grid(dims=1, points_per_axis=1024, halfwidth=32.0)
    x = grid.coordinates()[:, 0]
    f = GridFunction(grid, np.exp(-x * x / (2.0 * 0.5 ** 2)))
    gaps = {}
    for alpha in (0.5, 1.0, 1.5):
        spectral = sobolev_seminorm_fourier(alpha, f)
        direct = sobolev_seminorm_direct(alpha, f)
        gaps[alpha] = abs(spectral - direct) / spectral
    report(
        "fractional seminorm dual routes",
        max(gaps.values()) < 0.01,
        "; ".join(f"alpha={a:g} gap {g:.3%}" for a, g in gaps.items()),
    )


def test_mollified_band_restriction_converges_in_l2():
    grid = Grid(dims=1, points_per_axis=128, halfwidth=8.0)
    x = grid.coordinates()[:, 0]
    duration = 1.0
    times = np.linspace(0.0, duration, 101)
    dt = float(times[1] - times[0])
    space = np.e * standard_bump(x / 4.0)
    frames = np.outer(np.e * standard_bump(2.0 * times / duration - 1.0), space)
    f = PathFunction(grid, times, frames)
    atoms = truncate_and_atomize(
        LevyMeasureSpec.fractional(alpha=1.0, dims=1), grid, r=0.25, tail_cutoff=4.0
    )

    def l2_qt(path):
        return float(np.sqrt(dt * grid.cell_volume * np.sum(path.frames ** 2)))

    errors = []
    budgets = []
    for delta in (0.2 * duration, 0.1 * duration, 0.05 * duration):
        w = density_approximation(f, delta)
        errors.append(l2_qt(PathFunction(grid, times, w.frames - f.frames)))
        budgets.append(
            l2_qt(w) + float(np.max(np.abs(w.frames))) + parabolic_seminorm(atoms, w)
        )
    # at delta = T/5 the admissible band is empty and the approximation is
    # identically zero, which is the legitimate boundary of the construction
    decreasing = errors[0] > errors[1] > errors[2]
    constant = max(budgets)
    report(
        "band restriction L2 convergence",
        decreasing and constant <= 3.0,
        "L2 distances " + " -> ".join(f"{e:.4f}" for e in errors)
        + f"; delta-independent budget constant {constant:.4f}",
    )


def test_truncation_smoothing_refinement_is_cauchy():
    start = time.perf_counter()
    grid = Grid(dims=1, points_per_axis=256, halfwidth=8.0)
    x = grid.coordinates()[:, 0]
    base = SolverConfig(
        measure=LevyMeasureSpec.fractional(alpha=1.0, dims=1),
        truncation_radius=1.0,
        nonlinearity=NonlinearitySpec.pme(2.0, mollification_index=1),
        grid=grid,
        duration=0.25,
        initial=GridFunction(grid, np.exp(-x * x)),
        dt=None,
        cfl_theta=0.4,
        tail_cutoff=4.0,
    )
    study = convergence_study(base, (1.0, 0.5, 0.25, 0.125), (1, 2, 3, 4))
    elapsed = time.perf_counter() - start
    diffs = study.sup_ball_l1_differences
    strict = all(b < a for a, b in zip(diffs, diffs[1:]))
    report(
        "truncation and smoothing refinement",
        strict and elapsed < 120.0,
        "sup-t L1 differences " + " -> ".join(f"{d:.4e}" for d in diffs)
        + f" in {elapsed:.2f}s",
    )
