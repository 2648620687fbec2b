"""Run a degenerate-diffusion experiment and tabulate its invariants.

The explicit monotone step conserves mass to rounding, keeps every L^p norm
non-increasing, and dissipates the mollified entropy at a rate the companion
energy accounts for. This script prints the time series so the three effects
are visible side by side.
"""

from __future__ import annotations

import argparse

import numpy as np

from nonlocal_pme import (
    Grid,
    GridFunction,
    LevyMeasureSpec,
    NonlinearitySpec,
    SolverConfig,
    lp_budget,
    run,
)


def build_config(points: int, exponent: float, theta: float) -> SolverConfig:
    grid = Grid(dims=1, points_per_axis=points, halfwidth=8.0)
    x = grid.coordinates()[:, 0]
    return SolverConfig(
        measure=LevyMeasureSpec.fractional(alpha=1.0, dims=1),
        truncation_radius=0.25,
        mollification_index=2,
        nonlinearity=NonlinearitySpec.pme(exponent, mollification_index=2),
        grid=grid,
        duration=0.5,
        initial=GridFunction(grid, np.exp(-x * x)),
        dt=None,
        cfl_theta=theta,
        tail_cutoff=4.0,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=256)
    parser.add_argument("--exponent", type=float, default=2.0, help="pme exponent m")
    parser.add_argument("--theta", type=float, default=0.2, help="step-bound fraction")
    args = parser.parse_args()

    config = build_config(args.points, args.exponent, args.theta)
    traj, diag = run(config)
    times = diag.budget.times
    print(f"{len(times) - 1} steps of dt = {times[1] - times[0]:.5f}")

    print(f"{'t':>8} {'mass':>12} {'L1':>10} {'L2':>10} {'L4':>10} {'Linf':>10}")
    stride = max(1, (len(times) - 1) // 8)
    for k in range(0, len(times), stride):
        print(f"{times[k]:8.4f} {diag.masses[k]:12.9f}"
              f" {diag.norms[1.0][k]:10.6f} {diag.norms[2.0][k]:10.6f}"
              f" {diag.norms[4.0][k]:10.6f} {diag.norms[np.inf][k]:10.6f}")

    drift = float(np.max(np.abs(np.asarray(diag.masses) - diag.masses[0])))
    print(f"max mass drift {drift:.3e}")
    for p in (2.0, 4.0):
        budget = lp_budget(traj, p)
        print(f"p = {p:g}: monotone {budget.monotone},"
              f" companion-energy slack {budget.summed_slack:+.3e}")
    if diag.violation_flags:
        print("violations:", ", ".join(diag.violation_flags))
    else:
        print("no invariant violations flagged")


if __name__ == "__main__":
    main()
