"""Shrink the jump truncation while sharpening the flux mollification.

The compactness argument behind the scheme needs the trajectories to form a
Cauchy sequence as the truncation radius r decreases and the mollification
index n increases. The study below runs four (r, n) levels on one grid with
one shared step size and prints the successive sup-in-time L1 distances on
the half-domain ball.
"""

from __future__ import annotations

import numpy as np

from nonlocal_pme import (
    Grid,
    GridFunction,
    LevyMeasureSpec,
    NonlinearitySpec,
    SolverConfig,
    convergence_study,
)

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
print(f"shared dt = {study.dt:.5f}")
print(f"{'level':>5} {'radius':>8} {'smoothing':>9} {'sup-t L1 diff':>14}")
for j, (radius, index) in enumerate(zip(study.radii, study.indices)):
    if j < len(study.sup_ball_l1_differences):
        diff = f"{study.sup_ball_l1_differences[j]:.4e}"
    else:
        diff = "(reference)"
    print(f"{j:>5} {radius:>8g} {index:>9} {diff:>14}")
print("successive differences decrease:", study.decreasing)
