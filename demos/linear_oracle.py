"""Compare the truncated scheme against the exact spectral semigroup.

With a linear flux the evolved profile has a closed Fourier-side form, so the
full discretization error is measurable. Refining the mesh, the step, and the
tail cutoff together should roughly halve the sup error per level.
"""

from __future__ import annotations

import numpy as np

from nonlocal_pme import (
    Grid,
    GridFunction,
    LevyMeasureSpec,
    NonlinearitySpec,
    SolverConfig,
    fourier_fractional,
    run,
)

ALPHA = 1.0
DURATION = 0.5

print(f"{'points':>7} {'h':>10} {'dt':>10} {'tail':>6} {'sup error':>12}")
previous = None
for points, tail in ((512, 4.0), (1024, 8.0), (2048, 16.0)):
    grid = Grid(dims=1, points_per_axis=points, halfwidth=16.0)
    x = grid.coordinates()[:, 0]
    u0 = GridFunction(grid, np.exp(-x * x))
    config = SolverConfig(
        measure=LevyMeasureSpec.fractional(alpha=ALPHA, dims=1),
        truncation_radius=grid.spacing,
        nonlinearity=NonlinearitySpec.linear(),
        grid=grid,
        duration=DURATION,
        initial=u0,
        dt=None,
        cfl_theta=0.4,
        tail_cutoff=tail,
    )
    traj, _ = run(config)
    exact = fourier_fractional(ALPHA, DURATION, u0)
    error = float(np.max(np.abs(traj.path.frames[-1] - exact.values)))
    dt = traj.path.times[1] - traj.path.times[0]
    note = "" if previous is None else f"  (ratio {previous / error:.2f})"
    print(f"{points:>7} {grid.spacing:>10.5f} {dt:>10.5f} {tail:>6g} {error:>12.4e}{note}")
    previous = error
