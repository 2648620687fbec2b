"""Show the exact discrete identities the jump operator satisfies.

Builds an atomized fractional kernel on a periodic grid, then prints the
self-adjointness, constant-annihilation, and dissipativity defects together
with the cosine eigenvalue check against the analytic symbol.
"""

from __future__ import annotations

import numpy as np

from nonlocal_pme import (
    Grid,
    GridFunction,
    LevyMeasureSpec,
    apply_truncated,
    grid_frequencies,
    operator_report,
    truncate_and_atomize,
)


def main() -> None:
    grid = Grid(dims=1, points_per_axis=256, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(alpha=1.2, dims=1)
    atoms = truncate_and_atomize(spec, grid, r=0.125, tail_cutoff=4.0)

    print(f"grid: {grid.points_per_axis} cells, h = {grid.spacing:g}")
    print(f"kernel: {atoms.offsets.shape[0]} atoms on {atoms.truncation_radius:g}"
          f" < |z| <= {atoms.tail_cutoff:g}, discarded tail mass"
          f" {atoms.discarded_tail_mass:.3e}")

    rep = operator_report(atoms, samples=25, seed=7)
    print(f"self-adjointness defect   {rep.symmetry_defect:.3e}")
    print(f"constant annihilation     {rep.row_sum_defect:.3e}")
    print(f"dissipativity defect      {rep.dissipativity_defect:.3e}")

    # applied to a grid cosine the operator multiplies by minus its symbol
    offsets = atoms.offsets[:, 0] * grid.spacing
    xi = float(grid_frequencies(grid)[0][5])
    symbol = float(np.sum(atoms.weights * (1.0 - np.cos(xi * offsets))))
    wave = GridFunction(grid, np.cos(xi * grid.coordinates()[:, 0]))
    image = apply_truncated(atoms, wave)
    defect = float(np.max(np.abs(image.values + symbol * wave.values)))
    print(f"cosine eigenrelation      {defect:.3e} (symbol {symbol:.6f} at xi = {xi:g})")


if __name__ == "__main__":
    main()
