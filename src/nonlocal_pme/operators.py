"""Discrete nonlocal operators built from atomized jump measures.

The truncated operator sums weighted differences over the kept atoms:
(Lf)(x) = sum_k w_k (f(x + z_k) - f(x)) with periodic shifts. A compensated
variant adds a per-axis second central difference representing the mass of
jumps shorter than the truncation radius, with the coefficient fixed so the
discrete Fourier symbol matches -xi_a^2 * (second moment per axis) / 2 in the
small-h limit. A spectral multiplier provides the exact evolution e^{-t
|xi|^alpha} for the linear flux on the same grid, which the solver tests use
as a reference solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction, translated
from .measures import AtomMeasure, LevyMeasureSpec, second_moment_within, truncate_and_atomize


def _apply_atoms(atoms: AtomMeasure, values: np.ndarray) -> np.ndarray:
    """sum_k w_k (f(x + z_k) - f(x)), accumulated atom by atom in fixed order.

    Accumulating the differences (rather than the shifted sums) makes the
    zero-row-sum property exact: constants map to exactly zero.
    """
    out = np.zeros_like(values)
    for k in range(atoms.natoms):
        out += atoms.weights[k] * (translated(values, atoms.grid, atoms.offsets[k]) - values)
    return out


def apply_truncated(atoms: AtomMeasure, f: GridFunction) -> GridFunction:
    """(Lf)(x) = sum_k w_k (f(x + z_k) - f(x)), periodic in x."""
    if f.grid != atoms.grid:
        raise ValueError("operator and function grids differ")
    return GridFunction(f.grid, _apply_atoms(atoms, f.values))


@dataclass(frozen=True)
class CompensatedOperator:
    """Truncated atoms plus a consistent near-field second difference.

    ``near_field_coefficient[a]`` multiplies the second central difference
    along axis a and equals int_{|z| <= r} z_a^2 dmu / (2 h^2): the symbol of
    c (e^{i xi h} - 2 + e^{-i xi h}) = -2c(1 - cos(xi h)) then matches
    -xi_a^2 int z_a^2 dmu / 2 to fourth order in h. A zero coefficient reduces
    the operator to the truncated one.
    """

    atoms: AtomMeasure
    near_field_coefficient: np.ndarray

    def __post_init__(self) -> None:
        coeff = np.asarray(self.near_field_coefficient, dtype=np.float64).reshape(-1)
        if coeff.shape != (self.atoms.grid.dims,):
            raise ValueError("need one near-field coefficient per axis")
        if np.any(coeff < 0):
            raise ValueError("near-field coefficients must be nonnegative")
        coeff = coeff.copy()
        coeff.flags.writeable = False
        object.__setattr__(self, "near_field_coefficient", coeff)

    @property
    def grid(self) -> Grid:
        return self.atoms.grid

    @classmethod
    def from_spec(
        cls, spec: LevyMeasureSpec, grid: Grid, r: float, tail_cutoff: float
    ) -> "CompensatedOperator":
        atoms = truncate_and_atomize(spec, grid, r, tail_cutoff)
        second_moment = second_moment_within(spec, r)
        per_axis = second_moment / spec.dims  # radial symmetry splits evenly
        coeff = np.full(grid.dims, per_axis / (2.0 * grid.spacing**2))
        return cls(atoms, coeff)


def apply_compensated(op: CompensatedOperator, f: GridFunction) -> GridFunction:
    """Truncated part plus sum_a c_a (f(x+h e_a) - 2 f(x) + f(x-h e_a))."""
    if f.grid != op.grid:
        raise ValueError("operator and function grids differ")
    grid = f.grid
    out = _apply_atoms(op.atoms, f.values)
    for axis, unit in enumerate(np.eye(grid.dims, dtype=np.int64)):
        c = op.near_field_coefficient[axis]
        if c == 0.0:
            continue
        forward = translated(f.values, grid, unit)
        out += c * (forward - 2.0 * f.values + translated(f.values, grid, -unit))
    return GridFunction(grid, out)


def grid_frequencies(grid: Grid) -> list[np.ndarray]:
    """Angular frequencies xi_k = pi k / R per axis, in FFT ordering."""
    return [
        2.0 * math.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
        for _ in range(grid.dims)
    ]


def fourier_fractional(alpha: float, t: float, f: GridFunction) -> GridFunction:
    """Exact discrete evolution of f under the multiplier e^{-t |xi|^alpha}.

    This is the reference solution operator for the linear flux. alpha may
    equal 2, where the multiplier is the classical heat semigroup (useful as
    an independent cross-check against Gaussian convolution).
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha!r}")
    if not t >= 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    grid = f.grid
    freqs = grid_frequencies(grid)
    mesh = np.meshgrid(*freqs, indexing="ij")
    xi_sq = sum(m**2 for m in mesh)
    symbol = np.exp(-t * xi_sq ** (alpha / 2.0))
    spectrum = np.fft.fftn(f.reshaped())
    evolved = np.fft.ifftn(symbol * spectrum).real
    return GridFunction(grid, evolved.reshape(-1))


@dataclass(frozen=True)
class OperatorReport:
    """Worst-case defects of the structural operator identities over samples."""

    symmetry_defect: float
    row_sum_defect: float
    dissipativity_defect: float
    scale: float
    samples: int
    seed: int


def operator_report(
    op: AtomMeasure | CompensatedOperator, samples: int, seed: int = 0
) -> OperatorReport:
    """Measure symmetry |<g,Lf> - <f,Lg>|, mass |sum Lf h^N|, and positivity
    max(0, <f,Lf>) over seeded random sample pairs.

    All three vanish identically in exact arithmetic; the report's scale field
    carries the magnitude |<g,Lf>| + |<f,Lg>| + ||Lf||_1 against which the
    defects should be compared.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    grid = op.grid
    cell = grid.cell_volume
    apply = apply_compensated if isinstance(op, CompensatedOperator) else apply_truncated
    rng = np.random.default_rng(seed)
    sym = row = dissip = 0.0
    scale = 0.0
    for _ in range(samples):
        fv = rng.standard_normal(grid.npoints)
        gv = rng.standard_normal(grid.npoints)
        f = GridFunction(grid, fv)
        g = GridFunction(grid, gv)
        lf = apply(op, f).values
        lg = apply(op, g).values
        g_lf = float(np.dot(gv, lf)) * cell
        f_lg = float(np.dot(fv, lg)) * cell
        f_lf = float(np.dot(fv, lf)) * cell
        sym = max(sym, abs(g_lf - f_lg))
        row = max(row, abs(float(lf.sum()) * cell))
        dissip = max(dissip, max(0.0, f_lf))
        scale = max(scale, abs(g_lf) + abs(f_lg) + float(np.abs(lf).sum()) * cell, abs(f_lf))
    return OperatorReport(
        symmetry_defect=sym,
        row_sum_defect=row,
        dissipativity_defect=dissip,
        scale=max(scale, 1e-300),
        samples=samples,
        seed=seed,
    )
