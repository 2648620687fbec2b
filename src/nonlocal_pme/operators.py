"""Discrete nonlocal operators built from atomized jump measures.

The truncated operator sums weighted differences over the kept atoms:
(Lf)(x) = sum_k w_k (f(x + z_k) - f(x)) with periodic shifts. It is symmetric
and translation invariant on the grid, so it is the Fourier multiplier
sum_k w_k (cos(xi . z_k) - 1). The scheme applies it through the real FFT
(``_apply_atoms``) with the measure's cached symbol, whose DC term is exactly
0, so constants map to zero up to rounding. ``apply_truncated`` sums the
shifts atom by atom (``_shift_sum``), gathering blocks of shifted copies
from one wrap-doubled box: that stencil annihilates constants exactly and is
the oracle for the spectral route, which ``operator_report`` measures
against it. Every operator here is an atom set, the compensated one included
(``measures.compensated_atoms``). A spectral multiplier provides the exact
evolution e^{-t |xi|^alpha} for the linear flux on the same grid, which the
solver tests use as a reference solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction, translated_blocks
from .measures import AtomMeasure


def _apply_atoms(atoms: AtomMeasure, values: np.ndarray) -> np.ndarray:
    """sum_k w_k (f(x + z_k) - f(x)) for flat grid values, as the Fourier
    multiplier ``atoms.symbol`` on the real transform of the box.

    The symbol's DC entry is exactly 0, so constants map to zero up to
    rounding; :func:`_shift_sum` is the same operator summed shift by shift.
    """
    grid = atoms.grid
    axes = tuple(range(grid.dims))
    spectrum = np.fft.rfftn(values.reshape(grid.shape), axes=axes)
    return np.fft.irfftn(atoms.symbol * spectrum, s=grid.shape, axes=axes).reshape(-1)


def _shift_sum(atoms: AtomMeasure, values: np.ndarray) -> np.ndarray:
    """sum_k w_k (f(x + z_k) - f(x)), accumulated atom by atom in fixed order.

    Accumulating the differences (rather than the shifted sums) makes the
    zero-row-sum property exact: constants map to exactly zero. The shifted
    copies come in cache-sized blocks of atoms from one wrap-doubled box
    (``grid.translated_blocks``); each block is differenced and weighted in
    place, then added row by row, so the sum is bit for bit the per-atom
    roll loop that the tests keep as its oracle.
    """
    out = np.zeros_like(values)
    for rows, shifted in translated_blocks(values, atoms.grid, atoms.offsets):
        shifted -= values
        shifted *= atoms.weights[rows, None]
        for jump in shifted:
            out += jump
    return out


def apply_truncated(atoms: AtomMeasure, f: GridFunction) -> GridFunction:
    """(Lf)(x) = sum_k w_k (f(x + z_k) - f(x)), periodic in x."""
    if f.grid != atoms.grid:
        raise ValueError("operator and function grids differ")
    return GridFunction(f.grid, _shift_sum(atoms, f.values))


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
    spectral_defect: float
    scale: float
    samples: int
    seed: int


def operator_report(op: AtomMeasure, samples: int, seed: int = 0) -> OperatorReport:
    """Measure symmetry |<g,Lf> - <f,Lg>|, mass |sum Lf h^N|, and positivity
    max(0, <f,Lf>) over seeded random sample pairs, with L the stencil
    (``apply_truncated``).

    All three vanish identically in exact arithmetic; the report's scale field
    carries the magnitude |<g,Lf>| + |<f,Lg>| + ||Lf||_1 against which the
    defects should be compared. The spectral defect checks the route the
    scheme steps with: the largest ||_apply_atoms f - Lf||_inf relative to
    ||Lf||_inf over every sampled f and g, already a relative quantity.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    grid = op.grid
    cell = grid.cell_volume
    rng = np.random.default_rng(seed)
    sym = row = dissip = spectral = 0.0
    scale = 0.0
    for _ in range(samples):
        fv = rng.standard_normal(grid.npoints)
        gv = rng.standard_normal(grid.npoints)
        f = GridFunction(grid, fv)
        g = GridFunction(grid, gv)
        lf = apply_truncated(op, f).values
        lg = apply_truncated(op, g).values
        g_lf = float(np.dot(gv, lf)) * cell
        f_lg = float(np.dot(fv, lg)) * cell
        f_lf = float(np.dot(fv, lf)) * cell
        sym = max(sym, abs(g_lf - f_lg))
        row = max(row, abs(float(lf.sum()) * cell))
        dissip = max(dissip, max(0.0, f_lf))
        for v, lv in ((fv, lf), (gv, lg)):
            gap = float(np.max(np.abs(_apply_atoms(op, v) - lv)))
            spectral = max(spectral, gap / max(float(np.max(np.abs(lv))), 1e-300))
        scale = max(scale, abs(g_lf) + abs(f_lg) + float(np.abs(lf).sum()) * cell, abs(f_lf))
    return OperatorReport(
        symmetry_defect=sym,
        row_sum_defect=row,
        dissipativity_defect=dissip,
        spectral_defect=spectral,
        scale=max(scale, 1e-300),
        samples=samples,
        seed=seed,
    )
