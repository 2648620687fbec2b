"""Uniform periodic grids on the box [-R, R)^N and functions living on them.

The grid is cell-centered: along each axis the M nodes sit at
x_i = -R + (i + 1/2) h with h = 2R/M, so no node lies on the box boundary
and integer-offset shifts wrap around periodically. Grid functions are
stored flat in row-major (C) order. Shifted copies are gathered from one
copy of the box doubled by wrap-around along each axis (``translated``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid with M points per axis on [-R, R)^N."""

    dims: int
    points_per_axis: int
    halfwidth: float

    def __post_init__(self) -> None:
        if not isinstance(self.dims, int) or self.dims < 1:
            raise ValueError(f"dims must be a positive integer, got {self.dims!r}")
        if not isinstance(self.points_per_axis, int) or self.points_per_axis < 1:
            raise ValueError(
                f"points_per_axis must be a positive integer, got {self.points_per_axis!r}"
            )
        if not (self.halfwidth > 0 and math.isfinite(self.halfwidth)):
            raise ValueError(f"halfwidth must be positive and finite, got {self.halfwidth!r}")

    @property
    def spacing(self) -> float:
        """Mesh width h = 2R/M."""
        return 2.0 * self.halfwidth / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dims

    @property
    def npoints(self) -> int:
        return self.points_per_axis**self.dims

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dims

    def axis_coordinates(self) -> np.ndarray:
        """The M cell centers along one axis."""
        m = self.points_per_axis
        return -self.halfwidth + (np.arange(m) + 0.5) * self.spacing

    def coordinates(self) -> np.ndarray:
        """Array of shape (npoints, dims) with the coordinates of every node."""
        axes = [self.axis_coordinates()] * self.dims
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on a grid, flat row-major storage.

    Values are validated to be finite and are frozen after construction;
    all operations return new objects.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if values.size != self.grid.npoints:
            raise ValueError(
                f"expected {self.grid.npoints} values for this grid, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: Grid, func: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        """Sample ``func`` at the grid nodes.

        ``func`` receives an (npoints, dims) coordinate array and must return
        npoints values (or broadcast to that).
        """
        coords = grid.coordinates()
        values = np.broadcast_to(np.asarray(func(coords), dtype=np.float64), (grid.npoints,))
        return cls(grid, values)

    def reshaped(self) -> np.ndarray:
        """Read-only view of the values in (M, ..., M) box shape."""
        return self.values.reshape(self.grid.shape)


def lp_norms(values: np.ndarray, cell_volume: float, p: float) -> np.ndarray:
    """Discrete L^p norm (sum |f|^p h^N)^(1/p) along the last axis, so a stack
    of frames gives one norm per frame; p = inf gives max |f|.

    Exponents below 1 are rejected: the quantity is not a norm there.
    """
    if not p >= 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p!r}")
    if math.isinf(p):
        return np.max(np.abs(values), axis=-1)
    return (cell_volume * np.sum(np.abs(values) ** p, axis=-1)) ** (1.0 / p)


def lp_norm(f: GridFunction, p: float) -> float:
    """The one-frame case of :func:`lp_norms`."""
    return float(lp_norms(f.values, f.grid.cell_volume, p))


def mass(f: GridFunction) -> float:
    """Signed integral sum(f) h^N."""
    return float(f.values.sum() * f.grid.cell_volume)


# Values per block of the blocked loops, translated_blocks here and the frame
# reductions of solver.run: 16,384 float64 values, 128 KB. As with
# nonlinearity._BUMP_BLOCK, each temporary then stays in cache and below
# glibc's 128 KB mmap threshold, so the heap recycles it; whole-stack
# temporaries are mapped and page-faulted afresh on every pass.
_BLOCK_POINTS = 16384


def _offset_starts(grid: Grid, offsets: Sequence[int] | np.ndarray) -> np.ndarray:
    """Offsets (one of shape (dims,) or a block of shape (K, dims)) reduced
    mod M, which is where each shifted copy starts in the doubled box."""
    block = np.asarray(offsets, dtype=np.int64)
    if block.ndim not in (1, 2) or block.shape[-1] != grid.dims:
        raise ValueError(
            f"offsets must have one integer per axis ({grid.dims}), got shape {block.shape}"
        )
    return block % grid.points_per_axis


def _wrapped_windows(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Every periodic translate of the box, as one view of a wrap-doubled copy.

    The box is concatenated with itself along each grid axis once; entry
    [s_1, ..., s_N] of the result is the window of that copy starting at s,
    so its value at x is f(x + s h). The start axes come first, then the
    leading axes of ``values``, then the window, so a gather over starts
    comes out C-contiguous in (K,) + leading + box shape.
    """
    lead = values.shape[:-1]
    box = values.reshape(lead + grid.shape)
    axes = tuple(range(len(lead), box.ndim))
    for axis in axes:
        box = np.concatenate([box, box], axis=axis)
    windows = sliding_window_view(box, grid.shape, axis=axes)
    return np.moveaxis(windows, axes, tuple(range(grid.dims)))


def translated(
    values: np.ndarray, grid: Grid, offsets: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Periodic values of f(x + j h) for the integer offset vector j.

    ``offsets`` is one offset of shape (dims,), giving an array shaped like
    ``values``, or a block of shape (K, dims), giving the K shifted copies
    stacked as (K,) + values.shape. Offsets alias mod M. The last axis of
    ``values`` holds the flat grid values; leading axes (frames, a stacked
    pair) are carried along unshifted. This is the one place that moves grid
    data: every jump-difference loop goes through it or through
    :func:`translated_blocks`, and both gather the shifted copies from one
    wrap-doubled copy of the box.
    """
    starts = _offset_starts(grid, offsets)
    shifted = _wrapped_windows(values, grid)[tuple(np.atleast_2d(starts).T)]
    return shifted.reshape(starts.shape[:-1] + values.shape)


def translated_blocks(
    values: np.ndarray, grid: Grid, offsets: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """:func:`translated` for a (K, dims) block of offsets, taken in
    consecutive row blocks of at most _BLOCK_POINTS values (one row if
    a copy is larger), all gathered from one wrap-doubled copy of the box.

    Yields (rows, shifted): the slice of offset rows and their shifted
    copies, shape (rows,) + values.shape. Each block is a fresh array that
    the caller may overwrite.
    """
    starts = _offset_starts(grid, offsets).reshape(-1, grid.dims)
    windows = _wrapped_windows(values, grid)
    step = max(1, _BLOCK_POINTS // values.size)
    for lo in range(0, len(starts), step):
        block = starts[lo : lo + step]
        shifted = windows[tuple(block.T)]
        yield slice(lo, lo + len(block)), shifted.reshape(block.shape[:1] + values.shape)
