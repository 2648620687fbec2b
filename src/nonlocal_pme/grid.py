"""Uniform periodic grids on the box [-R, R)^N and functions living on them.

The grid is cell-centered: along each axis the M nodes sit at
x_i = -R + (i + 1/2) h with h = 2R/M, so no node lies on the box boundary
and integer-offset shifts wrap around periodically. Grid functions are
stored flat in row-major (C) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


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

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)


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


def translated(values: np.ndarray, grid: Grid, offset: Sequence[int]) -> np.ndarray:
    """Periodic values of f(x + j h) for the integer offset vector j.

    The last axis of ``values`` holds the flat grid values; leading axes
    (frames, a stacked pair) are carried along unshifted. This is the one
    place that moves grid data: every jump-difference loop goes through it.
    """
    if len(offset) != grid.dims:
        raise ValueError(f"offset must have one integer per axis ({grid.dims}), got {len(offset)}")
    lead = values.shape[:-1]
    box = values.reshape(lead + grid.shape)
    axes = tuple(range(len(lead), box.ndim))
    return np.roll(box, tuple(-int(j) for j in offset), axis=axes).reshape(values.shape)
