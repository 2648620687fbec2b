"""Quadratic energy forms of jump measures and the approximation machinery.

The central object is the bilinear form

    B[f, g] = (1/2) h^N sum_x sum_k w_k(x) (f(x+z_k) - f(x)) (g(x+z_k) - g(x)),

the discrete analogue of the nonlocal Dirichlet form of a jump measure. Its
diagonal is a seminorm; integrating frame-wise in time (left-endpoint rule)
gives the parabolic seminorm used by every decay estimate in the package.

Two independent routes to the fractional Sobolev seminorm of order alpha/2
are provided: a Fourier-side sum with Parseval-consistent normalization, and
an FFT-free quadrature of the double-integral form (near-field Taylor term +
piecewise-linear correlation quadrature + analytic far tail). Their agreement
is a cross-check of the symbol normalization, so the two implementations
deliberately share no code.

The remaining helpers (soft shrink-clamp, space-time mollification)
reproduce, at desk scale, the approximation steps used to upgrade
distributional solutions to energy solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bump import discrete_bump_kernel, standard_bump
from .grid import Grid, GridFunction, translated, translated_blocks
from .measures import AtomMeasure, KernelField, _check_order, normalization_multiplier
from .operators import grid_frequencies


@dataclass(frozen=True)
class PathFunction:
    """Uniformly sampled time-dependent grid function on [0, T].

    frames has shape (K+1, npoints) with frame k at time t_k = k dt; the
    times must start at 0 and be uniformly spaced (non-uniform grids are
    rejected, the discrete balance identities need a single dt). The path
    holds read-only copies, except that a frame array which is already
    read-only and owns its data is adopted without one.
    """

    grid: Grid
    times: np.ndarray = field(repr=False)
    frames: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64).reshape(-1)
        frames = np.asarray(self.frames, dtype=np.float64)
        if times.size < 2:
            raise ValueError("a path needs at least two time levels")
        if frames.shape != (times.size, self.grid.npoints):
            raise ValueError(
                f"frames must have shape (ntimes, npoints) = "
                f"({times.size}, {self.grid.npoints}), got {frames.shape}"
            )
        if times[0] != 0.0:
            raise ValueError("path times must start at 0")
        steps = np.diff(times)
        if np.any(steps <= 0):
            raise ValueError("path times must be strictly increasing")
        dt = steps[0]
        if np.any(np.abs(steps - dt) > 1e-12 * dt):
            raise ValueError("path times must be uniformly spaced")
        if not np.all(np.isfinite(frames)):
            raise ValueError("path frames must be finite")
        times = times.copy()
        if frames.flags.writeable or not frames.flags.owndata:
            frames = frames.copy()
        times.flags.writeable = False
        frames.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "frames", frames)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    @property
    def nsteps(self) -> int:
        return self.times.size - 1

    def frame(self, k: int) -> GridFunction:
        return GridFunction(self.grid, self.frames[k])

    @classmethod
    def from_frames(cls, grid: Grid, frames: np.ndarray, duration: float) -> "PathFunction":
        frames = np.asarray(frames, dtype=np.float64)
        times = np.linspace(0.0, duration, frames.shape[0])
        return cls(grid, times, frames)

    @classmethod
    def sampled(
        cls,
        grid: Grid,
        duration: float,
        nsteps: int,
        func: Callable[[np.ndarray, float], np.ndarray],
    ) -> "PathFunction":
        """Sample func(coords, t) on K+1 uniform time levels."""
        coords = grid.coordinates()
        times = np.linspace(0.0, duration, nsteps + 1)
        frames = np.stack([np.asarray(func(coords, t), dtype=np.float64) for t in times])
        return cls(grid, times, frames)

    def map_values(self, func: Callable[[np.ndarray], np.ndarray]) -> "PathFunction":
        return PathFunction(self.grid, self.times, func(self.frames))


def _jump_form(measure: AtomMeasure | KernelField, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(1/2) h^N sum_x sum_k w_k(x) (f(x+z_k) - f(x)) (g(x+z_k) - g(x)).

    f and g are value arrays of the same shape with the flat grid on the last
    axis; the form is taken once for each leading (frame) index, over the
    stacked pair (f alone when g is f).

    For an AtomMeasure it is the Parseval sum
    (h^N / M^N) sum_xi (-symbol(xi)) (Re f^ Re g^ + Im f^ Im g^) over one
    rfftn of the stack, with the measure's cached symbol. On the half
    spectrum every column counts twice except the zero column and, for even
    M, the Nyquist column. The product is symmetric in f and g term by term,
    and a zero f has a zero spectrum, so the form is exactly symmetric and
    exactly 0 on a zero difference. A KernelField has weights that depend on
    x and so no symbol: its form is summed atom by atom over blocks of
    shifted copies of the stack.
    """
    grid = measure.grid
    stack = f[None] if g is f else np.stack([f, g])
    if isinstance(measure, KernelField):
        total = np.zeros(stack.shape[1:-1])
        for rows, shifted in translated_blocks(stack, grid, measure.offsets):
            shifted -= stack
            for jumps, weights in zip(shifted, measure.weights[:, rows].T):
                total += np.dot(jumps[0] * jumps[-1], weights)
        return 0.5 * grid.cell_volume * total
    axes = tuple(range(stack.ndim - 1, stack.ndim - 1 + grid.dims))
    spectra = np.fft.rfftn(stack.reshape(stack.shape[:-1] + grid.shape), axes=axes)
    products = spectra[0].real * spectra[-1].real + spectra[0].imag * spectra[-1].imag
    columns = np.full(measure.symbol.shape[-1], 2.0)
    columns[0] = 1.0
    if grid.points_per_axis % 2 == 0:
        columns[-1] = 1.0
    weights = (columns * -measure.symbol).reshape(-1)
    flat = products.reshape(products.shape[: products.ndim - grid.dims] + (-1,))
    return grid.cell_volume / grid.npoints * (flat @ weights)


def bilinear(measure: AtomMeasure | KernelField, f: GridFunction, g: GridFunction) -> float:
    """(1/2) h^N sum over points and atoms of w * (difference of f)(difference of g),
    the one-frame case of the jump-difference form."""
    if f.grid != measure.grid or g.grid != measure.grid:
        raise ValueError("function grids do not match the measure's grid")
    return float(_jump_form(measure, f.values, g.values))


def parabolic_bilinear(
    measure: AtomMeasure | KernelField, f: PathFunction, g: PathFunction
) -> float:
    """Left-endpoint time quadrature dt * sum_{k<K} B[f(t_k), g(t_k)], with the
    forms of all frames but the last taken in one stacked call: one rfftn of
    the frame stack for an AtomMeasure, one shift per atom for a KernelField."""
    if f.grid != g.grid or f.times.shape != g.times.shape or not np.array_equal(f.times, g.times):
        raise ValueError("paths must share grid and time levels")
    if f.grid != measure.grid:
        raise ValueError("function grids do not match the measure's grid")
    head = f.frames[:-1]
    return f.dt * float(_jump_form(measure, head, head if g is f else g.frames[:-1]).sum())


def parabolic_seminorm(measure: AtomMeasure | KernelField, f: PathFunction) -> float:
    """sqrt of the left-rule time integral of the frame energies."""
    return math.sqrt(max(0.0, parabolic_bilinear(measure, f, f)))


def time_tail(f: PathFunction) -> PathFunction:
    """Right-tail time sums: g(., t_k) = dt * sum_{j >= k, j < K} f(., t_j).

    The final frame is zero. For f constant in time with frame F this gives
    exactly (T - t_k) F, and the parabolic energy of the result is bounded by
    (T^2/2)(1 + dt/T) times that of f.
    """
    partial = np.cumsum(f.frames[:-1][::-1], axis=0)[::-1] * f.dt
    frames = np.vstack([partial, np.zeros((1, f.grid.npoints))])
    return PathFunction(f.grid, f.times, frames)


def sobolev_seminorm_fourier(alpha: float, f: GridFunction) -> float:
    """Fourier-side fractional seminorm of order alpha/2 (returns the root).

    Computes sqrt( (h^N / M^N) * sum_k |xi_k|^alpha |FFT(f)_k|^2 ) with
    xi_k = pi k / R per axis; the normalization is Parseval-consistent: at
    alpha = 0 the expression reduces to the discrete L^2 norm.
    """
    _check_order(alpha)
    grid = f.grid
    freqs = grid_frequencies(grid)
    mesh = np.meshgrid(*freqs, indexing="ij")
    xi_sq = sum(m**2 for m in mesh)
    spectrum = np.fft.fftn(f.reshaped())
    weight = xi_sq ** (alpha / 2.0)
    total = float(np.sum(weight * np.abs(spectrum) ** 2))
    return math.sqrt(total * grid.cell_volume / grid.npoints)


def sobolev_seminorm_direct(alpha: float, f: GridFunction) -> float:
    """FFT-free fractional seminorm via the double-integral form (1-D only).

    Uses the normalized fractional density c |z|^(-1-alpha) and the identity
    energy = int (||f||^2 - C(z)) dmu(z) with the autocorrelation
    C(z) = int f(x) f(x+z) dx. Three ranges:

    * |z| <= r0 = 2h: second-order Taylor, (1/2) ||f'||^2 int z^2 dmu, with
      a central-difference derivative;
    * r0 < |z| <= r1 = min(R - h, 3R/4): piecewise-linear interpolation of
      the grid autocorrelation integrated against the exact radial
      antiderivatives;
    * |z| > r1: ||f||^2 times the analytic tail mass (the correlation is
      negligible there for rapidly decaying f).

    The correlation is evaluated by direct zero-padded summation, so this
    route shares no machinery with sobolev_seminorm_fourier.
    """
    c = normalization_multiplier(1, alpha)
    grid = f.grid
    if grid.dims != 1:
        raise NotImplementedError("the double-integral route is implemented in 1-D")
    h = grid.spacing
    j_near = 2
    j_far = int(math.floor(min(grid.halfwidth - h, 0.75 * grid.halfwidth) / h))
    if j_far <= j_near:
        raise ValueError("radii leave no room for the band quadrature")
    near_radius = j_near * h

    values = f.values
    norm_sq = h * float(np.dot(values, values))

    # Near field: (1/2) ||Df||^2 * int_{|z|<=r0} z^2 dmu, central differences.
    ahead, behind = translated(values, grid, [(1,), (-1,)])
    dfv = (ahead - behind) / (2.0 * h)
    deriv_sq = h * float(np.dot(dfv, dfv))
    second_moment = 2.0 * c * near_radius ** (2.0 - alpha) / (2.0 - alpha)
    near_term = 0.5 * deriv_sq * second_moment

    # Band: correlation knots at z = j h by direct zero-padded summation.
    js = np.arange(j_near, j_far + 1)
    corr = np.array([float(np.dot(values[: values.size - j], values[j:])) * h for j in js])
    g_knots = norm_sq - corr
    z = js * h
    # One-sided interval integrals of 1 and z against c z^(-1-alpha).
    z_lo, z_hi = z[:-1], z[1:]
    m0 = (c / alpha) * (z_lo**-alpha - z_hi**-alpha)
    if alpha == 1.0:
        m1 = c * np.log(z_hi / z_lo)
    else:
        m1 = (c / (1.0 - alpha)) * (z_hi ** (1.0 - alpha) - z_lo ** (1.0 - alpha))
    slope = (g_knots[1:] - g_knots[:-1]) / (z_hi - z_lo)
    intercept = g_knots[:-1] - slope * z_lo
    band_term = 2.0 * float(np.sum(intercept * m0 + slope * m1))

    # Far tail: correlation treated as zero beyond r1.
    tail_mass = 2.0 * c / (alpha * (j_far * h) ** alpha)
    far_term = tail_mass * norm_sq

    return math.sqrt(max(0.0, near_term + band_term + far_term))


def shrink_clamp(x: np.ndarray | float, delta: float) -> np.ndarray:
    """Soft-shrink by delta then clamp to [-1/delta, 1/delta].

    Kills values with |x| <= delta, subtracts delta from the rest, and caps
    the magnitude at 1/delta. A normal contraction: 1-Lipschitz, |output| <=
    |input|, and output = 0 iff |x| <= delta.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=np.float64)
    shrunk = x - np.clip(x, -delta, delta)
    return np.clip(shrunk, -1.0 / delta, 1.0 / delta)


def _mollify_space_time(path_frames: np.ndarray, grid: Grid, ks: int, kt: int) -> np.ndarray:
    """Convolve with the product bump kernel: wrap in space, zero-pad in time.

    The spatial kernel is the radial bump sampled at the offsets j with
    |j| < ks + 1 (in 1-D, discrete_bump_kernel(ks)); it is applied as a sum of
    periodic translates, one per offset of nonzero weight, added in offset
    order.
    """
    out = path_frames
    if ks > 0:
        axes = np.meshgrid(*[np.arange(-ks, ks + 1)] * grid.dims, indexing="ij")
        offsets = np.stack([a.reshape(-1) for a in axes], axis=-1)
        weights = standard_bump(np.sqrt(np.sum(offsets**2, axis=1)) / (ks + 1.0))
        weights /= weights.sum()
        keep = weights > 0
        offsets, weights = offsets[keep], weights[keep]
        total = np.zeros_like(out)
        for rows, shifted in translated_blocks(out, grid, offsets):
            shifted *= weights[rows, None, None]
            for term in shifted:
                total += term
        out = total
    if kt > 0:
        nt = out.shape[0]
        padded = np.pad(out, ((kt, kt), (0, 0)))
        out = sum(w * padded[i : i + nt] for i, w in enumerate(discrete_bump_kernel(kt)))
    return out


def density_approximation(f: PathFunction, delta: float) -> PathFunction:
    """Smooth, truncated, re-smoothed surrogate of f supported in t <= T - delta.

    Pipeline: restrict to the time band [2 delta, T - 3 delta]; mollify in
    space-time with the product bump of radius delta; apply the shrink-clamp;
    mollify again. The discrete kernel radii are floor(delta / step), so the
    claimed support bound holds exactly on the grid.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if delta > f.duration / 5.0:
        raise ValueError(
            f"delta = {delta} is too large: the time band [2 delta, T - 3 delta] "
            f"is empty unless delta <= T/5 = {f.duration / 5.0}"
        )
    dt = f.dt
    h = f.grid.spacing
    kt = int(math.floor(delta / dt))
    ks = int(math.floor(delta / h))
    # Tolerate one-ulp rounding so the delta = T/5 boundary case (a single
    # admissible time slice) is not emptied by floating-point arithmetic.
    slack = 64.0 * np.finfo(np.float64).eps * f.duration
    band = (f.times >= 2.0 * delta - slack) & (f.times <= f.duration - 3.0 * delta + slack)
    restricted = f.frames * band[:, None]
    first = _mollify_space_time(restricted, f.grid, ks, kt)
    clamped = shrink_clamp(first, delta)
    second = _mollify_space_time(clamped, f.grid, ks, kt)
    return PathFunction(f.grid, f.times, second)
