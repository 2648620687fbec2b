"""Monotone scalar nonlinearities, smoothed versions, and companion maps.

The diffusion law takes any continuous nondecreasing map fixed at zero. This
module supplies four families (power law, free-boundary ramp, identity, and
tabulated), an optional smoothing index that averages the map against the
scaled standard bump, antiderivatives, the p-norm companion map whose squared
slope matches curvature times smoothed slope, and the inequality-gap
evaluator used by the dissipation checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .bump import bump_derivative_weighted_nodes, bump_weighted_nodes
from .energy import PathFunction, parabolic_bilinear
from .measures import AssumptionError, AtomMeasure, KernelField

_VALUE_NODES, _VALUE_WEIGHTS = bump_weighted_nodes(64)
_SLOPE_NODES, _SLOPE_WEIGHTS = bump_derivative_weighted_nodes(64)
_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Maps the 16 node values on a segment to the Legendre coefficients of their
# degree-15 interpolant (exact by discrete orthogonality of the GL rule).
_GL16_COEFFS = (
    (np.arange(16) + 0.5)[:, None]
    * np.polynomial.legendre.legvander(_GL16_NODES, 15).T
    * _GL16_WEIGHTS[None, :]
)
# Points per pass of a bump sum. 128 points x 64 nodes makes each temporary
# 64 KB: it stays in cache, and below glibc's 128 KB mmap threshold, so the
# heap recycles it. Temporaries of 256 KB and up are mapped and unmapped on
# every pass, and their page faults cost more than the sums themselves.
_BUMP_BLOCK = 128
# Regularization levels of the p < 2 companion, decreasing toward the limit.
_COMPANION_DELTAS = (1e-2, 1e-3, 1e-4)

_KINDS = ("pme", "stefan", "linear", "table")


@dataclass(frozen=True)
class NonlinearitySpec:
    """A continuous nondecreasing nonlinearity with optional smoothing.

    Kinds:
      pme:    u |u|^(exponent - 1) with exponent > 0
      stefan: sign(u) * max(|u| - latent_width, 0), flat through zero
      linear: u
      table:  monotone piecewise-linear interpolant through the given knots,
              constant beyond the first and last knot, re-anchored so the
              value at zero is exactly zero

    A mollification_index n >= 1 replaces the map by its average against the
    bump of width 1/n, again re-anchored at zero. n = 0 means the raw map.
    """

    kind: str
    mollification_index: int = 0
    exponent: float | None = None
    latent_width: float | None = None
    knots: tuple[float, ...] | None = None
    knot_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}; choose from {_KINDS}")
        n = self.mollification_index
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise ValueError(f"mollification_index must be a nonnegative integer, got {n!r}")
        if self.kind == "pme":
            m = self.exponent
            if m is None or not (np.isfinite(m) and m > 0):
                raise AssumptionError(f"pme exponent must be positive and finite, got {m!r}")
        if self.kind == "stefan":
            a = self.latent_width
            if a is None or not (np.isfinite(a) and a > 0):
                raise AssumptionError(f"stefan latent_width must be positive, got {a!r}")
        if self.kind == "table":
            if self.knots is None or self.knot_values is None:
                raise ValueError("table kind needs knots and knot_values")
            k = np.asarray(self.knots, dtype=np.float64)
            v = np.asarray(self.knot_values, dtype=np.float64)
            if k.ndim != 1 or k.size < 2 or k.shape != v.shape:
                raise ValueError("knots and knot_values must be 1-D of equal length >= 2")
            if not (np.all(np.isfinite(k)) and np.all(np.isfinite(v))):
                raise ValueError("table data must be finite")
            if not np.all(np.diff(k) > 0):
                raise ValueError("knots must be strictly increasing")
            if np.any(np.diff(v) < 0):
                raise AssumptionError("knot_values must be nondecreasing (the map is monotone)")

    @classmethod
    def pme(cls, exponent: float, mollification_index: int = 0) -> "NonlinearitySpec":
        return cls("pme", mollification_index, exponent=float(exponent))

    @classmethod
    def stefan(cls, latent_width: float, mollification_index: int = 0) -> "NonlinearitySpec":
        return cls("stefan", mollification_index, latent_width=float(latent_width))

    @classmethod
    def linear(cls, mollification_index: int = 0) -> "NonlinearitySpec":
        return cls("linear", mollification_index)

    @classmethod
    def table(
        cls,
        knots: Sequence[float],
        knot_values: Sequence[float],
        mollification_index: int = 0,
    ) -> "NonlinearitySpec":
        return cls(
            "table",
            mollification_index,
            knots=tuple(float(x) for x in knots),
            knot_values=tuple(float(x) for x in knot_values),
        )

    # -- raw (unsmoothed) map -------------------------------------------------

    def raw_value(self, u: np.ndarray | float) -> np.ndarray:
        """The nondecreasing map itself, vectorized, with value 0 at 0."""
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "linear":
            return u.copy()
        if self.kind == "pme":
            return np.sign(u) * np.abs(u) ** self.exponent
        if self.kind == "stefan":
            return np.sign(u) * np.maximum(np.abs(u) - self.latent_width, 0.0)
        anchor = np.interp(0.0, self.knots, self.knot_values)
        return np.interp(u, self.knots, self.knot_values) - anchor

    def _raw_primitive(self, w: np.ndarray) -> np.ndarray:
        """Closed-form antiderivative from 0 of the raw map."""
        if self.kind == "linear":
            return 0.5 * w * w
        if self.kind == "pme":
            return np.abs(w) ** (self.exponent + 1.0) / (self.exponent + 1.0)
        if self.kind == "stefan":
            return 0.5 * np.maximum(np.abs(w) - self.latent_width, 0.0) ** 2
        knots = np.asarray(self.knots, dtype=np.float64)
        phi_at = self.raw_value(knots)
        slopes = (phi_at[1:] - phi_at[:-1]) / np.diff(knots)
        seg = 0.5 * (phi_at[1:] + phi_at[:-1]) * np.diff(knots)
        cum = np.concatenate([[0.0], np.cumsum(seg)])

        def anti(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=np.float64)
            idx = np.searchsorted(knots, x, side="right") - 1
            out = np.empty_like(x)
            below = idx < 0
            top = idx >= knots.size - 1
            mid = ~below & ~top
            out[below] = phi_at[0] * (x[below] - knots[0])
            i = idx[mid]
            dx = x[mid] - knots[i]
            out[mid] = cum[i] + phi_at[i] * dx + 0.5 * slopes[i] * dx * dx
            out[top] = cum[-1] + phi_at[-1] * (x[top] - knots[-1])
            return out

        return anti(w) - anti(np.zeros(()))

    # -- smoothed map ----------------------------------------------------------

    def _averaged(
        self,
        raw: Callable[[np.ndarray], np.ndarray],
        u: np.ndarray,
        nodes: np.ndarray = _VALUE_NODES,
        weights: np.ndarray = _VALUE_WEIGHTS,
    ) -> np.ndarray:
        """The bump sum  sum_i weights_i * raw(u - nodes_i / n).

        Each value is a node sum over its own input point alone, taken by
        einsum in a fixed order and without BLAS, so any blocking, batch or
        BLAS thread count gives the same bits. The points run in flat blocks
        of _BUMP_BLOCK, so the points x nodes temporaries stay in cache.
        """
        scaled = nodes / float(self.mollification_index)
        flat = u.reshape(-1)
        out = np.empty(flat.shape)
        for lo in range(0, flat.size, _BUMP_BLOCK):
            shifted = flat[lo : lo + _BUMP_BLOCK, None] - scaled
            vals = raw(shifted.reshape(-1)).reshape(shifted.shape)
            out[lo : lo + _BUMP_BLOCK] = np.einsum("ij,j->i", vals, weights)
        return out.reshape(u.shape)

    @cached_property
    def _anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """The bump sums of the raw map and of its primitive at 0, which
        value and primitive subtract; they depend on the spec alone."""
        zero = np.zeros(())
        return self._averaged(self.raw_value, zero), self._averaged(self._raw_primitive, zero)

    def value(self, u: np.ndarray | float) -> np.ndarray:
        """The map in effect: the raw map, or its bump average re-anchored.

        The anchor subtraction makes value(0) exactly zero in floating point,
        and the bit-symmetric quadrature weights leave affine maps fixed.
        """
        u = np.asarray(u, dtype=np.float64)
        if self.mollification_index == 0:
            return self.raw_value(u)
        return self._averaged(self.raw_value, u) - self._anchors[0]

    def derivative(self, u: np.ndarray | float) -> np.ndarray:
        """Slope of the smoothed map; the raw map (n = 0) has none here.

        The smoothed slope is the convolution against the scaled derivative
        of the bump, not a finite difference, so it is exact on affine maps
        and safe to feed to step-size bounds.
        """
        if self.mollification_index < 1:
            raise AssumptionError("the slope is taken of the smoothed map; use mollification_index >= 1")
        u = np.asarray(u, dtype=np.float64)
        n = float(self.mollification_index)
        return n * self._averaged(self.raw_value, u, _SLOPE_NODES, _SLOPE_WEIGHTS)

    def primitive(self, w: np.ndarray | float) -> np.ndarray:
        """Antiderivative from 0 of the map in effect; nonnegative and convex.

        Exact for the map in effect: the closed form for a raw map; for a
        smoothed map, the bump sum of value taken over the closed-form raw
        antiderivative, less the anchor that value subtracts.
        """
        w = np.asarray(w, dtype=np.float64)
        if self.mollification_index == 0:
            return self._raw_primitive(w)
        value_anchor, primitive_anchor = self._anchors
        return self._averaged(self._raw_primitive, w) - primitive_anchor - value_anchor * w


def _segment_edges(wmax: float, segments: int, grade: float | None) -> np.ndarray:
    if grade is None or grade <= 0.0 or grade >= wmax / segments:
        return np.linspace(0.0, wmax, segments + 1)
    ratio = (wmax / grade) ** (1.0 / (segments - 1))
    mags = np.concatenate([[0.0], grade * ratio ** np.arange(segments)])
    mags[-1] = wmax
    return mags


def _cumulative_integral(
    func: Callable[[np.ndarray], np.ndarray],
    w: np.ndarray,
    grade: float | None = None,
) -> np.ndarray:
    """Integral of func from 0 to each entry of w, from a table of 256
    segments per sign with 16 Gauss-Legendre nodes each.

    Serves the companion map, whose integrand has no closed antiderivative.
    func may return one row of values per input point or a stack of rows
    (one per integrand); the result then carries the same leading axes. An
    all-zero w evaluates nothing and gives one row of zeros.

    Segment edges run from 0 out to the largest query magnitude on each sign,
    geometrically graded toward 0 when grade is given (this resolves
    integrable power-law peaks there), uniform otherwise. func is evaluated
    on the table nodes alone. Each query adds the cumulative full segments
    below it and the integral, in closed form, of the degree-15 Legendre
    interpolant of its segment's node values up to the query; at a segment's
    right edge that is the segment's own Gauss-Legendre sum.
    """
    w = np.asarray(w, dtype=np.float64)
    out = None
    for sgn in (1.0, -1.0):
        mask = (w * sgn) > 0.0
        if not np.any(mask):
            continue
        part = _one_sided_integral(func, w[mask], sgn, grade)
        if out is None:
            out = np.zeros(part.shape[:-1] + w.shape)
        out[..., mask] = part
    return out if out is not None else np.zeros(w.shape)


def _one_sided_integral(
    func: Callable[[np.ndarray], np.ndarray],
    q: np.ndarray,
    sgn: float,
    grade: float | None,
) -> np.ndarray:
    """_cumulative_integral for the flat queries q, all of sign sgn; the
    table's temporaries are freed on return, before the other sign's."""
    mags = _segment_edges(float(np.max(q * sgn)), 256, grade)
    edges = sgn * mags
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL16_NODES[None, :]
    vals = func(nodes.reshape(-1))
    vals = vals.reshape(vals.shape[:-1] + nodes.shape)
    rows = vals.shape[:-2]
    sums = np.einsum("...sj,j->...s", vals, _GL16_WEIGHTS) * half
    cum = np.concatenate([np.zeros(rows + (1,)), np.cumsum(sums, axis=-1)], axis=-1)
    idx = np.clip(np.searchsorted(mags, np.abs(q)) - 1, 0, mags.size - 2)
    t = (q - mid[idx]) / half[idx]
    # A_k(t) = integral of P_k from -1 to t: t + 1 for k = 0, else
    # (P_{k+1}(t) - P_{k-1}(t)) / (2k + 1).
    legendre = np.polynomial.legendre.legvander(t, 16)
    anti = np.empty((t.size, 16))
    anti[:, 0] = t + 1.0
    anti[:, 1:] = (legendre[:, 2:] - legendre[:, :-2]) / (2.0 * np.arange(1, 16) + 1.0)
    # einsum, like every sum here, calls no BLAS: a first BLAS matrix product
    # alone touches about 200 KB of OpenBLAS buffer.
    partial = np.einsum("qk,kj->qj", anti, _GL16_COEFFS)
    parts = [
        cum[row][idx] + half[idx] * np.einsum("qj,qj->q", partial, vals[row][idx])
        for row in np.ndindex(rows)
    ]
    return np.stack(parts).reshape(rows + q.shape)


@dataclass(frozen=True)
class PowerEntropy:
    """|xi|^p for p > 1, with slope, curvature, and regularized curvature."""

    p: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.p) and self.p > 1.0):
            raise AssumptionError(f"entropy power must exceed 1, got {self.p!r}")

    def value(self, xi: np.ndarray | float) -> np.ndarray:
        return np.abs(np.asarray(xi, dtype=np.float64)) ** self.p

    def derivative(self, xi: np.ndarray | float) -> np.ndarray:
        xi = np.asarray(xi, dtype=np.float64)
        return self.p * np.sign(xi) * np.abs(xi) ** (self.p - 1.0)

    def second_derivative(self, xi: np.ndarray | float) -> np.ndarray:
        """p(p-1)|xi|^(p-2); infinite at 0 when p < 2."""
        xi = np.asarray(xi, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return self.p * (self.p - 1.0) * np.abs(xi) ** (self.p - 2.0)

    def regularized_second(self, xi: np.ndarray | float, delta: float) -> np.ndarray:
        """p(p-1)(delta^2 + xi^2)^((p-2)/2): finite everywhere, below the
        exact curvature for p < 2, and increasing toward it as delta drops."""
        xi = np.asarray(xi, dtype=np.float64)
        return self.p * (self.p - 1.0) * (delta * delta + xi * xi) ** (0.5 * (self.p - 2.0))


@dataclass(frozen=True)
class LpCompanion:
    """Nondecreasing companion whose squared slope is curvature times slope.

    value(w) integrates sqrt(curvature * smoothed slope) from 0 to w. For
    p < 2 the curvature blows up at 0, so the integral is evaluated with the
    regularized curvature at delta = 1e-2, 1e-3, 1e-4, checked for
    monotone convergence, and the last value is reported. The three levels
    share one table: one mesh, graded for the smallest delta, and one
    evaluation of the smoothed slope on its nodes. The map is odd whenever
    the underlying nonlinearity is odd.
    """

    spec: NonlinearitySpec
    entropy: PowerEntropy

    def __post_init__(self) -> None:
        if self.spec.mollification_index < 1:
            raise AssumptionError("the companion map needs a smoothed slope; use mollification_index >= 1")

    def _slope_floor(self, x: np.ndarray) -> np.ndarray:
        # The smoothed slope is nonnegative analytically; clip the couple of
        # ulps of quadrature noise so the square root stays real.
        return np.maximum(self.spec.derivative(x), 0.0)

    def value(self, w: np.ndarray | float) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if not np.any(w != 0.0):
            return np.zeros_like(w)
        scale = float(np.max(np.abs(w)))
        if self.entropy.p >= 2.0:
            def integrand(x: np.ndarray) -> np.ndarray:
                return np.sqrt(self.entropy.second_derivative(x) * self._slope_floor(x))

            grade = None if self.entropy.p == 2.0 else 1e-6 * scale
            return _cumulative_integral(integrand, w, grade=grade)

        def integrands(x: np.ndarray) -> np.ndarray:
            slope = self._slope_floor(x)
            rows = [self.entropy.regularized_second(x, d) * slope for d in _COMPANION_DELTAS]
            return np.sqrt(np.stack(rows))

        levels = _cumulative_integral(
            integrands, w, grade=min(0.25 * _COMPANION_DELTAS[-1], 1e-3 * scale)
        )
        # The regularized curvature rises pointwise as delta shrinks, so the
        # values must approach the limit from below in |.|.
        steps = np.diff(levels, axis=0) * np.sign(w)
        if np.any(steps < -1e-10 * (1.0 + np.abs(levels[1:]))):
            raise AssumptionError(
                "regularized companion values moved away from the limit as delta shrank"
            )
        return levels[-1]


def lp_companion(spec: NonlinearitySpec, p: float) -> LpCompanion:
    """Companion map for the p-norm dissipation inequality.

    Oracle for pme exponent 2, p = 2, large smoothing index: the integrand
    tends to sqrt(2 * 2|xi|), so value(1) tends to 4/3.
    """
    return LpCompanion(spec=spec, entropy=PowerEntropy(float(p)))


def lipschitz_bound(spec: NonlinearitySpec, radius: float) -> float:
    """Lipschitz constant of the map in effect on [-radius, radius].

    Analytic for the identity, ramp, table, and power kinds with exponent at
    least one (using that the smoothing average cannot increase a Lipschitz
    constant over the slightly larger reach interval). For power kinds with
    exponent below one the smoothed map is estimated from sampled difference
    quotients; that estimate is not a certified bound.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise AssumptionError(f"radius must be positive and finite, got {radius!r}")
    n = spec.mollification_index
    reach = radius + (1.0 / n if n >= 1 else 0.0)
    if spec.kind in ("linear", "stefan"):
        return 1.0
    if spec.kind == "table":
        slopes = np.diff(np.asarray(spec.knot_values)) / np.diff(np.asarray(spec.knots))
        return float(np.max(slopes))
    m = spec.exponent
    if m >= 1.0:
        return float(m * reach ** (m - 1.0))
    if n == 0:
        raise AssumptionError(
            "power nonlinearity with exponent below one has unbounded slope at zero; "
            "use a mollification index of at least one"
        )
    xs = np.linspace(-radius, radius, 2**14 + 1)
    vals = spec.value(xs)
    quotients = np.abs(np.diff(vals)) / np.diff(xs)
    slope_cap = np.max(np.maximum(spec.derivative(xs), 0.0))
    return float(max(np.max(quotients), slope_cap))


def stroock_varopoulos_gap(
    companion: LpCompanion,
    psi: PathFunction,
    measure: AtomMeasure | KernelField,
) -> float:
    """Time-integrated form of eta'(psi) against phi(psi), minus the squared
    seminorm of xi(psi), for the entropy eta, flux phi and companion xi of
    companion. Nonnegative, since xi'^2 <= eta'' * phi' (Stroock-Varopoulos).
    """
    outer_path = psi.map_values(companion.entropy.derivative)
    inner_path = psi.map_values(companion.spec.value)
    xi = psi.map_values(companion.value)
    return parabolic_bilinear(measure, outer_path, inner_path) - parabolic_bilinear(measure, xi, xi)
