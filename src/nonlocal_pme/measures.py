"""Symmetric jump measures and their grid atomizations.

A jump measure assigns nonnegative weight to jump vectors z != 0 and must be
even (invariant under z -> -z) with a finite second moment near the origin
and finite total mass away from it. Two specification kinds are supported:

* ``fractional``: density c |z|^(-N-alpha) with alpha in (0, 2). When no
  multiplier is given, c is normalized so the generated operator has Fourier
  symbol -|xi|^alpha (under the unitary transform); for N = 1, alpha = 1 this
  gives c = 1/pi.
* ``atomic``: finitely many pairs (z, weight), even to 1e-12 relative; each
  mirrored pair enters as its mean, so the stored weights are bit-even.

Atomization restricts a measure to the annulus r < |z| <= tail and replaces
it by weighted integer-offset atoms on a grid. In one dimension the annulus
is partitioned between consecutive kept offsets (outer edges clamped to r and
tail), so the kept mass is conserved exactly up to quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .grid import Grid, GridFunction, translated


class AssumptionError(ValueError):
    """A structural assumption on the measure or its moments fails."""


def sphere_area(dims: int) -> float:
    """Surface area of the unit sphere in R^N (2 for N = 1)."""
    return 2.0 * math.pi ** (dims / 2.0) / math.gamma(dims / 2.0)


def normalization_multiplier(dims: int, alpha: float) -> float:
    """Multiplier c making the fractional operator's symbol equal -|xi|^alpha.

    c = alpha 2^(alpha-1) Gamma((N+alpha)/2) / (pi^(N/2) Gamma(1-alpha/2)).
    """
    if not 0.0 < alpha < 2.0:
        raise AssumptionError(
            f"fractional order must lie in (0, 2), got {alpha!r}: "
            "outside this range the jump measure loses either the finite "
            "second moment near the origin or local integrability"
        )
    num = alpha * 2.0 ** (alpha - 1.0) * math.gamma((dims + alpha) / 2.0)
    den = math.pi ** (dims / 2.0) * math.gamma(1.0 - alpha / 2.0)
    return num / den


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Specification of a symmetric jump measure (not yet grid-bound)."""

    kind: str
    dims: int = 1
    alpha: float | None = None
    multiplier: float | None = None
    atoms: tuple[tuple[tuple[float, ...], float], ...] | None = None

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.kind == "fractional":
            if self.alpha is None or not 0.0 < self.alpha < 2.0:
                raise AssumptionError(
                    f"fractional order must lie in (0, 2), got {self.alpha!r}: "
                    "alpha >= 2 breaks integrability of |z|^2 near the origin "
                    "against |z|^(-N-alpha), alpha <= 0 breaks the tail mass"
                )
            c = self.multiplier
            if c is not None and not (math.isfinite(c) and c >= 0):
                raise ValueError(f"multiplier must be finite and nonnegative, got {c!r}")
        elif self.kind == "atomic":
            if self.atoms is None:
                raise ValueError("atomic kind requires atom pairs")
            object.__setattr__(self, "atoms", _validated_atoms(self.atoms, self.dims))
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @classmethod
    def fractional(
        cls, alpha: float, dims: int = 1, multiplier: float | None = None
    ) -> "LevyMeasureSpec":
        return cls(kind="fractional", dims=dims, alpha=alpha, multiplier=multiplier)

    @classmethod
    def atomic(
        cls, atoms: Iterable[tuple[Sequence[float], float]], dims: int = 1
    ) -> "LevyMeasureSpec":
        packed = tuple((tuple(float(c) for c in z), float(w)) for z, w in atoms)
        return cls(kind="atomic", dims=dims, atoms=packed)

    @property
    def effective_multiplier(self) -> float:
        """Multiplier for fractional kind, defaulting to the symbol-normalizing one."""
        if self.kind != "fractional":
            raise ValueError("effective_multiplier only applies to the fractional kind")
        if self.multiplier is not None:
            return self.multiplier
        assert self.alpha is not None
        return normalization_multiplier(self.dims, self.alpha)


def _validated_atoms(
    atoms: tuple[tuple[tuple[float, ...], float], ...], dims: int
) -> tuple[tuple[tuple[float, ...], float], ...]:
    table: dict[tuple[float, ...], float] = {}
    for z, w in atoms:
        z = tuple(float(c) for c in z)
        if len(z) != dims:
            raise ValueError(f"atom location {z} does not have {dims} components")
        if not math.isfinite(w):
            raise ValueError(f"atom weights must be finite, got {w}")
        if w < 0:
            raise ValueError(f"atom weight must be nonnegative, got {w}")
        if all(c == 0.0 for c in z):
            raise ValueError("atomic measures may not charge the origin")
        table[z] = table.get(z, 0.0) + float(w)
    even = {}
    for z, w in table.items():
        neg = tuple(-c for c in z)
        if not math.isclose(table.get(neg, math.nan), w, rel_tol=1e-12, abs_tol=0.0):
            raise AssumptionError(
                f"atomic measure is not even: weight at {z} is {w} but weight "
                f"at {neg} is {table.get(neg)}"
            )
        # the sum is commutative, so z and -z get the same bits
        even[z] = 0.5 * (w + table[neg])
    return tuple(sorted(even.items()))


def _radial_tail_integral(spec: LevyMeasureSpec, lower: float, upper: float, power: int) -> float:
    """Integral of |z|^power over the annulus lower < |z| <= upper against the
    fractional density c |z|^(-N-alpha), in closed form:
    S_{N-1} c int s^(power - alpha - 1) ds.
    """
    area = sphere_area(spec.dims)
    c = spec.effective_multiplier
    assert spec.alpha is not None
    expo = power - spec.alpha  # integrand s^(expo - 1) after surface weighting
    if upper == math.inf:
        if expo >= 0:
            raise AssumptionError(
                f"moment of order {power} diverges at infinity for alpha = {spec.alpha}"
            )
        return area * c * lower**expo / (-expo)
    if expo == 0:
        return area * c * math.log(upper / lower) if lower > 0 else math.inf
    if lower == 0.0:
        if expo <= 0:
            raise AssumptionError(
                f"moment of order {power} diverges at the origin for alpha = {spec.alpha}"
            )
        return area * c * upper**expo / expo
    return area * c * (upper**expo - lower**expo) / expo


def annulus_mass(spec: LevyMeasureSpec, lower: float, upper: float) -> float:
    """Measure of the annulus lower < |z| <= upper (upper may be inf)."""
    if lower >= upper:
        return 0.0
    if spec.kind == "atomic":
        assert spec.atoms is not None
        total = 0.0
        for z, w in spec.atoms:
            r = math.sqrt(sum(c * c for c in z))
            if lower < r <= upper or (upper == math.inf and r > lower):
                total += w
        return total
    return float(_radial_tail_integral(spec, lower, upper, power=0))


def second_moment_within(spec: LevyMeasureSpec, radius: float) -> float:
    """Integral of |z|^2 over 0 < |z| <= radius."""
    if radius <= 0:
        return 0.0
    if spec.kind == "atomic":
        assert spec.atoms is not None
        return sum(w * sum(c * c for c in z) for z, w in spec.atoms if sum(c * c for c in z) <= radius**2)
    return float(_radial_tail_integral(spec, 0.0, radius, power=2))


@dataclass(frozen=True)
class AtomMeasure:
    """Finitely many even integer-offset atoms bound to a grid.

    ``offsets`` has shape (K, N) with distinct nonzero rows, sorted
    lexicographically; ``weights`` is finite and nonnegative. Negation
    reverses lexicographic order, so evenness is one array identity: the
    mirror of atom k is atom K-1-k (``offsets == -offsets[::-1]``) and carries
    exactly its weight (``weights == weights[::-1]``). ``truncation_radius``
    and ``tail_cutoff`` record the annulus the measure was atomized from,
    when it was produced by :func:`truncate_and_atomize`.
    """

    grid: Grid
    offsets: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    truncation_radius: float | None = None
    tail_cutoff: float | None = None
    discarded_tail_mass: float = 0.0

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=np.int64).reshape(-1, self.grid.dims)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if offsets.shape[0] != weights.shape[0]:
            raise ValueError("offsets and weights must pair up one to one")
        if not np.all(np.isfinite(weights)):
            raise ValueError("atom weights must be finite")
        if np.any(weights < 0):
            raise ValueError("atom weights must be nonnegative")
        if np.any(np.all(offsets == 0, axis=1)):
            raise ValueError("atoms may not sit at the zero offset")
        order = np.lexsort(offsets.T[::-1])
        offsets = offsets[order]
        weights = weights[order]
        if np.any(np.all(offsets[1:] == offsets[:-1], axis=1)):
            raise ValueError("duplicate atom offsets")
        mirrors = -offsets[::-1]
        odd = np.any(offsets != mirrors, axis=1) | (weights != weights[::-1])
        if np.any(odd):
            # Both sorted lists agree before row k, so the smaller of offsets[k]
            # and mirrors[k] is absent from the other: offsets[k] or -mirrors[k]
            # lacks its mirror. Equal rows mean the mirror weighs differently.
            k = np.argmax(odd)
            row, mirror = offsets[k].tolist(), mirrors[k].tolist()
            culprit = row if row <= mirror else [-c for c in mirror]
            raise AssumptionError(
                f"atom measure is not even at offset {tuple(culprit)}: "
                "mirror offset missing or carries a different weight"
            )
        offsets.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)

    @property
    def natoms(self) -> int:
        return int(self.offsets.shape[0])

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def symbol(self) -> np.ndarray:
        """Real Fourier symbol sum_k w_k (cos(xi . j_k h) - 1) on the rfftn grid.

        The weights are scattered onto a periodic kernel at offsets mod M
        (atoms that alias onto one index add up), so this is the exact
        multiplier of the periodic shift sum. Evenness makes the transform
        real; the DC entry is set to exactly 0. Built once and read-only.
        """
        grid = self.grid
        kernel = np.zeros(grid.shape)
        np.add.at(kernel, tuple((self.offsets % grid.points_per_axis).T), self.weights)
        symbol = np.fft.rfftn(kernel).real - self.total_mass
        symbol[(0,) * grid.dims] = 0.0
        symbol.flags.writeable = False
        return symbol

    def jump_lengths(self) -> np.ndarray:
        """Euclidean length |j h| of every atom's jump vector."""
        return np.sqrt(np.sum((self.offsets * self.grid.spacing) ** 2, axis=1))


def truncate_and_atomize(
    spec: LevyMeasureSpec, grid: Grid, r: float, tail_cutoff: float
) -> AtomMeasure:
    """Restrict the measure to r < |z| <= tail_cutoff and bind it to grid offsets.

    Requires r >= h (jumps below one cell cannot be represented by offsets)
    and tail_cutoff <= R. In one dimension each kept offset receives the
    measure of its midpoint interval clamped to the annulus, so the kept mass
    is conserved exactly (the radial antiderivative is in closed form). In
    higher dimensions a midpoint rule per cell is used. Both give z and -z
    the same bits. Atomic measures keep their own atoms, which must lie on
    grid offsets and are bit-even because the spec averaged each mirrored
    pair. :class:`AtomMeasure` is the one evenness check downstream.
    """
    if spec.dims != grid.dims:
        raise ValueError(f"measure dims {spec.dims} != grid dims {grid.dims}")
    h = grid.spacing
    if r < h:
        raise ValueError(
            f"truncation radius r = {r} is below the mesh width h = {h}; "
            "jumps shorter than one cell have no offset representation"
        )
    if tail_cutoff > grid.halfwidth:
        raise ValueError(
            f"tail cutoff {tail_cutoff} exceeds the grid halfwidth {grid.halfwidth}"
        )
    empty = AtomMeasure(
        grid,
        np.zeros((0, grid.dims), dtype=np.int64),
        np.zeros(0),
        truncation_radius=r,
        tail_cutoff=tail_cutoff,
        discarded_tail_mass=annulus_mass(spec, tail_cutoff, math.inf),
    )
    if r >= tail_cutoff:
        return empty

    if spec.kind == "atomic":
        assert spec.atoms is not None
        offsets = []
        weights = []
        for z, w in spec.atoms:
            length = math.sqrt(sum(c * c for c in z))
            if not r < length <= tail_cutoff:
                continue
            scaled = np.asarray(z) / h
            rounded = np.rint(scaled)
            if np.any(np.abs(scaled - rounded) > 1e-9 * np.maximum(1.0, np.abs(scaled))):
                raise ValueError(
                    f"atomic jump {z} does not lie on the offset lattice with h = {h}"
                )
            offsets.append(rounded.astype(np.int64))
            weights.append(w)
        if not offsets:
            return empty
        return replace(empty, offsets=np.asarray(offsets), weights=np.asarray(weights))

    if grid.dims == 1:
        j_min = int(math.floor(r / h)) + 1
        while j_min * h <= r:
            j_min += 1
        j_max = int(math.floor(tail_cutoff / h))
        while j_max * h > tail_cutoff:
            j_max -= 1
        if j_max < j_min:
            return empty
        js = np.arange(j_min, j_max + 1)
        edges = np.empty(js.size + 1)
        edges[0] = r
        edges[-1] = tail_cutoff
        edges[1:-1] = (js[:-1] + 0.5) * h
        one_sided = np.array(
            [
                0.5 * _radial_tail_integral(spec, edges[i], edges[i + 1], power=0)
                for i in range(js.size)
            ]
        )
        offsets = np.concatenate([js, -js]).reshape(-1, 1)
        return replace(empty, offsets=offsets, weights=np.concatenate([one_sided, one_sided]))

    # N >= 2: midpoint rule on cells whose centers fall in the annulus.
    max_j = int(math.floor(tail_cutoff / h))
    axes = [np.arange(-max_j, max_j + 1)] * grid.dims
    mesh = np.meshgrid(*axes, indexing="ij")
    all_offsets = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    lengths = np.sqrt(np.sum((all_offsets * h) ** 2, axis=1))
    keep = (lengths > r) & (lengths <= tail_cutoff)
    offsets = all_offsets[keep].astype(np.int64)
    if offsets.shape[0] == 0:
        return empty
    assert spec.alpha is not None
    dens = spec.effective_multiplier * lengths[keep] ** (-grid.dims - spec.alpha)
    return replace(empty, offsets=offsets, weights=dens * grid.cell_volume)


def compensated_atoms(
    spec: LevyMeasureSpec, grid: Grid, r: float, tail_cutoff: float
) -> AtomMeasure:
    """The truncated atoms plus a near-field second difference, as one atom set.

    The jumps of length at most r become atoms at +-e_a of weight
    c_a = int_{|z| <= r} z_a^2 dmu / (2 h^2), added only where c_a > 0. Their
    shift sum is c_a (f(x + h e_a) - 2 f(x) + f(x - h e_a)), whose symbol
    -2 c_a (1 - cos(xi_a h)) matches -xi_a^2 int z_a^2 dmu / 2 to fourth order
    in h. Every kept atom has |j h| > r >= h, so the unit offsets are free.
    The fractional kind is radial, so its second moment splits evenly over the
    axes; an atomic measure sums w z_a^2 over its atoms with |z| <= r. The
    off-diagonal moments int z_a z_b dmu have no representation: they vanish
    for the fractional kind and are dropped for an atomic one.
    """
    atoms = truncate_and_atomize(spec, grid, r, tail_cutoff)
    if spec.kind == "atomic":
        assert spec.atoms is not None
        moment = np.zeros(grid.dims)
        for z, w in spec.atoms:
            # the length test of truncate_and_atomize, so no atom counts twice
            if math.sqrt(sum(c * c for c in z)) <= r:
                moment += w * np.square(z)
    else:
        moment = np.full(grid.dims, second_moment_within(spec, r) / spec.dims)
    coeff = moment / (2.0 * grid.spacing**2)
    axes = np.flatnonzero(coeff > 0)
    units = np.eye(grid.dims, dtype=np.int64)[axes]
    return replace(
        atoms,
        offsets=np.concatenate([atoms.offsets, units, -units]),
        weights=np.concatenate([atoms.weights, coeff[axes], coeff[axes]]),
    )


@dataclass(frozen=True)
class KernelField:
    """Position-dependent atom weights: one weight row per grid point.

    ``weights`` has shape (npoints, K) against a shared offset table. The
    natural symmetry for integration by parts is that the weight of jump z at
    x equals the weight of -z at x+z; it is checked by
    :meth:`symmetry_defect`, not enforced at construction, since pointwise
    scalings of a base measure (used for comparability diagnostics) violate
    it.
    """

    grid: Grid
    base: AtomMeasure
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (self.grid.npoints, self.base.natoms):
            raise ValueError(
                f"weights must have shape (npoints, natoms) = "
                f"({self.grid.npoints}, {self.base.natoms}), got {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("kernel weights must be finite")
        if np.any(weights < 0):
            raise ValueError("kernel weights must be nonnegative")
        weights = weights.copy()
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @property
    def offsets(self) -> np.ndarray:
        return self.base.offsets

    @classmethod
    def constant(cls, base: AtomMeasure) -> "KernelField":
        w = np.broadcast_to(base.weights, (base.grid.npoints, base.natoms)).copy()
        return cls(base.grid, base, w)

    @classmethod
    def scaled(cls, base: AtomMeasure, scale: GridFunction) -> "KernelField":
        """Pointwise scaling s(x) * base weights (not symmetric in general)."""
        if scale.grid != base.grid:
            raise ValueError("scale function must live on the measure's grid")
        if np.any(scale.values < 0):
            raise ValueError("scale values must be nonnegative")
        w = scale.values[:, None] * base.weights[None, :]
        return cls(base.grid, base, w)

    @classmethod
    def symmetrized_scaled(cls, base: AtomMeasure, scale: GridFunction) -> "KernelField":
        """Scaling by the two-point average (s(x) + s(x+z))/2, which restores
        the jump-reversal symmetry exactly."""
        if scale.grid != base.grid:
            raise ValueError("scale function must live on the measure's grid")
        if np.any(scale.values < 0):
            raise ValueError("scale values must be nonnegative")
        shifted = translated(scale.values, base.grid, base.offsets)
        w = 0.5 * (scale.values + shifted) * base.weights[:, None]
        return cls(base.grid, base, w.T)

    def symmetry_defect(self) -> float:
        """max |w(x, z) - w(x+z, -z)| over all points and atoms."""
        # source[k, x] is the flat index of x + z_k; -z_k is atom K-1-k
        source = translated(np.arange(self.grid.npoints), self.grid, self.offsets)
        mirrored = self.weights[source.T, np.arange(self.base.natoms)[::-1]]
        return float(np.max(np.abs(self.weights - mirrored), initial=0.0))


def shift_bound_ratio(kernel: KernelField) -> float:
    """Largest ratio of kernel weights between axis neighbors over unit-ball offsets.

    Considers all ordered pairs of adjacent grid points (periodic neighbors
    along each axis) and all atoms with jump length |j h| <= 1. Ratio 0/0
    counts as 1; a positive weight against a zero one gives infinity.
    """
    lengths = kernel.base.jump_lengths()
    mask = lengths <= 1.0
    if not np.any(mask):
        return 1.0
    grid = kernel.grid
    w = kernel.weights[:, mask].T
    worst = 1.0
    for neighbor in translated(w, grid, np.eye(grid.dims, dtype=np.int64)):
        for a, b in ((w, neighbor), (neighbor, w)):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where((a == 0) & (b == 0), 1.0, b / np.where(a == 0, np.nan, a))
            ratio = np.where(np.isnan(ratio) & (b != 0), np.inf, np.nan_to_num(ratio, nan=1.0))
            worst = max(worst, float(np.max(ratio)))
    return worst


def comparability_bounds(kernel: KernelField, alpha: float) -> tuple[float, float]:
    """Extremal per-atom weight ratios of the kernel against the atomized
    fractional measure of order alpha on the same offsets.

    The reference is rebuilt from the kernel's recorded truncation annulus;
    if the offset sets do not coincide the comparison is meaningless and an
    error is raised.
    """
    base = kernel.base
    if base.truncation_radius is None or base.tail_cutoff is None:
        raise ValueError(
            "kernel's base measure does not record its truncation annulus; "
            "cannot rebuild the fractional reference on matching offsets"
        )
    ref_spec = LevyMeasureSpec.fractional(alpha, dims=base.grid.dims)
    reference = truncate_and_atomize(
        ref_spec, base.grid, base.truncation_radius, base.tail_cutoff
    )
    if reference.offsets.shape != base.offsets.shape or not np.array_equal(
        reference.offsets, base.offsets
    ):
        raise ValueError(
            "offset sets differ between the kernel and the fractional reference"
        )
    if np.any(reference.weights == 0):
        raise ValueError("fractional reference has a zero atom weight; ratios undefined")
    ratios = kernel.weights / reference.weights[None, :]
    return float(ratios.min()), float(ratios.max())
