"""The standard smooth bump and quadrature nodes weighted by it.

Everything that mollifies in this package uses the same compactly supported
even profile exp(-1/(1-s^2)) on |s| < 1, so the smoothing kernels differ only
by scaling and normalization.
"""

from __future__ import annotations

import numpy as np


def standard_bump(s: np.ndarray | float) -> np.ndarray:
    """exp(-1/(1-s^2)) on |s| < 1, zero outside (unnormalized)."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def bump_weighted_nodes(count: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on (-1, 1) with weights folded against the bump.

    Returns (nodes, weights) with weights normalized to sum to one, so a
    weighted sum of samples approximates the bump-kernel average. Nodes and
    weights are symmetrized bit-for-bit so even/odd structure is exact.
    """
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    folded = weights * standard_bump(nodes)
    folded = 0.5 * (folded + folded[::-1])
    return nodes, folded / folded.sum()


def bump_derivative_weighted_nodes(count: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes with weights folded against the bump's derivative.

    The weights are antisymmetrized bit-for-bit and normalized so that the
    discrete first moment -sum(w_i * x_i) equals one, which is the continuum
    identity int -bump'(s) s ds = int bump(s) ds after normalization. With
    that convention, convolving an affine map against these weights recovers
    its slope exactly (up to roundoff), matching how the value weights of
    bump_weighted_nodes reproduce constants.
    """
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    inner = 1.0 - nodes * nodes
    slope = standard_bump(nodes) * (-2.0 * nodes) / (inner * inner)
    folded = weights * slope
    folded = 0.5 * (folded - folded[::-1])
    return nodes, folded / -float(np.dot(folded, nodes))


def discrete_bump_kernel(radius: int) -> np.ndarray:
    """1-D bump samples at offsets -radius..radius, normalized to sum 1.

    radius = 0 degenerates to the identity kernel [1].
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return np.array([1.0])
    offsets = np.arange(-radius, radius + 1)
    # Sample strictly inside the support so endpoint zeros do not pad the kernel.
    samples = standard_bump(offsets / (radius + 1.0))
    return samples / samples.sum()
