"""Jump measures: normalization, truncation, atomization, kernel fields."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from nonlocal_pme import (
    AssumptionError,
    AtomMeasure,
    Grid,
    GridFunction,
    KernelField,
    LevyMeasureSpec,
    annulus_mass,
    comparability_bounds,
    moments,
    normalization_multiplier,
    second_moment_within,
    shift_bound_ratio,
    truncate_and_atomize,
)


def test_multiplier_reproduces_the_symbol():
    # The defining property of the constant: with density c |z|^(-1-alpha),
    # int (1 - cos(z)) dmu = 1. The closed form of that integral is
    # -2 Gamma(-alpha) cos(pi alpha / 2) for alpha != 1 and pi at alpha = 1,
    # which shares no algebra with the Gamma-quotient used in the code.
    for alpha in (0.3, 0.5, 1.5, 1.9):
        exact = -2.0 * special.gamma(-alpha) * math.cos(math.pi * alpha / 2.0)
        assert normalization_multiplier(1, alpha) * exact == pytest.approx(1.0, rel=1e-12)
    assert normalization_multiplier(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_fractional_spec_rejects_bad_orders():
    with pytest.raises(AssumptionError):
        LevyMeasureSpec.fractional(2.5, dims=1)
    with pytest.raises(AssumptionError):
        LevyMeasureSpec.fractional(0.0, dims=1)
    with pytest.raises(AssumptionError):
        LevyMeasureSpec.fractional(-1.0, dims=1)


def test_annulus_mass_against_quadrature():
    spec = LevyMeasureSpec.fractional(0.8, dims=1)
    c = spec.effective_multiplier
    want, err = integrate.quad(
        lambda z: 2.0 * c * z ** (-1.8), 0.5, 3.0, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-12
    assert annulus_mass(spec, 0.5, 3.0) == pytest.approx(want, rel=1e-12)
    assert annulus_mass(spec, 3.0, 0.5) == 0.0


def test_second_moment_against_quadrature():
    spec = LevyMeasureSpec.fractional(1.2, dims=1)
    c = spec.effective_multiplier
    want, _ = integrate.quad(
        lambda z: 2.0 * c * z**2 * z ** (-2.2), 0.0, 0.75, epsabs=1e-13, epsrel=1e-13
    )
    assert second_moment_within(spec, 0.75) == pytest.approx(want, rel=1e-12)


def test_moments_of_atomic_measure():
    spec = LevyMeasureSpec.atomic(
        [((0.5,), 2.0), ((-0.5,), 2.0), ((3.0,), 0.25), ((-3.0,), 0.25)], dims=1
    )
    sigma, tail = moments(spec)
    assert sigma == pytest.approx(2 * 2.0 * 0.25)
    assert tail == 0.5


def test_atomic_measures_must_be_even():
    with pytest.raises(AssumptionError):
        LevyMeasureSpec.atomic([((1.0,), 1.0)], dims=1)
    with pytest.raises(AssumptionError):
        LevyMeasureSpec.atomic([((1.0,), 1.0), ((-1.0,), 2.0)], dims=1)


def test_truncation_conserves_kept_mass():
    spec = LevyMeasureSpec.fractional(0.8, dims=1)
    grid = Grid(dims=1, points_per_axis=64, halfwidth=4.0)
    atoms = truncate_and_atomize(spec, grid, 0.25, 2.0)
    np.testing.assert_allclose(atoms.weights.sum(), annulus_mass(spec, 0.25, 2.0), rtol=1e-13)
    np.testing.assert_allclose(
        atoms.discarded_tail_mass, annulus_mass(spec, 2.0, math.inf), rtol=1e-13
    )


def test_atom_weights_are_bitwise_even():
    spec = LevyMeasureSpec.fractional(1.5, dims=2)
    grid = Grid(dims=2, points_per_axis=16, halfwidth=2.0)
    atoms = truncate_and_atomize(spec, grid, 0.25, 1.0)
    neg = atoms.negation_indices()
    np.testing.assert_array_equal(atoms.offsets[neg], -atoms.offsets)
    assert np.max(np.abs(atoms.weights - atoms.weights[neg])) == 0.0


def test_truncation_below_one_cell_is_rejected():
    spec = LevyMeasureSpec.fractional(1.0, dims=1)
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)
    with pytest.raises(ValueError, match="below the mesh width"):
        truncate_and_atomize(spec, grid, 0.1, 2.0)


def test_atomic_measure_atoms_must_sit_on_offsets():
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)  # h = 0.25
    good = LevyMeasureSpec.atomic([((0.5,), 1.0), ((-0.5,), 1.0)], dims=1)
    atoms = truncate_and_atomize(good, grid, 0.25, 2.0)
    assert atoms.natoms == 2
    assert atoms.weights.sum() == 2.0
    bad = LevyMeasureSpec.atomic([((0.3,), 1.0), ((-0.3,), 1.0)], dims=1)
    with pytest.raises(ValueError, match="offset lattice"):
        truncate_and_atomize(bad, grid, 0.25, 2.0)


def test_atom_measure_rejects_odd_weight_tables():
    grid = Grid(dims=1, points_per_axis=8, halfwidth=2.0)
    offsets = np.array([[-1], [1]])
    with pytest.raises(ValueError):
        AtomMeasure(grid, offsets, np.array([1.0, 2.0]))


def test_kernel_field_symmetry_defect():
    spec = LevyMeasureSpec.fractional(1.0, dims=1)
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)
    base = truncate_and_atomize(spec, grid, 0.25, 2.0)
    assert KernelField.constant(base).symmetry_defect() == 0.0

    scale = GridFunction.from_callable(grid, lambda x: 1.0 + 0.5 * np.sin(np.pi * x[:, 0] / 4.0))
    lopsided = KernelField.scaled(base, scale)
    assert lopsided.symmetry_defect() > 0.0
    averaged = KernelField.symmetrized_scaled(base, scale)
    assert averaged.symmetry_defect() <= 1e-15


def test_symmetrized_scaling_by_hand():
    # jumps of +-2 cells with weight 1/2 each and a scale that is 1 at node 3
    # only: w(x, z) = (s(x) + s(x + z)) / 2 * 1/2 is 1/4 exactly where x or
    # x + z is node 3, and 0 elsewhere
    grid = Grid(dims=1, points_per_axis=8, halfwidth=4.0)
    spec = LevyMeasureSpec.atomic([((2.0,), 0.5), ((-2.0,), 0.5)], dims=1)
    base = truncate_and_atomize(spec, grid, 1.0, 4.0)
    plus = int(np.flatnonzero(base.offsets[:, 0] == 2)[0])
    minus = int(np.flatnonzero(base.offsets[:, 0] == -2)[0])
    field = KernelField.symmetrized_scaled(base, GridFunction(grid, np.eye(8)[3]))
    want_plus = np.zeros(8)
    want_plus[[1, 3]] = 0.25  # x = 1 reaches node 3; x = 3 is node 3
    want_minus = np.zeros(8)
    want_minus[[3, 5]] = 0.25  # x = 5 reaches node 3 backwards
    np.testing.assert_array_equal(field.weights[:, plus], want_plus)
    np.testing.assert_array_equal(field.weights[:, minus], want_minus)
    assert field.symmetry_defect() == 0.0


def test_shift_bound_ratio_of_scaled_field():
    spec = LevyMeasureSpec.fractional(1.0, dims=1)
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)
    base = truncate_and_atomize(spec, grid, 0.25, 2.0)
    assert shift_bound_ratio(KernelField.constant(base)) == 1.0
    doubled = KernelField.scaled(base, GridFunction(grid, np.full(32, 2.0)))
    assert shift_bound_ratio(doubled) == 1.0


def test_comparability_bounds_bracket_the_scaling():
    spec = LevyMeasureSpec.fractional(1.0, dims=1)
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)
    base = truncate_and_atomize(spec, grid, 0.25, 2.0)
    scale = GridFunction(grid, np.linspace(0.5, 1.5, 32))
    field = KernelField.scaled(base, scale)
    low, high = comparability_bounds(field, 1.0)
    assert low == pytest.approx(0.5, rel=1e-12)
    assert high == pytest.approx(1.5, rel=1e-12)
