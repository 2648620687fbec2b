"""Truncated and compensated jump operators plus the spectral reference."""

import numpy as np
import pytest

from nonlocal_pme import (
    CompensatedOperator,
    Grid,
    GridFunction,
    LevyMeasureSpec,
    apply_compensated,
    apply_truncated,
    fourier_fractional,
    grid_frequencies,
    mass,
    operator_report,
    second_moment_within,
    truncate_and_atomize,
)


def two_cell_operator():
    # one jump of length 2h in each direction, weight 1/2 each; the annulus
    # is open at r, so a kept jump must be strictly longer than r >= h
    grid = Grid(dims=1, points_per_axis=8, halfwidth=4.0)
    spec = LevyMeasureSpec.atomic([((2.0,), 0.5), ((-2.0,), 0.5)], dims=1)
    return truncate_and_atomize(spec, grid, 1.0, 4.0)


def test_stencil_by_hand():
    atoms = two_cell_operator()
    f = GridFunction(atoms.grid, np.eye(8)[0])
    want = [-1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0]
    np.testing.assert_array_equal(apply_truncated(atoms, f).values, want)


def test_constants_are_annihilated_exactly():
    grid = Grid(dims=1, points_per_axis=64, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(1.0, dims=1)
    atoms = truncate_and_atomize(spec, grid, 0.25, 4.0)
    f = GridFunction(grid, np.full(64, 3.7))
    assert np.all(apply_truncated(atoms, f).values == 0.0)


def test_operator_report_defects_are_tiny():
    grid = Grid(dims=1, points_per_axis=128, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(1.5, dims=1)
    atoms = truncate_and_atomize(spec, grid, 0.125, 4.0)
    rep = operator_report(atoms, samples=20, seed=3)
    tol = 1e-12 * rep.scale
    assert rep.symmetry_defect <= tol
    assert rep.row_sum_defect <= tol
    assert rep.dissipativity_defect <= tol


def test_cosine_modes_are_eigenvectors():
    # for an even atom table, L cos(xi .) = -symbol(xi) cos(xi .) exactly,
    # with symbol(xi) = sum_k w_k (1 - cos(xi j_k h))
    grid = Grid(dims=1, points_per_axis=128, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(1.2, dims=1)
    atoms = truncate_and_atomize(spec, grid, 0.25, 4.0)
    xi = 2.0 * np.pi * 3 / 16.0
    f = GridFunction(grid, np.cos(xi * grid.axis_coordinates()))
    lf = apply_truncated(atoms, f)
    symbol = float(np.sum(atoms.weights * (1.0 - np.cos(xi * atoms.offsets[:, 0] * grid.spacing))))
    assert symbol > 0
    np.testing.assert_allclose(lf.values, -symbol * f.values, atol=1e-12 * symbol)


def test_compensated_near_field_coefficient():
    grid = Grid(dims=1, points_per_axis=128, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(1.2, dims=1)
    op = CompensatedOperator.from_spec(spec, grid, 0.25, 4.0)
    want = second_moment_within(spec, 0.25) / (2.0 * grid.spacing**2)
    assert op.near_field_coefficient[0] == pytest.approx(want, rel=1e-13)


def test_compensated_adds_second_difference_to_the_symbol():
    grid = Grid(dims=1, points_per_axis=128, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(1.2, dims=1)
    op = CompensatedOperator.from_spec(spec, grid, 0.25, 4.0)
    xi = 2.0 * np.pi * 3 / 16.0
    f = GridFunction(grid, np.cos(xi * grid.axis_coordinates()))
    lf = apply_compensated(op, f)
    atoms = op.atoms
    symbol = float(np.sum(atoms.weights * (1.0 - np.cos(xi * atoms.offsets[:, 0] * grid.spacing))))
    symbol += 2.0 * op.near_field_coefficient[0] * (1.0 - np.cos(xi * grid.spacing))
    np.testing.assert_allclose(lf.values, -symbol * f.values, atol=1e-11 * symbol)


def test_zero_near_field_reduces_to_truncated():
    grid = Grid(dims=1, points_per_axis=64, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(1.0, dims=1)
    atoms = truncate_and_atomize(spec, grid, 0.25, 4.0)
    op = CompensatedOperator(atoms, np.zeros(1))
    rng = np.random.default_rng(0)
    f = GridFunction(grid, rng.standard_normal(64))
    np.testing.assert_array_equal(
        apply_compensated(op, f).values, apply_truncated(atoms, f).values
    )


def test_grid_frequencies_by_hand():
    grid = Grid(dims=1, points_per_axis=4, halfwidth=2.0)
    (freqs,) = grid_frequencies(grid)
    np.testing.assert_allclose(freqs, [0.0, np.pi / 2.0, -np.pi, -np.pi / 2.0])


def test_fourier_fractional_at_time_zero_is_identity():
    grid = Grid(dims=1, points_per_axis=256, halfwidth=16.0)
    rng = np.random.default_rng(1)
    f = GridFunction(grid, rng.standard_normal(256))
    np.testing.assert_allclose(fourier_fractional(1.0, 0.0, f).values, f.values, atol=1e-13)


def test_fourier_fractional_preserves_mass_and_contracts_l2():
    grid = Grid(dims=1, points_per_axis=256, halfwidth=16.0)
    x = grid.axis_coordinates()
    f = GridFunction(grid, np.exp(-(x**2)))
    g = fourier_fractional(0.7, 0.5, f)
    assert mass(g) == pytest.approx(mass(f), rel=1e-13)
    assert float(np.dot(g.values, g.values)) <= float(np.dot(f.values, f.values))


def test_fourier_fractional_matches_poisson_semigroup():
    # for alpha = 1 the exact solution operator is convolution with the
    # Cauchy density: P_a evolves to P_{a+t}; periodization and sampling
    # leave an error well below 5e-4 on this box
    grid = Grid(dims=1, points_per_axis=1024, halfwidth=64.0)
    x = grid.axis_coordinates()
    a, t = 2.0, 1.0
    start = GridFunction(grid, (1.0 / np.pi) * a / (a * a + x * x))
    evolved = fourier_fractional(1.0, t, start)
    target = (1.0 / np.pi) * (a + t) / ((a + t) ** 2 + x * x)
    assert np.max(np.abs(evolved.values - target)) < 5e-4


def test_fourier_fractional_rejects_bad_orders():
    grid = Grid(dims=1, points_per_axis=16, halfwidth=2.0)
    f = GridFunction(grid, np.ones(16))
    with pytest.raises(ValueError):
        fourier_fractional(2.5, 0.1, f)
