"""Jump measures: normalization, truncation, atomization, kernel fields."""

import ast
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_fractional_multiplier_must_be_finite_and_nonnegative(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        LevyMeasureSpec.fractional(1.0, dims=1, multiplier=bad)


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


def test_atomic_annulus_mass_and_second_moment_by_hand():
    # jumps of length 0.5 (inside r = 1), 2 (inside the annulus (1, 3]) and
    # 5 (beyond the tail 3), each with its mirror
    spec = LevyMeasureSpec.atomic(
        [(z, w) for z0, w in (((0.3, 0.4), 1.0), ((1.2, 1.6), 0.5), ((3.0, 4.0), 0.25))
         for z in (z0, tuple(-c for c in z0))],
        dims=2,
    )
    assert annulus_mass(spec, 1.0, 3.0) == 1.0
    assert annulus_mass(spec, 3.0, math.inf) == 0.5
    assert annulus_mass(spec, 0.0, math.inf) == 3.5
    assert second_moment_within(spec, 1.0) == pytest.approx(2 * 1.0 * 0.25, rel=1e-15)
    assert second_moment_within(spec, 3.0) == pytest.approx(0.5 + 2 * 0.5 * 4.0, rel=1e-15)


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


@pytest.mark.parametrize(
    "dims, points, alpha", list(itertools.product((1, 2, 3), (15, 16), (0.5, 1.5)))
)
def test_atom_weights_are_bitwise_even(dims, points, alpha):
    # sorted atoms: the mirror of atom k is atom K-1-k, with the same bits
    spec = LevyMeasureSpec.fractional(alpha, dims=dims)
    grid = Grid(dims=dims, points_per_axis=points, halfwidth=2.0)
    atoms = truncate_and_atomize(spec, grid, grid.spacing, 1.0)
    assert atoms.natoms > 0
    np.testing.assert_array_equal(atoms.offsets, -atoms.offsets[::-1])
    assert atoms.weights.tobytes() == atoms.weights[::-1].tobytes()


def test_atomic_spec_averages_nearly_even_pairs():
    # mirrored weights 1e-13 apart pass the 1e-12 evenness tolerance and
    # enter as their mean, so the atoms are bit-even
    nudged = 0.7 * (1.0 + 1e-13)
    mean = 0.5 * (0.7 + nudged)
    assert mean not in (0.7, nudged)
    spec = LevyMeasureSpec.atomic(
        [((0.5,), 0.7), ((-0.5,), nudged), ((1.0,), 0.2), ((-1.0,), 0.2)], dims=1
    )
    assert spec.atoms == (((-1.0,), 0.2), ((-0.5,), mean), ((0.5,), mean), ((1.0,), 0.2))
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)  # h = 0.25
    atoms = truncate_and_atomize(spec, grid, 0.25, 2.0)
    assert atoms.offsets[:, 0].tolist() == [-4, -2, 2, 4]
    assert atoms.weights.tolist() == [0.2, mean, mean, 0.2]


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


def test_atom_measure_names_the_atom_without_a_mirror():
    # every sorted row differs from its reversed negation, but only 2 lacks a
    # mirror; -1 and 1 are a proper pair
    grid = Grid(dims=1, points_per_axis=8, halfwidth=2.0)
    with pytest.raises(AssumptionError, match=r"at offset \(2,\):"):
        AtomMeasure(grid, np.array([[2], [-1], [1]]), np.ones(3))


def test_atom_measure_rejects_duplicate_and_zero_offsets():
    grid = Grid(dims=2, points_per_axis=8, halfwidth=2.0)
    with pytest.raises(ValueError, match="duplicate"):
        AtomMeasure(grid, np.array([[1, 0], [-1, 0], [1, 0], [-1, 0]]), np.ones(4))
    with pytest.raises(ValueError, match="zero offset"):
        AtomMeasure(grid, np.array([[1, 0], [0, 0], [-1, 0]]), np.ones(3))


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_empty_atom_table_has_a_zero_symbol(dims):
    grid = Grid(dims=dims, points_per_axis=6, halfwidth=2.0)
    atoms = AtomMeasure(grid, np.zeros((0, dims), dtype=np.int64), np.zeros(0))
    assert atoms.natoms == 0 and atoms.offsets.shape == (0, dims)
    assert atoms.symbol.shape == (6,) * (dims - 1) + (4,)
    assert not np.any(atoms.symbol)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_weights_must_be_finite(bad):
    grid = Grid(dims=1, points_per_axis=8, halfwidth=2.0)
    with pytest.raises(ValueError, match="finite"):
        AtomMeasure(grid, np.array([[1], [-1]]), np.array([bad, bad]))
    with pytest.raises(ValueError, match="finite"):
        LevyMeasureSpec.atomic([((0.5,), bad), ((-0.5,), bad)], dims=1)
    base = AtomMeasure(grid, np.array([[1], [-1]]), np.ones(2))
    weights = np.ones((8, 2))
    weights[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        KernelField(grid, base, weights)


def _reference_unmirrored(offsets, weights):
    """Offsets whose mirror is missing or carries a different weight, found with
    a dict over the rows (the independent route for the sorted-order rule)."""
    index = {tuple(row): k for k, row in enumerate(offsets.tolist())}
    odd = []
    for k, row in enumerate(offsets.tolist()):
        partner = index.get(tuple(-c for c in row))
        if partner is None or weights[partner] != weights[k]:
            odd.append(tuple(row))
    return odd


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mirror_rule_matches_the_dict_check(data):
    dims = data.draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*[st.integers(-3, 3)] * dims).filter(any)
    rows = data.draw(st.lists(row, unique=True, max_size=8))
    table = {}
    for z in rows:
        table[z] = None
        if data.draw(st.booleans()):
            table[tuple(-c for c in z)] = None
    weight = st.sampled_from([0.0, 0.5, 1.0, 2.5])
    paired = data.draw(st.booleans())
    for z in table:
        mirror = tuple(-c for c in z)
        if paired and table.get(mirror) is not None:
            table[z] = table[mirror]
        else:
            table[z] = data.draw(weight)
    order = data.draw(st.permutations(list(table)))
    offsets = np.array(order, dtype=np.int64).reshape(-1, dims)
    weights = np.array([table[z] for z in order])
    grid = Grid(dims=dims, points_per_axis=8, halfwidth=2.0)

    odd = _reference_unmirrored(offsets, weights)
    if not odd:
        atoms = AtomMeasure(grid, offsets, weights)
        assert atoms.offsets.tolist() == [list(z) for z in sorted(table)]
        assert atoms.weights.tolist() == [table[z] for z in sorted(table)]
        np.testing.assert_array_equal(atoms.offsets, -atoms.offsets[::-1])
        return
    with pytest.raises(AssumptionError) as err:
        AtomMeasure(grid, offsets, weights)
    named = re.search(r"at offset (\(.*?\)):", str(err.value)).group(1)
    assert ast.literal_eval(named) in odd


def test_kernel_field_symmetry_defect():
    spec = LevyMeasureSpec.fractional(1.0, dims=1)
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)
    base = truncate_and_atomize(spec, grid, 0.25, 2.0)
    assert KernelField.constant(base).symmetry_defect() == 0.0

    scale = GridFunction(grid, 1.0 + 0.5 * np.sin(np.pi * grid.coordinates()[:, 0] / 4.0))
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
