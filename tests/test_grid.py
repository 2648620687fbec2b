"""Grid geometry, norms, and periodic shifts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_pme import Grid, GridFunction, lp_norm, mass, shift
from nonlocal_pme.grid import translated


def test_nodes_are_cell_centered():
    grid = Grid(dims=1, points_per_axis=4, halfwidth=2.0)
    np.testing.assert_allclose(grid.axis_coordinates(), [-1.5, -0.5, 0.5, 1.5])
    assert grid.spacing == 1.0
    assert grid.cell_volume == 1.0


def test_cell_volume_scales_with_dimension():
    grid = Grid(dims=2, points_per_axis=8, halfwidth=2.0)
    assert grid.spacing == 0.5
    assert grid.cell_volume == 0.25
    assert grid.npoints == 64
    coords = grid.coordinates()
    assert coords.shape == (64, 2)
    # row-major: the second axis varies fastest
    np.testing.assert_allclose(coords[0], [-1.75, -1.75])
    np.testing.assert_allclose(coords[1], [-1.75, -1.25])


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dims=0, points_per_axis=4, halfwidth=1.0)
    with pytest.raises(ValueError):
        Grid(dims=1, points_per_axis=4, halfwidth=-1.0)
    with pytest.raises(ValueError):
        Grid(dims=1.0, points_per_axis=4, halfwidth=1.0)


def test_lp_norms_by_hand():
    # h = 0.25, values (1, -2, 3, 0)
    grid = Grid(dims=1, points_per_axis=4, halfwidth=0.5)
    f = GridFunction(grid, np.array([1.0, -2.0, 3.0, 0.0]))
    assert lp_norm(f, 1) == pytest.approx(0.25 * 6.0)
    assert lp_norm(f, 2) == pytest.approx((0.25 * 14.0) ** 0.5)
    assert lp_norm(f, np.inf) == 3.0
    assert mass(f) == pytest.approx(0.25 * 2.0)


def test_lp_norm_rejects_orders_below_one():
    grid = Grid(dims=1, points_per_axis=4, halfwidth=0.5)
    f = GridFunction(grid, np.ones(4))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_grid_function_requires_finite_values():
    grid = Grid(dims=1, points_per_axis=4, halfwidth=1.0)
    with pytest.raises(ValueError):
        GridFunction(grid, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        GridFunction(grid, np.ones(3))


def test_shift_wraps_periodically():
    # positive offsets move content toward higher indices
    grid = Grid(dims=1, points_per_axis=4, halfwidth=1.0)
    f = GridFunction(grid, np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(shift(f, 1).values, [4.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(shift(f, -1).values, [2.0, 3.0, 4.0, 1.0])
    np.testing.assert_array_equal(shift(f, 4).values, f.values)


def test_shift_in_two_dimensions():
    grid = Grid(dims=2, points_per_axis=2, halfwidth=1.0)
    f = GridFunction(grid, np.arange(4.0))
    # values laid out as [[0, 1], [2, 3]]; shift by one along the first axis
    np.testing.assert_array_equal(shift(f, (1, 0)).values, [2.0, 3.0, 0.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=8, max_size=8
    ),
    offset=st.integers(min_value=-8, max_value=8),
    order=st.sampled_from([1.0, 2.0, 4.0, np.inf]),
)
def test_shift_is_an_isometry(values, offset, order):
    grid = Grid(dims=1, points_per_axis=8, halfwidth=2.0)
    f = GridFunction(grid, np.asarray(values))
    # equality up to summation order
    assert lp_norm(shift(f, offset), order) == pytest.approx(lp_norm(f, order), rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_translated_matches_index_arithmetic(data):
    # reference: the value at multi-index i comes from (i + j) mod M, found by
    # explicit index arithmetic; distinct values pin the whole permutation
    dims = data.draw(st.integers(min_value=1, max_value=3))
    m = data.draw(st.integers(min_value=1, max_value=5))
    lead = data.draw(st.sampled_from([(), (1,), (2,), (3, 2)]))
    offset = data.draw(
        st.lists(st.integers(min_value=-3 * m, max_value=3 * m), min_size=dims, max_size=dims)
    )
    grid = Grid(dims=dims, points_per_axis=m, halfwidth=1.0)
    count = int(np.prod(lead, dtype=np.int64)) * grid.npoints
    values = np.arange(count, dtype=np.float64).reshape(lead + (grid.npoints,))
    index = np.indices(grid.shape).reshape(dims, -1)
    source = np.ravel_multi_index(
        tuple((index[a] + offset[a]) % m for a in range(dims)), grid.shape
    )
    got = translated(values, grid, offset)
    assert got.shape == values.shape
    np.testing.assert_array_equal(got, values[..., source])


def test_translated_rejects_a_wrong_offset_length():
    grid = Grid(dims=2, points_per_axis=4, halfwidth=1.0)
    with pytest.raises(ValueError):
        translated(np.zeros(16), grid, (1,))
