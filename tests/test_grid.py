"""Grid geometry, norms, and periodic shifts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_pme import Grid, GridFunction, lp_norm, mass
from nonlocal_pme.grid import translated, translated_blocks


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
    moved = GridFunction(grid, translated(f.values, grid, (offset,)))
    # equality up to summation order
    assert lp_norm(moved, order) == pytest.approx(lp_norm(f, order), rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_translated_matches_index_arithmetic(data):
    # reference: the value at multi-index i comes from (i + j) mod M, found by
    # explicit index arithmetic; distinct values pin the whole permutation.
    # One offset of shape (dims,) gives values' shape; a (K, dims) block
    # gives the K copies stacked in front of it.
    dims = data.draw(st.integers(min_value=1, max_value=3))
    m = data.draw(st.integers(min_value=1, max_value=5))
    lead = data.draw(st.sampled_from([(), (1,), (2,), (3, 2)]))
    offset_lists = st.lists(
        st.integers(min_value=-3 * m, max_value=3 * m), min_size=dims, max_size=dims
    )
    grid = Grid(dims=dims, points_per_axis=m, halfwidth=1.0)
    count = int(np.prod(lead, dtype=np.int64)) * grid.npoints
    values = np.arange(count, dtype=np.float64).reshape(lead + (grid.npoints,))
    index = np.indices(grid.shape).reshape(dims, -1)

    def moved(offset):
        source = np.ravel_multi_index(
            tuple((index[a] + offset[a]) % m for a in range(dims)), grid.shape
        )
        return values[..., source]

    block = data.draw(st.none() | st.lists(offset_lists, max_size=4))
    if block is None:
        offset = data.draw(offset_lists)
        got, want = translated(values, grid, offset), moved(offset)
    else:
        got = translated(values, grid, np.reshape(block, (-1, dims)))
        want = np.array([moved(offset) for offset in block]).reshape((len(block),) + values.shape)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_translated_blocks_cover_the_block_in_order():
    # 130 offsets of a 256-point frame come in blocks of 64, 64 and 2 rows
    grid = Grid(dims=1, points_per_axis=256, halfwidth=8.0)
    values = np.random.default_rng(0).standard_normal(grid.npoints)
    offsets = np.arange(-65, 65).reshape(-1, 1)
    blocks = list(translated_blocks(values, grid, offsets))
    rows = [(b.start, b.stop) for b, _ in blocks]
    assert rows == [(0, 64), (64, 128), (128, 130)]
    whole = translated(values, grid, offsets)
    for b, shifted in blocks:
        assert shifted.tobytes() == whole[b].tobytes()


def test_translated_rejects_a_wrong_offset_length():
    grid = Grid(dims=2, points_per_axis=4, halfwidth=1.0)
    with pytest.raises(ValueError):
        translated(np.zeros(16), grid, (1,))


@pytest.mark.parametrize("block", [[(1,), (2,)], [(1, 2, 3)], [[(1, 2)]]])
def test_translated_rejects_a_block_of_the_wrong_width(block):
    grid = Grid(dims=2, points_per_axis=4, halfwidth=1.0)
    with pytest.raises(ValueError):
        translated(np.zeros(16), grid, block)
    with pytest.raises(ValueError):
        next(translated_blocks(np.zeros(16), grid, np.asarray(block)))
