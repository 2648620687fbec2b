"""Truncated and compensated jump operators plus the spectral reference."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_pme import (
    AtomMeasure,
    Grid,
    GridFunction,
    LevyMeasureSpec,
    apply_truncated,
    compensated_atoms,
    fourier_fractional,
    grid_frequencies,
    load_experiment,
    mass,
    operator_report,
    second_moment_within,
    truncate_and_atomize,
)
from nonlocal_pme.grid import _BLOCK_POINTS
from nonlocal_pme.operators import _apply_atoms, _shift_sum
from nonlocal_pme.solver import _run

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "experiment.json"
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


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
    # the FFT route against the stencil, relative to the stencil's size
    assert 0.0 < rep.spectral_defect <= 1e-13


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
    atoms = compensated_atoms(spec, grid, 0.25, 4.0)
    want = second_moment_within(spec, 0.25) / (2.0 * grid.spacing**2)
    assert atoms.weights[atoms.offsets[:, 0] == 1] == pytest.approx([want], rel=1e-13)
    assert atoms.weights[atoms.offsets[:, 0] == -1] == pytest.approx([want], rel=1e-13)


def test_compensated_weights_follow_the_axes_of_an_atomic_measure():
    # all of this measure's jumps lie along axis 0, so the near field must not
    # diffuse along axis 1: sum w z_0^2 / (2 h^2) = 2 * 1 * h^2 / (2 h^2) = 1
    grid = Grid(dims=2, points_per_axis=16, halfwidth=4.0)
    h = grid.spacing
    spec = LevyMeasureSpec.atomic(
        [((h, 0.0), 1.0), ((-h, 0.0), 1.0), ((3 * h, 0.0), 0.5), ((-3 * h, 0.0), 0.5)], dims=2
    )
    atoms = compensated_atoms(spec, grid, 1.5 * h, 4.0)
    np.testing.assert_array_equal(atoms.offsets, [[-3, 0], [-1, 0], [1, 0], [3, 0]])
    np.testing.assert_allclose(atoms.weights, [0.5, 1.0, 1.0, 0.5], rtol=1e-13)
    # the annulus is open at r, so atoms at |z| = r belong to the near field
    on_edge = compensated_atoms(spec, grid, h, 4.0)
    np.testing.assert_array_equal(on_edge.offsets, atoms.offsets)
    np.testing.assert_array_equal(on_edge.weights, atoms.weights)


def test_compensated_adds_second_difference_to_the_symbol():
    grid = Grid(dims=1, points_per_axis=128, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(1.2, dims=1)
    atoms = compensated_atoms(spec, grid, 0.25, 4.0)
    truncated = truncate_and_atomize(spec, grid, 0.25, 4.0)
    xi = 2.0 * np.pi * 3 / 16.0
    f = GridFunction(grid, np.cos(xi * grid.axis_coordinates()))
    lf = apply_truncated(atoms, f)
    offsets = truncated.offsets[:, 0] * grid.spacing
    symbol = float(np.sum(truncated.weights * (1.0 - np.cos(xi * offsets))))
    c = second_moment_within(spec, 0.25) / (2.0 * grid.spacing**2)
    symbol += 2.0 * c * (1.0 - np.cos(xi * grid.spacing))
    np.testing.assert_allclose(lf.values, -symbol * f.values, atol=1e-11 * symbol)


def test_zero_near_field_reduces_to_truncated():
    # no atom within r: the compensated set is the truncated set
    grid = Grid(dims=1, points_per_axis=64, halfwidth=8.0)
    spec = LevyMeasureSpec.atomic(
        [((1.0,), 0.5), ((-1.0,), 0.5), ((2.0,), 0.25), ((-2.0,), 0.25)], dims=1
    )
    atoms = compensated_atoms(spec, grid, 0.25, 4.0)
    truncated = truncate_and_atomize(spec, grid, 0.25, 4.0)
    np.testing.assert_array_equal(atoms.offsets, truncated.offsets)
    np.testing.assert_array_equal(atoms.weights, truncated.weights)


def old_compensated_formula(spec, grid, r, tail_cutoff, values):
    # the truncated shift sum plus c (f(x + h e_a) - 2 f(x) + f(x - h e_a)) on
    # each axis, with c = second_moment_within / (N 2 h^2), written with np.roll
    truncated = truncate_and_atomize(spec, grid, r, tail_cutoff)
    c = second_moment_within(spec, r) / grid.dims / (2.0 * grid.spacing**2)
    f = values.reshape(grid.shape)
    out = _shift_sum(truncated, values).reshape(grid.shape)
    for axis in range(grid.dims):
        out = out + c * (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis))
    return out.reshape(-1)


@pytest.mark.parametrize(
    ("dims", "points", "alpha", "r"),
    [(1, 128, 1.2, 0.25), (1, 1024, 1.5, 0.25), (2, 64, 1.0, 0.25), (2, 96, 1.5, 0.25)],
)
def test_compensated_set_matches_the_second_difference_formula(dims, points, alpha, r):
    grid = Grid(dims=dims, points_per_axis=points, halfwidth=8.0)
    spec = LevyMeasureSpec.fractional(alpha, dims=dims)
    atoms = compensated_atoms(spec, grid, r, 4.0)
    values = np.random.default_rng(points).standard_normal(grid.npoints)
    want = old_compensated_formula(spec, grid, r, 4.0, values)
    tol = 1e-13 * float(np.max(np.abs(want)))
    np.testing.assert_allclose(_shift_sum(atoms, values), want, rtol=0.0, atol=tol)
    np.testing.assert_allclose(_apply_atoms(atoms, values), want, rtol=0.0, atol=tol)


def test_compensated_set_steps_the_demo_run_cleanly():
    config = load_experiment(str(DEMO_CONFIG)).solver
    annulus = (config.measure, config.grid, config.truncation_radius, config.tail)
    atoms = compensated_atoms(*annulus)
    assert atoms.natoms == truncate_and_atomize(*annulus).natoms + 2
    rep = operator_report(atoms, samples=5, seed=1)
    tol = 1e-12 * rep.scale
    assert max(rep.symmetry_defect, rep.row_sum_defect, rep.dissipativity_defect) <= tol
    traj, report = _run(config, atoms)
    # the near-field atoms carry most of the jump mass, so the step bound
    # takes 324 steps where the truncated set takes 18
    assert traj.path.times.shape[0] - 1 == 324
    assert report.violation_flags == ()
    assert report.budget.enclosure_ok


def draw_even_atoms(data):
    # a random even atom table on a small grid; offsets reach past +-M/2 and
    # past M, so atoms alias onto one index mod M, and zero weights occur
    dims = data.draw(st.integers(min_value=1, max_value=3))
    m = data.draw(st.integers(min_value=1, max_value=7 if dims < 3 else 5))
    grid = Grid(dims=dims, points_per_axis=m, halfwidth=1.0)
    drawn = data.draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(-2 * m, 2 * m), min_size=dims, max_size=dims),
                # weights stay far from the subnormal range, where the
                # relative tolerance of the spectral comparison has no meaning
                st.just(0.0) | st.floats(min_value=1e-6, max_value=10.0),
            ),
            max_size=8,
        )
    )
    table = {}
    for offset, weight in drawn:
        offset = tuple(offset)
        if any(offset) and offset not in table:
            table[offset] = table[tuple(-j for j in offset)] = weight
    offsets = np.array(list(table), dtype=np.int64).reshape(-1, dims)
    return AtomMeasure(grid, offsets, np.array(list(table.values())))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_spectral_apply_matches_the_shift_sum(data):
    # the FFT route against the atom-by-atom stencil on random even tables
    atoms = draw_even_atoms(data)
    grid = atoms.grid
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = data.draw(st.sampled_from([1.0, 1e-3, 1e6])) * rng.standard_normal(grid.npoints)
    want = _shift_sum(atoms, values)
    got = _apply_atoms(atoms, values)
    assert got.shape == values.shape
    tol = 1e-13 * atoms.total_mass * float(np.max(np.abs(values)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


def roll_shift_sum(atoms, values):
    # the stencil as one np.roll per atom, accumulated in atom order: the
    # loop that the blocked gather replaced, kept as its oracle
    box = values.reshape(atoms.grid.shape)
    axes = tuple(range(atoms.grid.dims))
    out = np.zeros_like(values)
    for offset, weight in zip(atoms.offsets, atoms.weights):
        out += weight * (np.roll(box, tuple(-offset), axis=axes).reshape(-1) - values)
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_shift_sum_is_the_roll_loop_byte_for_byte(data):
    atoms = draw_even_atoms(data)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.standard_normal(atoms.grid.npoints)
    # signed zeros in the input make jumps of -0.0 as well as 0.0, and
    # tobytes tells the two apart
    values[rng.random(values.size) < 0.3] = -0.0
    values[rng.random(values.size) < 0.2] = 0.0
    got = _shift_sum(atoms, values)
    assert got.tobytes() == roll_shift_sum(atoms, values).tobytes()


@pytest.mark.parametrize(
    "config", [BENCH_CONFIGS / "experiment-1d.json", BENCH_CONFIGS / "experiment-2d.json"]
)
def test_shift_sum_is_the_roll_loop_across_blocks(config):
    # 1-D: 120 atoms in blocks of 64; 2-D at 96^2: one atom per block
    solver = load_experiment(str(config)).solver
    grid = solver.grid
    atoms = truncate_and_atomize(solver.measure, grid, solver.truncation_radius, solver.tail)
    assert atoms.natoms > max(1, _BLOCK_POINTS // grid.npoints)
    values = np.random.default_rng(grid.npoints).standard_normal(grid.npoints)
    got = _shift_sum(atoms, values)
    assert got.tobytes() == roll_shift_sum(atoms, values).tobytes()


def test_symbol_matches_the_closed_form():
    # tail_cutoff = R keeps the atoms at +-M/2, which share one periodic index
    grid = Grid(dims=2, points_per_axis=32, halfwidth=4.0)
    atoms = truncate_and_atomize(LevyMeasureSpec.fractional(1.3, dims=2), grid, 0.25, 4.0)
    assert np.any(np.abs(atoms.offsets) == 16)
    xi_0, xi_1 = grid_frequencies(grid)
    mesh = np.meshgrid(xi_0, xi_1[: 32 // 2 + 1], indexing="ij")
    phase = sum(m[..., None] * atoms.offsets[:, a] * grid.spacing for a, m in enumerate(mesh))
    want = np.sum(atoms.weights * (np.cos(phase) - 1.0), axis=-1)
    symbol = atoms.symbol
    assert symbol.shape == want.shape
    np.testing.assert_allclose(symbol, want, rtol=0.0, atol=1e-13 * atoms.total_mass)
    assert symbol[0, 0] == 0.0
    assert not symbol.flags.writeable
    assert atoms.symbol is symbol


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
