"""Quadratic forms, seminorms, time tails, and the density machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from nonlocal_pme import (
    AtomMeasure,
    Grid,
    GridFunction,
    KernelField,
    LevyMeasureSpec,
    NonlinearitySpec,
    PathFunction,
    apply_truncated,
    bilinear,
    density_approximation,
    discrete_bump_kernel,
    oleinik_report,
    parabolic_bilinear,
    parabolic_seminorm,
    shrink_clamp,
    sobolev_seminorm_direct,
    sobolev_seminorm_fourier,
    spatial_cutoff,
    standard_bump,
    time_tail,
    truncate_and_atomize,
)
from nonlocal_pme.energy import _jump_form, _mollify_space_time


def make_atoms(points=64, halfwidth=8.0, alpha=1.0, r=0.5, tail=4.0):
    grid = Grid(dims=1, points_per_axis=points, halfwidth=halfwidth)
    spec = LevyMeasureSpec.fractional(alpha, dims=1)
    return grid, truncate_and_atomize(spec, grid, r, tail)


def brute_bilinear(atoms, fv, gv):
    """Plain-Python reference: (h/2) sum_x sum_k w_k (f(x+j)-f(x))(g(x+j)-g(x))."""
    grid = atoms.grid
    m = grid.points_per_axis
    total = 0.0
    for k in range(atoms.natoms):
        j = int(atoms.offsets[k, 0])
        w = float(atoms.weights[k])
        for i in range(m):
            df = fv[(i + j) % m] - fv[i]
            dg = gv[(i + j) % m] - gv[i]
            total += w * df * dg
    return 0.5 * grid.cell_volume * total


def test_bilinear_matches_brute_force():
    grid, atoms = make_atoms(points=32)
    rng = np.random.default_rng(5)
    fv = rng.standard_normal(32)
    gv = rng.standard_normal(32)
    got = bilinear(atoms, GridFunction(grid, fv), GridFunction(grid, gv))
    assert got == pytest.approx(brute_bilinear(atoms, fv, gv), rel=1e-12)


def test_position_dependent_forms_match_brute_force():
    # 2-D, weights depending on x: plain loops over points and atoms with the
    # weight of jump z taken at the departure point x, not at x + z
    grid = Grid(dims=2, points_per_axis=6, halfwidth=3.0)
    base = truncate_and_atomize(LevyMeasureSpec.fractional(1.0, dims=2), grid, 1.0, 2.0)
    m, n = grid.points_per_axis, grid.npoints
    rng = np.random.default_rng(13)
    scaled = KernelField.scaled(base, GridFunction(grid, rng.uniform(0.5, 2.0, n)))
    spec = NonlinearitySpec.pme(2.0)
    a = PathFunction.from_frames(grid, rng.standard_normal((4, n)), duration=1.0)
    b = PathFunction.from_frames(grid, rng.standard_normal((4, n)), duration=1.0)
    flux = [spec.value(a.frames[t]) - spec.value(b.frames[t]) for t in range(a.nsteps)]
    fv, gv = rng.standard_normal(n), rng.standard_normal(n)
    # a field with independent weights per (x, z) too, where x versus x + z
    # matters, and the constant-weight measure itself
    noisy = KernelField(grid, base, rng.uniform(0.0, 1.0, (n, base.natoms)))
    for field, weights in (
        (base, KernelField.constant(base).weights),
        (scaled, scaled.weights),
        (noisy, noisy.weights),
    ):
        form = tail = point = 0.0
        for k, (z0, z1) in enumerate(field.offsets.tolist()):
            for i in range(m):
                for j in range(m):
                    x = i * m + j
                    y = ((i + z0) % m) * m + (j + z1) % m
                    w = weights[x, k]
                    form += w * (fv[y] - fv[x]) * (gv[y] - gv[x])
                    jumps = [a.dt * (f[y] - f[x]) for f in flux]
                    tail += w * sum(jumps) ** 2
                    point += w * sum(d * d for d in jumps)
        hN = grid.cell_volume
        got = bilinear(field, GridFunction(grid, fv), GridFunction(grid, gv))
        assert got == pytest.approx(0.5 * hN * form, rel=1e-12)
        rep = oleinik_report(a, b, spec, field)
        assert rep.tail_square == pytest.approx(0.25 * hN * tail, rel=1e-12)
        assert rep.pointwise_square == pytest.approx(0.25 * hN * point, rel=1e-12)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_spectral_form_matches_the_shift_loop(data):
    # the Parseval route of an AtomMeasure against the shift loop of the same
    # weights as a KernelField; odd and even M (even M has a Nyquist column),
    # offsets past +-M/2 and past M so atoms alias onto one index mod M
    dims = data.draw(st.integers(min_value=1, max_value=2))
    m = data.draw(st.integers(min_value=1, max_value=8))
    grid = Grid(dims=dims, points_per_axis=m, halfwidth=1.0)
    drawn = data.draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(-2 * m, 2 * m), min_size=dims, max_size=dims),
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
    atoms = AtomMeasure(grid, offsets, np.array(list(table.values())))
    loop = KernelField.constant(atoms)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    frames = data.draw(st.sampled_from([(), (1,), (3,)]))
    shape = frames + (grid.npoints,)
    f = data.draw(st.sampled_from([1.0, 1e-3, 1e6])) * rng.standard_normal(shape)
    g = rng.standard_normal(shape)
    scale = grid.cell_volume * grid.npoints * atoms.total_mass
    for a, b in ((f, f), (f, g)):
        got = _jump_form(atoms, a, b)
        assert np.shape(got) == frames
        tol = 1e-13 * scale * float(np.max(np.abs(a))) * float(np.max(np.abs(b)))
        np.testing.assert_allclose(got, _jump_form(loop, a, b), rtol=0.0, atol=tol)
    # exact symmetry, and exact zeros on a zero difference (the identical-pair
    # Oleinik terms)
    assert np.array_equal(_jump_form(atoms, f, g), _jump_form(atoms, g, f))
    zero = np.zeros(shape)
    assert np.all(_jump_form(atoms, zero, g) == 0.0)
    assert np.all(_jump_form(atoms, zero, zero) == 0.0)
    fv = GridFunction(grid, f.reshape(-1, grid.npoints)[0])
    gv = GridFunction(grid, g.reshape(-1, grid.npoints)[0])
    assert bilinear(atoms, fv, gv) == bilinear(atoms, gv, fv)


def test_summation_by_parts():
    grid, atoms = make_atoms()
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = GridFunction(grid, rng.standard_normal(grid.npoints))
        g = GridFunction(grid, rng.standard_normal(grid.npoints))
        pairing = grid.cell_volume * float(np.dot(g.values, apply_truncated(atoms, f).values))
        energy = bilinear(atoms, f, g)
        assert pairing == pytest.approx(-energy, rel=1e-12, abs=1e-12 * max(1.0, abs(energy)))


def test_parabolic_bilinear_is_a_left_rule_in_time():
    grid, atoms = make_atoms(points=32)
    rng = np.random.default_rng(7)
    frames = rng.standard_normal((5, 32))
    path = PathFunction.from_frames(grid, frames, duration=2.0)
    want = sum(
        path.dt * bilinear(atoms, path.frame(k), path.frame(k)) for k in range(path.nsteps)
    )
    assert parabolic_bilinear(atoms, path, path) == pytest.approx(want, rel=1e-12)
    assert parabolic_seminorm(atoms, path) == pytest.approx(math.sqrt(want), rel=1e-12)
    _, finer = make_atoms(points=64)
    with pytest.raises(ValueError, match="measure's grid"):
        parabolic_bilinear(finer, path, path)


def test_time_tail_of_constant_path_is_exact():
    grid, atoms = make_atoms(points=32)
    rng = np.random.default_rng(9)
    base = rng.standard_normal(32)
    frames = np.tile(base, (6, 1))
    path = PathFunction.from_frames(grid, frames, duration=3.0)
    tail = time_tail(path)
    for k, t in enumerate(path.times):
        np.testing.assert_allclose(tail.frames[k], (3.0 - t) * base, rtol=1e-13, atol=1e-13)
    assert np.all(tail.frames[-1] == 0.0)


def test_time_tail_energy_bound():
    # |time_tail(f)|^2 <= (T^2/2)(1 + dt/T) |f|^2 in the parabolic seminorm
    grid, atoms = make_atoms(points=32)
    rng = np.random.default_rng(13)
    for trial in range(5):
        frames = rng.standard_normal((7, 32))
        path = PathFunction.from_frames(grid, frames, duration=1.5)
        lhs = parabolic_bilinear(atoms, time_tail(path), time_tail(path))
        rhs = parabolic_bilinear(atoms, path, path)
        duration = path.duration
        bound = 0.5 * duration**2 * (1.0 + path.dt / duration) * rhs
        assert lhs <= bound * (1.0 + 1e-12)


def test_fourier_seminorm_matches_gaussian_closed_form():
    # continuum value for exp(-x^2 / (2 sigma^2)): Gamma((alpha+1)/2) sigma^(1-alpha)
    # under the square root; the grid truncation leaves well under 1% here
    grid = Grid(dims=1, points_per_axis=2048, halfwidth=32.0)
    x = grid.axis_coordinates()
    for alpha in (0.5, 1.0, 1.5):
        for sigma in (0.7, 1.0):
            f = GridFunction(grid, np.exp(-(x**2) / (2.0 * sigma**2)))
            want = math.sqrt(math.gamma((alpha + 1.0) / 2.0) * sigma ** (1.0 - alpha))
            assert sobolev_seminorm_fourier(alpha, f) == pytest.approx(want, rel=1e-2)


def test_seminorm_routes_agree():
    grid = Grid(dims=1, points_per_axis=1024, halfwidth=32.0)
    x = grid.axis_coordinates()
    f = GridFunction(grid, np.exp(-(x**2) / (2.0 * 0.5**2)))
    for alpha in (0.5, 1.0, 1.5):
        spectral = sobolev_seminorm_fourier(alpha, f)
        direct = sobolev_seminorm_direct(alpha, f)
        assert abs(spectral - direct) / spectral < 0.01


def test_shrink_clamp_by_hand():
    vals = shrink_clamp(np.array([0.3, 1.0, -3.0, 2.6, -0.2, 0.0]), 0.5)
    np.testing.assert_array_equal(vals, [0.0, 0.5, -2.0, 2.0, 0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(min_value=-1e3, max_value=1e3),
    y=st.floats(min_value=-1e3, max_value=1e3),
    delta=st.floats(min_value=1e-3, max_value=10.0),
)
def test_shrink_clamp_is_a_normal_contraction(x, y, delta):
    tx = float(shrink_clamp(x, delta))
    ty = float(shrink_clamp(y, delta))
    assert abs(tx) <= abs(x)
    assert abs(tx - ty) <= abs(x - y) + 1e-12 * (abs(x) + abs(y))
    if abs(x) <= delta:
        assert tx == 0.0


def test_spatial_cutoff_levels():
    grid = Grid(dims=1, points_per_axis=256, halfwidth=8.0)
    cut = spatial_cutoff(grid, 2.0)
    x = grid.axis_coordinates()
    assert np.all(cut.values[np.abs(x) <= 2.0] == 1.0)
    assert np.all(cut.values[np.abs(x) >= 4.0] == 0.0)
    assert np.all((0.0 <= cut.values) & (cut.values <= 1.0))


def test_path_function_validation():
    grid = Grid(dims=1, points_per_axis=8, halfwidth=2.0)
    with pytest.raises(ValueError):
        PathFunction(grid, np.array([0.0, 1.0, 3.0]), np.zeros((3, 8)))
    with pytest.raises(ValueError):
        PathFunction(grid, np.array([0.5, 1.0]), np.zeros((2, 8)))
    with pytest.raises(ValueError):
        PathFunction(grid, np.array([0.0, 1.0]), np.zeros((3, 8)))


def test_density_approximation_band_and_shrink():
    grid = Grid(dims=1, points_per_axis=64, halfwidth=8.0)
    x = grid.axis_coordinates()
    duration = 1.0

    def pulse(coords, t):
        envelope = math.e * math.exp(-1.0 / (1.0 - (2.0 * t / duration - 1.0) ** 2)) if 0 < t < duration else 0.0
        return np.exp(-(coords[:, 0] ** 2)) * envelope

    path = PathFunction.sampled(grid, duration, nsteps=40, func=pulse)
    delta = duration / 10.0
    approx = density_approximation(path, delta)
    assert np.max(np.abs(approx.frames)) <= np.max(np.abs(path.frames)) + 1e-12
    # the band restriction plus two time mollifications of radius
    # kt = floor(delta/dt) keeps the support inside [2 delta - 2 kt dt, T - delta]
    kt = int(np.floor(delta / path.dt))
    late = path.times > duration - delta + 1e-9
    early = path.times < 2.0 * delta - 2.0 * kt * path.dt - 1e-9
    assert np.any(late)
    assert np.all(approx.frames[late] == 0.0)
    assert np.all(approx.frames[early] == 0.0)
    assert np.any(np.abs(approx.frames) > 0.0)



def ndimage_mollify(frames, grid, ks, kt):
    """Reference product-bump mollifier built on scipy.ndimage filters."""
    out = frames
    if ks > 0:
        offsets = np.arange(-ks, ks + 1)
        mesh = np.meshgrid(*([offsets] * grid.dims), indexing="ij")
        kernel = standard_bump(np.sqrt(sum(m.astype(np.float64) ** 2 for m in mesh)) / (ks + 1.0))
        kernel /= kernel.sum()
        boxes = out.reshape((-1,) + grid.shape)
        out = np.stack([ndimage.convolve(box, kernel, mode="wrap") for box in boxes])
        out = out.reshape(frames.shape)
    if kt > 0:
        out = ndimage.convolve1d(out, discrete_bump_kernel(kt), axis=0, mode="constant", cval=0.0)
    return out


@pytest.mark.parametrize("dims, points", [(1, 16), (2, 10), (3, 8)])
def test_mollifier_matches_the_ndimage_filters(dims, points):
    grid = Grid(dims=dims, points_per_axis=points, halfwidth=2.0)
    frames = np.random.default_rng(dims).random((9, grid.npoints)) + 0.5
    for ks in range(4):
        for kt in range(4):
            np.testing.assert_allclose(
                _mollify_space_time(frames, grid, ks, kt),
                ndimage_mollify(frames, grid, ks, kt),
                rtol=1e-14,
                atol=0.0,
                err_msg=f"ks={ks}, kt={kt}",
            )


def test_density_approximation_rejects_wide_delta():
    grid = Grid(dims=1, points_per_axis=16, halfwidth=2.0)
    path = PathFunction.from_frames(grid, np.ones((5, 16)), duration=1.0)
    with pytest.raises(ValueError):
        density_approximation(path, 0.21)
    density_approximation(path, 0.2)  # the boundary case is admissible
