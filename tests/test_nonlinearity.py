"""Nonlinearities, their smoothed versions, entropies, and companion maps."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nonlocal_pme import (
    AssumptionError,
    Grid,
    LevyMeasureSpec,
    NonlinearitySpec,
    PathFunction,
    PowerEntropy,
    hoelder_certificate,
    lipschitz_bound,
    lp_companion,
    nonlinearity,
    stroock_varopoulos_gap,
    truncate_and_atomize,
)


def test_raw_values_by_hand():
    pme = NonlinearitySpec.pme(2.0)
    np.testing.assert_allclose(pme.value(np.array([-2.0, 0.0, 3.0])), [-4.0, 0.0, 9.0])
    stefan = NonlinearitySpec.stefan(1.0)
    np.testing.assert_allclose(
        stefan.value(np.array([-2.0, -0.5, 0.5, 2.0])), [-1.0, 0.0, 0.0, 1.0]
    )
    table = NonlinearitySpec.table([-1.0, 0.0, 2.0], [-2.0, 0.0, 1.0])
    np.testing.assert_allclose(table.value(np.array([-0.5, 1.0])), [-1.0, 0.5])


def test_spec_validation():
    with pytest.raises(AssumptionError):
        NonlinearitySpec.pme(0.0)
    with pytest.raises(AssumptionError):
        NonlinearitySpec.stefan(-1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        NonlinearitySpec.table([0.0, 0.0, 1.0], [0.0, 0.5, 1.0])
    with pytest.raises(AssumptionError, match="nondecreasing"):
        NonlinearitySpec.table([0.0, 1.0, 2.0], [0.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        NonlinearitySpec.pme(2.0, mollification_index=-1)


def test_smoothed_value_vanishes_at_zero_exactly():
    for kind in (
        NonlinearitySpec.pme(0.5, mollification_index=8),
        NonlinearitySpec.stefan(0.3, mollification_index=8),
        NonlinearitySpec.table([-1.0, 0.5, 2.0], [-3.0, 1.0, 1.5], mollification_index=8),
    ):
        assert kind.value(np.array([0.0]))[0] == 0.0


def test_smoothing_error_decreases_as_n_doubles():
    u = np.linspace(-2.0, 2.0, 801)
    raw = NonlinearitySpec.pme(2.0)
    errors = []
    for n in (4, 8, 16, 32):
        spec = NonlinearitySpec.pme(2.0, mollification_index=n)
        errors.append(float(np.max(np.abs(spec.value(u) - raw.value(u)))))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3


@settings(max_examples=60, deadline=None)
@given(
    u=st.floats(min_value=-5.0, max_value=5.0),
    v=st.floats(min_value=-5.0, max_value=5.0),
    n=st.sampled_from([0, 1, 4]),
)
def test_values_are_monotone(u, v, n):
    spec = NonlinearitySpec.pme(1.5, mollification_index=n)
    a, b = spec.value(np.array([u])), spec.value(np.array([v]))
    assert (u - v) * (a[0] - b[0]) >= 0.0


def test_linear_derivative_is_one():
    spec = NonlinearitySpec.linear(mollification_index=4)
    np.testing.assert_allclose(spec.derivative(np.linspace(-3, 3, 11)), 1.0, atol=1e-12)


def test_smoothed_derivative_tracks_the_raw_slope():
    spec = NonlinearitySpec.pme(2.0, mollification_index=64)
    u = np.linspace(0.5, 2.0, 16)
    np.testing.assert_allclose(spec.derivative(u), 2.0 * u, rtol=1e-2)


def test_primitive_closed_forms():
    w = np.array([-1.5, -0.25, 0.0, 0.75, 2.0])
    pme = NonlinearitySpec.pme(2.0)
    np.testing.assert_allclose(pme.primitive(w), np.abs(w) ** 3 / 3.0, rtol=1e-13)
    lin = NonlinearitySpec.linear()
    np.testing.assert_allclose(lin.primitive(w), w**2 / 2.0, rtol=1e-13)
    stefan = NonlinearitySpec.stefan(1.0)
    np.testing.assert_allclose(
        stefan.primitive(w), 0.5 * np.maximum(np.abs(w) - 1.0, 0.0) ** 2, atol=1e-15
    )


def test_primitive_of_table_matches_quadrature():
    tbl = NonlinearitySpec.table([-1.0, 0.0, 1.0, 2.0], [-2.0, 0.0, 0.5, 3.0])
    for w in (1.7, -0.8, 0.3):
        want, err = integrate.quad(
            lambda s: float(tbl.value(np.array([s]))[0]), 0.0, w, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-11
        assert float(tbl.primitive(np.array([w]))[0]) == pytest.approx(want, abs=1e-12)


def test_primitive_of_smoothed_map_matches_quadrature(monkeypatch):
    # The reference integrates value piecewise between its kinks: each raw
    # kink shifted by every bump node / n.
    knots = [-1.0, 0.0, 1.0, 2.0]
    cases = [
        (NonlinearitySpec.pme(2.0, mollification_index=16), [0.0]),
        (NonlinearitySpec.pme(0.5, mollification_index=2), [0.0]),
        (NonlinearitySpec.stefan(0.3, mollification_index=3), [-0.3, 0.3]),
        (NonlinearitySpec.table(knots, [-2.0, 0.0, 0.5, 3.0], mollification_index=4), knots),
    ]

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a smoothed primitive must not run a quadrature")

    monkeypatch.setattr(nonlinearity, "_cumulative_integral", no_quadrature)
    for spec, raw_kinks in cases:
        n = spec.mollification_index
        kinks = np.unique(np.add.outer(raw_kinks, nonlinearity._VALUE_NODES / n))
        for w in (0.7, -1.3):
            lo, hi = min(0.0, w), max(0.0, w)
            edges = np.concatenate([[lo], kinks[(kinks > lo) & (kinks < hi)], [hi]])
            want = err = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                piece, piece_err = integrate.quad(
                    lambda s: float(spec.value(np.array([s]))[0]), a, b, epsabs=1e-14, epsrel=1e-12
                )
                want += piece
                err += piece_err
            want *= np.sign(w)
            assert err < 1e-12 * abs(want)
            got = float(spec.primitive(np.array([w]))[0])
            assert got == pytest.approx(want, rel=1e-12), (spec.kind, n, w)


SMOOTHED_KINDS = [
    NonlinearitySpec.pme(2.0, mollification_index=2),
    NonlinearitySpec.pme(0.5, mollification_index=3),
    NonlinearitySpec.stefan(0.3, mollification_index=2),
    NonlinearitySpec.linear(mollification_index=1),
    NonlinearitySpec.table([-1.0, 0.0, 1.0, 2.0], [-2.0, 0.0, 0.5, 3.0], mollification_index=4),
]


@pytest.mark.parametrize("spec", SMOOTHED_KINDS, ids=lambda spec: spec.kind)
def test_blocked_bump_sums_match_single_passes(spec):
    block = nonlinearity._BUMP_BLOCK
    rng = np.random.default_rng(17)
    for name in ("value", "derivative", "primitive"):
        f = getattr(spec, name)
        # a long row runs in blocks from multiples of the block size; its last
        # block is not a multiple of 4 long, and 3 * block + 1 points end in a
        # block of block + 1 points rather than a lone one
        for length in (2 * block + 37, 3 * block + 1):
            u = 3.0 * rng.standard_normal(length)
            cuts = [0, block, 2 * block, length]
            want = np.concatenate([f(u[lo:hi]) for lo, hi in zip(cuts, cuts[1:])])
            assert np.array_equal(f(u), want)
        # stacked rows of a third of a block or of one point, more points than
        # a block in all: each row comes out as it does alone
        for shape in ((9, block // 3 + 1), (2 * block + 3, 1)):
            rows = 3.0 * rng.standard_normal(shape)
            got = f(rows)
            assert got.shape == rows.shape
            for i in range(rows.shape[0]):
                assert np.array_equal(got[i], f(rows[i]))
        # a 0-d input gives a 0-d result, the value of a one-point batch
        x = float(rng.standard_normal())
        assert f(x).shape == ()
        assert f(x) == f(np.array([x]))[0]


@pytest.mark.parametrize("shape", [(300_000,), (33, 96 * 96)], ids=["row", "frames"])
def test_bump_sums_do_not_allocate_per_node(shape):
    # a single pass would hold points x 64 doubles at once (the 2-D Oleinik
    # suite's 33 frames of 96^2 points took 617 MB); the blocked sums stay
    # below 8 doubles per point
    spec = NonlinearitySpec.pme(2.0, mollification_index=2)
    u = np.random.default_rng(3).uniform(-2.0, 2.0, shape)
    tracemalloc.start()
    try:
        spec.value(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * u.size


def test_power_entropy_spot_values():
    ent = PowerEntropy(3.0)
    assert ent.value(np.array([-2.0]))[0] == 8.0
    assert ent.derivative(np.array([-2.0]))[0] == -12.0
    assert ent.second_derivative(np.array([2.0]))[0] == 12.0
    assert ent.regularized_second(np.array([0.0]), 0.1)[0] == pytest.approx(0.6, rel=1e-14)
    with pytest.raises(AssumptionError):
        PowerEntropy(1.0)


def test_companion_matches_power_law_closed_form():
    # for phi(u) = |u|^(m-1) u and the p-entropy the exact companion is
    # S(w) = 2 sqrt(p(p-1) m) / (p+m-1) |w|^((p+m-1)/2) sign(w); the smoothed
    # phi_n shifts it by O(1/n)
    w = np.linspace(-1.5, 1.5, 301)
    spec = NonlinearitySpec.pme(2.0, mollification_index=64)
    for p, tol in ((4.0 / 3.0, 5e-3), (2.0, 1e-3), (4.0, 1e-5)):
        comp = lp_companion(spec, p)
        exact = (
            2.0
            * math.sqrt(p * (p - 1.0) * 2.0)
            / (p + 1.0)
            * np.sign(w)
            * np.abs(w) ** ((p + 1.0) / 2.0)
        )
        assert np.max(np.abs(comp.value(w) - exact)) < tol


def test_linear_companion_is_sqrt_two():
    spec = NonlinearitySpec.linear(mollification_index=1)
    comp = lp_companion(spec, 2.0)
    w = np.linspace(-2.0, 2.0, 101)
    np.testing.assert_allclose(comp.value(w), math.sqrt(2.0) * w, atol=1e-13)


def test_companion_derivative_route():
    spec = NonlinearitySpec.pme(2.0, mollification_index=64)
    w = np.linspace(0.2, 1.5, 40)
    for p in (2.0, 4.0):
        comp = lp_companion(spec, p)
        want = math.sqrt(p * (p - 1.0) * 2.0) * w ** ((p - 1.0) / 2.0)
        np.testing.assert_allclose(comp.derivative(w), want, rtol=1e-2)


def test_companion_requires_smoothing():
    with pytest.raises(AssumptionError):
        lp_companion(NonlinearitySpec.pme(2.0), 2.0)


def test_hoelder_certificate_closed_forms():
    # ratio |s|^m / |s|^beta peaks at 1 for beta = m and at R^(m-beta) below
    half = hoelder_certificate(NonlinearitySpec.pme(0.5), beta=0.5, radius=1.0)
    assert half.constant == pytest.approx(1.0, rel=1e-12)
    quad = hoelder_certificate(NonlinearitySpec.pme(2.0), beta=1.0, radius=2.0)
    assert quad.constant == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(AssumptionError):
        hoelder_certificate(NonlinearitySpec.pme(1.0), beta=1.5, radius=1.0)


def test_lipschitz_bound_values():
    assert lipschitz_bound(NonlinearitySpec.linear(), 5.0) == 1.0
    assert lipschitz_bound(NonlinearitySpec.stefan(1.0), 5.0) == 1.0
    assert lipschitz_bound(NonlinearitySpec.pme(2.0), 1.0) == pytest.approx(2.0)
    # smoothing widens the reach by 1/n
    assert lipschitz_bound(NonlinearitySpec.pme(2.0, mollification_index=2), 1.0) == pytest.approx(3.0)
    assert lipschitz_bound(NonlinearitySpec.pme(3.0), 1.5) == pytest.approx(6.75)
    tbl = NonlinearitySpec.table([-1.0, 0.0, 2.0], [-2.5, 0.0, 1.0])
    assert lipschitz_bound(tbl, 4.0) == pytest.approx(2.5)
    with pytest.raises(AssumptionError):
        lipschitz_bound(NonlinearitySpec.pme(0.5), 1.0)


def test_stroock_varopoulos_gap_on_random_paths():
    grid = Grid(dims=1, points_per_axis=32, halfwidth=4.0)
    atoms = truncate_and_atomize(LevyMeasureSpec.fractional(1.0, dims=1), grid, 0.25, 2.0)
    spec = NonlinearitySpec.pme(2.0, mollification_index=4)
    rng = np.random.default_rng(21)
    for p in (1.5, 2.0, 3.0):
        comp = lp_companion(spec, p)
        slope = PowerEntropy(p).slope_map()
        for _ in range(5):
            frames = rng.standard_normal((4, 32))
            psi = PathFunction.from_frames(grid, frames, duration=1.0)
            gap = stroock_varopoulos_gap(slope, spec, comp, psi, atoms)
            assert gap >= -1e-12


def test_stroock_varopoulos_rejects_oversized_companions():
    grid = Grid(dims=1, points_per_axis=16, halfwidth=4.0)
    atoms = truncate_and_atomize(LevyMeasureSpec.fractional(1.0, dims=1), grid, 0.5, 2.0)
    psi = PathFunction.from_frames(grid, np.linspace(0, 1, 32).reshape(2, 16), duration=1.0)
    lin = NonlinearitySpec.linear(mollification_index=1)

    class Doubler:
        def value(self, u):
            return 2.0 * np.asarray(u)

        def derivative(self, u):
            return np.full_like(np.asarray(u, dtype=np.float64), 2.0)

    slope = PowerEntropy(2.0).slope_map()
    # outer' * inner' = 2, companion'^2 = 4: the slope inequality fails
    with pytest.raises(AssumptionError, match="slope inequality"):
        stroock_varopoulos_gap(slope, lin, Doubler(), psi, atoms)
