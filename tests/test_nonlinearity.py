"""Nonlinearities, their smoothed versions, entropies, and companion maps."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

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


def _pointwise(f, u):
    """f taken one point at a time, each distinct point once."""
    memo = {x: f(x) for x in np.unique(u)}
    return np.array([memo[x] for x in u.flat]).reshape(u.shape)


@pytest.mark.parametrize("spec", SMOOTHED_KINDS, ids=lambda spec: spec.kind)
def test_blocked_bump_sums_match_single_passes(spec):
    # every value of a bump sum is that of its own point alone, whatever the
    # batch: shapes around the block size, stacked rows, a stack of 96^2
    # frames (drawn from 512 states, so each state sits at many places in
    # its blocks), and 2,000 distinct states
    block = nonlinearity._BUMP_BLOCK
    rng = np.random.default_rng(17)
    pool = 3.0 * rng.standard_normal(512)
    shapes = [(), (1,), (block - 1,), (block,), (block + 1,), (2 * block + 1,), (9, 43), (3, 96 * 96)]
    batches = [pool[rng.integers(pool.size, size=shape)] for shape in shapes]
    batches.append(rng.uniform(-2.0, 2.0, 2000))
    for name in ("value", "derivative", "primitive"):
        f = getattr(spec, name)
        for u in batches:
            got = f(u)
            assert got.shape == u.shape
            assert np.array_equal(got, _pointwise(f, u)), (name, u.shape)


def test_bump_sums_do_not_depend_on_the_blas_thread_count():
    # the bump sums call no BLAS, so a child interpreter with two BLAS threads
    # gives the bytes of this process
    spec = NonlinearitySpec.pme(2.0, mollification_index=2)
    u = np.random.default_rng(11).uniform(-2.0, 2.0, 1000)
    names = ("value", "derivative", "primitive")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from nonlocal_pme import NonlinearitySpec\n"
        "u = np.frombuffer(sys.stdin.buffer.read())\n"
        f"spec = {spec!r}\n"
        f"for name in {names!r}:\n"
        "    sys.stdout.buffer.write(getattr(spec, name)(u).tobytes())\n"
    )
    package_root = str(Path(nonlinearity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        input=u.tobytes(),
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True,
        check=True,
        timeout=120,
    )
    assert child.stdout == b"".join(getattr(spec, name)(u).tobytes() for name in names)


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


def _counting(monkeypatch, owner, name, size=False):
    """Replace owner.name by a wrapper that counts its calls (or, with size,
    the input points of its calls)."""
    original = getattr(owner, name)
    count = [0]

    def counted(self, *args, **kwargs):
        count[0] += int(np.size(args[0])) if size else 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


@pytest.mark.parametrize("spec", SMOOTHED_KINDS, ids=lambda spec: spec.kind)
def test_flux_anchors_are_summed_once_per_spec(spec, monkeypatch):
    u = np.random.default_rng(29).uniform(-2.0, 2.0, 300)
    zero = np.zeros(())
    value_anchor = spec._averaged(spec.raw_value, zero)
    primitive_anchor = spec._averaged(spec._raw_primitive, zero)
    want_value = spec._averaged(spec.raw_value, u) - value_anchor
    want_primitive = spec._averaged(spec._raw_primitive, u) - primitive_anchor - value_anchor * u
    calls = _counting(monkeypatch, NonlinearitySpec, "_averaged")
    fresh = replace(spec)  # cold cache; the shared specs may be warm
    assert np.array_equal(fresh.value(u), want_value)
    assert calls[0] == 3  # the point sums and both anchors
    for name, want in (("value", want_value), ("primitive", want_primitive)):
        calls[0] = 0
        assert np.array_equal(getattr(fresh, name)(u), want)
        assert calls[0] == 1, name


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


def _per_query_gl(func, w, grade=None, segments=256):
    """Reference route: the table of _cumulative_integral, plus a 16-point
    Gauss-Legendre pass from each query's segment edge to the query."""
    out = np.zeros(w.shape)
    for sgn in (1.0, -1.0):
        mask = (w * sgn) > 0.0
        if not np.any(mask):
            continue
        mags = nonlinearity._segment_edges(float(np.max(w[mask] * sgn)), segments, grade)
        edges = sgn * mags
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = mid[:, None] + half[:, None] * nonlinearity._GL16_NODES
        vals = func(nodes.reshape(-1)).reshape(nodes.shape)
        cum = np.concatenate([[0.0], np.cumsum((vals @ nonlinearity._GL16_WEIGHTS) * half)])
        q = w[mask]
        idx = np.clip(np.searchsorted(mags, np.abs(q)) - 1, 0, mags.size - 2)
        mid_q = 0.5 * (edges[idx] + q)
        half_q = 0.5 * (q - edges[idx])
        nodes_q = mid_q[:, None] + half_q[:, None] * nonlinearity._GL16_NODES
        vals_q = func(nodes_q.reshape(-1)).reshape(nodes_q.shape)
        out[mask] = cum[idx] + (vals_q @ nonlinearity._GL16_WEIGHTS) * half_q
    return out


def _reported_integrand(comp):
    """The integrand of the level LpCompanion.value reports, and its grade."""
    p = comp.entropy.p

    def integrand(x):
        if p >= 2.0:
            curvature = comp.entropy.second_derivative(x)
        else:
            curvature = comp.entropy.regularized_second(x, nonlinearity._COMPANION_DELTAS[-1])
        return np.sqrt(curvature * comp._slope_floor(x))

    return integrand


def _companion_grade(p, scale):
    if p == 2.0:
        return None
    if p > 2.0:
        return 1e-6 * scale
    return min(0.25 * nonlinearity._COMPANION_DELTAS[-1], 1e-3 * scale)


@pytest.mark.parametrize("grade", [None, 1e-6, 1e-3], ids=["uniform", "graded-1e-6", "graded-1e-3"])
def test_partial_rule_integrates_degree_15_exactly(grade):
    # the interpolant of 16 node values reproduces a polynomial of degree 15
    # or less, so its closed-form antiderivative is exact up to rounding: at
    # random queries of both signs, at segment edges and at +-wmax
    rng = np.random.default_rng(31)
    polys = [np.polynomial.Polynomial(rng.standard_normal(deg + 1)) for deg in (0, 3, 15)]
    q = np.concatenate([rng.uniform(-1.3, 1.7, 200), [1.7, -1.3]])
    for sgn, wmax in ((1.0, 1.7), (-1.0, 1.3)):
        q = np.concatenate([q, sgn * nonlinearity._segment_edges(wmax, 256, grade)[1::17]])
    for poly in polys:
        want = poly.integ()(q) - poly.integ()(0.0)
        got = nonlinearity._cumulative_integral(poly, q, grade=grade)
        scale = np.max(np.abs(poly.integ()(np.linspace(-1.3, 1.7, 301)) - poly.integ()(0.0)))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, poly.degree()


def test_stacked_rows_integrate_like_single_rows():
    spec = NonlinearitySpec.pme(2.0, mollification_index=2)
    comp = lp_companion(spec, 1.5)
    funcs = [
        lambda x, d=d: np.sqrt(comp.entropy.regularized_second(x, d) * comp._slope_floor(x))
        for d in nonlinearity._COMPANION_DELTAS
    ] + [np.polynomial.Polynomial([0.5, -1.0, 0.0, 2.0])]
    w = np.random.default_rng(37).standard_normal((4, 256))

    def stacked(x):
        return np.stack([f(x) for f in funcs])

    for grade in (None, 2.5e-5):
        rows = nonlinearity._cumulative_integral(stacked, w, grade=grade)
        assert rows.shape == (len(funcs),) + w.shape
        for f, row in zip(funcs, rows):
            assert np.array_equal(row, nonlinearity._cumulative_integral(f, w, grade=grade))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_companion_agrees_with_per_query_quadrature(p):
    # for m = 2 the new partial rule and the per-query GL pass agree to 1e-9
    # relative (measured <= 4e-12); the table they share sets both errors
    w = np.random.default_rng(41).standard_normal((4, 256))
    scale = np.max(np.abs(w))
    comp = lp_companion(NonlinearitySpec.pme(2.0, mollification_index=2), p)
    got = comp.value(w)
    want = _per_query_gl(_reported_integrand(comp), w, _companion_grade(p, scale))
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_companion_is_no_less_accurate_than_per_query_quadrature_at_cusps(p):
    # for m = 0.5 every bump node puts a square-root cusp into the smoothed
    # slope inside |u| < 1/n, where both routes err by up to ~1e-6 relative
    # against a 16x finer table, mostly through the table they share. Away
    # from the cusps they agree to 1e-9; overall the interpolant rule errs
    # at most a quarter more than the per-query pass (measured 0.78-1.01x)
    n = 2
    w = np.random.default_rng(43).standard_normal((4, 256))
    scale = np.max(np.abs(w))
    comp = lp_companion(NonlinearitySpec.pme(0.5, mollification_index=n), p)
    integrand = _reported_integrand(comp)
    grade = _companion_grade(p, scale)
    got = comp.value(w)
    old = _per_query_gl(integrand, w, grade)
    fine = _per_query_gl(integrand, w, grade, segments=4096)
    size = np.max(np.abs(fine))
    # the segment holding each query lies beyond the last cusp
    edges = nonlinearity._segment_edges(scale, 256, grade)
    beyond = np.abs(w) > 1.0 / n + np.max(np.diff(edges))
    assert np.count_nonzero(beyond) > 100
    assert np.max(np.abs(got - old)[beyond]) <= 1e-9 * size
    assert np.max(np.abs(got - fine)) <= 1.25 * np.max(np.abs(old - fine))


def test_companion_levels_share_one_slope_table(monkeypatch):
    # one smoothed-slope evaluation per sign for all three levels (twelve
    # when each level and each query batch took its own)
    comp = lp_companion(NonlinearitySpec.pme(2.0, mollification_index=2), 1.5)
    calls = _counting(monkeypatch, NonlinearitySpec, "derivative")
    comp.value(np.random.default_rng(47).standard_normal((4, 256)))
    assert calls[0] == 2


def test_companion_rejects_levels_that_move_away_from_the_limit(monkeypatch):
    comp = lp_companion(NonlinearitySpec.pme(2.0, mollification_index=2), 1.5)
    w = np.random.default_rng(53).standard_normal((4, 256))
    comp.value(w)
    monkeypatch.setattr(nonlinearity, "_COMPANION_DELTAS", nonlinearity._COMPANION_DELTAS[::-1])
    with pytest.raises(AssumptionError, match="moved away from the limit"):
        comp.value(w)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_companion_evaluates_the_flux_on_its_table_alone(p, monkeypatch):
    # work, not time: 256 segments x 16 nodes per sign, each a 64-node bump
    # sum, and no evaluation per query
    comp = lp_companion(NonlinearitySpec.pme(2.0, mollification_index=2), p)
    points = _counting(monkeypatch, NonlinearitySpec, "raw_value", size=True)
    comp.value(np.random.default_rng(59).standard_normal((4, 256)))
    assert points[0] <= 2 * 4096 * 64


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
