"""Sample-based symmetrization, exact polygon symmetrals, and diagnostics."""

import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import cKDTree

from zonomed import (
    ConvexPolygon2D,
    EmpiricalSample,
    GaussianState,
    RegressorConfig,
    complement_basis,
    conjecture_explorer,
    distances_to_polygon,
    empirical,
    norm_reduction_check,
    polygon_steiner_symmetral_2d,
    regression_coefficient,
    sample_uniform_polygon,
    symmetrize_gaussian,
    symmetrize_sample,
    theorem1_check,
)
from zonomed.directions import _complement_rows, random_direction, sphere_directions
from zonomed.empirical import (
    _chi_square_uniformity,
    _conditional_mean,
    _symmetry_statistic,
    _window_means,
    _window_starts,
)
from zonomed.polygon import polygon_area
from conftest import record_calls

DIAG_U = np.array([1.0, 1.0]) / math.sqrt(2.0)
SQUARE = ConvexPolygon2D([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def gaussian_sample(n, seed, cov=((1.0, 0.0), (0.0, 4.0))):
    rng = np.random.default_rng(seed)
    return EmpiricalSample(rng.multivariate_normal([0.0, 0.0], np.asarray(cov), size=n))


class TestComplementBasis:
    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormal_complement(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        b = complement_basis(u)
        assert b.shape == (d - 1, d)
        np.testing.assert_allclose(b @ b.T, np.eye(d - 1), atol=1e-12)
        np.testing.assert_allclose(b @ u, np.zeros(d - 1), atol=1e-12)

    def test_deterministic(self):
        u = np.array([0.6, 0.8])
        np.testing.assert_array_equal(complement_basis(u), complement_basis(u))

    def test_householder_rows(self):
        # k = 1, v = u - e_1 = (0.6, -1.8): row 0 of I - 2 v v'/(v'v)
        np.testing.assert_allclose(complement_basis([0.6, -0.8]), [[0.8, 0.6]], atol=1e-15)

    @pytest.mark.parametrize("d", [1, 30])
    def test_extreme_dimensions(self, d):
        u = np.random.default_rng(d).standard_normal(d)
        u /= np.linalg.norm(u)
        b = complement_basis(u)
        assert b.shape == (d - 1, d)
        np.testing.assert_allclose(b @ b.T, np.eye(d - 1), atol=1e-14)
        np.testing.assert_allclose(b @ u, np.zeros(d - 1), atol=1e-14)


    @pytest.mark.parametrize("d", range(1, 9))
    def test_bits_of_the_householder_formula(self, d):
        # the batched rows keep the bits of the one-vector formula, whose
        # v'v is v @ v; np.sum(v * v) differed on 7-20% of such vectors
        rng = np.random.default_rng(d)
        U = rng.standard_normal((300, d))
        U[::7, 0] = 0.0 if d > 1 else 1.0  # exact zeros
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        for u in U:
            k = int(np.argmax(np.abs(u)))
            v = u.copy()
            v[k] += np.copysign(1.0, u[k])
            expected = np.delete(np.eye(d) - np.outer(v, v * (2 / (v @ v))), k, 0)
            assert complement_basis(u).tobytes() == expected.tobytes()

    def test_bits_of_the_pivot_rows(self):
        # the V_3 pivots take their bases of u-perp from the same rows
        U = np.random.default_rng(3).standard_normal((4, 500, 3))
        U /= np.linalg.norm(U, axis=-1, keepdims=True)
        rows = _complement_rows(U)
        for u, r in zip(U.reshape(-1, 3), rows.reshape(-1, 2, 3)):
            assert complement_basis(u).tobytes() == r.tobytes()


class TestSymmetrizeSample:
    def test_d1_centers_the_sample(self):
        sample = EmpiricalSample(np.array([[1.0], [2.0], [6.0]]))
        out = symmetrize_sample(sample, [1.0], RegressorConfig("knn", k=2))
        assert out.draws.mean() == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_crosscheck_exact_linear(self):
        n = 100_000
        sample = gaussian_sample(n, seed=0)
        out = symmetrize_sample(sample, DIAG_U, RegressorConfig("exact_linear"))
        analytic = symmetrize_gaussian(GaussianState([0.0, 0.0], np.diag([1.0, 4.0])), DIAG_U)
        cov_hat = np.cov(out.draws, rowvar=False)
        gap = np.linalg.norm(cov_hat - analytic.cov, ord=2)
        assert gap <= 5.0 / math.sqrt(n) * np.linalg.norm(np.diag([1.0, 4.0]), ord=2)

    def test_reflection_symmetric_sample_small_shift(self):
        n = 10_000
        rng = np.random.default_rng(1)
        half = rng.normal(size=(n // 2, 2))
        u = DIAG_U
        reflected = half - 2.0 * (half @ u)[:, None] * u[None, :]
        sample = EmpiricalSample(np.vstack([half, reflected]))
        k = math.isqrt(n)
        out = symmetrize_sample(sample, u, RegressorConfig("knn", k=k))
        shift = np.abs((sample.draws - out.draws) @ u).max()
        assert shift <= 10.0 / math.sqrt(k) + n ** (-0.25)

    def test_projection_coordinates_untouched(self):
        sample = gaussian_sample(2000, seed=2)
        basis = complement_basis(DIAG_U)
        out = symmetrize_sample(sample, DIAG_U, RegressorConfig("knn", k=45))
        np.testing.assert_allclose(
            out.draws @ basis.T, sample.draws @ basis.T, atol=1e-12
        )

    def test_exact_linear_idempotent(self):
        sample = gaussian_sample(5000, seed=3)
        cfg = RegressorConfig("exact_linear")
        once = symmetrize_sample(sample, DIAG_U, cfg)
        twice = symmetrize_sample(once, DIAG_U, cfg)
        np.testing.assert_allclose(twice.draws, once.draws, atol=1e-10)

    def test_k_larger_than_n_rejected(self):
        sample = EmpiricalSample(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            symmetrize_sample(sample, [1.0, 0.0], RegressorConfig("knn", k=5))

    def test_degenerate_projection_falls_back_to_mean(self):
        draws = np.column_stack([np.zeros(6), np.arange(6.0)])
        sample = EmpiricalSample(draws)
        out = symmetrize_sample(sample, [0.0, 1.0], RegressorConfig("knn", k=2))
        assert out.draws[:, 1].mean() == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.draws[:, 0], 0.0, atol=0.0)


def sample_moments(draws):
    """Mean and 1/N covariance of a sample."""
    mean = draws.mean(axis=0)
    centred = draws - mean
    return mean, centred.T @ centred / len(draws)


def reference_ols_mean(draws, u):
    """OLS of u'X on the projected coordinates B X by a direct lstsq, the
    minimum-norm fit: the reference for exact_linear on rank-deficient
    samples."""
    y = draws @ u
    p = draws @ complement_basis(u).T
    p_centred = p - p.mean(axis=0)
    slope, *_ = np.linalg.lstsq(p_centred, y - y.mean(), rcond=None)
    return y.mean() + p_centred @ slope


def _line(n, u, offset):
    return np.arange(float(n))[:, None] * np.asarray(u) + np.asarray(offset)


RANK_DEFICIENT = {
    "two-points-plane": (np.array([[0.0, 0.0], [1.0, 2.0]]), [1.0, 0.0]),
    "line-y-2x": (np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)]), [0.0, 1.0]),
    "constant-u-column": (
        np.column_stack([np.random.default_rng(40).standard_normal(6), np.full(6, 3.0)]),
        [0.0, 1.0],
    ),
    "plane-in-space": (
        np.random.default_rng(41).standard_normal((6, 2)) @ [[1.0, 2.0, 0.5], [0.0, 1.0, -1.0]]
        + [1.0, -2.0, 0.5],
        np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
    ),
    "duplicated-columns": (
        np.random.default_rng(42).standard_normal((6, 3)) @ [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                                             [0.0, 0.0, 0.0]],
        [0.0, 0.0, 1.0],
    ),
}


class TestExactLinearStep:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        extra=st.integers(1, 40),
        log_cond=st.floats(0.0, 4.0),
        shift=st.floats(0.0, 1e3),
    )
    def test_maps_moments_as_the_gaussian_step(self, seed, d, extra, log_cond, shift):
        # one step maps the sample's (mean, 1/N covariance) exactly as
        # symmetrize_gaussian maps that Gaussian state; the draws are whitened
        # so the sample covariance has condition number 10**log_cond, and
        # shifted by up to 1e3 times their spread (the error grows like
        # eps * shift / spread)
        rng = np.random.default_rng(seed)
        n = d + extra
        z = rng.standard_normal((n, d))
        z -= z.mean(axis=0)
        z = np.linalg.solve(np.linalg.cholesky(z.T @ z / n), z.T).T
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = np.logspace(0.0, log_cond, d)
        draws = (z * np.sqrt(eigs)) @ q.T + shift * math.sqrt(eigs[-1]) * random_direction(rng, d)
        u = random_direction(rng, d)
        mean, cov = sample_moments(draws)
        expected = symmetrize_gaussian(GaussianState(mean, cov), u)
        out = symmetrize_sample(EmpiricalSample(draws), u, RegressorConfig("exact_linear"))
        got_mean, got_cov = sample_moments(out.draws)
        scale = np.abs(cov).max()
        np.testing.assert_allclose(got_cov, expected.cov, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            got_mean, expected.mean, rtol=0.0, atol=1e-12 * np.abs(draws).max()
        )

    @pytest.mark.parametrize("name", list(RANK_DEFICIENT))
    def test_rank_deficient_sample_gets_minimum_norm_fit(self, name):
        draws, u = RANK_DEFICIENT[name]
        u = np.asarray(u, dtype=float)
        got = _conditional_mean(EmpiricalSample(draws), u, RegressorConfig("exact_linear"))
        np.testing.assert_allclose(got, reference_ols_mean(draws, u), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("method", ["exact_linear", "knn"])
    @pytest.mark.parametrize(
        "draws, u",
        [
            (_line(8, [0.6, 0.8], [3.0, -1.0]), [0.6, 0.8]),
            (_line(6, np.array([1.0, 2.0, 2.0]) / 3.0, [1.0, 0.5, -2.0]),
             np.array([1.0, 2.0, 2.0]) / 3.0),
        ],
        ids=["plane", "space"],
    )
    def test_line_parallel_to_u_is_centred(self, draws, u, method):
        # the projections agree up to roundoff, so the conditional mean is global
        u = np.asarray(u)
        out = symmetrize_sample(EmpiricalSample(draws), u, RegressorConfig(method, k=3))
        t = draws @ u
        np.testing.assert_allclose(out.draws @ u, t - t.mean(), rtol=0.0, atol=1e-14)


def looped_symmetry_statistic(draws):
    """The statistic one probe at a time, with masked means."""
    d = draws.shape[1]
    probes = sphere_directions(d, 16 if d <= 2 else 32, seed=0)
    stat = 0.0
    for col in (draws @ probes.T).T:
        pos = col[col > 0.0]
        neg = col[col < 0.0]
        m_pos = pos.mean() if pos.size else 0.0
        m_neg = neg.mean() if neg.size else 0.0
        stat = max(stat, abs(m_pos + m_neg))
    return stat


class TestSymmetryStatistic:
    @pytest.mark.parametrize(
        "draws",
        [
            np.random.default_rng(50).standard_normal((200, 1)),
            np.random.default_rng(51).standard_normal((300, 2)) * [1.0, 3.0] + [0.5, 0.0],
            np.random.default_rng(52).exponential(size=(250, 3)),
            np.random.default_rng(53).standard_normal((100, 5)),
            np.vstack([np.zeros((5, 2)), np.random.default_rng(54).standard_normal((20, 2))]),
            np.zeros((4, 3)),
            np.array([[0.3, -1.2]]),
            np.array([[2.0], [0.5], [7.0]]),
        ],
        ids=["d1", "d2-shifted", "d3-one-octant", "d5", "zero-rows", "all-zero",
             "single-draw", "d1-one-sided"],
    )
    def test_matches_per_probe_loop(self, draws):
        expected = looped_symmetry_statistic(draws)
        got = _symmetry_statistic(draws)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15 * np.abs(draws).max())


def brute_knn_mean(p, y, k):
    """Mean of y over the k nearest rows of p, one point at a time."""
    out = np.empty(len(p))
    for i in range(len(p)):
        dist = np.linalg.norm(p - p[i], axis=1)
        out[i] = y[np.argsort(dist, kind="stable")[:k]].mean()
    return out


class TestKnnConditionalMean:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), data=st.data())
    def test_line_matches_brute_force(self, seed, n, data):
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        draws = rng.standard_normal((n, 2)) * rng.uniform(0.5, 2.0, size=2)
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        p = draws @ complement_basis(u).T
        # distinct projections with no tie at any k-th distance: one kNN set
        if k < n:
            gaps = np.diff(np.sort(np.abs(p - p.T), axis=1)[:, k - 1:k + 1], axis=1)
            assume(gaps.min() > 1e-9)
        got = _conditional_mean(EmpiricalSample(draws), u, RegressorConfig("knn", k=k))
        np.testing.assert_allclose(got, brute_knn_mean(p, draws @ u, k), rtol=0.0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), span=st.integers(0, 8),
           data=st.data())
    def test_integer_projections_windows_are_nearest(self, seed, n, span, data):
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        s = np.sort(rng.integers(-span, span + 1, size=n).astype(float))
        start = _window_starts(s, k)
        for i in range(n):
            assert start[i] <= i < start[i] + k
            window = np.abs(s[start[i]:start[i] + k] - s[i])
            assert window.max() == np.sort(np.abs(s - s[i]))[k - 1]

    def test_k1_returns_each_draw(self):
        rng = np.random.default_rng(30)
        draws = rng.standard_normal((50, 2))
        sample = EmpiricalSample(np.vstack([draws, draws]))
        got = _conditional_mean(sample, DIAG_U, RegressorConfig("knn", k=1))
        np.testing.assert_allclose(got, sample.draws @ DIAG_U, rtol=0.0, atol=1e-14)

    def test_k_equal_n_is_global_mean(self):
        sample = gaussian_sample(40, seed=31)
        y = sample.draws @ DIAG_U
        got = _conditional_mean(sample, DIAG_U, RegressorConfig("knn", k=40))
        np.testing.assert_allclose(got, np.full(40, y.mean()), rtol=0.0, atol=1e-14)

    def test_single_draw(self):
        np.testing.assert_array_equal(_window_means(np.array([0.3]), np.array([2.5]), 1), [2.5])
        out = symmetrize_sample(EmpiricalSample([[1.0, 2.0]]), DIAG_U, RegressorConfig("knn"))
        assert abs(out.draws[0] @ DIAG_U) <= 1e-15

    def test_duplicate_draws_pair_up(self):
        # with every draw twice and k = 2, each draw's neighbours are itself
        # and its copy, so the conditional mean is its own u-coordinate
        rng = np.random.default_rng(32)
        draws = rng.standard_normal((30, 2))
        sample = EmpiricalSample(np.vstack([draws, draws[::-1]]))
        got = _conditional_mean(sample, DIAG_U, RegressorConfig("knn", k=2))
        np.testing.assert_allclose(got, sample.draws @ DIAG_U, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "k, ties, block", [(1, False, 7), (3, False, 7), (5, False, 7), (17, True, 17 * 40)],
        ids=["1", "3", "5", "ties"],
    )
    def test_tree_blocks_match_one_query(self, k, ties, block, monkeypatch):
        # every query runs on the CPUs this process may use; its rows must be
        # bitwise those of a one-worker query, also where distances tie: an
        # integer grid projected along an axis, every draw stacked twice
        rng = np.random.default_rng(33)
        if ties:
            grid = rng.integers(-2, 3, size=(150, 4)).astype(float)
            sample = EmpiricalSample(np.vstack([grid, grid[::-1]]))
            u = np.array([0.0, 0.0, 0.0, 1.0])
        else:
            sample = EmpiricalSample(rng.standard_normal((101, 3)))
            u = np.array([1.0, 2.0, 2.0]) / 3.0
        cfg = RegressorConfig("knn", k=k)
        whole = _conditional_mean(sample, u, cfg)
        queries, workers = [], set()

        class CountingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                queries.append(len(x))
                workers.add(kwargs["workers"])
                got = super().query(x, *args, **kwargs)
                serial = super().query(x, *args, **dict(kwargs, workers=1))
                for a, b in zip(got, serial):
                    np.testing.assert_array_equal(a, b)
                return got

        monkeypatch.setattr(empirical, "cKDTree", CountingTree)
        monkeypatch.setattr(empirical, "_BLOCK", block)
        blocked = _conditional_mean(sample, u, cfg)
        assert len(queries) > 1 and max(queries) == block // k and sum(queries) == sample.n
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else -1
        assert workers == {cpus}
        np.testing.assert_array_equal(blocked, whole)


class TestPolygonSymmetral:
    def test_rectangle_vertical_direction(self):
        rect = ConvexPolygon2D([[0.0, 1.0], [3.0, 1.0], [3.0, 2.0], [0.0, 2.0]])
        out = polygon_steiner_symmetral_2d(rect, [0.0, 1.0])
        assert out.area == pytest.approx(3.0, rel=1e-12)
        ys = np.sort(np.unique(np.round(out.vertices[:, 1], 12)))
        np.testing.assert_allclose(ys, [-0.5, 0.5])

    def test_right_triangle(self):
        tri = ConvexPolygon2D([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = polygon_steiner_symmetral_2d(tri, [0.0, 1.0])
        expected = {(0.0, -0.5), (1.0, 0.0), (0.0, 0.5)}
        got = {tuple(np.round(v, 12)) for v in out.vertices}
        assert got == expected
        assert out.area == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_area_preserved_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        from zonomed import Zonotope, zonotope_polygon_2d

        poly = zonotope_polygon_2d(Zonotope(rng.standard_normal((5, 2))))
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        out = polygon_steiner_symmetral_2d(poly, u)
        assert out.area == pytest.approx(poly.area, rel=1e-12)
        # reflection through the line {t * w} maps the vertex set to itself
        reflected = out.vertices - 2.0 * (out.vertices @ u)[:, None] * u[None, :]
        for v in reflected:
            assert np.min(np.linalg.norm(out.vertices - v, axis=1)) <= 1e-12

    @pytest.mark.parametrize("shape", ["square", "9-gon"])
    def test_scaled_by_powers_of_two(self, shape):
        # the polygon times 2^k gives the symmetral times 2^k, bit for bit,
        # for k = -1000..1000: the square times 2^-600 gave 6 vertices for 4
        # once products of its coordinates underflowed
        if shape == "square":
            verts, u = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.ones(2)
        else:  # as the benchmark's theorem1 polygons are drawn
            rng = np.random.default_rng(24)
            angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=9))
            radii = rng.uniform(0.8, 1.2, size=2)
            verts = np.column_stack([radii[0] * np.cos(angles), radii[1] * np.sin(angles)])
            u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        base = polygon_steiner_symmetral_2d(ConvexPolygon2D(verts), u).vertices
        # every nonzero coordinate stays normal at every k
        coords = np.abs(np.concatenate([verts, base]))
        exponents = np.frexp(coords[coords > 0])[1]
        assert exponents.min() - 1000 >= -1021 and exponents.max() + 1000 <= 1024
        for k in range(-1000, 1001, 50):
            out = polygon_steiner_symmetral_2d(ConvexPolygon2D(np.ldexp(verts, k)), u).vertices
            assert out.tobytes() == np.ldexp(base, k).tobytes()


def _chord_ends(verts, u, t):
    """(lowest, highest) u'x over the polygon's boundary points with w'x = t,
    by intersecting the line with every edge; a point within 1e-12 of the
    diameter past an edge's end counts as on it."""
    w = np.array([u[1], -u[0]])
    ts, ss = verts @ w, verts @ u
    eps = 1e-12 * np.ptp(verts, axis=0).max()
    ends = []
    for i in range(len(verts)):
        (t0, t1), (s0, s1) = ts[[i, i - 1]], ss[[i, i - 1]]
        if min(t0, t1) - eps <= t <= max(t0, t1) + eps:
            if abs(t1 - t0) <= eps:
                ends += [s0, s1]
            else:
                ends.append(s0 + (s1 - s0) * np.clip((t - t0) / (t1 - t0), 0.0, 1.0))
    return min(ends), max(ends)


def _check_symmetral(verts, u):
    poly = ConvexPolygon2D(verts)
    out = polygon_steiner_symmetral_2d(poly, u).vertices
    tol = 1e-12 * np.ptp(verts, axis=0).max()
    assert polygon_area(out) == pytest.approx(poly.area, rel=1e-12)
    # reflection in the t axis maps the vertex set to itself
    reflected = out - 2.0 * (out @ u)[:, None] * u[None, :]
    assert np.abs(reflected[:, None, :] - out[None, :, :]).max(axis=2).min(axis=1).max() <= tol
    # at each vertex projection the chord is centred and keeps its length
    for t in np.array([u[1], -u[0]]) @ verts.T:
        lo, hi = _chord_ends(verts, u, t)
        sym_lo, sym_hi = _chord_ends(out, u, t)
        assert sym_hi == pytest.approx(0.5 * (hi - lo), abs=tol)
        assert sym_lo == pytest.approx(-0.5 * (hi - lo), abs=tol)
    # the vertex set does not depend on the cyclic start
    for r in range(1, len(verts)):
        turned = polygon_steiner_symmetral_2d(ConvexPolygon2D(np.roll(verts, r, axis=0)), u).vertices
        np.testing.assert_array_equal(np.unique(turned, axis=0), np.unique(out, axis=0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["zonotope", "9-gon"]),
       angle=st.floats(0.0, 2.0 * math.pi), start=st.integers(0, 8))
def test_symmetral_chords(seed, kind, angle, start):
    rng = np.random.default_rng(seed)
    if kind == "zonotope":
        from zonomed import Zonotope, zonotope_polygon_2d

        gens = rng.standard_normal((int(rng.integers(2, 7)), 2))
        verts = zonotope_polygon_2d(Zonotope(gens)).vertices
    else:  # as the benchmark's theorem1 polygons are drawn
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=9))
        radii = rng.uniform(0.8, 1.2, size=2)
        verts = np.column_stack([radii[0] * np.cos(angles), radii[1] * np.sin(angles)])
    verts = np.roll(verts, start, axis=0)
    _check_symmetral(verts, np.array([math.cos(angle), math.sin(angle)]))


@pytest.mark.parametrize("u", [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
def test_symmetral_with_edges_along_u_at_both_ends(u):
    # an axis rectangle: each end of the t range is an edge along u
    _check_symmetral(np.array([[-1.0, 0.5], [2.0, 0.5], [2.0, 3.0], [-1.0, 3.0]]), np.array(u))


class TestSampleUniformPolygon:
    def test_square_moments(self):
        n = 100_000
        sample = sample_uniform_polygon(SQUARE, n, seed=4)
        np.testing.assert_allclose(
            sample.draws.mean(axis=0), [0.5, 0.5], atol=5.0 / math.sqrt(n)
        )

    def test_triangle_centroid(self):
        tri = ConvexPolygon2D([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        n = 100_000
        sample = sample_uniform_polygon(tri, n, seed=5)
        np.testing.assert_allclose(
            sample.draws.mean(axis=0), [2.0 / 3.0, 1.0], atol=5.0 / math.sqrt(n)
        )

    def test_membership(self):
        sample = sample_uniform_polygon(SQUARE, 5000, seed=6)
        assert np.all(distances_to_polygon(sample.draws, SQUARE) == 0.0)

    def test_reproducible(self):
        a = sample_uniform_polygon(SQUARE, 100, seed=7)
        b = sample_uniform_polygon(SQUARE, 100, seed=7)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_draws_do_not_depend_on_scale(self):
        # at 1e-160 the fan triangles' areas are subnormal; taken unscaled,
        # they moved the 1e-160 draws by half the pentagon's size
        angles = np.array([0.3, 1.1, 2.9, 3.7, 5.2])
        pentagon = np.column_stack([1.3 * np.cos(angles), np.sin(angles)])
        unit = sample_uniform_polygon(ConvexPolygon2D(pentagon), 20_000, seed=11).draws
        for scale in (1e-160, 1e-161):
            draws = sample_uniform_polygon(ConvexPolygon2D(pentagon * scale), 20_000, seed=11).draws
            assert np.abs(draws / scale - unit).max() <= 1e-12 * np.abs(unit).max()
        for k in (-531, 500):
            draws = sample_uniform_polygon(ConvexPolygon2D(np.ldexp(pentagon, k)), 20_000, seed=11).draws
            assert np.ldexp(draws, -k).tobytes() == unit.tobytes()

    def test_normal_polygons_draw_as_from_unscaled_areas(self):
        # a polygon like the benchmark's theorem1 job: the triangle
        # probabilities, and so the draws, keep the bits of the areas taken
        # from the unscaled fan
        rng = np.random.default_rng(12)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=9))
        verts = np.column_stack([0.9 * np.cos(angles), 1.1 * np.sin(angles)])
        poly = ConvexPolygon2D(verts)
        b, c = verts[1:-1] - verts[0], verts[2:] - verts[0]
        areas = 0.5 * np.abs(b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        ref = np.random.default_rng(13)
        which = ref.choice(len(areas), size=5000, p=areas / areas.sum())
        a1, a2 = ref.random(5000), ref.random(5000)
        flip = a1 + a2 > 1.0
        a1[flip], a2[flip] = 1.0 - a1[flip], 1.0 - a2[flip]
        expected = verts[0] + a1[:, None] * b[which] + a2[:, None] * c[which]
        assert sample_uniform_polygon(poly, 5000, seed=13).draws.tobytes() == expected.tobytes()


class TestTheorem1:
    def test_square_diagonal(self):
        n = 20_000
        k = math.isqrt(n) + 1
        report = theorem1_check(SQUARE, DIAG_U, n, RegressorConfig("knn", k=k), seed=8)
        assert report.inside_fraction >= 0.99
        assert report.area_rel_error < 1e-12
        assert report.delta == pytest.approx(3.0 * SQUARE.diameter / math.sqrt(k))

    def test_symmetric_polygon_small_shifts(self):
        # already u-symmetric: the symmetral is the body itself and the
        # estimated shifts are pure regression noise
        rect = ConvexPolygon2D([[-1.0, -0.5], [1.0, -0.5], [1.0, 0.5], [-1.0, 0.5]])
        n = 10_000
        sample = sample_uniform_polygon(rect, n, seed=9)
        out = symmetrize_sample(sample, [0.0, 1.0], RegressorConfig("knn", k=math.isqrt(n)))
        shift = np.abs(out.draws[:, 1] - sample.draws[:, 1]).max()
        assert shift <= 0.2

    def test_chi_square_reported(self):
        report = theorem1_check(SQUARE, DIAG_U, 5000, RegressorConfig("knn", k=70), seed=10)
        assert report.chi_square >= 0.0
        assert report.chi_square_dof > 0

    def test_chi_square_does_not_depend_on_scale(self):
        # the cells of a square scaled by 1e-160 have subnormal areas; taken
        # unscaled, they read the statistic as 46.48 instead of 45.76, and at
        # 1e-300 the square's area was 0
        draws = sample_uniform_polygon(SQUARE, 2000, seed=11).draws
        unit = _chi_square_uniformity(draws, SQUARE)
        for scale in (1e-160, 1e-300):
            square = ConvexPolygon2D(SQUARE.vertices * scale)
            chi, dof = _chi_square_uniformity(draws * scale, square)
            assert dof == unit[1] and chi == pytest.approx(unit[0], rel=1e-12)


class TestNormReduction:
    def test_ols_identity(self):
        sample = gaussian_sample(20_000, seed=11)
        res = norm_reduction_check(sample, DIAG_U, RegressorConfig("exact_linear"))
        assert res.decrease == pytest.approx(res.regression_mean_square, abs=1e-10)
        assert res.after <= res.before

    def test_symmetric_sample_no_decrease(self):
        rng = np.random.default_rng(12)
        half = rng.normal(size=(4000, 2))
        reflected = half - 2.0 * (half @ DIAG_U)[:, None] * DIAG_U[None, :]
        sample = EmpiricalSample(np.vstack([half, reflected]))
        res = norm_reduction_check(sample, DIAG_U, RegressorConfig("exact_linear"))
        assert res.decrease <= 1e-3 * res.before

    def test_gaussian_matches_analytic(self):
        n = 100_000
        sample = gaussian_sample(n, seed=13)
        res = norm_reduction_check(sample, DIAG_U, RegressorConfig("exact_linear"))
        _, row = regression_coefficient(np.diag([1.0, 4.0]), DIAG_U)
        analytic = float(row @ np.diag([1.0, 4.0]) @ row)
        assert abs(res.decrease - analytic) / analytic <= 5.0 / math.sqrt(n) * 10.0


class TestConjectureExplorer:
    def test_exact_linear_gaussian_converges(self):
        n = 100_000
        sample = gaussian_sample(n, seed=14, cov=((6.0, 0.0), (0.0, 0.5)))
        reports = conjecture_explorer(
            sample, 200, "random_seeded", RegressorConfig("exact_linear"), seed=15
        )
        assert reports[-1].anisotropy < 1.1

    def test_isotropic_shell_stays_isotropic(self):
        # the exact regressor sees the true (zero) conditional mean, so the
        # only disturbance is sampling noise at the 1/sqrt(N) scale
        n = 20_000
        rng = np.random.default_rng(16)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        sample = EmpiricalSample(np.column_stack([np.cos(theta), np.sin(theta)]))
        reports = conjecture_explorer(
            sample, 10, "random_seeded", RegressorConfig("exact_linear"), seed=17
        )
        bound = 1.0 + 10.0 / math.sqrt(n)
        assert all(r.anisotropy < bound for r in reports)

    def test_isotropic_shell_knn_noise_budget(self):
        # knn shifts carry O(1/sqrt(k)) noise because the conditional law on
        # a shell is bimodal; the anisotropy budget scales accordingly
        n = 20_000
        k = math.isqrt(n)
        rng = np.random.default_rng(26)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        sample = EmpiricalSample(np.column_stack([np.cos(theta), np.sin(theta)]))
        reports = conjecture_explorer(
            sample, 5, "random_seeded", RegressorConfig("knn", k=k), seed=27
        )
        bound = 1.0 + 10.0 / math.sqrt(k)
        assert all(r.anisotropy < bound for r in reports)

    def test_mean_square_nonincreasing_exact_linear(self):
        sample = gaussian_sample(20_000, seed=18, cov=((3.0, 1.0), (1.0, 2.0)))
        reports = conjecture_explorer(
            sample, 25, "random_seeded", RegressorConfig("exact_linear"), seed=19
        )
        assert all(r.mean_square_decrease >= -1e-12 for r in reports)
        assert all(r.regression_mean_square >= 0.0 for r in reports)

    def test_knn_reduces_anisotropy(self):
        sample = gaussian_sample(5000, seed=20, cov=((5.0, 0.0), (0.0, 0.5)))
        reports = conjecture_explorer(
            sample, 50, "max_anisotropy", RegressorConfig("knn", k=70), seed=21
        )
        assert reports[-1].anisotropy < reports[0].anisotropy * 0.5

    def test_cyclic_axes_policy(self):
        sample = gaussian_sample(2000, seed=22)
        reports = conjecture_explorer(
            sample, 4, "cyclic_axes", RegressorConfig("exact_linear"), seed=23
        )
        np.testing.assert_array_equal(reports[0].direction, [1.0, 0.0])
        np.testing.assert_array_equal(reports[1].direction, [0.0, 1.0])
        np.testing.assert_array_equal(reports[2].direction, [1.0, 0.0])

    def test_bad_policy_rejected(self):
        sample = gaussian_sample(100, seed=24)
        with pytest.raises(ValueError):
            conjecture_explorer(sample, 1, "sideways")

    def test_one_draw_rejected(self):
        with pytest.raises(ValueError, match="need at least 2 draws .* got 1"):
            conjecture_explorer(EmpiricalSample([[1.0, 2.0]]), 1, "cyclic_axes")

    def test_d1_max_anisotropy_direction(self):
        sample = EmpiricalSample(np.random.default_rng(28).standard_normal((50, 1)) + 3.0)
        reports = conjecture_explorer(
            sample, 3, "max_anisotropy", RegressorConfig("exact_linear")
        )
        for r in reports:
            np.testing.assert_array_equal(r.direction, [1.0])

    def test_one_cov_and_eigh_per_sample(self, monkeypatch):
        # the covariance of each sample held (the input and every step's
        # output) is formed once and decomposed once, by eigh
        rng = np.random.default_rng(29)
        sample = EmpiricalSample(rng.standard_normal((400, 3)) * [3.0, 1.0, 0.5])
        calls = record_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        calls.update(record_calls(monkeypatch, np, "cov"))
        steps = 4
        reports = conjecture_explorer(
            sample, steps, "max_anisotropy", RegressorConfig("exact_linear")
        )
        assert len(reports) == steps
        assert len(calls["cov"]) == len(calls["eigh"]) == steps + 1
        assert len({a.tobytes() for a in calls["cov"]}) == steps + 1
        assert calls["eigvalsh"] == []
