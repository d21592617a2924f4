"""The V_j-median family, Wills and polar medians, and the grid oracle."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from zonomed import (
    DegenerateCloudError,
    ZonomedError,
    MedianProblem,
    PointCloud,
    SolverOptions,
    grid_oracle,
    polar_median,
    v1_median,
    vd_median,
    vj_median,
    vj_objective,
    wills_median,
)
from zonomed import medians, zonotope
from zonomed.directions import sphere_directions
from zonomed.medians import (
    _face_forms,
    _face_value,
    _lockstep,
    _nelder_mead,
    _normalized,
    _polar_evaluator,
    _ranks,
    _start_points,
)
from zonomed.zonotope import unit_ball_volume, wills_of_generators
from conftest import face_form_charge, refined_grid_minimum, rotation_matrix, subset_volume_sum


def _cloud_scale(points):
    """1 + the cloud's largest distance from its mean: the unit in which
    the bounds below were set."""
    center = points.mean(axis=0)
    return 1.0 + float(np.sqrt(((points - center) ** 2).sum(axis=1)).max())


class TestVjObjective:
    def test_two_unit_distances(self):
        cloud = PointCloud([[0.0, 0.0], [2.0, 0.0]])
        assert vj_objective([1.0, 0.0], cloud, 1) == pytest.approx(2.0, rel=1e-14)

    def test_triangle_interior_constant(self):
        tri = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
        cloud = PointCloud(tri)
        area2 = 2.0 * 3.0  # 2 * (1/2 * 3 * 2) * 2 subset sum collapses to 2*area
        for x in ([0.5, 0.5], [1.0, 0.4], [0.8, 0.9]):
            assert vj_objective(x, cloud, 2) == pytest.approx(area2, rel=1e-12)

    def test_norm_sum_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        x = rng.normal(size=3)
        cloud = PointCloud(pts)
        oracle = float(np.sqrt(((x - pts) ** 2).sum(axis=1)).sum())
        assert vj_objective(x, cloud, 1) == pytest.approx(oracle, rel=1e-13)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(5, 3))
        x = rng.normal(size=3)
        cloud = PointCloud(pts)
        s = 2.3
        scaled = PointCloud(s * pts)
        for j in (1, 2, 3):
            assert vj_objective(s * x, scaled, j) == pytest.approx(
                s**j * vj_objective(x, cloud, j), rel=1e-12
            )

    def test_affine_equivariance_of_vd(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(5, 2))
        x = rng.normal(size=2)
        cloud = PointCloud(pts)
        A = np.array([[1.5, 0.3], [-0.4, 0.9]])
        b = np.array([2.0, -1.0])
        mapped = PointCloud(pts @ A.T + b)
        assert vj_objective(A @ x + b, mapped, 2) == pytest.approx(
            abs(np.linalg.det(A)) * vj_objective(x, cloud, 2), rel=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vj_objective([1.0], PointCloud([[0.0, 0.0]]), 1)
        with pytest.raises(ValueError):
            vj_objective(np.zeros((4, 3)), PointCloud([[0.0, 0.0]]), 1)
        with pytest.raises(ValueError):
            vj_objective(np.zeros((4, 1, 2)), PointCloud([[0.0, 0.0]]), 1)

    def test_one_point_gives_a_float_and_a_batch_an_array(self):
        cloud = PointCloud(np.random.default_rng(30).standard_normal((5, 2)))
        assert isinstance(vj_objective([0.1, 0.2], cloud, 2), float)
        values = vj_objective(np.zeros((3, 2)), cloud, 2)
        assert isinstance(values, np.ndarray) and values.shape == (3,)
        assert vj_objective(np.zeros((0, 2)), cloud, 2).shape == (0,)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), n=st.integers(1, 8),
           k=st.integers(1, 12), s=st.sampled_from([-300, 0, 300]),
           chunk=st.sampled_from([zonotope._CHUNK, 64]))
    def test_batch_matches_single_calls(self, seed, d, n, k, s, chunk):
        # every order, clouds and query points scaled by 2^s, repeated query
        # points and query points on the cloud; at a block size of 64 the
        # batch is split into several kernel calls
        rng = np.random.default_rng(seed)
        pts = np.ldexp(rng.standard_normal((n, d)), s)
        X = np.ldexp(rng.standard_normal((k, d)), s)
        X = np.vstack([X, X[rng.integers(0, k, 2)], pts[rng.integers(0, n, 2)]])
        cloud = PointCloud(pts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zonotope, "_CHUNK", chunk)
            for j in range(1, d + 1):
                try:
                    single = [vj_objective(x, cloud, j) for x in X]
                except OverflowError:  # V_j of 2^300 sets passes float64 for j >= 4
                    with pytest.raises(OverflowError, match=f"V_{j}"):
                        vj_objective(X, cloud, j)
                    continue
                assert vj_objective(X, cloud, j).tobytes() == np.array(single).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), n=st.integers(1, 8),
           k=st.integers(40, 300), s=st.sampled_from([-300, 0, 300]))
    def test_wide_batch_matches_single_calls(self, seed, d, n, k, s):
        # 40 to 300 query points under the default block size: one kernel
        # call sums many columns at once, as a grid evaluation does
        rng = np.random.default_rng(seed)
        pts = np.ldexp(rng.standard_normal((n, d)), s)
        X = np.ldexp(rng.standard_normal((k, d)), s)
        X[rng.integers(0, k, 4)] = pts[rng.integers(0, n, 4)]
        cloud = PointCloud(pts)
        for j in range(1, d + 1):
            try:
                single = [vj_objective(x, cloud, j) for x in X]
            except OverflowError:  # V_j of 2^300 sets passes float64 for j >= 4
                with pytest.raises(OverflowError, match=f"V_{j}"):
                    vj_objective(X, cloud, j)
                continue
            assert vj_objective(X, cloud, j).tobytes() == np.array(single).tobytes()

    def test_grid_batch_matches_single_calls(self):
        # a 13^3 grid at (n, d, j) = (7, 3, 3), about 1040 columns per
        # kernel call, the shape of criterion 5's grids
        cloud = PointCloud(np.random.default_rng(9).standard_normal((7, 3)))
        axis = np.linspace(-2.0, 2.0, 13)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        for j in (2, 3):
            single = [vj_objective(x, cloud, j) for x in grid]
            assert vj_objective(grid, cloud, j).tobytes() == np.array(single).tobytes()

    def test_accurate_at_oja_argmin(self):
        # the median sits on subset flats, where sqrt(det Gram) read
        # 38.48796818 against 38.48796759 (relative 1.5e-8)
        cloud = PointCloud(_mixed_cloud(np.random.default_rng(17), 12, 3))
        x = vd_median(cloud).argmin
        expected = subset_volume_sum(x[None, :] - cloud.points, 3)
        assert vj_objective(x, cloud, 3) == pytest.approx(expected, rel=1e-13)


class TestV1Median:
    def test_middle_point_1d_style(self):
        r = v1_median(PointCloud([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]))
        np.testing.assert_allclose(r.argmin, [1.0, 0.0], atol=1e-12)
        assert r.converged

    def test_equilateral_triangle_centroid(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        r = v1_median(PointCloud(tri))
        np.testing.assert_allclose(r.argmin, tri.mean(axis=0), atol=1e-7)
        assert not r.non_unique

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(7, 2)))
        r = v1_median(cloud, SolverOptions(tolerance=1e-10))
        gp, gv, diag = refined_grid_minimum(
            cloud, lambda X: vj_objective(X, cloud, 1)
        )
        assert np.linalg.norm(r.argmin - gp) <= diag
        assert r.value <= gv + 1e-12

    def test_collinear_even_count_flags_non_unique(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        r = v1_median(cloud)
        assert r.converged
        assert r.non_unique
        assert 1.0 - 1e-9 <= r.argmin[0] <= 2.0 + 1e-9

    def test_value_is_recomputed_objective(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(5, 3)))
        r = v1_median(cloud)
        assert r.value == pytest.approx(vj_objective(r.argmin, cloud, 1), rel=1e-12)

    def test_objective_monotone_along_iterates(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(8, 2)))
        r = v1_median(cloud, SolverOptions(keep_trace=True))
        values = [v for _, v in r.trace]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_single_point(self):
        r = v1_median(PointCloud([[2.0, -1.0]]))
        np.testing.assert_allclose(r.argmin, [2.0, -1.0])
        assert r.value == 0.0 and r.converged


class TestVdMedian:
    def test_triangle_interior_flat(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        r = vd_median(PointCloud(tri))
        area2 = 2.0 * 0.5 * math.sqrt(3.0) / 2.0
        assert r.value == pytest.approx(area2, rel=1e-10)
        assert r.non_unique
        # the minimizing set is the closed triangle
        assert vj_objective(r.argmin, PointCloud(tri), 2) <= area2 * (1 + 1e-10)

    def test_rectangle_diagonal_crossing(self):
        cloud = PointCloud([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]])
        r = vd_median(cloud)
        np.testing.assert_allclose(r.argmin, [2.0, 1.5], atol=1e-8)
        assert r.converged and not r.non_unique

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(6)
        cloud = PointCloud(rng.normal(size=(4, 2)))
        r = vd_median(cloud)
        gp, gv, diag = refined_grid_minimum(cloud, lambda X: vj_objective(X, cloud, 2))
        assert np.linalg.norm(r.argmin - gp) <= diag
        assert r.value <= gv + 1e-12

    def test_affine_equivariance(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 2))
        cloud = PointCloud(pts)
        A = np.array([[1.2, 0.4], [-0.3, 0.8]])
        b = np.array([0.7, -2.0])
        opts = SolverOptions(tolerance=1e-10)
        r1 = vd_median(cloud, opts)
        r2 = vd_median(PointCloud(pts @ A.T + b), opts)
        np.testing.assert_allclose(r2.argmin, A @ r1.argmin + b, atol=1e-7)

    def test_degenerate_cloud(self):
        with pytest.raises(DegenerateCloudError):
            vd_median(PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(DegenerateCloudError):
            vd_median(PointCloud([[0.0, 0.0]]))


class TestVjMedian:
    def test_dispatch_j1(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.normal(size=(5, 2)))
        a = vj_median(cloud, 1)
        b = v1_median(cloud)
        np.testing.assert_allclose(a.argmin, b.argmin, atol=0.0)
        assert a.value == b.value

    def test_dispatch_jd(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.normal(size=(5, 2)))
        a = vj_median(cloud, 2)
        b = vd_median(cloud)
        np.testing.assert_allclose(a.argmin, b.argmin, atol=0.0)

    def test_intermediate_matches_grid(self):
        rng = np.random.default_rng(10)
        cloud = PointCloud(rng.normal(size=(6, 3)))
        r = vj_median(cloud, 2, SolverOptions(tolerance=1e-8))
        gp, gv, diag = refined_grid_minimum(cloud, lambda X: vj_objective(X, cloud, 2))
        assert np.linalg.norm(r.argmin - gp) <= diag
        assert r.value <= gv + 1e-10

    def test_out_of_range_j(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            vj_median(cloud, 0)
        with pytest.raises(ValueError):
            vj_median(cloud, 3)

    def test_flat_cloud_degenerate(self):
        line = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateCloudError):
            vj_median(line, 2)


class TestWillsMedian:
    def test_single_point(self):
        r = wills_median(PointCloud([[3.0, 1.0]]))
        np.testing.assert_allclose(r.argmin, [3.0, 1.0], atol=1e-6)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_square_center(self):
        cloud = PointCloud([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        r = wills_median(cloud)
        np.testing.assert_allclose(r.argmin, [1.0, 1.0], atol=1e-6)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.normal(size=(5, 2)))
        objective = lambda X: [wills_of_generators(x - cloud.points, 2) for x in X]
        r = wills_median(cloud, SolverOptions(tolerance=1e-8))
        gp, gv, diag = refined_grid_minimum(cloud, objective)
        assert np.linalg.norm(r.argmin - gp) <= diag
        assert r.value <= gv + 1e-10


def _cross_error(count: int) -> float:
    """|surrogate - 1| at the centre of the cross cloud {(+-1, 0), (0, +-1)}
    on ``count`` directions.  The polar area there is the integral of
    (2|cos t| + 2|sin t|)^-2 over [0, 2 pi], which is exactly 1."""
    cross = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return abs(_polar_evaluator(cross, sphere_directions(2, count))(np.zeros((1, 2)))[0] - 1.0)


class TestPolarObjective:
    def test_scaling(self):
        # scaling the cloud by s about x scales the surrogate at x by s^-d
        for d in (2, 3):
            rng = np.random.default_rng(d)
            pts = rng.standard_normal((d + 3, d))
            x = pts.mean(axis=0) + 0.1
            directions = sphere_directions(d, medians._POLAR_DIRECTIONS)
            for s in (3.0, 0.1, 7.5):
                a = _polar_evaluator(pts, directions)(x[None])[0]
                b = _polar_evaluator(x + s * (pts - x), directions)(x[None])[0]
                assert b == pytest.approx(a / s**d, rel=1e-14, abs=0.0)

    def test_cross_cloud_quadrature_oracle(self):
        # the equal-angle surrogate is a midpoint rule: its error falls as M^-2
        err = _cross_error(medians._POLAR_DIRECTIONS)  # 1024 directions
        assert err <= 1e-5 and 10.0 * err <= _cross_error(256)


class TestPolarMedian:
    def test_symmetric_cloud_center(self, monkeypatch):
        # the fixed-direction surrogate is exactly flat on an O(diam/M)
        # polytope around the symmetry center, which caps the resolution
        c = np.array([1.0, -2.0])
        offsets = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        cloud = PointCloud(c + offsets)
        monkeypatch.setattr(medians, "_POLAR_DIRECTIONS", 8192)
        r = polar_median(cloud, SolverOptions(tolerance=1e-9))
        np.testing.assert_allclose(r.argmin, c, atol=1e-3)

    def test_matches_grid_on_surrogate(self, monkeypatch):
        rng = np.random.default_rng(12)
        cloud = PointCloud(rng.normal(size=(5, 2)))
        opts = SolverOptions(tolerance=1e-9, seed=3)
        monkeypatch.setattr(medians, "_POLAR_DIRECTIONS", 256)
        r = polar_median(cloud, opts)
        directions = sphere_directions(2, 256, seed=3)
        neg = lambda X: [-_polar_reference(x, cloud.points, directions) for x in X]
        gp, gv, diag = refined_grid_minimum(cloud, neg, cell_target=2e-3, resolution=21)
        assert np.linalg.norm(r.argmin - gp) <= diag
        assert -r.value <= gv + 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(5, 2))
        t = np.array([4.0, -1.5])
        opts = SolverOptions(tolerance=1e-9)
        a = polar_median(PointCloud(pts), opts)
        b = polar_median(PointCloud(pts + t), opts)
        np.testing.assert_allclose(b.argmin, a.argmin + t, atol=1e-6)

    def test_degenerate_cloud(self):
        with pytest.raises(DegenerateCloudError):
            polar_median(PointCloud([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateCloudError):
            polar_median(PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

    def test_tables_past_the_budget_are_refused(self, monkeypatch):
        # the tables take 8 M (2n + 1) bytes: at M = 1024 the 512 MiB budget
        # admits n <= 32 767, and one point more fails before any is built
        m = medians._POLAR_DIRECTIONS
        assert (medians._SOLVE_BYTES // (8 * m) - 1) // 2 == 32_767
        pts = np.random.default_rng(0).standard_normal((32_768, 2))
        with pytest.raises(ZonomedError, match=f"need {8 * m * 65_537} bytes, over {1 << 29}"):
            polar_median(PointCloud(pts))
        # the bound is the tables' size: a budget of exactly 50 points' tables
        # admits 50 points and refuses 51
        monkeypatch.setattr(medians, "_SOLVE_BYTES", 8 * m * 101)
        directions = sphere_directions(2, m)
        assert math.isfinite(_polar_evaluator(pts[:50], directions)(np.ones((1, 2)))[0])
        with pytest.raises(ZonomedError, match="polar tables of 1024 directions x 51 points"):
            _polar_evaluator(pts[:51], directions)


def _polar_reference(x, points, directions):
    """The surrogate at x, straight from the definition."""
    d = points.shape[1]
    widths = np.abs(directions @ (x - points).T).sum(axis=1)
    return d * unit_ball_volume(d) * np.mean(widths ** -float(d))


def _polar_case(seed, d, n):
    """A stretched, far-off-origin Gaussian cloud, a direction set and query
    points near it."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d) + rng.uniform(-50.0, 50.0, d)
    directions = sphere_directions(d, int(rng.integers(1, 300)), seed=seed)
    xs = pts.mean(axis=0) + 2.0 * rng.standard_normal((4, d))
    return rng, pts, directions, xs


def _evaluator_ranks(pts, directions, xs):
    """The ranks the evaluator takes at xs: each point's projections about
    the cloud mean, searched in the sorted projections of the cloud."""
    center = pts.mean(axis=0)
    c = np.sort(directions @ (pts - center).T, axis=1)
    return _ranks(c, np.array([directions @ (x - center) for x in xs]))


_polar_dims = st.sampled_from([2, 3])


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 40), b=st.integers(1, 5), data=st.data())
def test_ranks_are_lower_bounds(m, n, b, data):
    # small integers repeat projections and put t on them; -4 and 4 fall
    # outside every row, for ranks 0 and n
    c = np.sort(data.draw(arrays(float, (m, n), elements=st.integers(-3, 3).map(float))), axis=1)
    t = data.draw(arrays(float, (b, m), elements=st.integers(-4, 4).map(float)))
    expected = np.count_nonzero(c[None, :, :] < t[:, :, None], axis=2)
    assert np.array_equal(_ranks(c, t), expected)


class TestPolarEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=_polar_dims, n=st.integers(6, 40), ties=st.booleans())
    def test_value_matches_brute_force(self, seed, d, n, ties):
        rng, pts, directions, xs = _polar_case(seed, d, n)
        if ties:  # a quarter grid repeats projections, and x on a sample point ties them
            pts = np.round(4.0 * pts) / 4.0
            xs = np.vstack([xs, pts[:2], np.round(4.0 * xs) / 4.0])
        xs = np.vstack([xs, pts.mean(axis=0) + 20.0 * rng.standard_normal(d)])  # far out: many ranks 0 or n
        values = _polar_evaluator(pts, directions)(xs)
        for x, value in zip(xs, values):
            expected = _polar_reference(x, pts, directions)
            assert value == pytest.approx(expected, rel=1e-13, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=_polar_dims,
        n=st.integers(1, 40),
        size=st.integers(1, 9),
        data=st.data(),
    )
    def test_batch_does_not_change_the_bits(self, seed, d, n, size, data):
        # each point's value, alone and at any place in a batch of any size;
        # a sample point of a one-point cloud (zero widths) and a NaN point
        # are infinite, and must leave their neighbours' values alone
        rng, pts, directions, _ = _polar_case(seed, d, n)
        pool = np.vstack([pts.mean(axis=0) + 2.0 * rng.standard_normal((size, d)),
                          pts[0], np.full(d, np.nan)])
        batch = pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))]
        evaluate = _polar_evaluator(pts, directions)
        values = evaluate(batch)
        assert values.shape == (size,)
        for x, value in zip(batch, values):
            assert evaluate(x[None]).tobytes() == value.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=_polar_dims, n=st.integers(6, 40))
    def test_slopes_match_sign_sums(self, seed, d, n):
        # the width's slope 2k - n along u is the sign sum of <u, x - x_i>
        _, pts, directions, xs = _polar_case(seed, d, n)
        signs = np.sign(np.einsum("md,bnd->bmn", directions, xs[:, None, :] - pts)).sum(axis=2)
        assert np.array_equal(2 * _evaluator_ranks(pts, directions, xs) - n, signs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ranks_exact_next_to_a_sample_point(self, seed):
        # x sits 4e-12 scale below a sample point, yet every sign of
        # <u, x - x_0> is exact, since the 1024 equal-angle directions stay
        # pi/1024 rad or more off the x-axis: each rank must count x_0 right.
        _, pts, _, _ = _polar_case(seed, 2, 50)
        directions = sphere_directions(2, 1024)
        x = pts[0] - [0.0, 4e-12 * _cloud_scale(pts)]
        expected = np.count_nonzero(directions @ (x - pts).T > 0.0, axis=1)
        assert np.array_equal(_evaluator_ranks(pts, directions, [x])[0], expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=_polar_dims, n=st.integers(6, 40))
    def test_translation_invariant(self, seed, d, n):
        rng, pts, directions, xs = _polar_case(seed, d, n)
        v = 10.0 * rng.standard_normal(d)
        moved = _polar_evaluator(pts + v, directions)(xs + v)
        # not bitwise: translating rounds each coordinate, by up to 60 eps here
        np.testing.assert_allclose(moved, _polar_evaluator(pts, directions)(xs), rtol=1e-13, atol=0.0)


def _full_multistart_best(cloud, opts):
    """The best value over every start polished to full tolerance: scipy
    Nelder-Mead from a simplex 0.05 the cloud scale wide, restarted from its
    answer while a round improves, up to three rounds."""
    from scipy.optimize import minimize

    d = cloud.dim
    evaluate = _polar_evaluator(cloud.points, sphere_directions(d, 1024, seed=opts.seed))
    negative = lambda x: -evaluate(x[None])[0]
    step = 0.05 * _cloud_scale(cloud.points)
    pts, e = _normalized(cloud.points)
    best = -math.inf
    for x in _start_points(pts, opts, extra=(pts.mean(axis=0),)):
        x = np.ldexp(x, e)
        fx = negative(x)
        for _ in range(3):
            options = {
                "xatol": 0.1 * opts.tolerance,
                "fatol": 1e-13 * (1.0 + abs(fx)),
                "maxfev": opts.max_iter,
                "initial_simplex": np.vstack([x, x + step * np.eye(d)]),
            }
            res = minimize(negative, x, method="Nelder-Mead", options=options)
            improved = res.fun < fx - 1e-13 * (1.0 + abs(fx))
            x, fx = res.x, res.fun
            if not improved:
                break
        best = max(best, -fx)
    return best


def _assert_matches_full_multistart(cloud, opts):
    r = polar_median(cloud, opts)
    best = _full_multistart_best(cloud, opts)
    assert r.converged
    assert best - r.value <= 1e-8 * best


@pytest.mark.parametrize(
    "seed, n, d, spread", [(31, 50, 2, 1.0), (32, 50, 2, 1.0), (33, 30, 3, 1.0), (51, 50, 2, 1e3)]
)
def test_polar_screen_matches_full_multistart(seed, n, d, spread):
    """Polishing only the screen's winner loses nothing measurable against
    polishing every start to full tolerance, also on a wide cloud centred on
    the origin, where the values are about 1e-9."""
    pts = _mixed_cloud(np.random.default_rng(seed), n, d)  # drawn as perfbench draws its clouds
    if spread != 1.0:
        pts = spread * (pts - pts.mean(axis=0))
    _assert_matches_full_multistart(PointCloud(pts), SolverOptions(seed=seed))


def test_polar_polish_passes_a_kink_near_the_winner():
    # The cloud on which the three-round polish of the winner stopped on a
    # kink of the surrogate 9.3e-9 relative short of the other starts' maximum.
    cloud = PointCloud(_mixed_cloud(np.random.default_rng(1000), 30, 3))
    _assert_matches_full_multistart(cloud, SolverOptions(seed=0))


@pytest.mark.parametrize("seed, n, d, argmin, value, iterations", [
    (61, 50, 2, ["-0x1.46c012a51d33cp+0", "0x1.a9c4e7078015dp+0"], "0x1.c58ad4aff9713p-8", 826),
    (62, 30, 3, ["-0x1.405b0a630bdfcp-2", "-0x1.c55b495173b28p-1", "-0x1.510d338dcc440p+0"],
     "0x1.68317f1f463f7p-8", 1371),
    (63, 2000, 2, ["0x1.8e49a009d6ae8p+0", "-0x1.2cafe4753af4dp-4"], "0x1.910ff686384e4p-21", 533),
])
def test_polar_median_is_pinned(seed, n, d, argmin, value, iterations):
    """The exact output, as a solver that evaluates one point at a time and
    runs the screen's rounds one after another returns it: the order and
    batching of the evaluations must not move a bit."""
    cloud = PointCloud(_mixed_cloud(np.random.default_rng(seed), n, d))
    r = polar_median(cloud, SolverOptions(seed=seed))
    assert [float(v).hex() for v in r.argmin] == argmin
    assert (r.value.hex(), r.iterations, r.converged, r.non_unique) == (value, iterations, True, False)


def _nelder_mead_case(seed, d, kind):
    """An objective of ``kind`` in d variables and a random first simplex."""
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        weights = rng.uniform(0.1, 10.0, d)
        centre = rng.standard_normal(d)
        return (lambda x: float(weights @ (x - centre) ** 2)), rng.standard_normal((d + 1, d))
    if kind == "abs":
        # rounded coordinates on a half-integer simplex: many equal values
        return (lambda x: float(np.abs(np.round(x)).sum())), rng.integers(-4, 5, (d + 1, d)) / 2.0
    # the polar negative of 1-5 points; on one point a vertex at that point
    # has zero width, so its value is -inf
    pts = rng.standard_normal((int(rng.integers(1, 6)), d))
    evaluate = _polar_evaluator(pts, sphere_directions(d, 64, seed=seed))
    simplex = pts[0] + rng.standard_normal((d + 1, d))
    if rng.random() < 0.5:
        simplex[rng.integers(d + 1)] = pts[0]
    return (lambda x: -evaluate(x[None])[0]), simplex


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    kind=st.sampled_from(["quadratic", "abs", "polar"]),
    maxfev=st.integers(1, 200),
    xatol=st.sampled_from([0.0, 1e-8, 1e-3, 0.1]),
    fatol=st.sampled_from([0.0, 1e-8, 1e-3, 0.1]),
)
def test_nelder_mead_is_scipys(seed, d, kind, maxfev, xatol, fatol):
    """The port, driven by _lockstep, returns scipy's x bits, value, call
    count and success flag, with the call cap falling in the first
    vertices, a shrink or a step."""
    from scipy.optimize import minimize

    f, simplex = _nelder_mead_case(seed, d, kind)
    options = {"xatol": xatol, "fatol": fatol, "maxfev": maxfev, "initial_simplex": simplex}
    with np.errstate(all="ignore"):  # a -inf vertex makes -inf - -inf spreads
        want = minimize(f, simplex[0], method="Nelder-Mead", options=options)
        rounds = [_nelder_mead(simplex, xatol, fatol, maxfev)]
        [(x, fun, calls, success)] = _lockstep(lambda xs: [f(x) for x in xs], rounds)
    assert x.tobytes() == want.x.tobytes()
    assert float(fun).hex() == float(want.fun).hex()
    assert (calls, success) == (want.nfev, want.success)


class TestGridOracle:
    def test_constant_region_value(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        cloud = PointCloud(tri)
        objective = lambda X: vj_objective(X, cloud, 2)
        _, value = grid_oracle(
            cloud, objective, bounds=[[0.5, 0.9], [0.5, 0.9]], resolution=5
        )
        assert value == pytest.approx(2.0 * 2.0, rel=1e-12)

    def test_refinement_never_worse(self):
        rng = np.random.default_rng(14)
        cloud = PointCloud(rng.normal(size=(5, 2)))
        objective = lambda X: vj_objective(X, cloud, 1)
        bounds = [[-2.0, 2.0], [-2.0, 2.0]]
        _, coarse = grid_oracle(cloud, objective, bounds, resolution=9)
        _, fine = grid_oracle(cloud, objective, bounds, resolution=17)  # nested
        assert fine <= coarse

    def test_solver_within_one_cell(self):
        rng = np.random.default_rng(15)
        cloud = PointCloud(rng.normal(size=(6, 2)))
        r = v1_median(cloud, SolverOptions(tolerance=1e-10))
        gp, _, diag = refined_grid_minimum(cloud, lambda X: vj_objective(X, cloud, 1))
        assert np.linalg.norm(r.argmin - gp) <= diag

    def test_resolution_validation(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            grid_oracle(cloud, lambda X: np.zeros(len(X)), resolution=1)

    def test_objective_must_return_one_value_per_point(self):
        # an objective written for one point at a time is refused by name
        cloud = PointCloud([[0.0, 0.0], [1.0, 1.0]])
        for objective in (lambda X: 0.0, lambda X: np.zeros((len(X), 1)), lambda X: np.zeros(3)):
            with pytest.raises(ValueError, match="batch of points"):
                grid_oracle(cloud, objective, resolution=3)

    def test_ties_nan_and_no_finite_value(self):
        # the whole grid goes through one call; ties go to the smallest
        # point, a NaN never wins, and with nothing below inf there is no point
        cloud = PointCloud([[0.0, 0.0], [1.0, 1.0]])
        bounds = [[0.0, 1.0], [0.0, 1.0]]
        calls = []

        def tied(X):
            calls.append(len(X))
            values = np.where(X[:, 0] + X[:, 1] >= 1.0, 0.0, 1.0)
            values[0] = np.nan  # the corner (0, 0)
            return values

        point, value = grid_oracle(cloud, tied, bounds, resolution=3)
        assert calls == [9] and value == 0.0
        np.testing.assert_array_equal(point, [0.0, 1.0])
        assert grid_oracle(cloud, lambda X: np.full(len(X), np.nan), bounds, 3) == (None, math.inf)
        assert grid_oracle(cloud, lambda X: np.full(len(X), np.inf), bounds, 3) == (None, math.inf)


class TestEquivariance:
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_v1_rigid_motion(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(6, 2))
        R = rotation_matrix(rng, 2)
        t = rng.normal(size=2)
        opts = SolverOptions(tolerance=1e-9)
        base = v1_median(PointCloud(pts), opts)
        moved = v1_median(PointCloud(pts @ R.T + t), opts)
        assert np.linalg.norm(moved.argmin - (R @ base.argmin + t)) <= 10 * opts.tolerance

    @pytest.mark.parametrize("seed", [23, 24])
    def test_vd_rigid_motion(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(6, 2))
        R = rotation_matrix(rng, 2)
        t = rng.normal(size=2)
        opts = SolverOptions(tolerance=1e-10)
        base = vd_median(PointCloud(pts), opts)
        moved = vd_median(PointCloud(pts @ R.T + t), opts)
        assert np.linalg.norm(moved.argmin - (R @ base.argmin + t)) <= 10 * opts.tolerance

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=_polar_dims, n=st.integers(4, 9),
           k=st.integers(-300, 300))
    def test_power_of_two_scaling_is_bitwise(self, seed, d, n, k):
        """Every solve sees the cloud divided by a power of two, so solving
        X 2^k repeats the solve of X: the argmin comes back as
        ldexp(argmin, k) bit for bit, the V_j value as ldexp(value, jk) and
        the polar value as ldexp(value, -dk)."""
        pts = _mixed_cloud(np.random.default_rng(seed), n, d)
        solves = [(functools.partial(vj_median, j=j), j) for j in range(1, d + 1)]
        for solve, degree in solves + [(polar_median, -d)]:
            base, moved = solve(PointCloud(pts)), solve(PointCloud(np.ldexp(pts, k)))
            _assert_scaled(moved, base, k, degree)

    @pytest.mark.parametrize("k", [-40, -50])
    def test_small_cloud_reaches_the_unit_cloud_answer(self, k):
        # the V_1, V_2 and V_3 argmins used to stop 5.4e-3, 3.3e-2 and 0.15
        # off at k = -40 (0.13, 0.25 and 0.48 at -50), marked converged
        pts = np.random.default_rng(0).standard_normal((9, 3))
        for j in (1, 2, 3):
            base = vj_median(PointCloud(pts), j)
            _assert_scaled(vj_median(PointCloud(np.ldexp(pts, k)), j), base, k, j)


def _assert_scaled(moved, base, k, degree):
    value = np.ldexp(base.value, degree * k)
    assert np.array_equal(moved.argmin, np.ldexp(base.argmin, k))
    if abs(value) >= np.finfo(float).tiny:  # a subnormal value keeps fewer bits
        assert moved.value == value
    assert (moved.iterations, moved.converged, moved.non_unique) == (
        base.iterations, base.converged, base.non_unique)


def test_solver_options_reject_nan_tolerance():
    with pytest.raises(ValueError, match="tolerance"):
        SolverOptions(tolerance=math.nan)


class TestMedianProblem:
    def test_dispatch(self):
        rng = np.random.default_rng(16)
        cloud = PointCloud(rng.normal(size=(5, 2)))
        res = MedianProblem(cloud, "vj", j=1).solve()
        np.testing.assert_allclose(res.argmin, v1_median(cloud).argmin)

    def test_invalid_objective(self):
        cloud = PointCloud([[0.0, 0.0]])
        with pytest.raises(ValueError):
            MedianProblem(cloud, "nope")
        with pytest.raises(ValueError):
            MedianProblem(cloud, "vj", j=5)


def _mixed_cloud(rng, n, d):
    """A sheared, shifted Gaussian cloud (the benchmark's median inputs)."""
    mix = rng.standard_normal((d, d)) / math.sqrt(d) + np.eye(d)
    return rng.standard_normal((n, d)) @ mix + rng.uniform(-2.0, 2.0, size=d)


def _objective(cloud, order):
    """Reference V_j for an int order, the Wills functional for "wills"."""
    orders = range(1, cloud.dim + 1) if order == "wills" else (order,)
    constant = 1.0 if order == "wills" else 0.0
    return lambda x: constant + math.fsum(
        subset_volume_sum(x[None, :] - cloud.points, j) for j in orders
    )


def _solve(cloud, order):
    if order == "wills":
        return wills_median(cloud)
    if order == 1:
        return v1_median(cloud)
    return vj_median(cloud, order)


def _best_improvement(objective, x, steps):
    """Largest relative decrease of the objective over the given steps from x."""
    fx = objective(x)
    return max(0.0, max((fx - objective(x + s)) / fx for s in steps))


def _axis_steps(d, h):
    eye = np.eye(d)
    return [sign * h * e for e in eye for sign in (1.0, -1.0)]


class TestFaceSolver:
    @pytest.mark.parametrize("seed, optimum", [(3, 931.0440818), (5, 81.0221973)])
    def test_oja_reaches_optimum(self, seed, optimum):
        # the subgradient/refinement solver stopped at 931.1057 and 81.0231
        # here while reporting convergence
        cloud = PointCloud(_mixed_cloud(np.random.default_rng([seed, 7]), 15, 3))
        r = vd_median(cloud)
        assert r.converged
        assert r.value == pytest.approx(optimum, rel=1e-9)
        objective = _objective(cloud, 3)
        scale = _cloud_scale(cloud.points)
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((40, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for h in (1e-6 * scale, 1e-3 * scale, 1e-1 * scale):
            steps = _axis_steps(3, h) + list(h * dirs)
            assert _best_improvement(objective, r.argmin, steps) <= 1e-12

    @pytest.mark.parametrize("order", [2, 3, "wills"])
    def test_value_from_face_form(self, order):
        cloud = PointCloud(_mixed_cloud(np.random.default_rng(17), 12, 3))
        r = _solve(cloud, order)
        assert r.converged
        assert r.value == pytest.approx(_objective(cloud, order)(r.argmin), rel=1e-12)

    def test_trace_has_one_entry_per_newton_step(self):
        cloud = PointCloud(_mixed_cloud(np.random.default_rng(18), 8, 2))
        r = wills_median(cloud, SolverOptions(keep_trace=True))
        assert len(r.trace) == r.iterations > 0

    def test_step_cap_reports_no_convergence(self):
        cloud = PointCloud(_mixed_cloud(np.random.default_rng(19), 8, 2))
        assert not wills_median(cloud, SolverOptions(max_iter=1)).converged
        assert not vj_median(cloud, 2, SolverOptions(max_iter=1)).converged

    def test_oversized_problem_fails_up_front(self):
        cloud = PointCloud(_mixed_cloud(np.random.default_rng(20), 500, 3))
        with pytest.raises(ZonomedError, match=r"C\(500,3\) = 20708500"):
            vd_median(cloud)
        with pytest.raises(ZonomedError, match="bytes"):
            wills_median(cloud)

    def test_forms_past_the_budget_are_refused(self, monkeypatch):
        # d = 3 Oja forms hold 7 floats per subset; from about 230 points on,
        # the build's largest step is the first block's A_S wedge, 17 floats
        # per subset of it beside 3n + 33 and a slack of four _CHUNK: the
        # 512 MiB budget admits n <= 384, and one point more fails before
        # any form is built
        def need(n):
            return 8 * (7 * math.comb(n, 3) + 17 * math.comb(n - 1, 2) + 3 * n + 33
                        + 4 * zonotope._CHUNK)

        assert need(384) <= medians._SOLVE_BYTES < need(385)
        pts = np.random.default_rng(0).standard_normal((385, 3))
        with pytest.raises(ZonomedError, match=rf"C\(385,3\) = 9437120 subsets need {need(385)} "):
            vd_median(PointCloud(pts))
        assert face_form_charge(pts[:384], (3,)) == need(384)
        # a budget of exactly 12 points' charge admits 12 points and refuses 13
        monkeypatch.setattr(medians, "_SOLVE_BYTES", face_form_charge(pts[:12], (3,)))
        ((_, w, _),) = _face_forms(pts[:12], (3,))
        assert len(w) == math.comb(12, 3)
        with pytest.raises(ZonomedError, match=r"C\(13,3\) = 286 subsets need "):
            _face_forms(pts[:13], (3,))

    def test_duplicate_points(self):
        pts = _mixed_cloud(np.random.default_rng(21), 7, 2)
        cloud = PointCloud(np.vstack([pts, pts[:3]]))
        scale = _cloud_scale(cloud.points)
        for order in (2, "wills"):
            r = _solve(cloud, order)
            objective = _objective(cloud, order)
            assert r.converged
            assert r.value == pytest.approx(objective(r.argmin), rel=1e-12)
            for h in (1e-6 * scale, 1e-3 * scale):
                assert _best_improvement(objective, r.argmin, _axis_steps(2, h)) <= 1e-12

    def test_volumes_that_underflow(self):
        # two edges of 1e-200 span a triangle whose area underflows to 0: its
        # subsets take their flats from the unit edges and weigh nothing
        pts = np.vstack([np.zeros(3), 1e-200 * np.eye(3)[:2], np.eye(3), np.ones(3)])
        for order in (3, "wills"):
            r = _solve(PointCloud(pts), order)
            assert r.converged
            assert r.value == pytest.approx(_objective(PointCloud(pts), order)(r.argmin), rel=1e-12)

    def test_affinely_dependent_subsets_dropped(self):
        line = np.outer([0.0, 1.0, 3.0], [1.0, 2.0, -1.0])
        pts = np.vstack([line, _mixed_cloud(np.random.default_rng(22), 5, 3)])
        groups = _face_forms(pts, (3,))
        assert len(groups[0][1]) == math.comb(8, 3) - 1
        cloud = PointCloud(pts)
        r = vd_median(cloud)
        assert r.converged
        assert r.value == pytest.approx(_objective(cloud, 3)(r.argmin), rel=1e-12)

    def test_oja_segment_minimum_flagged(self):
        # the minimum fills a segment along no axis or singular direction of
        # the cloud; the two solves land 1.9e-7 scale apart on it
        rng = np.random.default_rng(332598)
        pts = _mixed_cloud(rng, 8, 3)
        R, t = rotation_matrix(rng, 3), 3.0 * rng.standard_normal(3)
        base = vd_median(PointCloud(pts))
        moved = vd_median(PointCloud(pts @ R.T + t))
        assert base.converged and moved.converged
        assert base.non_unique and moved.non_unique
        assert moved.value == pytest.approx(base.value, rel=1e-12)
        # the flat direction is real: the |det| reference barely moves along it
        segment = R.T @ (moved.argmin - t) - base.argmin
        objective = _objective(PointCloud(pts), 3)
        far = base.argmin + 20.0 * segment
        assert objective(far) == pytest.approx(base.value, rel=1e-12)

    def test_wills_of_two_points_is_the_segment(self):
        # W = 1 + (|x-a| + |x-b|) + |(x-a) x (x-b)|, minimized on all of [a, b]
        cloud = PointCloud([[0.0, 0.0], [2.0, 0.0]])
        r = wills_median(cloud)
        assert r.converged and r.non_unique
        assert r.value == pytest.approx(3.0, rel=1e-12)
        assert abs(r.argmin[1]) <= 1e-12 and 0.0 <= r.argmin[0] <= 2.0


_orders = st.sampled_from([(2, 2), (3, 2), (3, 3), (2, "wills"), (3, "wills")])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from([(2, 2), (3, 2), (3, 3), (2, "wills"), (3, "wills"),
                          (4, 2), (4, 3), (4, 4), (4, "wills")]),
    n=st.integers(3, 8),
    shift=st.sampled_from([0.0, 1e3, 1e6]),
)
# one order-7 form in R^15 holds C(15, 7) x 15 = 96 525 elements, more than
# _CHUNK: each slice of _face_value takes a single subset
@example(seed=15, case=(15, 7), n=8, shift=0.0)
def test_face_form_matches_subset_kernel(seed, case, n, shift):
    d, order = case
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.standard_normal((n, d)) + shift)
    orders = range(1, d + 1) if order == "wills" else (order,)
    groups = _face_forms(cloud.points, orders)
    for x in rng.standard_normal((5, d)) * 2.0 + shift:
        if order == "wills":
            expected = wills_of_generators(x[None, :] - cloud.points, d) - 1.0
        else:
            expected = vj_objective(x, cloud, order)
        value = _face_value(groups, x)
        assert value == pytest.approx(expected, rel=1e-10)
        # Against the sum of Hadamard's bounds on the terms, which has no
        # cancellation, the error is a few units of round-off at any shift:
        # each term comes from x - a_S.  A form A_S x - A_S a_S loses about
        # shift * 1e-16 of each term (1e-11 of the bound at shift 1e6).
        lengths = np.linalg.norm(x - cloud.points, axis=1)
        bound = sum(math.prod(lengths[list(S)]) for j in orders
                    for S in itertools.combinations(range(n), j))
        assert abs(value - expected) <= 4e-15 * bound


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=_orders, n=st.integers(4, 9))
def test_argmin_is_axis_step_optimal(seed, case, n):
    d, order = case
    cloud = PointCloud(_mixed_cloud(np.random.default_rng(seed), n, d))
    r = _solve(cloud, order)
    assert r.converged
    objective = _objective(cloud, order)
    scale = _cloud_scale(cloud.points)
    for h in (1e-6 * scale, 1e-2 * scale):
        assert _best_improvement(objective, r.argmin, _axis_steps(d, h)) <= 1e-11


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=_orders, n=st.integers(4, 9))
def test_rigid_motion_equivariance(seed, case, n):
    d, order = case
    rng = np.random.default_rng(seed)
    pts = _mixed_cloud(rng, n, d)
    R, t = rotation_matrix(rng, d), 3.0 * rng.standard_normal(d)
    base = _solve(PointCloud(pts), order)
    moved = _solve(PointCloud(pts @ R.T + t), order)
    assert moved.value == pytest.approx(base.value, rel=1e-10)
    if order != d:  # an Oja minimum can be a whole edge or cell, not a point
        scale = _cloud_scale(pts)
        assert np.linalg.norm(moved.argmin - (R @ base.argmin + t)) <= 1e-7 * scale


def test_l1_face_forms_build_no_wedge_matrices():
    # j = 1 terms are ||x - x_i||: no A_S is built (it would be the
    # identity), so nothing beyond the sample is charged against the size
    # guard (a 32 MB sample here).
    ((a, w, A),) = _face_forms(np.zeros((400_000, 10)), (1,))
    assert A is None and a.shape == (400_000, 10) and len(w) == 400_000


@pytest.mark.parametrize(
    "order, points",
    [
        (2, np.random.default_rng(1).standard_normal((12, 2)) + 1000.0),
        (2, np.random.default_rng(2).standard_normal((10, 3)) + 1000.0),
        ("wills", (np.random.default_rng(2).standard_normal((10, 3)) + 1000.0)[:8]),
    ],
)
def test_stage_ends_when_a_step_leaves_the_value_unchanged(order, points):
    # Far from the origin the stage floor max(1e-3 eps, 1e-14 spread) falls
    # below the rounding unit of |x|: accepted steps left x where it was
    # until all 10 000 Newton steps were spent and converged was false.
    r = _solve(PointCloud(points), order)
    assert r.converged and r.iterations < 200


@pytest.mark.parametrize("shift", [1e3, 1e6])
@pytest.mark.parametrize("order", [1, 2, 3, "wills"])
def test_translation_far_from_origin(order, shift):
    """Moving a cloud far from the origin keeps every solve converging with
    the same value.  Translating rounds each coordinate by up to
    ulp(shift) / 2, hence bounds that grow with the shift; the argmin is
    compared only where the minimum is flagged unique."""
    for seed in range(4):
        rng = np.random.default_rng([seed, 11])
        pts = _mixed_cloud(rng, 8, 3)
        v = shift * rng.standard_normal(3) / math.sqrt(3.0)
        base = _solve(PointCloud(pts), order)
        moved = _solve(PointCloud(pts + v), order)
        assert base.converged and moved.converged
        assert moved.value == pytest.approx(base.value, rel=1e-15 * shift)
        if not (base.non_unique or moved.non_unique):
            gap = np.linalg.norm(moved.argmin - v - base.argmin)
            assert gap <= 1e-9 * _cloud_scale(pts)


def _l1_cloud(seed, d, n, kind):
    """Gaussian points; with ``kind`` "majority" more than half of them on one
    point, "collinear" an even count on a line, "ties" rounded to a half grid."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    if kind == "majority":
        pts[: n // 2 + 1] = pts[0]
    elif kind == "collinear":
        pts = np.outer(rng.standard_normal(2 * (n // 2)), rng.standard_normal(d))
    elif kind == "ties":
        pts = np.round(2.0 * pts) / 2.0
    return pts


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    n=st.integers(2, 12),
    kind=st.sampled_from(["gaussian", "majority", "collinear", "ties"]),
)
def test_l1_optimality_certificate(seed, d, n, kind):
    """x minimizes sum ||x - x_i|| exactly when the unit vectors from the
    other points sum to at most the multiplicity of x in the sample.

    Points within tau of x count as x itself.  Where the unit vectors of the
    others sum to exactly the multiplicity (a half-grid cloud can do that),
    the objective rises only quadratically off the sample point, and values
    place x no closer than about 3e-9 to it; moving x by tau turns each
    other unit vector by at most tau / dist, hence the slack."""
    pts = _l1_cloud(seed, d, n, kind)
    r = v1_median(PointCloud(pts))
    assert r.converged
    scale = _cloud_scale(pts)
    tau = 1e-8 * scale
    diff = r.argmin - pts
    dist = np.linalg.norm(diff, axis=1)
    on = dist <= tau
    pull = (diff[~on] / dist[~on, None]).sum(axis=0)
    slack = tau * float(np.sum(1.0 / dist[~on])) + 1e-9
    assert np.linalg.norm(pull) <= np.count_nonzero(on) + slack
    if kind == "majority":
        assert np.linalg.norm(r.argmin - pts[0]) <= 1e-12 * max(np.linalg.norm(pts[0]), scale)
