"""Closed-form Gaussian symmetrization: regression step, eigenvalue law, spherization."""

import math

import numpy as np
import pytest

from zonomed import (
    GaussianState,
    double_mean_update,
    eigenpair_direction,
    regression_coefficient,
    sphere_iterate,
    symmetrize_gaussian,
)
from conftest import random_spd

DIAG_U = np.array([1.0, 1.0]) / math.sqrt(2.0)


class TestGaussianState:
    def test_accepts_near_symmetric(self):
        cov = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
        s = GaussianState([0.0, 0.0], cov)
        np.testing.assert_allclose(s.cov, s.cov.T, atol=0.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0], [[1.0, 0.4], [0.1, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0], [[1.0, 0.0], [0.0, -0.5]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianState([0.0, 0.0, 0.0], np.eye(2))

    def test_rejects_nan_mean(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianState([math.nan, 0.0], np.eye(2))

    def test_rejects_infinite_cov(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianState([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]])


class TestRegressionCoefficient:
    def test_isotropic(self):
        c, row = regression_coefficient(np.eye(2), [1.0, 0.0])
        assert c == pytest.approx(-1.0, rel=1e-14)
        np.testing.assert_allclose(row, [0.0, 0.0], atol=1e-14)

    def test_diag_1_4_diagonal_direction(self):
        c, row = regression_coefficient(np.diag([1.0, 4.0]), DIAG_U)
        assert c == pytest.approx(-8.0 / 5.0, rel=1e-12)

    def test_eigenvector_direction_decouples(self):
        rng = np.random.default_rng(3)
        cov, _ = random_spd(rng, 4)
        _, vecs = np.linalg.eigh(cov)
        u = vecs[:, 1]
        _, row = regression_coefficient(cov, u)
        np.testing.assert_allclose(row, np.zeros(4), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_row_reproduces_conditional_mean(self, seed):
        # E[u'X | PX] = row . PX, cross-checked against the bivariate
        # regression formula cov(y, z)/var(z) in the projected frame
        rng = np.random.default_rng(seed)
        cov, _ = random_spd(rng, 3)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        _, row = regression_coefficient(cov, u)
        p = np.eye(3) - np.outer(u, u)
        # regression of u'X on PX has coefficient vector solving
        # (P cov P) w = P cov u restricted to the range of P
        w, *_ = np.linalg.lstsq(p @ cov @ p, p @ cov @ u, rcond=None)
        np.testing.assert_allclose(row @ p, w @ p, atol=1e-10)

    def test_eq2_arithmetic(self):
        # 1/c = -(1/2)(1/l1 + 1/l2) when u bisects two eigenvectors
        rng = np.random.default_rng(9)
        cov, eigs = random_spd(rng, 5)
        u = eigenpair_direction(cov, 1, 3)
        c, _ = regression_coefficient(cov, u)
        lam_desc = eigs[::-1]
        expected = -1.0 / (0.5 * (1.0 / lam_desc[1] + 1.0 / lam_desc[3]))
        assert c == pytest.approx(expected, rel=1e-10)


    def test_c_is_minus_inverse_quadratic_form(self):
        rng = np.random.default_rng(11)
        for d in range(1, 6):
            cov, _ = random_spd(rng, d)
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            c, _ = regression_coefficient(cov, u)
            assert c == pytest.approx(-1.0 / (u @ np.linalg.solve(cov, u)), rel=1e-12)

    def test_rejects_direction_of_wrong_dimension(self):
        with pytest.raises(ValueError, match="direction has dimension 3, covariance has 2"):
            regression_coefficient(np.eye(2), [1.0, 0.0, 0.0])


class TestSymmetrizeGaussian:
    def test_rejects_direction_of_wrong_dimension(self):
        state = GaussianState([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="direction has dimension 3, covariance has 2"):
            symmetrize_gaussian(state, [1.0, 0.0, 0.0])

    def test_rejects_nan_direction(self):
        # every comparison with nan is false, so the unit check must fail on it
        state = GaussianState([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="unit vector"):
            symmetrize_gaussian(state, [math.nan, 0.0])

    def test_eigenvector_direction_is_identity(self):
        rng = np.random.default_rng(4)
        cov, _ = random_spd(rng, 3)
        _, vecs = np.linalg.eigh(cov)
        state = GaussianState(np.zeros(3), cov)
        out = symmetrize_gaussian(state, vecs[:, 0])
        np.testing.assert_allclose(out.cov, cov, atol=1e-12)
        np.testing.assert_allclose(out.mean, np.zeros(3), atol=0.0)

    def test_diag_1_4_eigenvalue_law(self):
        state = GaussianState([0.0, 0.0], np.diag([1.0, 4.0]))
        out = symmetrize_gaussian(state, DIAG_U)
        # independent evaluation of A S A' in the test
        c = -8.0 / 5.0
        proj = np.eye(2) - np.outer(DIAG_U, DIAG_U)
        A = np.eye(2) - c * np.outer(DIAG_U, DIAG_U) @ np.linalg.inv(np.diag([1.0, 4.0])) @ proj
        expected = A @ np.diag([1.0, 4.0]) @ A.T
        np.testing.assert_allclose(out.cov, expected, atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(out.cov), [1.6, 2.5], rtol=1e-12)

    def test_mean_projected_off_u(self):
        u = np.array([0.6, 0.8])
        state = GaussianState(3.0 * u, np.eye(2))
        out = symmetrize_gaussian(state, u)
        np.testing.assert_allclose(out.mean, [0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_mean_component_removed(self, seed):
        rng = np.random.default_rng(seed)
        cov, _ = random_spd(rng, 4)
        state = GaussianState(rng.standard_normal(4), cov)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        out = symmetrize_gaussian(state, u)
        assert abs(u @ out.mean) <= 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_reduction_closed_form(self, seed):
        rng = np.random.default_rng(100 + seed)
        cov, _ = random_spd(rng, 4)
        mean = rng.standard_normal(4)
        state = GaussianState(mean, cov)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        out = symmetrize_gaussian(state, u)
        before = np.trace(cov) + mean @ mean
        after = np.trace(out.cov) + out.mean @ out.mean
        _, row = regression_coefficient(cov, u)
        expected = row @ cov @ row + (u @ mean) ** 2
        assert after <= before + 1e-12
        assert before - after == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_spd_preserved_and_det_conserved(self, seed):
        rng = np.random.default_rng(200 + seed)
        cov, _ = random_spd(rng, 5)
        state = GaussianState(np.zeros(5), cov)
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        out = symmetrize_gaussian(state, u)  # construction validates SPD
        assert np.linalg.det(out.cov) == pytest.approx(np.linalg.det(cov), rel=1e-10)


class TestEigenpairDirection:
    def test_coordinate_eigenvectors(self):
        u = eigenpair_direction(np.diag([4.0, 1.0]), 0, 1)
        np.testing.assert_allclose(u, DIAG_U, atol=1e-14)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        cov, _ = random_spd(rng, 6)
        u = eigenpair_direction(cov, 2, 4)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)

    def test_swap_gives_same_span(self):
        rng = np.random.default_rng(6)
        cov, _ = random_spd(rng, 4)
        a = eigenpair_direction(cov, 0, 3)
        b = eigenpair_direction(cov, 3, 0)
        assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= 1e-12
        state = GaussianState(np.zeros(4), cov)
        np.testing.assert_allclose(
            symmetrize_gaussian(state, a).cov,
            symmetrize_gaussian(state, b).cov,
            atol=1e-12,
        )

    def test_index_validation(self):
        with pytest.raises(ValueError):
            eigenpair_direction(np.eye(2), 0, 2)
        with pytest.raises(ValueError):
            eigenpair_direction(np.eye(2), 1, 1)


class TestDoubleMean:
    def test_one_four(self):
        assert double_mean_update(1.0, 4.0) == (2.5, 1.6)

    def test_fixed_point(self):
        assert double_mean_update(3.0, 3.0) == (3.0, 3.0)

    def test_product_invariant(self):
        a, h = double_mean_update(0.7, 5.3)
        assert a * h == pytest.approx(0.7 * 5.3, rel=1e-14)

    def test_iteration_reaches_geometric_mean(self):
        lam = (1.0, 4.0)
        for _ in range(60):
            lam = double_mean_update(*lam)
        assert lam[0] == pytest.approx(2.0, rel=1e-14)
        assert lam[1] == pytest.approx(2.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            double_mean_update(0.0, 1.0)
        with pytest.raises(ValueError):
            double_mean_update(1.0, -2.0)
        with pytest.raises(ValueError):
            double_mean_update(math.nan, 1.0)


class TestPairLaw:
    @pytest.mark.parametrize("seed", range(8))
    def test_pair_becomes_means_spectators_fixed(self, seed):
        rng = np.random.default_rng(300 + seed)
        d = int(rng.integers(3, 7))
        cov, eigs = random_spd(rng, d)
        lam_desc = eigs[::-1]
        i1, i2 = sorted(rng.choice(d, size=2, replace=False))
        u = eigenpair_direction(cov, int(i1), int(i2))
        out = symmetrize_gaussian(GaussianState(np.zeros(d), cov), u)
        expected = list(np.delete(lam_desc, [i1, i2])) + list(
            double_mean_update(lam_desc[i1], lam_desc[i2])
        )
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out.cov)), np.sort(expected), rtol=1e-10
        )


class TestSphereIterate:
    def test_diag_1_4(self):
        state = GaussianState([0.0, 0.0], np.diag([1.0, 4.0]))
        final, trace = sphere_iterate(state, tol=1e-10)
        assert trace.converged
        np.testing.assert_allclose(final.cov, 2.0 * np.eye(2), atol=1e-9)
        for step in trace.steps:
            assert step.det == pytest.approx(4.0, rel=1e-10)

    def test_already_spherical_with_mean(self):
        state = GaussianState([1.0, 2.0, 2.0], 0.7 * np.eye(3))
        final, trace = sphere_iterate(state)
        kinds = [s.kind for s in trace.steps]
        assert kinds == ["center"]
        np.testing.assert_allclose(final.mean, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(final.cov, 0.7 * np.eye(3), atol=1e-14)

    def test_centered_spherical_no_steps(self):
        state = GaussianState([0.0, 0.0], np.eye(2))
        _, trace = sphere_iterate(state)
        assert len(trace) == 0 and trace.converged

    def test_random_4x4(self):
        rng = np.random.default_rng(7)
        cov, eigs = random_spd(rng, 4)
        final, trace = sphere_iterate(GaussianState(np.zeros(4), cov), tol=1e-10)
        assert trace.converged
        target = float(np.prod(eigs)) ** 0.25
        np.testing.assert_allclose(np.linalg.eigvalsh(final.cov), target, rtol=1e-8)
        dets = [s.det for s in trace.steps]
        assert max(abs(v - dets[0]) / dets[0] for v in dets) < 1e-8

    def test_mean_norm_nonincreasing_after_centering(self):
        rng = np.random.default_rng(8)
        cov, _ = random_spd(rng, 3)
        state = GaussianState([2.0, -1.0, 0.5], cov)
        _, trace = sphere_iterate(state)
        norms = [s.mean_norm for s in trace.steps]
        assert norms[0] <= 1e-14
        assert all(n <= 1e-12 for n in norms)

    def test_max_iter_unconverged(self):
        state = GaussianState([0.0, 0.0], np.diag([1.0, 100.0]))
        _, trace = sphere_iterate(state, tol=1e-12, max_iter=1)
        assert not trace.converged
        assert len(trace) == 1

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            sphere_iterate(GaussianState([0.0], [[1.0]]), tol=0.0)
        with pytest.raises(ValueError):
            sphere_iterate(GaussianState([0.0], [[1.0]]), tol=math.nan)
