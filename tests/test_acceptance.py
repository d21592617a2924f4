"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import json
import math

import numpy as np
import pytest

from zonomed import (
    EmpiricalSample,
    GaussianState,
    PointCloud,
    RegressorConfig,
    SolverOptions,
    Zonotope,
    double_mean_update,
    eigenpair_direction,
    intrinsic_volume,
    mc_intrinsic_volume,
    regression_coefficient,
    sphere_iterate,
    steiner_polynomial_check_2d,
    symmetrize_gaussian,
    symmetrize_sample,
    theorem1_check,
    v1_median,
    vd_median,
    vj_median,
    vj_objective,
    wills_functional,
    wills_mc_check,
    zonotope_polygon_2d,
)
from zonomed.cli import main as cli_main
from zonomed.polygon import ConvexPolygon2D
from conftest import (
    grid_value_band,
    random_spd,
    refined_grid_minimum,
    rotation_matrix,
)


def verdict(num: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_01_box_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        edges = rng.uniform(0.2, 4.0, size=d)
        z = Zonotope(np.diag(edges))
        for j in range(1, d + 1):
            expected = math.fsum(math.prod(c) for c in itertools.combinations(edges, j))
            got = intrinsic_volume(z, j)
            worst = max(worst, abs(got - expected) / expected)
    verdict(1, "box identity vs elementary symmetric polynomials", worst < 1e-10,
            f"worst rel err {worst:.2e}")


def test_criterion_02_gaussian_projection_estimator():
    rng = np.random.default_rng(102)
    worst = 0.0
    ok = True
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d, 7))
        z = Zonotope(rng.standard_normal((m, d)))
        for j in range(1, d + 1):
            exact = intrinsic_volume(z, j)
            est = mc_intrinsic_volume(z, j, 100_000, seed=int(rng.integers(1 << 30)))
            sigmas = abs(est.estimate - exact) / est.std_error
            worst = max(worst, sigmas)
            ok = ok and sigmas <= 4.0
    verdict(2, "Monte Carlo V_j within 4 SE of exact", ok, f"worst {worst:.2f} SE")


def test_criterion_03_2d_realization_and_steiner():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        z = Zonotope(rng.standard_normal((int(rng.integers(2, 9)), 2)))
        poly = zonotope_polygon_2d(z)
        v1 = intrinsic_volume(z, 1)
        v2 = intrinsic_volume(z, 2)
        worst = max(worst, abs(poly.area - v2) / v2)
        worst = max(worst, abs(poly.perimeter - 2.0 * v1) / (2.0 * v1))
        for lam in (0.0, 0.5, 1.0, 3.0):
            lhs, rhs = steiner_polynomial_check_2d(z, lam)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    verdict(3, "polygon area/perimeter = V_2/2V_1 and Steiner polynomial",
            worst < 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_04_wills_integral():
    rng = np.random.default_rng(104)
    worst = 0.0
    ok = True
    for _ in range(10):
        z = Zonotope(rng.standard_normal((int(rng.integers(2, 7)), 2)))
        est = wills_mc_check(z, 1_000_000, seed=int(rng.integers(1 << 30)))
        sigmas = abs(est.estimate - wills_functional(z)) / est.std_error
        worst = max(worst, sigmas)
        ok = ok and sigmas <= 4.0
    verdict(4, "Wills distance integral within 4 SE of 1 + sum V_j", ok,
            f"worst {worst:.2f} SE")


def _random_cloud(rng):
    # sizes at which the Oja minimizer is generically a unique sharp vertex:
    # with the wrong parity the per-point sign sums cancel and the minimum
    # is attained on a whole flat cell, so argmin matching is ill-posed
    d = int(rng.choice((2, 3)))
    n = int(rng.choice((4, 6, 8) if d == 2 else (5, 7)))
    return PointCloud(rng.normal(size=(n, d)))


def _solver_vs_grid(result, objective, cloud):
    """Compare a solver result against the refined grid oracle.

    The positions must agree within one cell diagonal unless the two values
    differ by less than the grid's own local value-resolution band, in which
    case the grid cannot tell the locations apart; either way the solver's
    value must be at least as good as the grid's up to that band.
    Returns (ok, position_matched, grid_value, cell_diagonal).
    """
    gp, gv, diag = refined_grid_minimum(cloud, objective)
    band = grid_value_band(objective, gp, diag)
    position_ok = bool(np.linalg.norm(result.argmin - gp) <= diag)
    indistinguishable = abs(gv - result.value) <= band
    sane = result.value <= gv + band
    return bool(sane and (position_ok or indistinguishable)), position_ok, gv, diag


def test_criterion_05_median_unification():
    rng = np.random.default_rng(105)
    ok = True
    escapes = 0
    checks = 0
    for _ in range(30):
        cloud = _random_cloud(rng)
        n = cloud.n
        # L1 median vs refined grid, plus the independent norm-sum oracle
        r1 = v1_median(cloud, SolverOptions(tolerance=1e-10))
        f_oracle = lambda X: np.sqrt(((X[:, None, :] - cloud.points) ** 2).sum(axis=2)).sum(axis=1)
        good, matched, gv, diag = _solver_vs_grid(r1, f_oracle, cloud)
        ok = ok and good and r1.value <= gv + n * diag  # Lipschitz cell bound
        escapes += not matched
        checks += 1
        # Oja median vs refined grid
        rd = vd_median(cloud, SolverOptions(tolerance=1e-10))
        good, matched, _, _ = _solver_vs_grid(rd, lambda X: vj_objective(X, cloud, cloud.dim), cloud)
        ok = ok and good
        escapes += not matched
        checks += 1
    for _ in range(30):
        rng2 = np.random.default_rng(int(rng.integers(1 << 30)))
        cloud = PointCloud(rng2.normal(size=(int(rng2.integers(5, 9)), 3)))
        r2 = vj_median(cloud, 2, SolverOptions(tolerance=1e-8))
        good, matched, _, _ = _solver_vs_grid(r2, lambda X: vj_objective(X, cloud, 2), cloud)
        ok = ok and good
        escapes += not matched
        checks += 1
    # valleys flatter than the grid resolution must stay the exception
    ok = ok and escapes <= 0.2 * checks
    verdict(5, "v1/vd/vj medians agree with refined grid oracle", ok,
            f"{checks - escapes}/{checks} matched in position, rest within value band")


def test_criterion_06_equivariance():
    ok = True
    details = []
    rng = np.random.default_rng(106)
    # translation + rotation of the L1 median
    tol = 1e-9
    for _ in range(5):
        pts = rng.normal(size=(6, 2))
        R, t = rotation_matrix(rng, 2), rng.normal(size=2)
        a = v1_median(PointCloud(pts), SolverOptions(tolerance=tol)).argmin
        b = v1_median(PointCloud(pts @ R.T + t), SolverOptions(tolerance=tol)).argmin
        gap = np.linalg.norm(b - (R @ a + t))
        ok = ok and gap <= 10 * tol
        details.append(gap / tol)
    # translation + rotation of the intermediate V_2 median in R^3
    tol = 1e-6
    for _ in range(3):
        pts = rng.normal(size=(6, 3))
        R, t = rotation_matrix(rng, 3), rng.normal(size=3)
        a = vj_median(PointCloud(pts), 2, SolverOptions(tolerance=tol)).argmin
        b = vj_median(PointCloud(pts @ R.T + t), 2, SolverOptions(tolerance=tol)).argmin
        gap = np.linalg.norm(b - (R @ a + t))
        ok = ok and gap <= 10 * tol
        details.append(gap / tol)
    # affine equivariance of the Oja median
    tol = 1e-10
    for _ in range(4):
        pts = rng.normal(size=(6, 2))
        A = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        b_shift = rng.normal(size=2)
        a = vd_median(PointCloud(pts), SolverOptions(tolerance=tol)).argmin
        b = vd_median(PointCloud(pts @ A.T + b_shift), SolverOptions(tolerance=tol)).argmin
        gap = np.linalg.norm(b - (A @ a + b_shift))
        ok = ok and gap <= 10 * tol
        details.append(gap / tol)
    verdict(6, "median equivariance under translation/rotation/affine maps", ok,
            f"worst gap {max(details):.2f} tolerances")


def test_criterion_07_eigenvalue_law():
    rng = np.random.default_rng(107)
    worst_eig = 0.0
    worst_c = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        cov, eigs = random_spd(rng, d)
        lam_desc = eigs[::-1]
        state = GaussianState(np.zeros(d), cov)
        for i1, i2 in itertools.combinations(range(d), 2):
            u = eigenpair_direction(cov, i1, i2)
            out = symmetrize_gaussian(state, u)
            expected = np.sort(
                list(np.delete(lam_desc, [i1, i2]))
                + list(double_mean_update(lam_desc[i1], lam_desc[i2]))
            )
            got = np.sort(np.linalg.eigvalsh(out.cov))
            worst_eig = max(worst_eig, float(np.max(np.abs(got - expected) / expected)))
            c, _ = regression_coefficient(cov, u)
            c_expected = -1.0 / (0.5 * (1.0 / lam_desc[i1] + 1.0 / lam_desc[i2]))
            worst_c = max(worst_c, abs(c - c_expected) / abs(c_expected))
    verdict(7, "eigen-pair symmetrization = arithmetic/harmonic means + Eq. c",
            worst_eig < 1e-8 and worst_c < 1e-10,
            f"eig {worst_eig:.2e}, c {worst_c:.2e}")


def test_criterion_08_spherization():
    rng = np.random.default_rng(42)
    max_steps = 0
    worst_drift = 0.0
    worst_eig = 0.0
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 7))
        cov, eigs = random_spd(rng, d)
        final, trace = sphere_iterate(GaussianState(np.zeros(d), cov), tol=1e-10)
        ok = ok and trace.converged and len(trace) <= 60
        max_steps = max(max_steps, len(trace))
        dets = [s.det for s in trace.steps]
        if dets:
            worst_drift = max(worst_drift, max(abs(v - dets[0]) / dets[0] for v in dets))
        fe = np.linalg.eigvalsh(final.cov)
        ok = ok and fe[-1] / fe[0] - 1.0 < 1e-10
        target = float(np.prod(eigs)) ** (1.0 / d)
        worst_eig = max(worst_eig, float(np.max(np.abs(fe - target) / target)))
    ok = ok and worst_drift < 1e-8 and worst_eig < 1e-6
    verdict(8, "spherization in <= 60 steps, det conserved, limit (det)^(1/d)",
            ok, f"max steps {max_steps}, drift {worst_drift:.2e}, eig {worst_eig:.2e}")


def test_criterion_09_norm_reduction():
    rng = np.random.default_rng(109)
    worst = 0.0
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 7))
        cov, _ = random_spd(rng, d)
        mean = rng.standard_normal(d)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        state = GaussianState(mean, cov)
        out = symmetrize_gaussian(state, u)
        before = float(np.trace(cov) + mean @ mean)
        after = float(np.trace(out.cov) + out.mean @ out.mean)
        _, row = regression_coefficient(cov, u)
        closed_form = float(row @ cov @ row + (u @ mean) ** 2)
        ok = ok and after <= before + 1e-12
        worst = max(worst, abs((before - after) - closed_form))
    verdict(9, "mean-square norm reduction equals closed form", ok and worst < 1e-10,
            f"worst abs err {worst:.2e}")


def test_criterion_10_theorem1_monte_carlo():
    square = ConvexPolygon2D([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    n = 100_000
    k = math.isqrt(n) + (1 if math.isqrt(n) ** 2 < n else 0)
    report = theorem1_check(square, u, n, RegressorConfig("knn", k=k), seed=110)
    ok = report.inside_fraction >= 0.99 and report.area_rel_error < 1e-12
    verdict(10, "symmetrized uniform square inside dilated exact symmetral", ok,
            f"inside {report.inside_fraction:.4f}, area err {report.area_rel_error:.1e}")


def test_criterion_11_gaussian_cross_validation():
    n = 100_000
    rng = np.random.default_rng(111)
    cov = np.diag([1.0, 4.0])
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    draws = rng.multivariate_normal([0.0, 0.0], cov, size=n)
    out = symmetrize_sample(EmpiricalSample(draws), u, RegressorConfig("exact_linear"))
    analytic = symmetrize_gaussian(GaussianState([0.0, 0.0], cov), u)
    analytic_eigs = np.sort(np.linalg.eigvalsh(analytic.cov))
    gap = float(np.linalg.norm(np.cov(out.draws, rowvar=False) - analytic.cov, ord=2))
    bound = 5.0 / math.sqrt(n) * float(np.linalg.norm(cov, ord=2))
    ok = gap <= bound and np.allclose(analytic_eigs, [1.6, 2.5], rtol=1e-12)
    verdict(11, "empirical symmetrization matches analytic covariance {2.5, 1.6}",
            ok, f"spectral gap {gap:.2e} <= {bound:.2e}")


def test_criterion_12_cli_determinism(tmp_path):
    rng = np.random.default_rng(112)
    pts = tmp_path / "pts.csv"
    pts.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in rng.normal(size=(6, 2))) + "\n")
    gens = tmp_path / "gens.csv"
    gens.write_text("1.5,0\n0.5,2\n-1,1\n")
    gauss = tmp_path / "state.json"
    gauss.write_text(json.dumps({"mean": [0.5, -1.0], "cov": [[2.0, 0.3], [0.3, 1.0]]}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]}))

    commands = {
        "median": ["median", "--objective", "vj", "--j", "2", "--input", str(pts),
                   "--seed", "21"],
        "intrinsic": ["intrinsic", "--input", str(gens), "--mc", "20000", "--seed", "22"],
        "gauss": ["gauss", "--input", str(gauss), "--spherize"],
        "empirical": ["empirical", "theorem1", "--polygon", str(poly), "--u", "1,1",
                      "--n", "20000", "--seed", "23"],
    }
    ok = True
    for name, args in commands.items():
        a_path = tmp_path / f"{name}_a.json"
        b_path = tmp_path / f"{name}_b.json"
        code_a = cli_main(args + ["--output", str(a_path)])
        code_b = cli_main(args + ["--output", str(b_path)])
        ok = ok and code_a == 0 and code_b == 0
        ok = ok and a_path.read_bytes() == b_path.read_bytes()
    verdict(12, "byte-identical CLI outputs for fixed seeds across 4 commands", ok)
