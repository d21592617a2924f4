"""Exact Steiner symmetrization of Gaussian laws.

A symmetrization step in direction u replaces X by X - u E[u'X | P X],
with P the projection onto the hyperplane orthogonal to u.  For Gaussians
the conditional expectation is linear, so the step is a closed-form linear
map: the covariance becomes A S A' with A = I - c u u' S^-1 P and
1/c = -u'S^-1 u, and the mean loses its u-component.  Symmetrizing along
the direction bisecting two eigenvectors replaces that eigenvalue pair by
its arithmetic and harmonic means; iterating drives the law to spherical
symmetry with the determinant conserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-12
_SYM_TOL = 1e-12
_SPD_TOL = 1e-12


@dataclass
class GaussianState:
    """Mean vector and SPD covariance of a Gaussian law."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        d = mean.size
        if cov.shape != (d, d):
            raise ValueError(f"covariance shape {cov.shape} does not match mean ({d})")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > _SYM_TOL * scale:
            raise ValueError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] <= _SPD_TOL * eigs[-1]:
            raise ValueError("covariance is not (numerically) positive-definite")
        self.mean = mean
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass
class SymmetrizationStep:
    """Diagnostics for one symmetrization."""

    kind: str  # "center" or "eigen"
    direction: np.ndarray
    eigenvalues_before: np.ndarray
    eigenvalues_after: np.ndarray
    det: float
    trace: float
    mean_norm: float


@dataclass
class SymmetrizationTrace:
    steps: list[SymmetrizationStep] = field(default_factory=list)
    converged: bool = False

    def __len__(self):
        return len(self.steps)


def _check_unit(u) -> np.ndarray:
    u = np.asarray(u, dtype=float).reshape(-1)
    if abs(np.linalg.norm(u) - 1.0) > _UNIT_TOL:
        raise ValueError("direction must be a unit vector")
    return u


def regression_coefficient(cov: np.ndarray, u) -> tuple[float, np.ndarray]:
    """The linear regression of u'X on P X for centered X ~ N(0, cov).

    Returns (c, coeff_row) with 1/c = -u'cov^-1 u (so c < 0) and
    coeff_row = c u'cov^-1 P, the row vector satisfying
    E[u'X | P X] = coeff_row . P X.
    """
    u = _check_unit(u)
    cov = np.asarray(cov, dtype=float)
    s = np.linalg.solve(cov, u)
    quad = float(u @ s)
    c = -1.0 / quad
    coeff_row = c * (s - quad * u)  # c * u' cov^-1 P, as a vector
    return c, coeff_row


def symmetrize_gaussian(state: GaussianState, u) -> GaussianState:
    """One Steiner symmetrization step applied to a Gaussian state.

    The covariance maps to A cov A' with A = I - c u u' cov^-1 P; the mean
    maps to P mean (its u-component is removed along with the conditional
    expectation's intercept).
    """
    u = _check_unit(u)
    _, coeff_row = regression_coefficient(state.cov, u)
    A = np.eye(state.dim) - np.outer(u, coeff_row)
    new_cov = A @ state.cov @ A.T
    new_cov = 0.5 * (new_cov + new_cov.T)
    new_mean = state.mean - u * float(u @ state.mean)
    return GaussianState(new_mean, new_cov)


def _sorted_eigh(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs sorted by descending eigenvalue, sign-normalized vectors."""
    w, v = np.linalg.eigh(cov)
    w = w[::-1]
    v = v[:, ::-1]
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            v[:, k] = -col
    return w, v


def eigenpair_direction(cov: np.ndarray, i1: int, i2: int) -> np.ndarray:
    """u = (v_i1 + v_i2)/sqrt(2) from eigenvectors sorted by descending eigenvalue."""
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    if i1 == i2:
        raise ValueError("need two distinct eigenvector indices")
    if not (0 <= i1 < d and 0 <= i2 < d):
        raise ValueError(f"eigenvector index out of range for d={d}")
    _, v = _sorted_eigh(cov)
    u = v[:, i1] + v[:, i2]
    return u / np.linalg.norm(u)


def double_mean_update(lam1: float, lam2: float) -> tuple[float, float]:
    """Replace a positive pair by its arithmetic and harmonic means.

    The product is invariant, so iterating converges to the geometric mean.
    """
    if lam1 <= 0.0 or lam2 <= 0.0:
        raise ValueError("eigenvalues must be positive")
    return 0.5 * (lam1 + lam2), 2.0 * lam1 * lam2 / (lam1 + lam2)


def _record(kind: str, u: np.ndarray, before: np.ndarray, state: GaussianState) -> SymmetrizationStep:
    after = np.linalg.eigvalsh(state.cov)
    return SymmetrizationStep(
        kind=kind,
        direction=u.copy(),
        eigenvalues_before=np.asarray(before).copy(),
        eigenvalues_after=after,
        det=float(np.prod(after)),
        trace=float(np.trace(state.cov)),
        mean_norm=float(np.linalg.norm(state.mean)),
    )


def sphere_iterate(
    state: GaussianState, tol: float = 1e-10, max_iter: int = 1000
) -> tuple[GaussianState, SymmetrizationTrace]:
    """Drive a Gaussian state to spherical symmetry about the origin.

    First centers the mean (one symmetrization along mean/||mean||), then
    repeatedly symmetrizes along the bisector of the extreme eigenvalue
    pair until max/min eigenvalue ratio - 1 < tol.  Eigen steps conserve
    det cov, so the limit is (det cov)^(1/d) times the identity.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    trace = SymmetrizationTrace()
    mean_norm = float(np.linalg.norm(state.mean))
    if mean_norm > 0.0:
        u = state.mean / mean_norm
        before = np.linalg.eigvalsh(state.cov)
        state = symmetrize_gaussian(state, u)
        trace.steps.append(_record("center", u, before, state))
    d = state.dim
    for _ in range(max_iter):
        eigs = np.linalg.eigvalsh(state.cov)
        if eigs[-1] / eigs[0] - 1.0 < tol:
            trace.converged = True
            break
        u = eigenpair_direction(state.cov, 0, d - 1)
        state = symmetrize_gaussian(state, u)
        trace.steps.append(_record("eigen", u, eigs, state))
    else:
        eigs = np.linalg.eigvalsh(state.cov)
        trace.converged = bool(eigs[-1] / eigs[0] - 1.0 < tol)
    return state, trace
