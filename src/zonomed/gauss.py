"""Exact Steiner symmetrization of Gaussian laws.

A symmetrization step in direction u replaces X by X - u E[u'X | P X],
with P the projection onto the hyperplane orthogonal to u.  For Gaussians
the conditional expectation is linear, so the step is a closed-form linear
map: the covariance becomes A S A' with A = I - c u u' S^-1 P and
1/c = -u'S^-1 u, and the mean loses its u-component.  The regression
behind A is one least-squares solve on the triangular factor of S in the
frame of a Householder basis of u-perp (directions._complement_rows) and
u; the sample step 'exact_linear' runs the same solve on the triangle of
its centred draws, built by QR one block of rows at a time, so it maps the
sample's mean and 1/N covariance exactly as this module maps a Gaussian
state.  Symmetrizing along the direction bisecting two eigenvectors
replaces that eigenvalue pair by its arithmetic and harmonic means;
iterating drives the law to spherical symmetry with the determinant
conserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .directions import _complement_rows

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
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        if np.abs(cov - cov.T).max() > _SYM_TOL * np.abs(cov).max():
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


def _unit(v) -> np.ndarray:
    """v / ||v||, v first divided by the power of two of max|v|: that is exact,
    so the norm neither under- nor overflows and the bits are v / ||v||'s."""
    v = np.asarray(v, dtype=float).reshape(-1)
    top = np.abs(v).max()
    if top == 0.0:
        raise ValueError("direction vector must be nonzero")
    v = np.ldexp(v, -np.frexp(top)[1])
    return v / np.linalg.norm(v)


def _check_unit(u) -> np.ndarray:
    u = np.asarray(u, dtype=float).reshape(-1)
    if not abs(np.linalg.norm(u) - 1.0) <= _UNIT_TOL:
        raise ValueError("direction must be a unit vector")
    return u


def complement_basis(u) -> np.ndarray:
    """Deterministic orthonormal basis of u-perp, rows of a (d-1, d) array:
    the Householder rows of directions._complement_rows, which the V_3
    pivots share.  A fixed convention, so repeated runs agree bit for bit."""
    return _complement_rows(_check_unit(u))


def _complement_regression(R: np.ndarray, n: int, basis: np.ndarray) -> tuple[float, np.ndarray]:
    """The regression of u'X on P X, from the triangle R of n rows of (B X, u'X).

    B = basis = complement_basis(u).  For any factor F with F'F proportional
    to cov X, A = [F B', F u] holds n rows of those coordinates, and R is
    upper triangular with R'R = A'A: for a Gaussian, the Cholesky factor of
    its covariance in the frame (B', u) (`regression_coefficient`); for a
    sample, the blocked QR of its centred draws in that frame, which never
    forms their covariance (`empirical._conditional_mean`).  With
    R = [[R11, r12], [0, r22]], least squares of F u on F B' has slope
    beta = R11^+ r12, the minimum-norm one when F B' is rank-deficient:
    singular values of R11, which are those of F B', at most
    eps max(n, d - 1) times the largest count as zero, as in lstsq on F B'.
    Returns (c, coeff_row) with c = -||F u - F B' beta||^2
    = -(||r12 - R11 beta||^2 + r22^2) and coeff_row = B' beta, a vector in
    u-perp, so E[u'X | P X] = coeff_row . X for centered X.
    """
    rcond = np.finfo(float).eps * max(n, len(R) - 1)
    beta, *_ = np.linalg.lstsq(R[:-1, :-1], R[:-1, -1], rcond=rcond)
    resid = R[:-1, -1] - R[:-1, :-1] @ beta
    with np.errstate(over="ignore"):  # a residual variance past float64 is inf
        return -float(resid @ resid + R[-1, -1] ** 2), beta @ basis


def regression_coefficient(cov: np.ndarray, u) -> tuple[float, np.ndarray]:
    """The linear regression of u'X on P X for centered X ~ N(0, cov).

    Returns (c, coeff_row) from `_complement_regression` on the Cholesky
    factor R of cov in the frame (B', u), R'R = [B; u'] cov [B', u], so -c
    is the residual variance of u'X given P X: 1/c = -u'cov^-1 u (so
    c < 0), and E[u'X | P X] = coeff_row . P X.
    """
    u = _check_unit(u)
    cov = np.asarray(cov, dtype=float)
    if u.size != cov.shape[0]:
        raise ValueError(f"direction has dimension {u.size}, covariance has {cov.shape[0]}")
    basis = complement_basis(u)
    frame = np.vstack([basis, u]).T
    return _complement_regression(np.linalg.cholesky(frame.T @ cov @ frame).T, u.size, basis)


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


def eigenpair_direction(cov: np.ndarray, i1: int, i2: int) -> np.ndarray:
    """u = (v_i1 + v_i2)/sqrt(2) from eigenvectors sorted by descending eigenvalue.

    Each eigenvector's sign makes its first entry above 1e-12 in magnitude
    positive.
    """
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    if i1 == i2:
        raise ValueError("need two distinct eigenvector indices")
    if not (0 <= i1 < d and 0 <= i2 < d):
        raise ValueError(f"eigenvector index out of range for d={d}")
    return _bisector(np.linalg.eigh(cov)[1], i1, i2)


def _bisector(vecs: np.ndarray, i1: int, i2: int) -> np.ndarray:
    """`eigenpair_direction` from eigh's eigenvector columns (ascending order).

    With i1 == i2 this is the signed eigenvector itself, [1.0] when d = 1.
    """
    d = vecs.shape[0]
    pair = vecs[:, [d - 1 - i1, d - 1 - i2]]
    lead = pair[np.argmax(np.abs(pair) > 1e-12, axis=0), [0, 1]]
    pair = np.where(lead < 0.0, -pair, pair)
    u = pair[:, 0] + pair[:, 1]
    return u / np.linalg.norm(u)


def double_mean_update(lam1: float, lam2: float) -> tuple[float, float]:
    """Replace a positive pair by its arithmetic and harmonic means.

    The product is invariant, so iterating converges to the geometric mean.
    """
    if not (lam1 > 0.0 and lam2 > 0.0):
        raise ValueError("eigenvalues must be positive")
    return 0.5 * (lam1 + lam2), 2.0 * lam1 * lam2 / (lam1 + lam2)


def sphere_iterate(
    state: GaussianState, tol: float = 1e-10, max_iter: int = 1000
) -> tuple[GaussianState, SymmetrizationTrace]:
    """Drive a Gaussian state to spherical symmetry about the origin.

    First centers the mean (one symmetrization along mean/||mean||), then
    symmetrizes, at most max_iter times, along the bisector of the extreme
    eigenvalue pair until max/min eigenvalue ratio - 1 < tol.  Eigen steps
    conserve det cov, so the limit is (det cov)^(1/d) times the identity.
    Each covariance is decomposed once, by one eigh: its eigenvalues give
    the step record (eigenvalues_after, det), the stop test and the next
    step's eigenvalues_before, its eigenvectors the next bisector.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    trace = SymmetrizationTrace()
    d = state.dim
    eigs, vecs = np.linalg.eigh(state.cov)
    for i in range(-1, max_iter):  # i = -1 is the centering step
        if i < 0:
            if not state.mean.any():
                continue
            kind, u = "center", _unit(state.mean)
        elif eigs[-1] / eigs[0] - 1.0 < tol:
            break
        else:
            kind, u = "eigen", _bisector(vecs, 0, d - 1)
        state = symmetrize_gaussian(state, u)
        before = eigs
        eigs, vecs = np.linalg.eigh(state.cov)
        with np.errstate(over="ignore"):  # a det past float64 is inf; the CLI names it
            det = float(np.prod(eigs))
        trace.steps.append(SymmetrizationStep(
            kind=kind, direction=u, eigenvalues_before=before, eigenvalues_after=eigs,
            det=det, trace=float(np.trace(state.cov)),
            mean_norm=float(np.linalg.norm(state.mean)),
        ))
    trace.converged = bool(eigs[-1] / eigs[0] - 1.0 < tol)
    return state, trace
