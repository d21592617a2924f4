"""Sample-based Steiner symmetrization and exact 2D polygon symmetrals.

The measure-level symmetrization X -> X - u E[u'X | P X] is applied to a
finite sample by estimating the conditional expectation of the u-coordinate
given the coordinates in the hyperplane u-perp, either by k-nearest-neighbor
averaging or by the Gaussian step's linear regression fitted to the sample
(`gauss._complement_regression` on the centred draws, exact for Gaussian
laws).  The
classical chord-shifting symmetral of a convex polygon is computed exactly
for cross-validation, and an explorer applies repeated random-direction
steps while reporting isotropy diagnostics.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .directions import random_direction, sphere_directions
from .errors import DegeneratePolygonError
from .gauss import _bisector, _check_unit, _complement_regression, complement_basis
from .polygon import (
    ConvexPolygon2D,
    _prune_collinear,
    _rescaled,
    clip_polygon_to_rect,
    distances_to_polygon,
    polygon_area,
)

# Neighbours per kd-tree query block: a block holds float64 distances and int64
# indices, then the indices and the gathered u'X, so 16 MB.  2**19 held 8 MB
# but made the perfbench symmetrize jobs 4-8% slower (2 vCPUs).
_QUERY_NEIGHBOURS = 2**20
# Cells per axis of the theorem-1 chi-square test over the symmetral's box.
_CHI_SQUARE_GRID = 8


def __getattr__(name):
    """Import scipy's kd-tree on first use of ``cKDTree`` and keep it as a
    module global, so commands that never build a tree never load scipy."""
    if name == "cKDTree":
        from scipy.spatial import cKDTree

        globals()[name] = cKDTree
        return cKDTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class EmpiricalSample:
    """N draws in R^d, one per row."""

    draws: np.ndarray

    def __post_init__(self):
        draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if draws.ndim != 2 or draws.shape[0] < 1:
            raise ValueError(f"draws must be an (N, d) array, got shape {draws.shape}")
        if not np.all(np.isfinite(draws)):
            raise ValueError("draws must be finite")
        self.draws = draws

    @property
    def n(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]


@dataclass
class RegressorConfig:
    """How to estimate E[u'X | P X]: 'knn' averaging, or 'exact_linear', the
    Gaussian step's linear regression on the sample's mean and covariance."""

    method: str = "knn"
    k: int | None = None

    def __post_init__(self):
        if self.method not in ("knn", "exact_linear"):
            raise ValueError(f"unknown regression method {self.method!r}")
        if self.method == "knn" and self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")

    def resolve_k(self, n: int) -> int:
        k = self.k if self.k is not None else math.isqrt(n) + (math.isqrt(n) ** 2 < n)
        if k > n:
            raise ValueError(f"k={k} exceeds sample size {n}")
        return k


@dataclass
class IsotropyReport:
    """Per-step diagnostics emitted by the conjecture explorer."""

    step: int
    direction: np.ndarray
    anisotropy: float
    mean_norm: float
    mean_square_norm: float
    symmetry_stat: float
    mean_square_decrease: float
    regression_mean_square: float


@dataclass
class Theorem1Report:
    n: int
    delta: float
    inside_fraction: float
    chi_square: float
    chi_square_dof: int
    area_original: float
    area_symmetral: float
    area_rel_error: float


@dataclass
class NormReduction:
    """Mean-square norms around one symmetrization step, and the step's result."""

    before: float
    after: float
    decrease: float
    regression_mean_square: float
    symmetrized: EmpiricalSample = field(repr=False, compare=False)


def _conditional_mean(sample: EmpiricalSample, u: np.ndarray, cfg: RegressorConfig) -> np.ndarray:
    """Estimate m(p) = E[u'X | P X = p] at every draw.

    'exact_linear' is the Gaussian step's regression (`_complement_regression`)
    on the centred draws: the OLS fit of u'X on the coordinates of P X, the
    minimum-norm one when those are rank-deficient.  'knn' averages u'X
    over the k nearest draws in p = B X, B = complement_basis(u), the draw
    itself included.  When p is one coordinate (d = 2) those neighbours are
    a window of the sorted projections, found exactly in O(N log N) by
    `_window_means`; otherwise a kd-tree is queried on every CPU the process
    may run on (each row is searched alone, so the bytes do not depend on
    their count) in blocks of about `_QUERY_NEIGHBOURS` neighbours, so no
    N x k array is built.  A sample in R^1, or one whose projections all
    agree to within the roundoff of computing them, 16 d eps max|X|, gets
    the global mean.
    """
    if u.size != sample.dim:
        raise ValueError(f"direction has dimension {u.size}, sample has {sample.dim}")
    if cfg.method == "knn":
        k = cfg.resolve_k(sample.n)  # validates k <= N up front
    y = sample.draws @ u
    if sample.dim == 1:
        return np.full(sample.n, y.mean())
    p = sample.draws @ complement_basis(u).T
    roundoff = 16.0 * sample.dim * np.finfo(float).eps * np.abs(sample.draws).max()
    spread = np.ptp(p, axis=0)
    if spread.max() <= roundoff:
        # degenerate projected coordinates: the conditional mean is global
        return np.full(sample.n, y.mean())
    if cfg.method == "exact_linear":
        centred = sample.draws - sample.draws.mean(axis=0)
        _, coeff_row = _complement_regression(centred, u)
        return y.mean() + centred @ coeff_row
    if p.shape[1] == 1:
        return _window_means(p[:, 0], y, k)
    # squared distances up to 2**1022 cannot overflow; scaled, hypot cannot either
    if np.hypot.reduce(spread * 2.0**-511) > 1.0:
        raise ValueError("projected draws span more than 2**511, too far for the kd-tree")
    # through the module, so the first use imports it and a replaced class is used
    tree = sys.modules[__name__].cKDTree(p)
    rows = max(1, _QUERY_NEIGHBOURS // k)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else -1
    m_hat = np.empty(sample.n)
    for start in range(0, sample.n, rows):
        idx = tree.query(p[start:start + rows], k=k, workers=workers)[1]
        m_hat[start:start + rows] = y[idx.reshape(-1, k)].mean(axis=1)
        del idx  # not held through the next block's query
    return m_hat


def _window_means(t: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Mean of y over the k nearest neighbours in t of every point, on the line.

    Each mean is a difference of one prefix sum of the centred y over the
    point's window of the sorted projections (see `_window_starts`).
    """
    n = t.size
    order = np.argsort(t, kind="stable")
    start = _window_starts(t[order], k)
    y_mean = y.mean()
    prefix = np.concatenate(([0.0], np.cumsum(y[order] - y_mean)))
    m_hat = np.empty(n)
    m_hat[order] = y_mean + (prefix[start + k] - prefix[start]) / k
    return m_hat


def _window_starts(s: np.ndarray, k: int) -> np.ndarray:
    """First index of the k nearest neighbours of every s_i, s sorted ascending.

    The k nearest neighbours of s_i are a window s_l .. s_{l+k-1} containing
    i.  Window l is no worse than window l + 1 exactly when
    s_i - s_l <= s_{l+k} - s_i, that is 2 s_i <= g_l with g_l = s_l + s_{l+k}
    nondecreasing in l, so the first l with g_l >= 2 s_i is a best window.
    Clipping it to the windows that contain i changes only which of several
    coincident projections are taken.
    """
    n = s.size
    i = np.arange(n)
    start = np.searchsorted(s[: n - k] + s[k:], 2.0 * s, side="left")
    return np.clip(start, np.maximum(i - k + 1, 0), np.minimum(i, n - k))


def symmetrize_sample(
    sample: EmpiricalSample, u, cfg: RegressorConfig | None = None
) -> EmpiricalSample:
    """Shift each draw along u by its estimated conditional mean.

    The coordinates in u-perp are left untouched; only the u-component
    moves, so the projected sample is conditioned on, never transported.
    """
    return norm_reduction_check(sample, u, cfg).symmetrized


def polygon_steiner_symmetral_2d(poly: ConvexPolygon2D, u) -> ConvexPolygon2D:
    """Exact Steiner symmetral of a convex polygon in direction u.

    In the right-handed frame (w, u), t = w'x, the chord along u at t runs
    from the lower chain to the upper one, the lower chain of the polygon
    reflected in the t axis; np.interp on each chain gives the chord ends at
    the vertex projections, the breakpoints of the concave piecewise-linear
    chord length.  The symmetral is bounded by +/- half that length, found
    for the vertices / 2^s (_rescaled) and scaled back exactly.
    """
    u = _check_unit(u)
    if u.size != 2:
        raise ValueError("polygon symmetrals are 2D only")
    w = np.array([u[1], -u[0]])  # right-handed (w, u) frame
    verts, shift = _rescaled(poly.vertices)
    t = verts @ w
    s = verts @ u
    if t.max() <= t.min():
        raise DegeneratePolygonError("polygon projects to a point")
    breaks = np.unique(t)
    ends = []  # s on the lower chain, -s on the upper one
    for tc, sc in ((t, s), (t[::-1], -s[::-1])):  # the polygon and its reflection, CCW
        # the lower chain: from the lowest leftmost to the lowest rightmost vertex
        start, stop = np.lexsort((sc, tc))[0], np.lexsort((sc, -tc))[0]
        walk = (start + np.arange((stop - start) % len(t) + 1)) % len(t)
        ends.append(np.interp(breaks, tc[walk], sc[walk]))
    half = -0.5 * (ends[0] + ends[1])
    chain = np.concatenate([np.column_stack([breaks, -half]),
                            np.column_stack([breaks[::-1], half[::-1]])])
    planar = chain @ np.vstack([w, u])
    return ConvexPolygon2D(np.ldexp(_prune_collinear(planar), shift))


def sample_uniform_polygon(poly: ConvexPolygon2D, n: int, seed: int) -> EmpiricalSample:
    """Exact uniform draws on a convex polygon via fan triangulation.

    The triangles' areas come from the fan's edges divided by one power of
    two (_rescaled), so their products neither under- nor overflow and the
    triangle probabilities have the same bits for the polygon scaled by any
    power of two in the normal range.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    verts = poly.vertices
    if polygon_area(verts) <= 0.0:
        raise DegeneratePolygonError("polygon has no area")
    anchor = verts[0]
    b = verts[1:-1] - anchor
    c = verts[2:] - anchor
    fan, _ = _rescaled(verts[1:] - anchor)
    bs, cs = fan[:-1], fan[1:]
    tri_areas = 0.5 * np.abs(bs[:, 0] * cs[:, 1] - bs[:, 1] * cs[:, 0])
    rng = np.random.default_rng(seed)
    which = rng.choice(len(tri_areas), size=n, p=tri_areas / tri_areas.sum())
    a1 = rng.random(n)
    a2 = rng.random(n)
    flip = a1 + a2 > 1.0
    a1[flip] = 1.0 - a1[flip]
    a2[flip] = 1.0 - a2[flip]
    pts = anchor + a1[:, None] * b[which] + a2[:, None] * c[which]
    return EmpiricalSample(pts)


def theorem1_check(
    poly: ConvexPolygon2D,
    u,
    n: int,
    cfg: RegressorConfig | None = None,
    seed: int = 0,
    delta: float | None = None,
) -> Theorem1Report:
    """Probe the classical-symmetral law on a uniform polygon sample.

    Draws uniformly on the polygon, symmetrizes the sample, and compares
    against the exact symmetral: the fraction of draws within ``delta`` of
    the symmetral (default 3 diam / sqrt(k)), a chi-square uniformity
    statistic over the _CHI_SQUARE_GRID x _CHI_SQUARE_GRID (8 x 8) cells of
    the symmetral's bounding box, each clipped to the symmetral, and the
    exact area match.  This reports; it does not assert.
    """
    u = _check_unit(u)
    cfg = cfg or RegressorConfig()
    sample = sample_uniform_polygon(poly, n, seed)
    symmetrized = symmetrize_sample(sample, u, cfg)
    symmetral = polygon_steiner_symmetral_2d(poly, u)
    if delta is None:
        k = cfg.resolve_k(n) if cfg.method == "knn" else n
        delta = 3.0 * poly.diameter / math.sqrt(k)
    dist = distances_to_polygon(symmetrized.draws, symmetral)
    inside_fraction = float(np.mean(dist <= delta))
    chi_square, dof = _chi_square_uniformity(symmetrized.draws, symmetral)
    # the relative error from both areas / 4^s, finite where they are not
    _, shift = _rescaled(poly.vertices)
    area_p, area_s = (polygon_area(np.ldexp(p.vertices, -shift)) for p in (poly, symmetral))
    return Theorem1Report(
        n=n,
        delta=float(delta),
        inside_fraction=inside_fraction,
        chi_square=chi_square,
        chi_square_dof=dof,
        area_original=poly.area,
        area_symmetral=symmetral.area,
        area_rel_error=abs(area_s - area_p) / area_p,
    )


def _chi_square_uniformity(points: np.ndarray, poly: ConvexPolygon2D):
    # counted on the polygon and the points divided by one power of two
    # (_rescaled), so the cell areas neither under- nor overflow
    verts, shift = _rescaled(poly.vertices)
    points = np.ldexp(points, -shift)
    (xmin, ymin), (xmax, ymax) = verts.min(axis=0), verts.max(axis=0)
    xs = np.linspace(xmin, xmax, _CHI_SQUARE_GRID + 1)
    ys = np.linspace(ymin, ymax, _CHI_SQUARE_GRID + 1)
    counts, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=[xs, ys])
    total_area = polygon_area(verts)
    n = len(points)
    chi = 0.0
    dof = 0
    for i in range(_CHI_SQUARE_GRID):
        for jj in range(_CHI_SQUARE_GRID):
            cell = clip_polygon_to_rect(verts, xs[i], xs[i + 1], ys[jj], ys[jj + 1])
            expected = n * polygon_area(cell) / total_area
            if expected >= 5.0:
                chi += (counts[i, jj] - expected) ** 2 / expected
                dof += 1
    return float(chi), max(dof - 1, 0)


def norm_reduction_check(
    sample: EmpiricalSample, u, cfg: RegressorConfig | None = None
) -> NormReduction:
    """Mean-square norms before and after one symmetrization step.

    With OLS regression the decrease equals the empirical mean of the
    fitted conditional means squared (a least-squares identity); with knn
    the identity is approximate, so both sides are reported.  The shifted
    sample itself, what `symmetrize_sample` returns, comes back as
    ``symmetrized``, so a caller that needs both runs one regression.
    """
    u = _check_unit(u)
    cfg = cfg or RegressorConfig()
    m_hat = _conditional_mean(sample, u, cfg)
    shifted = EmpiricalSample(sample.draws - m_hat[:, None] * u[None, :])
    with np.errstate(over="ignore"):  # a mean square past float64 is inf
        before = float(np.mean((sample.draws**2).sum(axis=1)))
        after = float(np.mean((shifted.draws**2).sum(axis=1)))
        regression_mean_square = float(np.mean(m_hat**2))
    return NormReduction(
        before=before,
        after=after,
        decrease=before - after,
        regression_mean_square=regression_mean_square,
        symmetrized=shifted,
    )


def _symmetry_statistic(draws: np.ndarray) -> float:
    """Max over probe directions of |mean(z | z>0) + mean(z | z<0)|, z = w'X.

    The sums over z > 0 and z < 0 are (sum z +- sum |z|)/2, so every probe
    is one pass over its row of z; an empty side has mean 0.
    """
    d = draws.shape[1]
    probes = sphere_directions(d, 16 if d <= 2 else 32, seed=0)
    z = probes @ draws.T
    total = z.sum(axis=1)
    n_pos = np.maximum(np.count_nonzero(z > 0.0, axis=1), 1)
    n_neg = np.maximum(np.count_nonzero(z < 0.0, axis=1), 1)
    spread = np.abs(z, out=z).sum(axis=1)
    m_pos = (total + spread) / (2 * n_pos)
    m_neg = (total - spread) / (2 * n_neg)
    return float(np.abs(m_pos + m_neg).max())


def _covariance(draws: np.ndarray, when: str) -> np.ndarray:
    """Sample covariance of finite draws; ValueError where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        cov = np.atleast_2d(np.cov(draws, rowvar=False))
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"the sample covariance {when} overflows float64")
    return cov


def conjecture_explorer(
    sample: EmpiricalSample,
    steps: int,
    direction_policy: str = "random_seeded",
    cfg: RegressorConfig | None = None,
    seed: int = 0,
) -> list[IsotropyReport]:
    """Apply repeated symmetrization steps and report isotropy diagnostics.

    Policies: 'random_seeded' draws a fresh uniform direction each step,
    'cyclic_axes' cycles the coordinate axes, 'max_anisotropy' bisects the
    extreme eigenvectors of the current sample covariance.  Each sample's
    covariance is decomposed once, by one eigh: its eigenvalues give the
    step's anisotropy, its eigenvectors the next 'max_anisotropy' direction.
    One report per step; the stream is an instrument, not a convergence claim.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if direction_policy not in ("random_seeded", "cyclic_axes", "max_anisotropy"):
        raise ValueError(f"unknown direction policy {direction_policy!r}")
    if sample.n < 2:
        raise ValueError(f"need at least 2 draws to estimate a covariance, got {sample.n}")
    cfg = cfg or RegressorConfig()
    rng = np.random.default_rng(seed)
    d = sample.dim
    if direction_policy == "max_anisotropy":
        _, vecs = np.linalg.eigh(_covariance(sample.draws, "of the input"))
    reports: list[IsotropyReport] = []
    for step in range(1, steps + 1):
        if direction_policy == "random_seeded":
            u = random_direction(rng, d)
        elif direction_policy == "cyclic_axes":
            u = np.zeros(d)
            u[(step - 1) % d] = 1.0
        else:
            u = _bisector(vecs, 0, d - 1)
        reduction = norm_reduction_check(sample, u, cfg)
        sample = reduction.symmetrized
        eigs, vecs = np.linalg.eigh(_covariance(sample.draws, f"after step {step}"))
        reports.append(
            IsotropyReport(
                step=step,
                direction=u.copy(),
                anisotropy=float(eigs[-1] / eigs[0]) if eigs[0] > 0.0 else math.inf,
                mean_norm=float(np.linalg.norm(sample.draws.mean(axis=0))),
                mean_square_norm=reduction.after,
                symmetry_stat=_symmetry_statistic(sample.draws),
                mean_square_decrease=reduction.decrease,
                regression_mean_square=reduction.regression_mean_square,
            )
        )
    return reports
