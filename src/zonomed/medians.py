"""Multivariate medians that minimize size functionals of the discrepancy zonotope.

For a sample x_1..x_n the zonotope Z(x) has generators x - x_i.  Minimizing
its j-th intrinsic volume over x gives a one-parameter family of medians:
j = 1 is the classical L1 (geometric) median, j = d is the Oja simplex-volume
median, and intermediate j interpolate.  Two further objectives are supplied:
the Wills functional of Z(x), and the polar-body volume (to be maximized).

V_j(Z(x)) sums vol_j(x - x_i : i in S) over the j-subsets S, and each term
is a face volume times a distance: vol_{j-1}(edges of S) * dist(x, aff S).
A distance to a flat is convex in x, so every V_j objective and the Wills
functional 1 + sum_j V_j are convex.  j = 1 is solved by Weiszfeld
iteration.  Every other V_j and the Wills functional go through one solver:
the face forms (a_S, w_S, N_S) are computed once, and a damped Newton method
minimizes the smoothed sum w_S sqrt(r_S^2 + eps^2) while eps shrinks to
zero.  The polar objective is not convex and keeps multistart Nelder-Mead.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, root

from .directions import sphere_directions
from .errors import DegenerateCloudError, DivergentPolarError, ZonomedError
# wills_of_generators is not called here, but both kernel names stay
# importable from this module: perfbench/tracing.py wraps them.
from .zonotope import (
    MonteCarloEstimate,
    PointCloud,
    intrinsic_volume_of_generators,
    unit_ball_volume,
    wills_of_generators,
)

# Flat-region detection: probe step relative to the cloud scale, and the
# relative objective variation below which a direction counts as flat.
_PROBE_STEP = 1e-3
_FLAT_REL = 1e-9

# Bytes the face forms of one solve may take while they are built; larger
# problems fail before any subset is listed.
_FACE_CACHE_BYTES = 1 << 29


@dataclass
class SolverOptions:
    """``tolerance`` stops Weiszfeld (j = 1) and Nelder-Mead (polar); the face-form
    Newton solver has its own scale-relative stop rule.  ``max_iter`` caps
    every solver; ``multistarts`` and ``threads`` apply to polar only."""

    tolerance: float = 1e-8
    max_iter: int = 10_000
    multistarts: int = 8
    seed: int = 0
    keep_trace: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1 or self.multistarts < 1:
            raise ValueError("max_iter and multistarts must be at least 1")


@dataclass
class MedianResult:
    argmin: np.ndarray
    value: float
    iterations: int
    converged: bool
    non_unique: bool = False
    trace: list[tuple[np.ndarray, float]] | None = None


@dataclass
class MedianProblem:
    """A cloud plus the objective to optimize over the query point."""

    cloud: PointCloud
    objective: str  # "vj" | "wills" | "polar"
    j: int | None = None
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.objective not in ("vj", "wills", "polar"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.objective == "vj":
            if self.j is None or not 1 <= self.j <= self.cloud.dim:
                raise ValueError("vj objective needs 1 <= j <= d")

    def solve(self) -> MedianResult:
        if self.objective == "vj":
            return vj_median(self.cloud, self.j, self.options)
        if self.objective == "wills":
            return wills_median(self.cloud, self.options)
        return polar_median(self.cloud, self.options)


def vj_objective(x, cloud: PointCloud, j: int) -> float:
    """V_j(Z(x)): for j=1 the distance sum, for j=d the Oja determinant sum."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != cloud.dim:
        raise ValueError(f"point has dimension {x.size}, cloud has {cloud.dim}")
    if not 1 <= j <= cloud.dim:
        raise ValueError(f"need 1 <= j <= d, got j={j}, d={cloud.dim}")
    return intrinsic_volume_of_generators(x[None, :] - cloud.points, j)


def _cloud_scale(points: np.ndarray) -> float:
    center = points.mean(axis=0)
    return 1.0 + float(np.sqrt(((points - center) ** 2).sum(axis=1)).max())


def _affine_rank(points: np.ndarray) -> int:
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-10 * sv[0]))


def _probe_directions(points: np.ndarray) -> np.ndarray:
    d = points.shape[1]
    dirs = list(np.eye(d))
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    dirs.extend(v for v in vt if np.linalg.norm(v) > 0.5)
    both = np.vstack([dirs, -np.asarray(dirs)])
    return both


def _detect_flat(objective, x: np.ndarray, value: float, points: np.ndarray) -> bool:
    """True when the objective is flat (to _FLAT_REL) along some probe direction."""
    h = _PROBE_STEP * _cloud_scale(points)
    threshold = _FLAT_REL * abs(value)
    for u in _probe_directions(points):
        if abs(objective(x + h * u) - value) <= threshold:
            return True
    return False


def _start_points(cloud: PointCloud, opts: SolverOptions, extra=()) -> list[np.ndarray]:
    pts = cloud.points
    starts = [np.median(pts, axis=0)]
    starts.extend(np.asarray(e, dtype=float) for e in extra)
    rng = np.random.default_rng(opts.seed)
    order = rng.permutation(cloud.n)
    for i in order:
        if len(starts) >= opts.multistarts:
            break
        starts.append(pts[i].copy())
    scale = _cloud_scale(pts)
    while len(starts) < opts.multistarts:
        starts.append(starts[0] + 0.1 * scale * rng.standard_normal(cloud.dim))
    return starts[: opts.multistarts]


def _merge_results(candidates):
    """Smallest value wins; ties go to the lexicographically smaller argmin."""
    return min(candidates, key=lambda c: (c[1], tuple(c[0])))


def _map_starts(fn, starts, threads: int):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, starts))
    return [fn(s) for s in starts]


def v1_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """L1 (geometric) median by Weiszfeld iteration.

    Uses the standard fix for iterates that land on sample points: the
    subgradient test ||sum (x_i - x)/||x_i - x|||| <= multiplicity decides
    optimality there, and otherwise the iterate steps off along the blended
    descent direction.  Stops when the step norm drops below the tolerance.
    """
    opts = opts or SolverOptions()
    pts = cloud.points
    x = np.median(pts, axis=0)
    scale = _cloud_scale(pts)
    touch_tol = 1e-13 * scale

    def objective(y):
        return float(np.sqrt(((y[None, :] - pts) ** 2).sum(axis=1)).sum())

    trace: list[tuple[np.ndarray, float]] | None = [] if opts.keep_trace else None
    converged = False
    iterations = 0
    prev_step = None
    for _ in range(opts.max_iter):
        diff = pts - x[None, :]
        dist = np.sqrt((diff**2).sum(axis=1))
        on = dist <= touch_tol
        eta = int(np.count_nonzero(on))
        away = ~on
        if eta == cloud.n:
            converged = True  # every sample point coincides with x
            break
        grad_residual = (diff[away] / dist[away, None]).sum(axis=0)
        r = float(np.linalg.norm(grad_residual))
        if eta > 0 and r <= eta:
            converged = True  # optimal at a sample point
            break
        if eta == 0 and r == 0.0:
            converged = True  # smooth stationary point
            break
        w = 1.0 / dist[away]
        weiszfeld = (pts[away] * w[:, None]).sum(axis=0) / w.sum()
        if eta > 0:
            blend = min(1.0, eta / r)
            x_new = (1.0 - blend) * weiszfeld + blend * x
        else:
            x_new = weiszfeld
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        iterations += 1
        if trace is not None:
            trace.append((x.copy(), objective(x)))
        if step < opts.tolerance:
            # linear convergence: distance to the fixed point is about
            # step * rho / (1 - rho), so keep going until that is small too
            rho = min(step / prev_step, 0.999) if prev_step else 0.5
            if step * rho / (1.0 - rho) < opts.tolerance:
                converged = True
                break
        prev_step = step
    value = vj_objective(x, cloud, 1)
    non_unique = _detect_flat(objective, x, value, pts)
    return MedianResult(x, value, iterations, converged, non_unique, trace)


def _face_forms(points: np.ndarray, orders) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every j-subset S of the sample, for each j in ``orders``, as a face form.

    vol_j(x - x_i : i in S) = w_S ||N_S'(x - a_S)||: a_S is the subset's first
    point, and one batched complete QR of the edges x_i - a_S gives their
    (j-1)-volume w_S = prod |diag R| and an orthonormal basis N_S of the
    complement of their span.  j = 1 terms are ||x - x_i||.  Returns one
    (a, w, N) group per order, without affinely dependent subsets (w_S = 0).
    """
    n, d = points.shape
    need = sum(math.comb(n, j) * 8 * (j + 1 + d * (2 * d + j)) for j in orders)
    if need > _FACE_CACHE_BYTES:
        counts = ", ".join(f"C({n},{j}) = {math.comb(n, j)}" for j in orders)
        raise ZonomedError(
            f"face forms of {counts} subsets need {need} bytes, over {_FACE_CACHE_BYTES}"
        )
    groups = []
    for j in orders:
        if j == 1:
            groups.append((points, np.ones(n), np.broadcast_to(np.eye(d), (n, d, d))))
            continue
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), j))
        idx = np.fromiter(flat, dtype=np.intp, count=math.comb(n, j) * j).reshape(-1, j)
        a = points[idx[:, 0]]
        edges = np.swapaxes(points[idx[:, 1:]] - a[:, None, :], 1, 2)
        q, r = np.linalg.qr(edges, mode="complete")
        w = np.abs(np.diagonal(r, axis1=1, axis2=2)).prod(axis=1)
        # a volume within round-off of the edge lengths' product is zero
        keep = w > j * np.finfo(float).eps * np.linalg.norm(edges, axis=1).prod(axis=1)
        groups.append((a[keep], w[keep], q[keep][:, :, j - 1 :]))
    return groups


def _face_value(groups, x: np.ndarray, eps: float = 0.0, derivatives: bool = False):
    """sum_S w_S sqrt(r_S^2 + eps^2) with r_S = ||N_S'(x - a_S)||; with
    ``derivatives``, the tuple (value, gradient, Hessian)."""
    d = x.size
    value, grad, hess = 0.0, np.zeros(d), np.zeros((d, d))
    for a, w, N in groups:
        y = np.einsum("sdk,sd->sk", N, x - a)
        s = np.sqrt(np.einsum("sk,sk->s", y, y) + eps * eps)
        value += float(w @ s)
        if derivatives:
            u = np.einsum("sdk,sk->sd", N, y)  # x - a_S projected off the flat
            c = w / s
            grad += c @ u
            hess += np.einsum("s,sdk,sek->de", c, N, N)
            hess -= np.einsum("s,sd,se->de", c / (s * s), u, u)
    return (value, grad, hess) if derivatives else value


def _face_median(cloud: PointCloud, orders, opts: SolverOptions, constant: float = 0.0):
    """Minimize constant + sum over j in orders of V_j(Z(x)) from the face forms.

    Damped Newton (Armijo backtracking) on sum_S w_S sqrt(r_S^2 + eps^2),
    starting at the coordinatewise median, with eps lowered tenfold per
    stage from 1e-2 to 1e-13 times the cloud scale.  A stage ends when a
    step is shorter than max(1e-3 eps, 1e-14 scale).  ``opts.max_iter`` caps
    the Newton steps over all stages, and the result is converged only when
    the last stage ended within that cap.
    """
    pts = cloud.points
    groups = _face_forms(pts, orders)
    scale = _cloud_scale(pts)
    x = np.median(pts, axis=0)
    path = []
    for eps in scale * 10.0 ** -np.arange(2.0, 14.0):
        floor = max(1e-3 * eps, 1e-14 * scale)
        stage_done = False
        while not stage_done and len(path) < opts.max_iter:
            f, g, H = _face_value(groups, x, eps, derivatives=True)
            try:
                p = -np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                p = -g
            slope = float(g @ p)
            if not slope < 0.0:
                p, slope = -g, -float(g @ g)
            t, length = 1.0, float(np.linalg.norm(p))
            while t * length >= floor:
                if _face_value(groups, x + t * p, eps) <= f + 1e-4 * t * slope:
                    x = x + t * p
                    break
                t *= 0.5
            stage_done = t * length < floor
            path.append(x)

    def objective(y):
        return constant + _face_value(groups, y)

    value = objective(x)
    non_unique = _detect_flat(objective, x, value, pts)
    trace = [(y.copy(), objective(y)) for y in path] if opts.keep_trace else None
    return MedianResult(x, value, len(path), stage_done, non_unique, trace)


def vd_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Oja median: minimize the sum of simplex-volume terms |det(x - x_i : i in S)|."""
    if _affine_rank(cloud.points) < cloud.dim:
        raise DegenerateCloudError("cloud does not affinely span R^d")
    return _face_median(cloud, (cloud.dim,), opts or SolverOptions())


def _nelder_mead_polish(objective, x0: np.ndarray, opts: SolverOptions):
    """Nelder-Mead with up to two restarts from the incumbent."""
    x, fx = np.asarray(x0, dtype=float), objective(x0)
    nfev = 0
    success = False
    for _ in range(3):
        res = minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={
                "xatol": 0.1 * opts.tolerance,
                "fatol": 1e-13 * (1.0 + abs(fx)),
                "maxfev": opts.max_iter,
            },
        )
        nfev += res.nfev
        improved = res.fun < fx - 1e-13 * (1.0 + abs(fx))
        if res.fun <= fx:
            x, fx = res.x, float(res.fun)
        success = bool(res.success)
        if not improved:
            break
    return x, fx, nfev, success


def _multistart_minimize(cloud, objective, opts, extra_starts=()):
    """Nelder-Mead from every start; the best end point and its own success flag."""
    starts = _start_points(cloud, opts, extra=extra_starts)
    results = _map_starts(lambda s: _nelder_mead_polish(objective, s, opts), starts, opts.threads)
    best_x, best_f, _, converged = _merge_results(results)
    iterations = sum(r[2] for r in results)
    trace = [(r[0].copy(), r[1]) for r in results] if opts.keep_trace else None
    return best_x, best_f, iterations, converged, trace


def vj_median(cloud: PointCloud, j: int, opts: SolverOptions | None = None) -> MedianResult:
    """V_j median: the minimizer of V_j(Z(x)) over x.

    j = 1 is the L1 median (v1_median, Weiszfeld).  For 2 <= j <= d each
    j-subset S contributes vol_{j-1}(edges of S) * dist(x, aff S), a volume
    times the distance to a flat, so the objective is convex and one
    face-form Newton solve from the coordinatewise median finds its minimum.
    """
    opts = opts or SolverOptions()
    d = cloud.dim
    if not 1 <= j <= d:
        raise ValueError(f"need 1 <= j <= d, got j={j}, d={d}")
    if j >= 2 and _affine_rank(cloud.points) < j:
        raise DegenerateCloudError(
            f"cloud lies in a flat of dimension < {j}; V_{j} objective is degenerate"
        )
    if j == 1:
        return v1_median(cloud, opts)
    return _face_median(cloud, (j,), opts)


def wills_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Minimize the Wills functional W(Z(x)) = 1 + sum_j V_j(Z(x)), a sum of
    convex V_j objectives, with the same face-form Newton solve."""
    opts = opts or SolverOptions()
    return _face_median(cloud, range(1, cloud.dim + 1), opts, constant=1.0)


def sphere_surface_area(d: int) -> float:
    """Surface measure of S^(d-1), e.g. 2 pi for d = 2."""
    return d * unit_ball_volume(d)


def polar_objective(x, cloud: PointCloud, sphere_samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo value of the polar-volume integral at x.

    Averages (sum_i |<u, x - x_i>|)^(-d) over uniform random directions u
    and scales by the sphere surface area.  The integral diverges when the
    generators x - x_i do not span R^d.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != cloud.dim:
        raise ValueError(f"point has dimension {x.size}, cloud has {cloud.dim}")
    if sphere_samples < 1:
        raise ValueError("sphere_samples must be positive")
    d = cloud.dim
    G = x[None, :] - cloud.points
    if np.linalg.matrix_rank(G) < d:
        raise DivergentPolarError("generators of Z(x) do not span R^d")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((sphere_samples, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    support_sums = np.abs(u @ G.T).sum(axis=1)
    vals = sphere_surface_area(d) * support_sums ** (-float(d))
    mean = float(np.mean(vals))
    se = (
        float(np.std(vals, ddof=1) / math.sqrt(sphere_samples))
        if sphere_samples > 1
        else 0.0
    )
    return MonteCarloEstimate(mean, se, sphere_samples)


def polar_surrogate(x, cloud: PointCloud, directions: np.ndarray) -> float:
    """Deterministic polar objective over a fixed direction set (common random
    numbers), so derivative-free search sees a stable landscape."""
    x = np.asarray(x, dtype=float).reshape(-1)
    d = cloud.dim
    support_sums = np.abs(directions @ (x[None, :] - cloud.points).T).sum(axis=1)
    if np.any(support_sums == 0.0):
        return math.inf
    return sphere_surface_area(d) * float(np.mean(support_sums ** (-float(d))))


def _polar_surrogate_with_grad(x, cloud: PointCloud, directions: np.ndarray):
    """Surrogate value and its exact (a.e.) gradient in x.

    The maximum sits on a very flat top, so function values alone cannot
    localize it; the analytic gradient can.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = cloud.dim
    proj = directions @ (x[None, :] - cloud.points).T  # (M, n)
    widths = np.abs(proj).sum(axis=1)
    if np.any(widths == 0.0):
        return math.inf, np.zeros_like(x)
    sa = sphere_surface_area(d)
    value = sa * float(np.mean(widths ** (-float(d))))
    sign_sums = np.sign(proj).sum(axis=1)
    weights = -d * widths ** (-float(d) - 1.0) * sign_sums
    grad = sa * (weights @ directions) / len(directions)
    return value, grad


def polar_median(
    cloud: PointCloud,
    opts: SolverOptions | None = None,
    n_directions: int = 1024,
) -> MedianResult:
    """Maximize the polar-volume surrogate over the query point."""
    opts = opts or SolverOptions()
    d = cloud.dim
    if _affine_rank(cloud.points) < d:
        raise DegenerateCloudError("cloud does not affinely span R^d")
    directions = sphere_directions(d, n_directions, seed=opts.seed)

    def negative(x):
        return -polar_surrogate(x, cloud, directions)

    mean_start = cloud.points.mean(axis=0)
    best_x, best_neg, iterations, converged, _ = _multistart_minimize(
        cloud, negative, opts, extra_starts=(mean_start,)
    )
    # Stationarity polish.  The maximum sits on a top so flat that function
    # values cannot resolve it, so solve grad = 0 directly instead.
    sol = root(lambda y: _polar_surrogate_with_grad(y, cloud, directions)[1], best_x, method="hybr")
    cand = np.asarray(sol.x, dtype=float)
    cand_val = polar_surrogate(cand, cloud, directions)
    scale = _cloud_scale(cloud.points)
    if (
        np.all(np.isfinite(cand))
        and np.linalg.norm(cand - best_x) <= 0.5 * scale
        and cand_val >= -best_neg - 1e-12 * (1.0 + abs(best_neg))
    ):
        best_x = cand
    value = polar_surrogate(best_x, cloud, directions)
    non_unique = _detect_flat(negative, best_x, -value, cloud.points)
    trace = [(best_x.copy(), value)] if opts.keep_trace else None
    return MedianResult(best_x, value, iterations, converged, non_unique, trace)


def grid_oracle(cloud: PointCloud, objective, bounds=None, resolution: int = 15):
    """Exhaustive grid evaluation; the best grid point is the reference answer.

    ``bounds`` is a (d, 2) array of [lo, hi] per axis and must contain the
    region of interest (defaults to the cloud's bounding box padded by 10%);
    ``resolution`` is the number of grid points per axis.  Ties resolve to
    the lexicographically smallest point.  Intended for tests and small d.
    """
    pts = cloud.points
    if bounds is None:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        pad = 0.1 * np.maximum(hi - lo, 1e-6)
        bounds = np.column_stack([lo - pad, hi + pad])
    bounds = np.asarray(bounds, dtype=float).reshape(cloud.dim, 2)
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (cloud.dim,))
    if np.any(res < 2):
        raise ValueError("resolution must be at least 2 per axis")
    axes = [np.linspace(bounds[i, 0], bounds[i, 1], res[i]) for i in range(cloud.dim)]
    best_point = None
    best_value = math.inf
    for combo in itertools.product(*axes):
        x = np.asarray(combo)
        v = objective(x)
        if v < best_value:
            best_point, best_value = x, v
    return best_point, best_value
