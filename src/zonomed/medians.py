"""Multivariate medians that minimize size functionals of the discrepancy zonotope.

For a sample x_1..x_n the zonotope Z(x) has generators x - x_i.  Minimizing
its j-th intrinsic volume over x gives a one-parameter family of medians:
j = 1 is the classical L1 (geometric) median, j = d is the Oja simplex-volume
median, and intermediate j interpolate.  Two further objectives are supplied:
the Wills functional of Z(x), and the polar-body volume (to be maximized).

V_j(Z(x)) sums vol_j(x - x_i : i in S) over the j-subsets S, and each term
is a face volume times a distance: vol_{j-1}(edges of S) * dist(x, aff S).
A distance to a flat is convex in x, so every V_j objective and the Wills
functional 1 + sum_j V_j are convex.  Every V_j, j = 1 included, and the
Wills functional go through one solver: the face forms (a_S, w_S, N_S) are
computed once (for j = 1 just a_S = x_i, w_S = 1), and a damped Newton method
minimizes the smoothed sum w_S sqrt(r_S^2 + eps^2) while eps shrinks to
zero.  The polar objective is not convex: a loose Nelder-Mead round runs
from each of several starts and one full-tolerance round polishes the winner.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .directions import sphere_directions
from .errors import DegenerateCloudError, ZonomedError
# wills_of_generators is not called here, but both kernel names stay
# importable from this module: perfbench/tracing.py wraps them.
from .zonotope import (
    PointCloud,
    intrinsic_volume_of_generators,
    unit_ball_volume,
    wills_of_generators,
)

# Flat-region detection: probe step relative to the cloud scale, and the
# relative objective variation below which a direction counts as flat.
_PROBE_STEP = 1e-3
_FLAT_REL = 1e-9

# Polar screen: each start's single Nelder-Mead round begins from a simplex
# _SCREEN_STEP of the cloud scale wide and stops once it is _SCREEN_XATOL of
# the scale wide and its values agree to _SCREEN_FATOL of 1 + |f|; only the
# winner gets the full-tolerance polish.
_SCREEN_STEP = 0.05
_SCREEN_XATOL = 1e-4
_SCREEN_FATOL = 1e-8

# Bytes the face forms or the polar tables of one solve may take while they
# are built; larger problems fail before any subset is listed or table built.
_SOLVE_BYTES = 1 << 29

# Directions of the polar surrogate.  perfbench/reference.py recomputes the
# planar surrogate on 1024 equal-angle directions, so this must stay 1024.
_POLAR_DIRECTIONS = 1024


@dataclass
class SolverOptions:
    """``tolerance`` stops the polish of the polar screen's winner only; the
    polar screen and the face-form Newton solver of every V_j (j = 1
    included) and Wills median have their own scale-relative stop rules.
    ``max_iter`` caps every solver (for polar, each Nelder-Mead round);
    ``multistarts`` applies to polar only."""

    tolerance: float = 1e-8
    max_iter: int = 10_000
    multistarts: int = 8
    seed: int = 0
    keep_trace: bool = False

    def __post_init__(self):
        if not self.tolerance > 0.0:
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


def _probe_directions(points: np.ndarray, extra=()) -> np.ndarray:
    """The axes, the cloud's singular directions and ``extra``, in both signs."""
    d = points.shape[1]
    dirs = list(np.eye(d))
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    dirs.extend(v for v in vt if np.linalg.norm(v) > 0.5)
    dirs.extend(extra)
    both = np.vstack([dirs, -np.asarray(dirs)])
    return both


def _detect_flat(objective, x: np.ndarray, value: float, points: np.ndarray, extra=()) -> bool:
    """True when the objective is flat (to _FLAT_REL) along some probe direction."""
    h = _PROBE_STEP * _cloud_scale(points)
    threshold = _FLAT_REL * abs(value)
    for u in _probe_directions(points, extra):
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


def v1_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """L1 (geometric) median: the face-form solve of V_1, whose terms are ||x - x_i||."""
    return _face_median(cloud, (1,), opts or SolverOptions())


def _face_forms(points: np.ndarray, orders) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Every j-subset S of the sample, for each j in ``orders``, as a face form.

    vol_j(x - x_i : i in S) = w_S ||N_S'(x - a_S)||: a_S is the subset's first
    point, and one batched complete QR of the edges x_i - a_S gives their
    (j-1)-volume w_S = prod |diag R| and an orthonormal basis N_S of the
    complement of their span.  j = 1 terms are ||x - x_i||, stored with
    N = None (the basis would be the identity), so the size guard counts
    only the orders j >= 2.  Returns one (a, w, N) group per order, without
    affinely dependent subsets (w_S = 0).
    """
    n, d = points.shape
    need = sum(math.comb(n, j) * 8 * (j + 1 + d * (2 * d + j)) for j in orders if j >= 2)
    if need > _SOLVE_BYTES:
        counts = ", ".join(f"C({n},{j}) = {math.comb(n, j)}" for j in orders)
        raise ZonomedError(
            f"face forms of {counts} subsets need {need} bytes, over {_SOLVE_BYTES}"
        )
    groups = []
    for j in orders:
        if j == 1:
            groups.append((points, np.ones(n), None))
            continue
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), j))
        idx = np.fromiter(flat, dtype=np.intp, count=math.comb(n, j) * j).reshape(-1, j)
        a = points[idx[:, 0]]
        edges = np.swapaxes(points[idx[:, 1:]] - a[:, None, :], 1, 2)
        q, r = np.linalg.qr(edges, mode="complete")
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        w = diag.prod(axis=1)
        # a volume within round-off of the edge lengths' product is zero;
        # compared edge by edge, neither side overflows
        with np.errstate(invalid="ignore"):  # a zero edge's 0 / 0 is not kept
            keep = (diag / np.hypot.reduce(edges, axis=1)).prod(axis=1) > j * np.finfo(float).eps
        groups.append((a[keep], w[keep], q[keep][:, :, j - 1 :]))
    return groups


def _face_value(groups, x: np.ndarray, eps: float = 0.0, derivatives: bool = False):
    """sum_S w_S sqrt(r_S^2 + eps^2) with r_S = ||N_S'(x - a_S)||, and
    r_S = ||x - a_S|| where N_S is None; with ``derivatives``, the tuple
    (value, gradient, Hessian)."""
    d = x.size
    value, grad, hess = 0.0, np.zeros(d), np.zeros((d, d))
    for a, w, N in groups:
        u = x - a
        y = u if N is None else np.einsum("sdk,sd->sk", N, u)
        s = np.sqrt(np.einsum("sk,sk->s", y, y) + eps * eps)
        value += float(w @ s)
        if derivatives:
            c = w / s
            if N is None:
                hess += c.sum() * np.eye(d)
            else:
                u = np.einsum("sdk,sk->sd", N, y)  # x - a_S projected off the flat
                hess += np.einsum("s,sdk,sek->de", c, N, N)
            grad += c @ u
            hess -= (u * (c / (s * s))[:, None]).T @ u
    return (value, grad, hess) if derivatives else value


def _face_median(cloud: PointCloud, orders, opts: SolverOptions, constant: float = 0.0):
    """Minimize constant + sum over j in orders of V_j(Z(x)) from the face forms.

    Damped Newton (Armijo backtracking) on sum_S w_S sqrt(r_S^2 + eps^2),
    starting at the coordinatewise median, with eps lowered tenfold per
    stage from 1e-2 to 1e-13 times the cloud scale.  A stage ends when a
    step is shorter than max(1e-3 eps, 1e-14 scale) or leaves the smoothed
    value unchanged: the floor can fall below the rounding unit of |x| far
    from the origin, and along a flat valley no step lowers the value.
    ``opts.max_iter`` caps the Newton steps over all stages, and the result
    is converged only when the last stage ended within that cap.
    """
    pts = cloud.points
    x = np.median(pts, axis=0)
    # the start's value at eps = scale, finite, bounds every value met below
    with np.errstate(over="ignore", invalid="ignore"):
        groups = _face_forms(pts, orders)
        scale = _cloud_scale(pts)
        finite = math.isfinite(_face_value(groups, x, scale))
    if not finite:
        raise OverflowError("the objective overflows float64 on this cloud")
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
            t, length, f_new = 1.0, float(np.linalg.norm(p)), f
            while t * length >= floor:
                f_new = _face_value(groups, x + t * p, eps)
                if f_new <= f + 1e-4 * t * slope:
                    x = x + t * p
                    break
                t *= 0.5
            # A step may pass the test yet leave the value where it was:
            # below the rounding unit of |x| it does not move x at all.
            stage_done = t * length < floor or not f_new < f
            path.append(x)

    def objective(y):
        return constant + _face_value(groups, y)

    value = objective(x)
    # A minimum that fills a segment or cell need not lie along any axis or
    # singular direction of the cloud; the smoothed Hessian's softest
    # direction at x points along it.
    _, _, H = _face_value(groups, x, 1e-6 * scale, derivatives=True)
    softest = np.linalg.eigh(H)[1][:, 0]
    non_unique = _detect_flat(objective, x, value, pts, (softest,))
    trace = [(y.copy(), objective(y)) for y in path] if opts.keep_trace else None
    return MedianResult(x, value, len(path), stage_done, non_unique, trace)


def vd_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Oja median: minimize the sum of simplex-volume terms |det(x - x_i : i in S)|."""
    if _affine_rank(cloud.points) < cloud.dim:
        raise DegenerateCloudError("cloud does not affinely span R^d")
    return _face_median(cloud, (cloud.dim,), opts or SolverOptions())


def vj_median(cloud: PointCloud, j: int, opts: SolverOptions | None = None) -> MedianResult:
    """V_j median: the minimizer of V_j(Z(x)) over x.

    Each j-subset S contributes vol_{j-1}(edges of S) * dist(x, aff S), a
    volume times the distance to a flat (for j = 1, the L1 median, just
    ||x - x_i||), so the objective is convex and one face-form Newton solve
    from the coordinatewise median finds its minimum for every j.
    """
    d = cloud.dim
    if not 1 <= j <= d:
        raise ValueError(f"need 1 <= j <= d, got j={j}, d={d}")
    if j >= 2 and _affine_rank(cloud.points) < j:
        raise DegenerateCloudError(
            f"cloud lies in a flat of dimension < {j}; V_{j} objective is degenerate"
        )
    return _face_median(cloud, (j,), opts or SolverOptions())


def wills_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Minimize the Wills functional W(Z(x)) = 1 + sum_j V_j(Z(x)), a sum of
    convex V_j objectives, with the same face-form Newton solve."""
    opts = opts or SolverOptions()
    return _face_median(cloud, range(1, cloud.dim + 1), opts, constant=1.0)


def _polar_evaluator(points: np.ndarray, directions: np.ndarray):
    """The polar surrogate sa * mean_u h_u(x)^(-d) and its a.e. gradient, as
    one function of x built once per cloud.

    Each direction's projections c_i = <u, x_i - m> (m the cloud mean) are
    sorted once, with prefix sums S_k.  At x, t = <u, x - m> has rank k, the
    count of c_i < t, and the width h_u = sum_i |t - c_i| = t(2k - n) + S_n - 2 S_k
    has gradient (2k - n) u.  A zero width makes the value infinite.

    The two tables, c and S_n - 2 S_k, take 8 M (2n + 1) bytes, built in
    place; past _SOLVE_BYTES (n above 32 767 at M = 1024) the cloud is
    refused before either is built.
    """
    n, d = points.shape
    m = len(directions)
    need = 8 * m * (2 * n + 1)
    if need > _SOLVE_BYTES:
        raise ZonomedError(
            f"polar tables of {m} directions x {n} points need {need} bytes, over {_SOLVE_BYTES}"
        )
    center = points.mean(axis=0)
    c = directions @ (points - center).T  # (M, n)
    c.sort(axis=1)
    rows = np.arange(m)
    rest = np.zeros((m, n + 1))
    np.cumsum(c, axis=1, out=rest[:, 1:])
    total = rest[:, n:].copy()
    rest *= -2.0
    rest += total  # S_n - 2 S_k at rank k
    sa = d * unit_ball_volume(d)  # the surface measure of S^(d-1)

    def evaluate(x) -> tuple[float, np.ndarray]:
        t = directions @ (x - center)
        k = np.count_nonzero(c < t[:, None], axis=1)
        slope = 2 * k - n
        h = t * slope + rest[rows, k]
        if not h.min() > 0.0:
            return math.inf, np.zeros(d)
        p = h ** (-float(d))
        return sa / m * float(p.sum()), (-d * sa / m) * ((p / h * slope) @ directions)

    return evaluate


def polar_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Maximize the polar-volume surrogate over the query point.

    The surrogate averages over _POLAR_DIRECTIONS (1024) fixed directions
    from ``sphere_directions``, seeded by ``opts.seed`` for d >= 4.

    Screen, then polish, with one Nelder-Mead routine whose first simplex
    is a share of the cloud scale wide.  Every start runs one loose round
    from a simplex _SCREEN_STEP times the scale wide, stopped at a width of
    _SCREEN_XATOL times the scale and a value spread of _SCREEN_FATOL
    (1 + |f|), f the value at the start.  The best screened point, ties to
    the lexicographically smaller one, gets a single full-tolerance round
    from a simplex 1e-2 times the scale wide, stopped at a width of 0.1
    ``opts.tolerance`` and a spread of 1e-13 (1 + |f|); its success flag is
    ``converged``.  A root solve on the gradient finishes it.
    ``iterations`` counts surrogate evaluations across the screen and the
    polish.
    """
    # The only scipy import of the median solvers: the other objectives and
    # the CLI's import run on numpy alone.
    from scipy.optimize import minimize, root

    opts = opts or SolverOptions()
    d = cloud.dim
    if _affine_rank(cloud.points) < d:
        raise DegenerateCloudError("cloud does not affinely span R^d")
    directions = sphere_directions(d, _POLAR_DIRECTIONS, seed=opts.seed)
    evaluate = _polar_evaluator(cloud.points, directions)
    scale = _cloud_scale(cloud.points)

    def negative(x):
        return -evaluate(x)[0]

    def nelder_mead(start, step, xatol, fatol):
        # The first simplex spans a share of the cloud scale, not of |start|,
        # so a start near the origin of a wide cloud still moves.
        options = {
            "xatol": xatol,
            "fatol": fatol * (1.0 + abs(negative(start))),
            "maxfev": opts.max_iter,
            "initial_simplex": np.vstack([start, start + step * scale * np.eye(d)]),
        }
        return minimize(negative, start, method="Nelder-Mead", options=options)

    starts = _start_points(cloud, opts, extra=(cloud.points.mean(axis=0),))
    screened = [nelder_mead(s, _SCREEN_STEP, _SCREEN_XATOL * scale, _SCREEN_FATOL) for s in starts]
    winner = min(screened, key=lambda r: (r.fun, tuple(r.x)))
    polish = nelder_mead(winner.x, 1e-2, 0.1 * opts.tolerance, 1e-13)
    best_x, best_neg, converged = polish.x, float(polish.fun), bool(polish.success)
    iterations = polish.nfev + sum(r.nfev for r in screened)
    # Stationarity polish.  The maximum sits on a top so flat that function
    # values cannot resolve it, so solve grad = 0 directly instead.  Its
    # answer may lose only a relative 1e-12: the value scales as scale^(-d).
    sol = root(lambda y: evaluate(y)[1], best_x, method="hybr")
    cand = np.asarray(sol.x, dtype=float)
    if (
        np.all(np.isfinite(cand))
        and np.linalg.norm(cand - best_x) <= 0.5 * scale
        and evaluate(cand)[0] >= -best_neg * (1.0 - 1e-12)
    ):
        best_x = cand
    value = evaluate(best_x)[0]
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
