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

# Every solve sees the cloud divided by a power of two (_normalized), so the
# constants below and in the solvers are relative to its spread.  Flat-region
# detection: probe step, and the relative variation that counts as flat.
_PROBE_STEP = 1e-3
_FLAT_REL = 1e-9

# Polar screen: each start's single Nelder-Mead round begins from a simplex
# _SCREEN_STEP wide and stops once it is _SCREEN_XATOL wide and its values
# agree to _SCREEN_FATOL of 1 + |f|; only the winner gets the full polish.
_SCREEN_STEP = 0.05
_SCREEN_XATOL = 1e-4
_SCREEN_FATOL = 1e-8

# Bytes the face forms or the polar tables of one solve may take while they
# are built; larger problems fail before any subset is listed or table built.
_SOLVE_BYTES = 1 << 29

# Directions of the polar surrogate.  perfbench/reference.py recomputes the
# planar surrogate on 1024 equal-angle directions, so this must stay 1024.
_POLAR_DIRECTIONS = 1024

# Bytes of the bool temporary in which the polar evaluator ranks one slab of
# directions; a cloud of up to 1024 points is ranked in one slab.
_RANK_BYTES = 1 << 20


@dataclass
class SolverOptions:
    """``tolerance`` stops the polish of the polar screen's winner only, at a
    simplex width relative to the cloud's spread; the polar screen and the
    face-form Newton solver (every V_j and Wills) have their own stop rules.
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


def _normalized(points: np.ndarray) -> tuple[np.ndarray, int]:
    """(points / 2^e, e), e the binary exponent of the largest distance from
    the mean (0 for none): an exact division to a spread in [1/2, 1), found
    without squaring a raw coordinate."""
    centered = points - points.mean(axis=0)
    e = math.frexp(float(np.abs(centered).max()))[1]
    e += math.frexp(float(np.sqrt((np.ldexp(centered, -e) ** 2).sum(axis=1)).max()))[1]
    return np.ldexp(points, -e), e


def _scaled(value: float, e: int, name: str) -> float:
    """value * 2^e, exact while normal; past float64 an OverflowError names it."""
    if math.frexp(value)[1] + e > 1024:
        raise OverflowError(f"{name} {value!r} x 2^{e} overflows float64")
    return math.ldexp(value, e)


def _affine_rank(points: np.ndarray) -> int:
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return int(np.sum(sv > 1e-10 * sv[0]))  # 0 when every point is the same


def _probe_directions(points: np.ndarray, extra=()) -> np.ndarray:
    """The axes, the cloud's singular directions and ``extra``, in both signs."""
    d = points.shape[1]
    dirs = list(np.eye(d))
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    dirs.extend(v for v in vt if np.linalg.norm(v) > 0.5)
    dirs.extend(extra)
    return np.vstack([dirs, -np.asarray(dirs)])


def _detect_flat(objective, x: np.ndarray, value: float, points: np.ndarray, extra=()) -> bool:
    """True when the objective is flat (to _FLAT_REL) along some probe direction."""
    threshold = _FLAT_REL * abs(value)
    return any(abs(objective(x + _PROBE_STEP * u) - value) <= threshold
               for u in _probe_directions(points, extra))


def _start_points(pts: np.ndarray, opts: SolverOptions, extra=()) -> list[np.ndarray]:
    n, d = pts.shape
    starts = [np.median(pts, axis=0), *extra]
    rng = np.random.default_rng(opts.seed)
    starts.extend(pts[rng.permutation(n)[: max(0, opts.multistarts - len(starts))]])
    while len(starts) < opts.multistarts:
        starts.append(starts[0] + 0.1 * rng.standard_normal(d))
    return starts[: opts.multistarts]


def v1_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """L1 (geometric) median: the face-form solve of V_1, whose terms are ||x - x_i||."""
    return vj_median(cloud, 1, opts)


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


def _face_median(pts: np.ndarray, e: int, orders, opts: SolverOptions, constant: float = 0.0):
    """Minimize constant + sum over j in orders of V_j(Z(x)) from the face forms.

    ``pts`` is the cloud divided by 2^e (_normalized): damped Newton (Armijo
    backtracking) on sum_S w_S sqrt(r_S^2 + eps^2) from the coordinatewise
    median, eps lowered tenfold per stage from 1e-2 to 1e-13 of the spread.
    A stage ends when a step is shorter than max(1e-3 eps, 1e-14) or leaves
    the smoothed value unchanged: the floor can fall below the rounding
    unit of |x| far from the origin, and along a flat valley no step lowers
    the value.  ``opts.max_iter`` caps the Newton steps over all stages;
    converged means the last stage ended within that cap.  The argmin maps
    back by 2^e, a V_j value by 2^(je).  The Wills sum (a ``constant``)
    mixes degrees: its order-j weights take 2^(je) and the whole sum 2^-top,
    top = d max(e, 0), so no weight grows and no derivative overflows.
    """
    top = len(orders) * max(e, 0) if constant else orders[0] * e
    name = "the Wills value" if constant else f"the V_{orders[0]} value"
    forms = zip(_face_forms(pts, orders), orders)
    groups = [(a, np.ldexp(w, j * e - top), N) for (a, w, N), j in forms]
    constant = math.ldexp(constant, -top)
    x = np.median(pts, axis=0)
    path = []
    for eps in 10.0 ** -np.arange(2.0, 14.0):
        floor = max(1e-3 * eps, 1e-14)
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
    _, _, H = _face_value(groups, x, 1e-6, derivatives=True)
    softest = np.linalg.eigh(H)[1][:, 0]
    non_unique = _detect_flat(objective, x, value, pts, (softest,))
    trace = [(np.ldexp(y, e), _scaled(objective(y), top, name))
             for y in path] if opts.keep_trace else None
    value = _scaled(value, top, name)
    return MedianResult(np.ldexp(x, e), value, len(path), stage_done, non_unique, trace)


def vd_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Oja median: minimize the sum of simplex-volume terms |det(x - x_i : i in S)|."""
    return vj_median(cloud, cloud.dim, opts)


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
    pts, e = _normalized(cloud.points)
    if j >= 2 and _affine_rank(pts) < j:
        raise DegenerateCloudError(
            f"cloud lies in a flat of dimension < {j}; V_{j} objective is degenerate"
        )
    return _face_median(pts, e, (j,), opts or SolverOptions())


def wills_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Minimize the Wills functional W(Z(x)) = 1 + sum_j V_j(Z(x)), a sum of
    convex V_j objectives, with the same face-form Newton solve."""
    pts, e = _normalized(cloud.points)
    return _face_median(pts, e, range(1, cloud.dim + 1), opts or SolverOptions(), constant=1.0)


def _polar_evaluator(points: np.ndarray, directions: np.ndarray):
    """The polar surrogate sa * mean_u h_u(x)^(-d) and its a.e. gradient, as
    one function of x built once per cloud.

    Each direction's projections c_i = <u, x_i - m> (m the cloud mean) are
    sorted once, with prefix sums S_k.  At x, t = <u, x - m> has rank k, the
    count of c_i < t, and the width h_u = sum_i |t - c_i| = t(2k - n) + S_n - 2 S_k
    has gradient (2k - n) u.  A zero width makes the value infinite.

    The two tables, c and S_n - 2 S_k, take 8 M (2n + 1) bytes, built in
    place; past _SOLVE_BYTES (n above 32 767 at M = 1024) the cloud is
    refused before either is built.  Each call compares t with c a slab of
    directions at a time, in a bool temporary of at most _RANK_BYTES.
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
    slab = max(1, _RANK_BYTES // n)

    def evaluate(x) -> tuple[float, np.ndarray]:
        t = directions @ (x - center)
        k = np.empty(m, dtype=np.intp)
        for lo in range(0, m, slab):
            cut = slice(lo, lo + slab)
            k[cut] = np.count_nonzero(c[cut] < t[cut, None], axis=1)
        slope = 2 * k - n
        h = t * slope + rest[rows, k]
        if not h.min() > 0.0:
            return math.inf, np.zeros(d)
        p = h ** (-float(d))
        return sa / m * float(p.sum()), (-d * sa / m) * ((p / h * slope) @ directions)

    return evaluate


class _MaxFev(Exception):
    """The objective was called once more after ``maxfev`` calls."""


def _nelder_mead(f, simplex, xatol, fatol, maxfev):
    """Minimize f by Nelder-Mead (Nelder & Mead 1965; Lagarias et al. 1998)
    from ``simplex`` ((N + 1, N)): reflect 1, expand 2, contract and shrink
    1/2, the vertices re-sorted by value after every step.  It stops once
    every vertex is within ``xatol`` of the best in each coordinate and
    ``fatol`` in value, or at the call that would pass ``maxfev``, leaving
    that step unfinished.  Returns (x, f(x), calls, calls < maxfev): step for
    step, and so bit for bit, scipy 1.17's ``minimize(method="Nelder-Mead")``
    given ``initial_simplex``, ``xatol``, ``fatol`` and ``maxfev``.
    """
    sim = np.array(simplex, dtype=float)
    N = sim.shape[1]
    fsim = np.full(N + 1, np.inf)
    calls = 0

    def func(x):
        nonlocal calls
        if calls >= maxfev:
            raise _MaxFev
        calls += 1
        return f(x)

    try:
        for k in range(N + 1):
            fsim[k] = func(sim[k])
    except _MaxFev:
        pass
    for _ in range(2):  # twice, as scipy does: an unstable argsort may reorder ties
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while calls < maxfev:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = 2.0 * xbar - sim[-1]
            fxr = func(xr)
            if fxr < fsim[0]:
                xe = 3.0 * xbar - 2.0 * sim[-1]
                fxe = func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = func(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = func(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
        except _MaxFev:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), calls, calls < maxfev


def polar_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Maximize the polar-volume surrogate over the query point.

    The surrogate averages over _POLAR_DIRECTIONS (1024) fixed directions
    from ``sphere_directions``, seeded by ``opts.seed`` for d >= 4.

    Screen, then polish, with one Nelder-Mead routine on the cloud divided
    by 2^e (_normalized), so every width is relative to the spread.  Every
    start runs one loose round from a simplex _SCREEN_STEP wide, stopped at
    a width of _SCREEN_XATOL and a value spread of _SCREEN_FATOL (1 + |f|),
    f the value at the start.  The best screened point (ties to the
    lexicographically smaller) gets one round from a simplex 1e-2 wide,
    stopped at a width of 0.1 ``opts.tolerance`` and a spread of 1e-13
    (1 + |f|); its success flag is ``converged``.  ``iterations`` counts
    evaluations in both.  The argmin maps back by 2^e, the value by 2^-de.
    """
    opts = opts or SolverOptions()
    d = cloud.dim
    pts, e = _normalized(cloud.points)
    if _affine_rank(pts) < d:
        raise DegenerateCloudError("cloud does not affinely span R^d")
    directions = sphere_directions(d, _POLAR_DIRECTIONS, seed=opts.seed)
    evaluate = _polar_evaluator(pts, directions)

    def negative(x):
        return -evaluate(x)[0]

    def nelder_mead(start, step, xatol, fatol):
        # The first simplex spans a share of the spread, not of |start|, so
        # a start near the origin of a wide cloud still moves.
        simplex = np.vstack([start, start + step * np.eye(d)])
        fatol = fatol * (1.0 + abs(negative(start)))
        return _nelder_mead(negative, simplex, xatol, fatol, opts.max_iter)

    starts = _start_points(pts, opts, extra=(pts.mean(axis=0),))
    screened = [nelder_mead(s, _SCREEN_STEP, _SCREEN_XATOL, _SCREEN_FATOL) for s in starts]
    winner = min(screened, key=lambda r: (r[1], tuple(r[0])))[0]
    best_x, _, calls, converged = nelder_mead(winner, 1e-2, 0.1 * opts.tolerance, 1e-13)
    iterations = calls + sum(r[2] for r in screened)
    value = evaluate(best_x)[0]
    non_unique = _detect_flat(negative, best_x, -value, pts)
    value = _scaled(value, -d * e, "the polar value")
    argmin = np.ldexp(best_x, e)
    trace = [(argmin.copy(), value)] if opts.keep_trace else None
    return MedianResult(argmin, value, iterations, converged, non_unique, trace)


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
