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
Wills functional go through one solver: the face forms (a_S, w_S, A_S) come
once per solve from the subset-volume kernel's minors, and a damped Newton
method minimizes sum_S w_S sqrt(||A_S (x - a_S)||^2 + eps^2) as eps -> 0.
The polar objective is not convex: a loose Nelder-Mead round runs from
each of several starts and one full-tolerance round polishes the winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .directions import sphere_directions
from .errors import DegenerateCloudError, ZonomedError
# wills_of_generators is not called here, but both kernel names stay
# importable from this module: perfbench/tracing.py wraps them.
from .zonotope import (
    _CHUNK,
    _SOLVE_BYTES,
    PointCloud,
    _minors,
    _minors_size,
    _wedge,
    discrepancy_volumes,
    intrinsic_volume_of_generators,
    unit_ball_volume,
    wills_of_generators,
)

# Every solve sees the cloud divided by a power of two (_normalized), so the
# constants below and in the solvers are relative to its spread.  Flat-region
# detection: probe step, and the relative variation that counts as flat.
_PROBE_STEP = 1e-3
_FLAT_REL = 1e-9

_EPS = np.finfo(float).eps

# Polar screen: each start's single Nelder-Mead round begins from a simplex
# _SCREEN_STEP wide and stops once it is _SCREEN_XATOL wide and its values
# agree to _SCREEN_FATOL of 1 + |f|; only the winner gets the full polish.
_SCREEN_STEP = 0.05
_SCREEN_XATOL = 1e-4
_SCREEN_FATOL = 1e-8

# Directions of the polar surrogate.  perfbench/reference.py recomputes the
# planar surrogate on 1024 equal-angle directions, so this must stay 1024.
_POLAR_DIRECTIONS = 1024


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


def vj_objective(x, cloud: PointCloud, j: int):
    """V_j(Z(x)): for j=1 the distance sum, for j=d the Oja determinant sum.

    ``x`` is one point, which gives a float, or a (k, d) batch of points,
    which gives an array of their k values; each value has the bits of its
    point's value alone.
    """
    x = np.asarray(x, dtype=float)
    X = x.reshape(1, -1) if x.ndim <= 1 else x
    if X.ndim != 2 or X.shape[1] != cloud.dim:
        raise ValueError(f"points have shape {x.shape}, cloud has dimension {cloud.dim}")
    if not 1 <= j <= cloud.dim:
        raise ValueError(f"need 1 <= j <= d, got j={j}, d={cloud.dim}")
    if x.ndim <= 1:
        return intrinsic_volume_of_generators(X - cloud.points, j)
    return discrepancy_volumes(cloud.points, X, j)


def _normalized(points: np.ndarray, order: str = "C") -> tuple[np.ndarray, int]:
    """(points / 2^e, e), e the binary exponent of the largest distance from
    the mean (0 for none): an exact division to a spread in [1/2, 1), found
    without squaring a raw coordinate.  The quotient is laid out in ``order``,
    so a column-major one costs no second copy."""
    centered = points - points.mean(axis=0)
    e = math.frexp(float(np.abs(centered).max()))[1]
    e += math.frexp(float(np.sqrt((np.ldexp(centered, -e) ** 2).sum(axis=1)).max()))[1]
    return np.ldexp(points, -e, out=np.empty(points.shape, order=order)), e


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


def _detect_flat(values, x: np.ndarray, value: float, points: np.ndarray, extra=()) -> bool:
    """True when the objective is flat (to _FLAT_REL) along some probe
    direction; ``values`` maps the (B, d) batch of probes to their values."""
    probes = x + _PROBE_STEP * _probe_directions(points, extra)
    return bool(np.any(np.abs(np.asarray(values(probes)) - value) <= _FLAT_REL * abs(value)))


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

    vol_j(x - x_i : i in S) = w_S ||A_S (x - a_S)||: a_S is the subset's
    first point, W_S the (j-1)-minors of its edges x_i - a_S, w_S = ||W_S||
    and A_S (d - j + 1 orthonormal rows of length d) spans the complement
    of the edges (None for the j = 1 terms ||x - x_i||).  Per first point,
    one _minors call gives a colex block of W_S and one _wedge call the
    C(d, j) x d matrices B_S of x -> (W_S / w_S) ^ x; B_S'B_S projects onto
    that complement, so where C(d, j) > d - j + 1 its eigenvectors of
    eigenvalue ~1 are A_S, and ||A_S u|| = ||B_S u||.  A subset whose unit
    edges' minors vanish to round-off is dropped.  The size guard charges
    each order's (a, w, A) and the first block's larger step: _minors on its
    edges, whose colex blocks come in slices of at most _CHUNK products or
    one row (_minors_size), or the B_S wedge and its eigendecomposition
    beside W_S, w_S and the wedge's table.
    """
    n, d = points.shape
    forms = [j for j in orders if j >= 2]

    def block(j):  # elements per subset of a block's wedge and decomposition
        wide = math.comb(d, j) > d - j + 1
        return 2 + math.comb(d, j - 1) + j * (d + 1) * math.comb(d, j) + wide * (2 * d + 1) * d

    need = 8 * sum(math.comb(n, j) * (1 + d + d * (d - j + 1)) for j in forms) + 8 * max(
        (max(_minors_size(d, n - 1, j - 1, 2) + 4 * d * n,
             math.comb(n - 1, j - 1) * block(j) + j * (d + 8) * math.comb(d, j) + d * n)
         + 4 * _CHUNK for j in forms), default=0)
    if need > _SOLVE_BYTES:
        counts = ", ".join(f"C({n},{j}) = {math.comb(n, j)}" for j in orders)
        raise ZonomedError(f"face forms of {counts} subsets need {need} bytes, over {_SOLVE_BYTES}")
    groups = [(points, np.ones(n), None)] if 1 in orders else []
    for j in forms:
        total, filled = math.comb(n, j), 0
        a, w, A = np.empty((total, d)), np.empty(total), np.empty((total, d - j + 1, d))
        for i in range(n - j + 1):
            edges = (points[i + 1 :] - points[i]).T
            with np.errstate(invalid="ignore"):  # a zero edge's 0 / 0 is not kept
                W = _minors(np.dstack([edges, edges / np.hypot.reduce(edges, axis=0)]), j - 1)
            norms = np.sqrt(np.einsum("kmb,kmb->bm", W, W))
            keep = norms[1] > j * _EPS
            first, filled = filled, filled + np.count_nonzero(keep)
            a[first:filled], w[first:filled] = points[i], norms[0, keep]
            W = W[:, keep, 1:] / norms[1, keep, None]  # w_S itself may underflow to 0
            B = _wedge(W, np.eye(d)[:, None, :], j - 1).transpose(1, 0, 2)
            if math.comb(d, j) > d - j + 1:
                B = np.linalg.eigh(B.transpose(0, 2, 1) @ B)[1][:, :, j - 1 :].transpose(0, 2, 1)
            A[first:filled] = B
        groups.append((a[:filled], w[:filled], A[:filled]))
    return groups


def _face_value(groups, x: np.ndarray, eps: float = 0.0, derivatives: bool = False):
    """sum_S w_S sqrt(r_S^2 + eps^2), r_S = ||A_S (x - a_S)||; with
    ``derivatives``, (f, grad f, H).  The j = 1 terms (A_S = I, given as
    None) run in one piece on the (d, n) view a.T, contiguous for a
    column-major cloud; the others in slices of A within _CHUNK elements or
    of one subset."""
    d = x.size
    value, grad, hess = 0.0, np.zeros(d), np.zeros((d, d))
    for a, w, A in groups:
        if A is None:
            u = x[:, None] - a.T
            s = np.sqrt(np.einsum("kn,kn->n", u, u) + eps * eps)
            value += float(w @ s)
            if derivatives:
                c = w / s
                grad += u @ c
                hess += c.sum() * np.eye(d) - (u * (c / (s * s))) @ u.T
            continue
        rows = max(1, _CHUNK // (A.shape[1] * d))
        for r in range(0, len(w), rows):
            ws, As, u = w[r : r + rows], A[r : r + rows], x - a[r : r + rows]
            y = np.einsum("skd,sd->sk", As, u)
            s = np.sqrt(np.einsum("sk,sk->s", y, y) + eps * eps)
            value += float(ws @ s)
            if derivatives:
                c = ws / s
                u = np.einsum("skd,sk->sd", As, y)  # x - a_S off the flat
                grad += c @ u
                hess += (As * c[:, None, None]).reshape(-1, d).T @ As.reshape(-1, d)
                hess -= (u * (c / (s * s))[:, None]).T @ u
    return (value, grad, hess) if derivatives else value


def _face_median(pts: np.ndarray, e: int, orders, opts: SolverOptions, constant: float = 0.0):
    """Minimize constant + sum over j in orders of V_j(Z(x)) over _face_forms.

    ``pts`` is the cloud divided by 2^e (_normalized): damped Newton (Armijo
    backtracking) on sum_S w_S sqrt(r_S^2 + eps^2) from the coordinatewise
    median, eps lowered tenfold per stage from 1e-2 to 1e-13 of the spread.
    A stage ends when a step is shorter than max(1e-3 eps, 1e-14) or leaves
    the smoothed value unchanged: the floor can fall below the rounding
    unit of |x| far from the origin, and along a flat valley no step lowers
    the value.  It also ends at a failed trial step whose change of value
    and predicted decrease are both at the rounding of the value, rather
    than halving down to the floor.  ``opts.max_iter`` caps the Newton steps
    over all stages; converged means the last stage ended within that cap.
    The j = 1 terms run fastest on a column-major ``pts``.  The argmin maps
    back by 2^e, a V_j value by 2^(je).  The Wills sum (a ``constant``)
    mixes degrees: its order-j weights take 2^(je) and the whole sum 2^-top,
    top = d max(e, 0), so no weight grows and no derivative overflows.
    """
    top = len(orders) * max(e, 0) if constant else orders[0] * e
    name = "the Wills value" if constant else f"the V_{orders[0]} value"
    forms = zip(_face_forms(pts, orders), orders)
    groups = [(a, np.ldexp(w, j * e - top), A) for (a, w, A), j in forms]
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
                # Where the trial's change and the decrease the slope
                # predicts are both at the rounding of f, no shorter step can
                # show a decrease: the stage ends here, not at the floor.
                if abs(f_new - f) <= 2 * _EPS * abs(f) and -t * slope <= 16 * _EPS * abs(f):
                    t = 0.0
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
    non_unique = _detect_flat(lambda ys: [objective(y) for y in ys], x, value, pts, (softest,))
    trace = [(np.ldexp(y, e), _scaled(objective(y), top, name))
             for y in path] if opts.keep_trace else None
    value = _scaled(value, top, name)
    return MedianResult(np.ldexp(x, e), value, len(path), stage_done, non_unique, trace)


def vd_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Oja median: minimize the sum of simplex-volume terms |det(x - x_i : i in S)|."""
    return vj_median(cloud, cloud.dim, opts)


def vj_median(cloud: PointCloud, j: int, opts: SolverOptions | None = None) -> MedianResult:
    """V_j median: the minimizer of V_j(Z(x)) over x, a convex sum of
    volumes times distances to flats (see the module docstring), by one
    face-form Newton solve from the coordinatewise median for every j."""
    d = cloud.dim
    if not 1 <= j <= d:
        raise ValueError(f"need 1 <= j <= d, got j={j}, d={d}")
    pts, e = _normalized(cloud.points, "F")
    if j >= 2 and _affine_rank(pts) < j:
        raise DegenerateCloudError(
            f"cloud lies in a flat of dimension < {j}; V_{j} objective is degenerate"
        )
    return _face_median(pts, e, (j,), opts or SolverOptions())


def wills_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Minimize the Wills functional W(Z(x)) = 1 + sum_j V_j(Z(x)), a sum of
    convex V_j objectives, with the same face-form Newton solve."""
    pts, e = _normalized(cloud.points, "F")
    return _face_median(pts, e, range(1, cloud.dim + 1), opts or SolverOptions(), constant=1.0)


def _ranks(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """For the (M, n) table c, each row sorted, and t of shape (B, M): the
    count of c[r] below t[b, r], for every b and r.

    A branch-free lower-bound search: each of its ceil(log2(n + 1)) steps
    halves the range of every rank, with one gather and one comparison over
    all B x M columns at once.
    """
    m, n = c.shape
    flat = c.reshape(-1)
    base = pos = np.arange(0, m * n, n)
    size = n + 1  # the rank lies in pos - base + [0, size)
    while size > 1:
        half = size // 2
        pos = pos + (flat[half - 1:].take(pos) < t) * half  # compares c[pos + half - 1]
        size -= half
    return pos - base


def _polar_evaluator(points: np.ndarray, directions: np.ndarray):
    """The polar surrogate sa * mean_u h_u(x)^(-d), as one function built once
    per cloud that maps a (B, d) batch of points to their (B,) values.

    Each direction's projections c_i = <u, x_i - m> (m the cloud mean) are
    sorted once, with prefix sums S_k.  At x, t = <u, x - m> has rank k, the
    count of c_i < t (_ranks, O(M log n) per point), and the width is
    h_u = sum_i |t - c_i| = t(2k - n) + S_n - 2 S_k.  A zero width makes the
    value infinite.  Each point's t is its own matrix-vector product, so a
    point's value has the same bits alone as in any batch.

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
    rest = np.zeros((m, n + 1))
    np.cumsum(c, axis=1, out=rest[:, 1:])
    total = rest[:, n:].copy()
    rest *= -2.0
    rest += total  # S_n - 2 S_k at rank k
    rest = rest.reshape(-1)
    rows = np.arange(0, m * (n + 1), n + 1)
    sa = d * unit_ball_volume(d)  # the surface measure of S^(d-1)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        t = np.empty((len(xs), m))
        for b, x in enumerate(xs):
            t[b] = directions @ (x - center)
        k = _ranks(c, t)
        h = t * (2 * k - n) + rest.take(k + rows)
        finite = h.min(axis=1) > 0.0
        h[~finite] = 1.0  # a zero width's power would warn; its value is set below
        values = sa / m * (h ** (-float(d))).sum(axis=1)
        values[~finite] = math.inf
        return values

    return evaluate


class _MaxFev(Exception):
    """A point was asked for once more after ``maxfev`` of them."""


def _nelder_mead(simplex, xatol, fatol, maxfev):
    """Minimize by Nelder-Mead (Nelder & Mead 1965; Lagarias et al. 1998)
    from ``simplex`` ((N + 1, N)): reflect 1, expand 2, contract and shrink
    1/2, the vertices re-sorted by value after every step.

    A generator: it yields each point to evaluate and is sent its value
    (``_lockstep`` drives it).  It stops once every vertex is within
    ``xatol`` of the best in each coordinate and ``fatol`` in value, or at
    the point that would pass ``maxfev``, leaving that step unfinished.
    Returns (x, f(x), calls, calls < maxfev): step for step, and so bit for
    bit, scipy 1.17's ``minimize(method="Nelder-Mead")`` given
    ``initial_simplex``, ``xatol``, ``fatol`` and ``maxfev``.
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
        return (yield x)

    try:
        for k in range(N + 1):
            fsim[k] = yield from func(sim[k])
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
            fxr = yield from func(xr)
            if fxr < fsim[0]:
                xe = 3.0 * xbar - 2.0 * sim[-1]
                fxe = yield from func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = yield from func(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = yield from func(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = yield from func(sim[j])
        except _MaxFev:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), calls, calls < maxfev


def _lockstep(values, rounds) -> list:
    """Run ``_nelder_mead`` generators side by side: each pass sends the
    pending point of every live round to ``values``, which maps a (B, d)
    batch to B values, in one call.  Returns each round's result, in order."""
    rounds = list(rounds)
    results = [None] * len(rounds)
    sent = dict.fromkeys(range(len(rounds)))  # None starts a round
    while sent:
        pending = {}
        for i, value in sent.items():
            try:
                pending[i] = rounds[i].send(value)
            except StopIteration as stop:
                results[i] = stop.value
        sent = dict(zip(pending, values(np.array(list(pending.values()))))) if pending else {}
    return results


def polar_median(cloud: PointCloud, opts: SolverOptions | None = None) -> MedianResult:
    """Maximize the polar-volume surrogate over the query point.

    The surrogate averages over _POLAR_DIRECTIONS (1024) fixed directions
    from ``sphere_directions``, seeded by ``opts.seed`` for d >= 4.

    Screen, then polish, with one Nelder-Mead routine on the cloud divided
    by 2^e (_normalized), so every width is relative to the spread.  Every
    start runs one loose round from a simplex _SCREEN_STEP wide, stopped at
    a width of _SCREEN_XATOL and a value spread of _SCREEN_FATOL (1 + |f|),
    f the value at the start; the rounds run in lockstep (_lockstep), so
    each evaluator call ranks one point of every live round.  The best
    screened point (ties to the lexicographically smaller) gets one round
    from a simplex 1e-2 wide, stopped at a width of 0.1 ``opts.tolerance``
    and a spread of 1e-13 (1 + |f|); its success flag is ``converged``.
    ``iterations`` counts evaluations in both.  The argmin maps back by 2^e,
    the value by 2^-de.
    """
    opts = opts or SolverOptions()
    d = cloud.dim
    pts, e = _normalized(cloud.points)
    if _affine_rank(pts) < d:
        raise DegenerateCloudError("cloud does not affinely span R^d")
    directions = sphere_directions(d, _POLAR_DIRECTIONS, seed=opts.seed)
    evaluate = _polar_evaluator(pts, directions)

    def negative(xs):
        return -evaluate(xs)

    def nelder_mead(starts, step, xatol, fatol):
        # The first simplex spans a share of the spread, not of |start|, so
        # a start near the origin of a wide cloud still moves.
        fatols = fatol * (1.0 + np.abs(negative(np.array(starts))))
        return _lockstep(negative, [
            _nelder_mead(np.vstack([s, s + step * np.eye(d)]), xatol, f, opts.max_iter)
            for s, f in zip(starts, fatols)
        ])

    starts = _start_points(pts, opts, extra=(pts.mean(axis=0),))
    screened = nelder_mead(starts, _SCREEN_STEP, _SCREEN_XATOL, _SCREEN_FATOL)
    winner = min(screened, key=lambda r: (r[1], tuple(r[0])))[0]
    [(best_x, _, calls, converged)] = nelder_mead([winner], 1e-2, 0.1 * opts.tolerance, 1e-13)
    iterations = calls + sum(r[2] for r in screened)
    value = float(evaluate(best_x[None])[0])
    non_unique = _detect_flat(negative, best_x, -value, pts)
    value = _scaled(value, -d * e, "the polar value")
    argmin = np.ldexp(best_x, e)
    trace = [(argmin.copy(), value)] if opts.keep_trace else None
    return MedianResult(argmin, value, iterations, converged, non_unique, trace)


def grid_oracle(cloud: PointCloud, objective, bounds=None, resolution: int = 15):
    """Exhaustive grid evaluation; the best grid point is the reference answer.

    ``objective`` maps a (k, d) batch of points to their k values, and the
    whole grid goes through it in one call.  ``bounds`` is a (d, 2) array of
    [lo, hi] per axis and must contain the region of interest (defaults to
    the cloud's bounding box padded by 10%); ``resolution`` is the number of
    grid points per axis.  Ties resolve to the lexicographically smallest
    point, and a NaN never wins: with no value below inf the result is
    (None, inf).  Intended for tests and small d.
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
    # rows in itertools.product order, so the first minimum is the smallest point
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, cloud.dim)
    values = np.asarray(objective(grid), dtype=float)
    if values.shape != (len(grid),):
        raise ValueError(
            f"objective must map a ({len(grid)}, {cloud.dim}) batch of points to "
            f"{len(grid)} values, got shape {values.shape}"
        )
    below = values < math.inf  # false for NaN
    if not below.any():
        return None, math.inf
    best = int(np.argmin(np.where(below, values, math.inf)))
    return grid[best].copy(), float(values[best])
