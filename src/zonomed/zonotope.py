"""Zonotopes aggregated from point samples and their intrinsic volumes.

A zonotope here is a Minkowski sum of segments [0, g_i] shifted by a center.
The discrepancy zonotope of a sample x_1..x_n at a query point x uses the
generators g_i = x - x_i, so every size functional of it measures how far x
sits from the sample as a whole.

V_j of a zonotope is the sum, over the j-subsets S of its generators, of the
j-volume of the parallelepiped G_S spans.  One kernel computes it:

* j = 1: the sum of the generator norms.
* j = 2 in the plane: flip every generator into the upper half-plane and
  sort by angle (_upper_sorted, which polygon.zonotope_polygon_2d shares to
  walk the zonotope's boundary); then every cross product g_i x g_k with i
  before k is nonnegative, and V_2 = sum_k P_{k-1} x g_k with P the prefix
  sum, in O(m log m).
* exact V_3 in R^3 of at least _PIVOT_FROM generators: every triple is
  counted from each of its three generators as pivot, V_3 = (1/3) sum_i
  |g_i| V_2(P_i G), P_i G the generators in 2-D coordinates on g_i-perp,
  so one planar prefix sum per pivot gives V_3 in O(m^2 log m) instead of
  C(m, 3) minors.  Each pivot costs a fixed set of array calls and an
  arctan2 and sort per generator, so the minors stay faster below about
  32 generators, single or batched; the switch sits at 40.  The Monte
  Carlo estimator's projected draws keep the minors: they add their terms
  in plain floating point, with no exact sum over the C(m, 3) of them, and
  at m = 40 the minors are still the faster there.
* otherwise: the j-volume of G_S is the norm of the wedge product
  g_{s_1} ^ ... ^ g_{s_j}, whose coordinates are the j x j minors of G_S
  (Cauchy-Binet; for j = d the single minor det G_S), and
  V_j = sum_{S'} sum_{l > max S'} ||w_{S'} ^ g_l|| over the (j-1)-subsets S'.
  In colexicographic order the S' with largest element l are the first
  C(l, j-2) rows of the (j-2)-minor table, each wedged with g_l, and each
  such block is wedged with every later generator at once.  A block that
  fills the kernel's temporary budget is wedged alone, in row slices; a run
  of consecutive smaller blocks is wedged in one pair of calls, so a call's
  fixed cost does not grow with the number of small blocks.  No array has a
  row per (j-1)- or j-subset, and no result depends on how blocks are
  sliced or grouped.

The kernel takes a batch of generator sets at once: the Monte Carlo
estimator's projected draws, or the discrepancy zonotopes at a batch of
query points (discrepancy_volumes), each summed exactly on its own.  The
median face forms (medians._face_forms) come from the same _minors.

Minors keep the accuracy of the generators themselves: a zonotope 1e-7 thin
in one direction, or generators 1e-6 apart in angle, lose no more digits
than the problem's own conditioning costs, unlike sqrt(det(G_S' G_S)),
which squares the condition number.  An exact total is the correctly
rounded sum of its terms (by pivots, a third of the correctly rounded sum
of 3 V_3's terms): extraction (Rump, Ogita & Oishi 2008) compresses
each block of terms the kernel yields, with no error, into a few partial
sums per generator set, and math.fsum rounds the sum of those once.

The Monte Carlo estimator projects the generators by Gaussian j x d matrices
M.  For j < d it applies the same kernel to the projected generators of a
batch of draws at once; for j = d, det(M G_S) = det M det G_S, so it scales
one exact V_d by each draw's |det M|, taken from the kernel's minors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .directions import _complement_rows

# Elements per temporary array of the subset-volume kernel and of a face-form
# evaluation, which take larger problems in slices; exact V_j ignores it.
_CHUNK = 1 << 16

# Exact V_j rescales generators whose max|g|^j lies outside 2^(+-_SAFE_EXPONENT),
# so that squared j-minors (up to about j^j max|g|^(2j)) stay finite and normal.
_SAFE_EXPONENT = 448

# Exact V_3 in R^3 of at least this many generators pivots onto the planar
# prefix sum, in O(m^2 log m) work; below it the C(m, 3) minors are faster.
_PIVOT_FROM = 40


@dataclass
class PointCloud:
    """A sample of n points in R^d, one point per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2:
            raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("need at least one point of dimension >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass
class Zonotope:
    """Minkowski sum of segments [0, g_i] translated by ``center``.

    ``generators`` is an (m, d) array, one generator per row; ``center``
    defaults to the origin.  Intrinsic volumes never depend on the center.
    """

    generators: np.ndarray
    center: np.ndarray | None = None

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=float)
        if gens.size == 0:
            if self.center is None:
                raise ValueError("empty generator list needs an explicit center")
            gens = gens.reshape(0, np.asarray(self.center).size)
        gens = np.atleast_2d(gens)
        if gens.ndim != 2:
            raise ValueError(f"generators must be an (m, d) array, got shape {gens.shape}")
        if not np.all(np.isfinite(gens)):
            raise ValueError("generators must be finite")
        if self.center is None:
            center = np.zeros(gens.shape[1])
        else:
            center = np.asarray(self.center, dtype=float).reshape(-1)
            if center.size != gens.shape[1]:
                raise ValueError(
                    f"center dimension {center.size} does not match generators ({gens.shape[1]})"
                )
        self.generators = gens
        self.center = center

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    @property
    def num_generators(self) -> int:
        return self.generators.shape[0]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A sample-mean estimate together with its standard error."""

    estimate: float
    std_error: float
    samples: int = field(default=0, compare=False)

    @classmethod
    def from_samples(cls, vals: np.ndarray, scale: float = 1.0) -> MonteCarloEstimate:
        """scale times the mean of ``vals``, with scale times its standard error."""
        samples = len(vals)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        return cls(scale * mean, scale * se, samples)


def unit_ball_volume(j: int) -> float:
    """vol_j(B_j) = pi^(j/2) / Gamma(j/2 + 1); 1, 2, pi, 4pi/3, ... for j = 0, 1, 2, 3.

    Evaluated by the two-step recurrence vol_j = vol_{j-2} * 2 pi / j, which
    hits the small cases exactly.
    """
    if j < 0:
        raise ValueError("dimension must be nonnegative")
    vol = 1.0 if j % 2 == 0 else 2.0
    for k in range(2 + j % 2, j + 1, 2):
        vol *= 2.0 * math.pi / k
    return vol


@functools.cache
def _wedge_table(d: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of one wedge step from t-minors to (t+1)-minors in R^d.

    Column J belongs to the J-th (t+1)-subset of the coordinates, in the
    order of itertools.combinations.  Row p holds the position of J without
    its p-th coordinate among the t-subsets (``src``) and that coordinate
    (``coord``).  Expanding along the new row,
    minor_J(w ^ g) = sum_p (-1)^p w[src[p, J]] g[coord[p, J]],
    up to one sign shared by every J.
    """
    lower = {c: i for i, c in enumerate(itertools.combinations(range(d), t))}
    upper = list(itertools.combinations(range(d), t + 1))
    src = [[lower[J[:p] + J[p + 1 :]] for J in upper] for p in range(t + 1)]
    return np.array(src, dtype=np.intp), np.array(upper, dtype=np.intp).T


def _wedge(W: np.ndarray, G: np.ndarray, t: int) -> np.ndarray:
    """(t+1)-minors (C(d, t+1), ...) of t-subsets joined by generators, from
    the t-minors W (C(d, t), ...) of the subsets and the generators G
    (d, ...), whose trailing axes broadcast against each other: W[:, :, None]
    and G[:, None] join every subset with every generator, equal shapes join
    them pair by pair.

    Products and sums are formed elementwise, not through BLAS: a fused
    multiply-add would break the exact antisymmetry of the 2 x 2 minors that
    makes V_2 permutation-exact.
    """
    src, coord = _wedge_table(G.shape[0], t)
    terms = W[src] * G[coord]
    X = terms[0]
    for p in range(1, len(terms)):
        if p % 2:
            X -= terms[p]
        else:
            X += terms[p]
    return X


def _runs(counts, width):
    """Split consecutive blocks of counts[i] rows into runs [start, stop)
    whose temporaries, rows times width(start) elements, stay within _CHUNK;
    a block too large for that runs alone."""
    start, rows = 0, 0
    for i, count in enumerate(counts):
        if i > start and (rows + count) * width(start) > _CHUNK:
            yield start, i
            start, rows = i, 0
        rows += count
    if len(counts) > start:
        yield start, len(counts)


def _ragged(counts) -> tuple[np.ndarray, np.ndarray]:
    """(i, k) for every k < counts[i], in order of i and then k."""
    counts = np.asarray(counts, dtype=np.intp)
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _minors(G: np.ndarray, t: int) -> np.ndarray:
    """t-minors (C(d, t), C(m, t), b) of the t-subsets of G (d, m, b) in colex
    order; the one 0-minor is 1 and the 1-minors are G.  The block with
    largest element l is the first C(l, t-1) rows of the (t-1)-minor table
    joined with g_l.  Consecutive blocks whose products fit in _CHUNK
    elements are wedged in one call, each row paired with its own generator,
    a larger block alone, and each call fills its rows of one table."""
    if t <= 1:
        return G if t else np.ones((1, 1, G.shape[2]))
    lower = _minors(G, t - 1)
    d, m, b = G.shape
    counts = [math.comb(l, t - 1) for l in range(t - 1, m)]
    table = np.empty((math.comb(d, t), math.comb(m, t), b))
    for start, stop in _runs(counts, lambda start: t * math.comb(d, t) * b):
        owner, rows = _ragged(counts[start:stop])
        at = math.comb(t - 1 + start, t)  # the subsets before block start
        table[:, at : at + len(rows)] = _wedge(lower[:, rows], G[:, t - 1 + start + owner], t - 1)
    return table


def _minors_size(d: int, m: int, t: int, b: int) -> int:
    """The most elements _minors(G, t) holds at once beside G (d, m, b): at
    some level s, the (s-1)- and s-minor tables, one run's rows, generators,
    indices and three _wedge products, and the wedge table as it is built."""
    size = 0
    for s in range(2, t + 1):
        width = s * math.comb(d, s)  # products per row and set
        rows = min(math.comb(m, s), max(_CHUNK // (width * b), math.comb(m - 1, s - 1)))
        tables = (s > 2) * math.comb(d, s - 1) * math.comb(m, s - 1) + math.comb(d, s) * math.comb(m, s)
        size = max(size, tables * b + rows * ((3 * width + math.comb(d, s - 1) + d) * b + 5) + 8 * width)
    return size


def _upper_sorted(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, flip) of (b, m, 2) planar generator sets: the generators below
    the x axis, or on it and pointing left, flip (flip, in H's order), and
    each row goes in (angle, x, y) order, so x and y (b, m) depend on the
    multiset of generators only: one argsort of the angles orders every row,
    and the rows with two equal sorted angles are sorted again by all three
    keys."""
    x, y = H[..., 0], H[..., 1]
    flip = (y < 0.0) | ((y == 0.0) & (x < 0.0))
    sign = np.where(flip, -1.0, 1.0)
    x, y = x * sign, y * sign
    angle = np.arctan2(y, x)
    order = np.argsort(angle, axis=-1)
    sorted_angle = np.take_along_axis(angle, order, axis=-1)
    tied = (sorted_angle[:, 1:] == sorted_angle[:, :-1]).any(axis=-1)
    if tied.any():
        order[tied] = np.lexsort((y[tied], x[tied], angle[tied]), axis=-1)
    return np.take_along_axis(x, order, axis=-1), np.take_along_axis(y, order, axis=-1), flip


def _planar_terms(H: np.ndarray) -> np.ndarray:
    """Terms max(P_{k-1} x g_k, 0) of V_2 for (b, m, 2) planar generator
    sets, over the generators in _upper_sorted order."""
    x, y, _ = _upper_sorted(H)
    Px, Py = np.cumsum(x[:, :-1], axis=1), np.cumsum(y[:, :-1], axis=1)
    return np.maximum(Px * y[:, 1:] - Py * x[:, 1:], 0.0)


def _pivot_terms(H: np.ndarray):
    """Yield (k, b) arrays of nonnegative terms that sum to 3 V_3 of each of
    the b generator sets in H (b, m, 3).

    |det(g_i, g_k, g_l)| = |g_i| |B g_k x B g_l|, B the Householder basis
    of g_i-perp (directions._complement_rows), so pivot g_i adds
    |g_i| V_2(B G), by _planar_terms, and every triple comes from its three
    pivots.  The pivot's own row B g_i is set to exact zero, so it adds
    exactly 0, and a zero pivot adds 0 times finite terms.  Each pivot's
    terms depend on g_i and the multiset of the other generators only.
    Pivots go in slices whose planar coordinates take at most _CHUNK / 2
    elements.
    """
    b, m, _ = H.shape
    x, y, z = (H[:, None, None, :, c] for c in range(3))  # (b, 1, 1, m)
    pivots = max(1, _CHUNK // (4 * b * m))
    for s in range(0, m, pivots):
        g = H[:, s : s + pivots]
        p = g.shape[1]
        norm = np.hypot(np.hypot(g[..., 0], g[..., 1]), g[..., 2])  # (b, p)
        R = _complement_rows(g / np.where(norm == 0.0, 1.0, norm)[..., None])[..., None]
        C = R[..., 0, :] * x + R[..., 1, :] * y + R[..., 2, :] * z  # (b, p, 2, m)
        C[:, np.arange(p), :, s + np.arange(p)] = 0.0
        terms = _planar_terms(C.transpose(0, 1, 3, 2).reshape(b * p, m, 2)) * norm.reshape(-1, 1)
        yield terms.reshape(b, -1).T


def _volume_terms(H: np.ndarray, j: int):
    """Yield (k, b) arrays of nonnegative terms that sum to V_j of each of the
    b generator sets in H (b, m, d), for 1 <= j <= min(m, d).

    The (j-1)-subsets come in blocks by largest element l.  Consecutive
    blocks run together while their temporaries fit in _CHUNK elements, and
    a block too large for that runs alone in row slices.  Each run or slice
    takes one pair of wedges: its (j-1)-subsets, every row joined with its
    own largest generator, are broadcast against the generators after the
    run's first block, and the pairs whose generator does not follow the
    row's own are dropped.  A term adds its squared minors coordinate by
    coordinate, so no term depends on _CHUNK.
    """
    b, m, d = H.shape
    if j == 1:
        yield np.sqrt(np.einsum("...i,...i->...", H, H)).T
        return
    if d == 2:
        yield _planar_terms(H).T
        return
    G = np.ascontiguousarray(H.transpose(2, 1, 0))  # the 1-minors, (d, m, b)
    lower = _minors(G, j - 2)
    counts = [math.comb(l, j - 2) for l in range(j - 2, m - 1)]

    def width(start):  # temporary elements per (j-1)-subset of a run
        return (j * math.comb(d, j) * (m + 1 - j - start) + (j - 1) * math.comb(d, j - 1)) * b

    for start, stop in _runs(counts, width):
        l = j - 2 + start
        owner, first = _ragged(counts[start:stop])  # row i has largest element l + owner[i]
        rows = max(1, _CHUNK // width(start))
        for s in range(0, len(owner), rows):
            block = owner[s : s + rows]
            W = _wedge(lower[:, first[s : s + rows]], G[:, l + block], j - 2)
            X = _wedge(W[:, :, None], G[:, None, l + 1 :], j - 1).reshape(math.comb(d, j), -1, b)
            terms = np.abs(X[0]) if j == d else np.sqrt(sum(x * x for x in X))
            later = block[:, None] <= np.arange(m - 1 - l)  # generator l + 1 + k follows row i
            yield terms.compress(later.ravel(), axis=0)


def intrinsic_volume(zonotope: Zonotope, j: int) -> float:
    """Exact j-th intrinsic volume of a zonotope.

    Sums, over all j-subsets S of the generators, the j-volume of the
    parallelepiped they span: the norm of the vector of j x j minors of G_S,
    by the planar prefix sum for j = 2 in the plane and by pivoting onto it
    for V_3 in R^3 of many generators (see the module docstring).  V_0 = 1
    and V_j = 0 for j above the ambient dimension.
    Repeated generators count once per index subset (multiset semantics).
    For j <= 2, and for V_3 in R^3 of at least _PIVOT_FROM generators, every
    term comes out the same whatever the generator order, and the total is
    rounded once, so the order cannot change the result.
    """
    return intrinsic_volume_of_generators(zonotope.generators, j)


def intrinsic_volume_of_generators(generators: np.ndarray, j: int) -> float:
    """intrinsic_volume on a raw (m, d) generator array; OverflowError past float64.

    The kernel squares j-minors, so generators whose j-th power of max|g|
    leaves 2^(+-_SAFE_EXPONENT) are first scaled by a power of two 2^-t, and
    V_j is ldexp(V_j(2^-t G), j t).  Power-of-two scaling is exact and every
    step of the kernel is homogeneous, so a result can change only where a
    term over- or underflows without the scaling, or a coordinate more than
    2^1000 below max|g| underflows with it.
    """
    if j < 0:
        raise ValueError("intrinsic volume order must be nonnegative")
    G = np.asarray(generators, dtype=float)
    if j == 0:
        return 1.0
    if j > G.shape[1] or G.shape[0] < j:
        return 0.0
    return _volumes(G[None], j)[0]


def discrepancy_volumes(points: np.ndarray, X: np.ndarray, j: int) -> np.ndarray:
    """V_j of the discrepancy zonotope of ``points`` (n, d), generators x - x_i,
    at each query point x of X (k, d), for 1 <= j <= d.

    Each value has the bits of intrinsic_volume_of_generators(x - points, j):
    every set is scaled by its own power of two and summed exactly on its
    own.  The query points go through the kernel in batches whose
    generators, and the minors of one j-subset of each, take at most
    _CHUNK elements.
    """
    n, d = points.shape
    if n < j:
        return np.zeros(len(X))
    batch = max(1, _CHUNK // (n * d * j * math.comb(d, j)))
    return np.array(
        [v for s in range(0, len(X), batch) for v in _volumes(X[s : s + batch, None, :] - points, j)]
    )


def _shift(top: float, j: int) -> int:
    """t of the scaling 2^-t that brings max|g| = top into range for V_j: down
    to the edge of the range, no further, or up to order 1, where nothing
    can overflow."""
    e = math.frexp(top)[1]
    if j * e > _SAFE_EXPONENT:
        return e - _SAFE_EXPONENT // j
    return e if j * e < -_SAFE_EXPONENT else 0


def _volumes(H: np.ndarray, j: int) -> list[float]:
    """V_j of each generator set in H (b, m, d), 1 <= j <= min(m, d), each
    scaled and summed as intrinsic_volume_of_generators does alone."""
    shifts = [_shift(top, j) for top in np.abs(H).max(axis=(1, 2)).tolist()]
    if any(shifts):
        H = np.ldexp(H, -np.array(shifts)[:, None, None])
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are caught below
        try:
            if j == H.shape[2] == 3 and H.shape[1] >= _PIVOT_FROM:
                sums = [v / 3.0 for v in _exact_sum(_pivot_terms(H))]
            else:
                sums = _exact_sum(_volume_terms(H, j))
            totals = [math.ldexp(v, j * t) for v, t in zip(sums, shifts)]
        except OverflowError:  # finite terms, too large a sum
            totals = [math.inf]
    if not all(map(math.isfinite, totals)):
        raise OverflowError(f"computing V_{j} of these generators overflows float64")
    return totals


def _exact_sum(blocks) -> list[float]:
    """math.fsum of each column of the (k, b) arrays ``blocks``, bit for bit.

    _extract compresses each block, with no error, into a few rows with the
    same column sums, and math.fsum rounds each column of the rows left
    once.  No array holds every term.
    """
    partials: list[np.ndarray] = []
    for block in blocks:
        _extract(block, partials)
    return [math.fsum(column) for column in np.concatenate(partials).T.tolist()]


def _extract(a: np.ndarray, partials: list[np.ndarray]) -> None:
    """Append to ``partials`` (r, b) arrays whose exact column sums are those
    of the (n, b) array ``a`` (which is overwritten).

    Extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008): with
    max|a| < 2^e and 2^k >= n + 2, sigma = 2^(e+k) splits every term
    exactly into q = (sigma + a) - sigma, a multiple of 2^(e+k-53), and
    a - q.  Every partial sum of a column of q is such a multiple below
    sigma, so the column sums of q are exact in any order.  Rows whose
    remainders are all zero are dropped and the rest split again until a
    few dozen rows are left, or until sigma would overflow, 2^(e+k-53)
    would be subnormal, or a term is inf or nan; those are appended as they
    are.
    """
    while len(a) > 32:
        top = float(np.max(np.abs(a)))
        if top == 0.0:
            a = a[:0]
            break
        if not math.isfinite(top):
            break
        e = math.frexp(top)[1] + (len(a) + 1).bit_length()
        if not -969 <= e <= 1023:
            break
        sigma = math.ldexp(1.0, e)
        q = a + sigma
        q -= sigma
        partials.append(q.sum(axis=0, keepdims=True))
        a -= q
        if not a.all():
            a = a.compress(a.any(axis=1), axis=0)
    partials.append(a)


def mc_intrinsic_volume(
    zonotope: Zonotope, j: int, samples: int, seed: int
) -> MonteCarloEstimate:
    """Monte Carlo estimate of V_j via random Gaussian projections.

    Draws j x d standard Gaussian matrices M, measures the j-volume of the
    projected zonotope M Z, and rescales the sample mean by
    (2 pi)^(j/2) / (j! vol_j(B_j)).  For j < d a draw's value is V_j of the
    generators G M' in R^j, by the exact kernel, for a batch of draws at
    once.  For j = d, det(M G_S) = det M det G_S for every d-subset S, so a
    draw's value is |det M| V_d(Z): V_d comes once from the exact kernel and
    det M from its minors.

    Returns the estimate with the standard error of the mean.
    """
    d = zonotope.dim
    if not 1 <= j <= d:
        raise ValueError(f"need 1 <= j <= d, got j={j}, d={d}")
    if samples < 1:
        raise ValueError("samples must be positive")
    G = zonotope.generators
    m = G.shape[0]
    if m < j:
        return MonteCarloEstimate(0.0, 0.0, samples)
    scale = (2.0 * math.pi) ** (j / 2) / (math.factorial(j) * unit_ball_volume(j))
    rng = np.random.default_rng(seed)
    vals = np.zeros(samples)
    if j == d:
        volume = intrinsic_volume_of_generators(G, d)
        # the minor tables of a draw hold at most d C(d, d/2)^2 elements
        batch = max(1, _CHUNK // (d * math.comb(d, d // 2) ** 2))
    else:
        batch = max(1, _CHUNK // (m * j))
    for start in range(0, samples, batch):
        M = rng.standard_normal((min(batch, samples - start), j, d))
        part = vals[start : start + len(M)]
        if j == d:
            part[:] = np.abs(_minors(M.transpose(1, 2, 0), d)[0, 0]) * volume
        else:
            H = G @ np.swapaxes(M, 1, 2)  # (b, m, j): row i is M g_i
            for terms in _volume_terms(H, j):
                part += terms.sum(axis=0)
    return MonteCarloEstimate.from_samples(vals, scale)


def wills_functional(zonotope: Zonotope) -> float:
    """W(Z) = 1 + V_1(Z) + ... + V_d(Z)."""
    return wills_of_generators(zonotope.generators, zonotope.dim)


def wills_of_generators(generators: np.ndarray, dim: int) -> float:
    """wills_functional on a raw generator array."""
    return 1.0 + math.fsum(
        intrinsic_volume_of_generators(generators, j) for j in range(1, dim + 1)
    )
