"""Zonotopes aggregated from point samples and their intrinsic volumes.

A zonotope here is a Minkowski sum of segments [0, g_i] shifted by a center.
The discrepancy zonotope of a sample x_1..x_n at a query point x uses the
generators g_i = x - x_i, so every size functional of it measures how far x
sits from the sample as a whole.

V_j of a zonotope is the sum, over the j-subsets S of its generators, of the
j-volume of the parallelepiped G_S spans.  One kernel computes it:

* j = 1: the sum of the generator norms.
* j = 2 in the plane: flip every generator into the upper half-plane and
  sort by angle; then every cross product g_i x g_k with i before k is
  nonnegative, and V_2 = sum_k P_{k-1} x g_k with P the prefix sum, in
  O(m log m).
* otherwise: the j-volume of G_S is the norm of the wedge product
  g_{s_1} ^ ... ^ g_{s_j}, whose coordinates are the j x j minors of G_S
  (Cauchy-Binet; for j = d the single minor det G_S), and
  V_j = sum_{S'} sum_{l > max S'} ||w_{S'} ^ g_l|| over the (j-1)-subsets S'.
  In colexicographic order the S' with largest element l are the first
  C(l, j-2) rows of the (j-2)-minor table, each wedged with g_l, and each
  such block is wedged with every later generator at once.  No array has a
  row per (j-1)- or j-subset, and no result depends on how blocks are sliced.

Minors keep the accuracy of the generators themselves: a zonotope 1e-7 thin
in one direction, or generators 1e-6 apart in angle, lose no more digits
than the problem's own conditioning costs, unlike sqrt(det(G_S' G_S)),
which squares the condition number.  An exact total is the correctly
rounded sum of its terms: extraction (Rump, Ogita & Oishi 2008) compresses
each buffer of terms, with no error, into a few partial sums, and math.fsum
rounds the sum of those once.  The Monte Carlo estimator applies the same
kernel to the projected generators of a whole batch of samples at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Elements per temporary array of the subset-volume kernel; larger problems
# are streamed through it in slices.  Exact results do not depend on it.
_CHUNK = 1 << 16

# Exact V_j rescales generators whose max|g|^j lies outside 2^(+-_SAFE_EXPONENT),
# so that squared j-minors (up to about j^j max|g|^(2j)) stay finite and normal.
_SAFE_EXPONENT = 448


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
    """(t+1)-minors (C(d, t+1), r, k, b) of each of r t-subsets joined by each
    of k generators, from the t-minors W (C(d, t), r, b) of the subsets and
    the generators G (d, k, b), for b generator sets.

    Products and sums are formed elementwise, not through BLAS: a fused
    multiply-add would break the exact antisymmetry of the 2 x 2 minors that
    makes V_2 permutation-exact.
    """
    src, coord = _wedge_table(G.shape[0], t)
    terms = W[src][:, :, :, None] * G[coord][:, :, None]
    X = terms[0]
    for p in range(1, len(terms)):
        if p % 2:
            X -= terms[p]
        else:
            X += terms[p]
    return X


def _minors(G: np.ndarray, t: int) -> np.ndarray:
    """t-minors (C(d, t), C(m, t), b) of the t-subsets of G (d, m, b) in colex
    order, one block per largest element l from the first C(l, t-1) rows of
    the (t-1)-minor table; the one 0-minor is 1."""
    if t == 0:
        return np.ones((1, 1, G.shape[2]))
    lower = _minors(G, t - 1)
    blocks = [
        _wedge(lower[:, : math.comb(l, t - 1)], G[:, l : l + 1], t - 1)[:, :, 0]
        for l in range(t - 1, G.shape[1])
    ]
    return np.concatenate(blocks, axis=1)


def _planar_terms(H: np.ndarray) -> np.ndarray:
    """Terms max(P_{k-1} x g_k, 0) of V_2 for (b, m, 2) planar generator sets.

    Each row is put in (angle, x, y) order, so tied angles come in a fixed
    order and the result depends on the multiset of generators only: one
    argsort of the angles orders every row, and the rows where two sorted
    angles are equal are sorted again by all three keys.
    """
    x, y = H[..., 0], H[..., 1]
    flip = (y < 0.0) | ((y == 0.0) & (x < 0.0))
    H = np.where(flip[..., None], -H, H)
    x, y = H[..., 0], H[..., 1]
    angle = np.arctan2(y, x)
    order = np.argsort(angle, axis=-1)
    sorted_angle = np.take_along_axis(angle, order, axis=-1)
    tied = (sorted_angle[:, 1:] == sorted_angle[:, :-1]).any(axis=-1)
    if tied.any():
        order[tied] = np.lexsort((y[tied], x[tied], angle[tied]), axis=-1)
    H = H[np.arange(len(H))[:, None], order]
    P = np.cumsum(H[:, :-1], axis=1)
    return np.maximum(P[..., 0] * H[:, 1:, 1] - P[..., 1] * H[:, 1:, 0], 0.0)


def _volume_terms(H: np.ndarray, j: int):
    """Yield (k, b) arrays of nonnegative terms that sum to V_j of each of the
    b generator sets in H (b, m, d), for 1 <= j <= min(m, d).

    The (j-1)-subsets come in one block per largest element, in row slices
    that keep every temporary within _CHUNK elements.  A term adds its squared
    minors coordinate by coordinate, so no term depends on _CHUNK.
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
    rows = max(1, _CHUNK // (j * math.comb(d, j) * m * b))
    for l in range(j - 2, m - 1):
        block = lower[:, : math.comb(l, j - 2)]
        for s in range(0, block.shape[1], rows):
            W = _wedge(block[:, s : s + rows], G[:, l : l + 1], j - 2)[:, :, 0]
            X = _wedge(W, G[:, l + 1 :], j - 1).reshape(math.comb(d, j), -1, b)
            yield np.abs(X[0]) if j == d else np.sqrt(sum(x * x for x in X))


def intrinsic_volume(zonotope: Zonotope, j: int) -> float:
    """Exact j-th intrinsic volume of a zonotope.

    Sums, over all j-subsets S of the generators, the j-volume of the
    parallelepiped they span: the norm of the vector of j x j minors of G_S,
    by the planar prefix sum for j = 2 in the plane (see the module
    docstring).  V_0 = 1 and V_j = 0 for j above the ambient dimension.
    Repeated generators count once per index subset (multiset semantics).
    For j <= 2 every term comes out the same whatever the generator order,
    and the total is rounded once, so the order cannot change the result.
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
    e = math.frexp(float(np.max(np.abs(G))))[1]
    t = 0
    if j * e > _SAFE_EXPONENT:  # down to the edge of the range, no further
        t = e - _SAFE_EXPONENT // j
    elif j * e < -_SAFE_EXPONENT:  # up to order 1, where nothing can overflow
        t = e
    if t:
        G = np.ldexp(G, -t)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are caught below
        try:
            total = math.ldexp(_exact_sum(_volume_terms(G[None], j)), j * t)
        except OverflowError:  # finite terms, too large a sum
            total = math.inf
    if not math.isfinite(total):
        raise OverflowError(f"computing V_{j} of these generators overflows float64")
    return total


def _exact_sum(blocks) -> float:
    """math.fsum of every term of the arrays ``blocks``, bit for bit.

    The terms pass through buffers of at most _CHUNK terms (or one block),
    each compressed by _extract into a few floats with the same exact sum;
    math.fsum rounds the sum of those once.  No array holds every term.
    """
    partials: list[float] = []
    pending: list[np.ndarray] = []
    size = 0
    for block in blocks:
        if pending and size + block.size > _CHUNK:
            _extract(np.concatenate(pending), partials)
            pending, size = [], 0
        pending.append(block.ravel())
        size += block.size
    if pending:
        _extract(np.concatenate(pending), partials)
    return math.fsum(partials)


def _extract(a: np.ndarray, partials: list[float]) -> None:
    """Append to ``partials`` floats whose exact sum is that of ``a`` (which
    is overwritten).

    Extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008): with
    max|a| < 2^e and 2^k >= n + 2, sigma = 2^(e+k) splits every term
    exactly into q = (sigma + a) - sigma, a multiple of 2^(e+k-53), and
    a - q.  Every partial sum of the q is such a multiple below sigma, so
    q.sum() is exact in any order.  The nonzero remainders are split again
    until a few dozen are left, or until sigma would overflow, 2^(e+k-53)
    would be subnormal, or a term is inf or nan; those are appended as they
    are.
    """
    while a.size > 32:
        top = float(np.max(np.abs(a)))
        if top == 0.0:
            return
        if not math.isfinite(top):
            break
        e = math.frexp(top)[1] + (a.size + 1).bit_length()
        if not -969 <= e <= 1023:
            break
        sigma = math.ldexp(1.0, e)
        q = a + sigma
        q -= sigma
        partials.append(float(q.sum()))
        a -= q
        a = a[a != 0.0]
    partials.extend(a.tolist())


def mc_intrinsic_volume(
    zonotope: Zonotope, j: int, samples: int, seed: int
) -> MonteCarloEstimate:
    """Monte Carlo estimate of V_j via random Gaussian projections.

    Draws j x d standard Gaussian matrices M, measures the j-volume of the
    projected zonotope M Z (V_j of the generators G M' in R^j, by the exact
    kernel, for a batch of samples at once), and rescales the sample mean by
    (2 pi)^(j/2) / (j! vol_j(B_j)).

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
    batch = max(1, _CHUNK // (m * j))
    for start in range(0, samples, batch):
        M = rng.standard_normal((min(batch, samples - start), j, d))
        H = G @ np.swapaxes(M, 1, 2)  # (b, m, j): row i is M g_i
        for terms in _volume_terms(H, j):
            vals[start : start + len(M)] += terms.sum(axis=0)
    return MonteCarloEstimate.from_samples(vals, scale)


def wills_functional(zonotope: Zonotope) -> float:
    """W(Z) = 1 + V_1(Z) + ... + V_d(Z)."""
    return wills_of_generators(zonotope.generators, zonotope.dim)


def wills_of_generators(generators: np.ndarray, dim: int) -> float:
    """wills_functional on a raw generator array."""
    return 1.0 + math.fsum(
        intrinsic_volume_of_generators(generators, j) for j in range(1, dim + 1)
    )
