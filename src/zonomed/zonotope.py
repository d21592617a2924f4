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
  (Cauchy-Binet; for j = d the single minor det G_S).  The minors w_{S'}
  of the (j-1)-subsets are built in chunks, in colexicographic order, from
  the minors of all (j-2)-subsets; each chunk is wedged with every later
  generator at once, and V_j = sum_{S'} sum_{l > max S'} ||w_{S'} ^ g_l||.
  No array has a row per (j-1)- or j-subset.

Minors keep the accuracy of the generators themselves: a zonotope 1e-7 thin
in one direction, or generators 1e-6 apart in angle, lose no more digits
than the problem's own conditioning costs, unlike sqrt(det(G_S' G_S)),
which squares the condition number.  Exact totals are rounded once by
math.fsum, and the Monte Carlo estimator applies the same kernel to the
projected generators of a whole batch of samples at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Elements per temporary array of the subset-volume kernel; larger problems
# are streamed through it in chunks.
_CHUNK = 1 << 16


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


def _take_index(d: int, m: int, t: int, parent, later, n_parent: int):
    """Flat take-indices (t+1, C(d, t+1), k) that wedge the t-minors of rows
    ``parent`` (of n_parent) with generators ``later``; see _wedge."""
    src, coord = _wedge_table(d, t)
    index = src[:, :, None] * n_parent + parent, coord[:, :, None] * m + later
    for a in index:
        a.flags.writeable = False  # plans are cached and shared between calls
    return index


def _colex(m: int, t: int, s: int, e: int):
    """Largest element and rest-rank of the t-subsets of range(m) with
    colexicographic rank s..e-1.

    In colex order the C(l, t) subsets of range(l) come first, so rank r has
    largest element l with C(l, t) <= r < C(l + 1, t), and r - C(l, t) is
    the rank of the rest among the (t-1)-subsets.
    """
    l = np.arange(m + 1)
    bounds = np.ones(m + 1, dtype=np.int64)
    for i in range(t):
        bounds = bounds * (l - i) // (i + 1)  # C(l, i + 1), exactly
    rank = np.arange(s, e)
    last = np.searchsorted(bounds, rank, side="right") - 1
    return last, rank - bounds[last]


@functools.lru_cache(maxsize=8)
def _build_plan(d: int, m: int, t: int, s: int, e: int):
    """Take-indices that form the t-minors of colex ranks s..e-1 from all
    (t-1)-minors."""
    last, rest = _colex(m, t, s, e)
    return _take_index(d, m, t - 1, rest, last, math.comb(m, t - 1))


@functools.lru_cache(maxsize=8)
def _extend_plan(d: int, m: int, t: int, s: int, e: int):
    """Take-indices that wedge the t-minors of colex ranks s..e-1 (as rows
    0..e-s-1) with every generator after each subset's largest element."""
    last, _ = _colex(m, t, s, e)
    runs = m - 1 - last
    parent = np.repeat(np.arange(e - s), runs)
    # the q-th pair of a run takes generator last + 1 + q
    later = np.arange(parent.size) - np.repeat(np.cumsum(runs) - runs - last - 1, runs)
    return _take_index(d, m, t, parent, later, e - s)


def _wedge(W: np.ndarray, G: np.ndarray, iw: np.ndarray, ig: np.ndarray) -> np.ndarray:
    """(t+1)-minors (C(d, t+1), k, b) of k subsets, each a row of W wedged
    with one generator.

    W is (C(d, t) * n, b): the t-minors of n subsets, coordinate-major, for
    each of b generator sets; G is (d * m, b), the generators laid out the
    same way; iw and ig come from _take_index.  Products and sums are formed
    elementwise, not through BLAS: a fused multiply-add would break the
    exact antisymmetry of the 2 x 2 minors that makes V_2 permutation-exact.
    """
    terms = W.take(iw, axis=0)
    terms *= G.take(ig, axis=0)
    X = terms[0]
    for p in range(1, len(terms)):
        if p % 2:
            X -= terms[p]
        else:
            X += terms[p]
    return X


def _planar_terms(H: np.ndarray) -> np.ndarray:
    """Terms max(P_{k-1} x g_k, 0) of V_2 for (b, m, 2) planar generator sets.

    Sorting on (angle, x, y) puts tied angles in a fixed order, so the
    result depends on the multiset of generators only.
    """
    x, y = H[..., 0], H[..., 1]
    flip = (y < 0.0) | ((y == 0.0) & (x < 0.0))
    H = np.where(flip[..., None], -H, H)
    x, y = H[..., 0], H[..., 1]
    order = np.lexsort((y, x, np.arctan2(y, x)), axis=-1)
    H = H[np.arange(len(H))[:, None], order]
    P = np.cumsum(H[:, :-1], axis=1)
    return np.maximum(P[..., 0] * H[:, 1:, 1] - P[..., 1] * H[:, 1:, 0], 0.0)


def _volume_terms(H: np.ndarray, j: int):
    """Yield (k, b) arrays of nonnegative terms that sum to V_j of each of the
    b generator sets in H (b, m, d), for 1 <= j <= min(m, d).

    The minors of the (j-1)-subsets are streamed in colex chunks, each built
    from all (j-2)-minors, and every chunk is wedged with all later
    generators at once.
    """
    b, m, d = H.shape
    if j == 1:
        yield np.sqrt(np.einsum("...i,...i->...", H, H)).T
        return
    if d == 2:
        yield _planar_terms(H).T
        return
    G = H.transpose(2, 1, 0).reshape(d * m, b)  # the 1-minors
    lower = G
    for t in range(2, j - 1):
        lower = _wedge(lower, G, *_build_plan(d, m, t, 0, math.comb(m, t))).reshape(-1, b)
    total = math.comb(m, j - 1)
    step = max(1, _CHUNK // (j * math.comb(d, j) * m * b))
    for s in range(0, total, step):
        e = min(total, s + step)
        if j == 2:
            W = G.reshape(d, m, b)[:, s:e].reshape(-1, b)
        else:
            W = _wedge(lower, G, *_build_plan(d, m, j - 1, s, e)).reshape(-1, b)
        X = _wedge(W, G, *_extend_plan(d, m, j - 1, s, e))
        yield np.abs(X[0]) if j == d else np.sqrt(np.einsum("i...,i...->...", X, X))


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
    """intrinsic_volume on a raw (m, d) generator array."""
    if j < 0:
        raise ValueError("intrinsic volume order must be nonnegative")
    G = np.asarray(generators, dtype=float)
    if j == 0:
        return 1.0
    if j > G.shape[1] or G.shape[0] < j:
        return 0.0
    terms = _volume_terms(G[None], j)
    return math.fsum(itertools.chain.from_iterable(t.ravel().tolist() for t in terms))


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
