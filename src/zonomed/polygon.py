"""Convex polygons in the plane and 2D realizations of zonotopes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlatZonotopeError
from .zonotope import MonteCarloEstimate, Zonotope, intrinsic_volume

_WILLS_TAIL_TOL = 1e-6
# Points per `distances_to_polygon` block: each (block, k, 2) float64 temporary
# holds at most 2**14 elements, 128 KB, and stays in cache (50 000 points took
# 0.042 s, and 0.061 s at 2**16, on a 2-vCPU Xeon).
_DISTANCE_ELEMENTS = 2**14


@dataclass
class ConvexPolygon2D:
    """Strictly convex polygon, CCW vertex order, treated cyclically."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError(f"vertices must be a (k, 2) array, got shape {verts.shape}")
        if verts.shape[0] < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertices must be finite")
        edges, _ = _rescaled(np.roll(verts, -1, axis=0) - verts)
        nxt = np.roll(edges, -1, axis=0)
        crosses = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if np.any(crosses <= 0.0):
            raise ValueError("vertices must be strictly convex in CCW order")
        self.vertices = verts

    @property
    def area(self) -> float:
        return polygon_area(self.vertices)

    @property
    def perimeter(self) -> float:
        edges = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.sum(np.hypot(edges[:, 0], edges[:, 1])))

    @property
    def diameter(self) -> float:
        v = self.vertices
        diff = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((diff**2).sum(-1).max()))

    def bounding_box(self) -> np.ndarray:
        """[[xmin, xmax], [ymin, ymax]]."""
        v = self.vertices
        return np.array([[v[:, 0].min(), v[:, 0].max()], [v[:, 1].min(), v[:, 1].max()]])


def _rescaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v / 2^s, s), 2^s the power of two of max|v| (s = 0 for v = 0): exact
    while normal, and products of the entries neither under- nor overflow."""
    s = int(np.frexp(np.abs(v).max())[1])
    return np.ldexp(v, -s), s


def _prune_collinear(verts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Drop repeated and collinear vertices, relative to the polygon's extent;
    the tests run on the edges divided by a power of two (_rescaled)."""
    incoming, shift = _rescaled(verts - np.roll(verts, 1, axis=0))  # row i: v_i - v_(i-1)
    scale = math.ldexp(float(np.ptp(verts, axis=0).max()), -shift)
    keep = []
    k = len(verts)
    for i in range(k):
        e0, e1 = incoming[i], incoming[(i + 1) % k]
        if np.linalg.norm(e0) <= tol * scale:
            continue
        cross = e0[0] * e1[1] - e0[1] * e1[0]
        if cross <= tol * scale * scale:
            continue
        keep.append(verts[i])
    return np.asarray(keep)


def zonotope_polygon_2d(zonotope: Zonotope) -> ConvexPolygon2D:
    """Boundary polygon of a planar zonotope.

    Generators are flipped into the upper half-plane (adjusting the base
    point), merged when parallel, sorted by angle, and walked forward then
    backward.  Raises FlatZonotopeError when the generators span less than
    the full plane.
    """
    if zonotope.dim != 2:
        raise ValueError("zonotope_polygon_2d needs a 2D zonotope")
    gens = zonotope.generators
    norms = np.hypot(gens[:, 0], gens[:, 1])
    gens = gens[norms > 0.0]
    base = zonotope.center.copy()
    flipped = []
    for g in gens:
        if g[1] < 0.0 or (g[1] == 0.0 and g[0] < 0.0):
            base += g
            flipped.append(-g)
        else:
            flipped.append(g)
    if not flipped:
        raise FlatZonotopeError("all generators are zero")
    # merged and tested divided by the power of two of max|g|, so that
    # cross products of tiny or huge generators neither under- nor overflow
    flipped, e = _rescaled(np.asarray(flipped))
    order = np.argsort(np.arctan2(flipped[:, 1], flipped[:, 0]), kind="stable")
    flipped = flipped[order]
    # merge exactly parallel neighbours into a single edge vector
    merged = [flipped[0].copy()]
    for g in flipped[1:]:
        if merged[-1][0] * g[1] - merged[-1][1] * g[0] == 0.0:
            merged[-1] += g
        else:
            merged.append(g.copy())
    if len(merged) < 2:
        raise FlatZonotopeError("generators are all parallel")
    merged = np.ldexp(merged, e)
    forward = base + np.vstack([np.zeros(2), np.cumsum(merged, axis=0)])
    backward = forward[-1] - np.cumsum(merged, axis=0)
    verts = np.vstack([forward, backward[:-1]])
    return ConvexPolygon2D(_prune_collinear(verts))


def _segment_distances(points: np.ndarray, poly: ConvexPolygon2D) -> np.ndarray:
    """Euclidean distance from each point to the polygon (0 inside).

    Points and vertices are divided by the power of two of max|v| (_rescaled),
    so squared edge lengths of a tiny or huge polygon neither under- nor
    overflow, and the distances are mapped back: exact while normal.
    """
    v, s = _rescaled(poly.vertices)
    points = np.ldexp(points, -s)
    edges = np.roll(v, -1, axis=0) - v
    edge_sq = np.einsum("ij,ij->i", edges, edges)
    rel = points[:, None, :] - v[None, :, :]  # (N, k, 2)
    t = np.einsum("nkj,kj->nk", rel, edges) / edge_sq[None, :]
    t = np.clip(t, 0.0, 1.0)
    foot = rel - t[:, :, None] * edges[None, :, :]
    dist = np.sqrt(np.einsum("nkj,nkj->nk", foot, foot)).min(axis=1)
    crosses = edges[None, :, 0] * rel[:, :, 1] - edges[None, :, 1] * rel[:, :, 0]
    dist[np.all(crosses >= 0.0, axis=1)] = 0.0
    return np.ldexp(dist, s)


def distances_to_polygon(points, poly: ConvexPolygon2D) -> np.ndarray:
    """Euclidean distance from each point of an (N, 2) batch to a convex
    polygon (0 inside)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(pts))
    step = max(1, _DISTANCE_ELEMENTS // (2 * len(poly.vertices)))
    for lo in range(0, len(pts), step):
        out[lo : lo + step] = _segment_distances(pts[lo : lo + step], poly)
    return out


def _tail_radius(perimeter: float, tol: float) -> float:
    # smallest r with (perimeter + 2 pi r) exp(-pi r^2) < tol
    r = 0.5
    while (perimeter + 2.0 * math.pi * r) * math.exp(-math.pi * r * r) >= tol:
        r += 0.05
    return r


def wills_mc_check(zonotope: Zonotope, samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo value of the Gaussian-kernel distance integral.

    Estimates the plane integral of exp(-pi dist^2(y, Z)) by uniform
    sampling over the bounding box of the zonotope's polygon inflated by a
    radius at which the neglected tail is below 1e-6; the result should
    agree with wills_functional up to sampling error.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    poly = zonotope_polygon_2d(zonotope)
    r = _tail_radius(poly.perimeter, _WILLS_TAIL_TOL)
    (xmin, xmax), (ymin, ymax) = poly.bounding_box()
    lo = np.array([xmin - r, ymin - r])
    hi = np.array([xmax + r, ymax + r])
    box_area = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    pts = lo + rng.random((samples, 2)) * (hi - lo)
    vals = np.exp(-math.pi * distances_to_polygon(pts, poly) ** 2)
    return MonteCarloEstimate.from_samples(vals, box_area)


def steiner_polynomial_check_2d(zonotope: Zonotope, lam: float) -> tuple[float, float]:
    """Both sides of the 2D Steiner polynomial for the parallel body.

    lhs grows the polygon geometrically: area + perimeter*lam + pi*lam^2.
    rhs is the intrinsic-volume polynomial V_2 + 2 V_1 lam + pi lam^2.
    """
    if not lam >= 0.0:
        raise ValueError("inflation radius must be nonnegative")
    poly = zonotope_polygon_2d(zonotope)
    lhs = poly.area + poly.perimeter * lam + math.pi * lam * lam
    v1 = intrinsic_volume(zonotope, 1)
    v2 = intrinsic_volume(zonotope, 2)
    rhs = v2 + 2.0 * v1 * lam + math.pi * lam * lam
    return lhs, rhs


def polygon_from_json_dict(data: dict) -> ConvexPolygon2D:
    """Build a polygon from {"vertices": [[x, y], ...]}."""
    try:
        verts = data["vertices"]
    except (KeyError, TypeError):
        raise ValueError("polygon JSON must contain a 'vertices' list") from None
    return ConvexPolygon2D(np.asarray(verts, dtype=float))


def clip_polygon_to_rect(
    verts: np.ndarray, xmin: float, xmax: float, ymin: float, ymax: float
) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon to an axis-aligned box."""
    poly = [np.asarray(p, dtype=float) for p in verts]
    for axis, bound, keep_less in (
        (0, xmax, True),
        (0, xmin, False),
        (1, ymax, True),
        (1, ymin, False),
    ):
        if not poly:
            return np.empty((0, 2))
        out = []
        k = len(poly)
        for i in range(k):
            cur, nxt = poly[i], poly[(i + 1) % k]
            cur_in = cur[axis] <= bound if keep_less else cur[axis] >= bound
            nxt_in = nxt[axis] <= bound if keep_less else nxt[axis] >= bound
            if cur_in:
                out.append(cur)
            if cur_in != nxt_in:
                t = (bound - cur[axis]) / (nxt[axis] - cur[axis])
                out.append(cur + t * (nxt - cur))
        poly = out
    return np.asarray(poly) if poly else np.empty((0, 2))


def polygon_area(verts: np.ndarray) -> float:
    """Shoelace area of a CCW vertex array (0 for fewer than 3 vertices)."""
    if len(verts) < 3:
        return 0.0
    w = np.roll(verts, -1, axis=0)
    return 0.5 * float(np.sum(verts[:, 0] * w[:, 1] - w[:, 0] * verts[:, 1]))
