"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the definitions, apart from the program:
singular-value products and determinants over generator subsets, the planar
zonotope polygon, the polar surrogate over equal-angle directions and the
closed-form Gaussian symmetrization step.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

CHUNK = 65_536


def subset_index(m: int, j: int) -> np.ndarray:
    """All j-subsets of range(m) as rows of an (C(m, j), j) integer array."""
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), j)),
        dtype=np.intp,
        count=math.comb(m, j) * j,
    )
    return flat.reshape(-1, j)


def subset_volume_sum(gens: np.ndarray, j: int, index: np.ndarray | None = None) -> float:
    """V_j of the zonotope spanned by the rows of ``gens``.

    The sum over j-subsets S of the product of the singular values of G_S,
    which is |det G_S| when j equals the dimension.  Evaluated in chunks.
    """
    m, d = gens.shape
    if j == 0:
        return 1.0
    if j > d or m < j:
        return 0.0
    if j == 1:
        return math.fsum(np.sqrt(np.einsum("ij,ij->i", gens, gens)).tolist())
    if index is None:
        index = subset_index(m, j)
    parts = []
    for lo in range(0, len(index), CHUNK):
        sub = gens[index[lo : lo + CHUNK]]
        if j == d:
            vals = np.abs(np.linalg.det(sub))
        else:
            vals = np.prod(np.linalg.svd(sub, compute_uv=False), axis=1)
        parts.append(math.fsum(vals.tolist()))
    return math.fsum(parts)


def planar_zonotope_area(gens: np.ndarray) -> float:
    """Shoelace area of the polygon walked by angle-sorted generators."""
    flip = (gens[:, 1] < 0.0) | ((gens[:, 1] == 0.0) & (gens[:, 0] < 0.0))
    upper = np.where(flip[:, None], -gens, gens)
    edges = upper[np.argsort(np.arctan2(upper[:, 1], upper[:, 0]), kind="stable")]
    walk = np.cumsum(np.vstack([edges, -edges]), axis=0)
    nxt = np.roll(walk, -1, axis=0)
    return 0.5 * math.fsum((walk[:, 0] * nxt[:, 1] - nxt[:, 0] * walk[:, 1]).tolist())


def shoelace_area(verts: np.ndarray) -> float:
    nxt = np.roll(verts, -1, axis=0)
    return 0.5 * math.fsum((verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]).tolist())


class MedianObjective:
    """V_j(Z(x)), the Wills functional 1 + sum_j V_j(Z(x)), or the polar surrogate."""

    def __init__(self, points: np.ndarray, objective: str, j: int | None = None):
        self.points = points
        self.objective = objective
        d = points.shape[1]
        if objective == "polar":
            if d != 2:
                raise ValueError("the polar reference is written for the plane")
            theta = 2.0 * math.pi * (np.arange(1024) + 0.5) / 1024
            self.directions = np.column_stack([np.cos(theta), np.sin(theta)])
            self.orders = []
        else:
            self.orders = [j] if objective == "vj" else list(range(1, d + 1))
        n = points.shape[0]
        self.index = {k: subset_index(n, k) for k in self.orders if 2 <= k <= n}

    def __call__(self, x: np.ndarray) -> float:
        gens = x[None, :] - self.points
        if self.objective == "polar":
            widths = np.abs(self.directions @ gens.T).sum(axis=1)
            return 2.0 * math.pi * float(np.mean(widths**-2.0))
        total = math.fsum(subset_volume_sum(gens, k, self.index.get(k)) for k in self.orders)
        return 1.0 + total if self.objective == "wills" else total


def cloud_scale(points: np.ndarray) -> float:
    return float(np.sqrt(((points - points.mean(axis=0)) ** 2).sum(axis=1)).max())


def unit(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    return vec / np.linalg.norm(vec)


def perp_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of u-perp as rows, from the SVD of the projector."""
    proj = np.eye(u.size) - np.outer(u, u)
    vecs, _, _ = np.linalg.svd(proj)
    return vecs[:, : u.size - 1].T


def gaussian_step(cov: np.ndarray, mean: np.ndarray, u: np.ndarray):
    """Closed-form symmetrization of N(mean, cov) along unit u.

    cov -> A cov A' with A = I - c u u' cov^-1 P, 1/c = -u' cov^-1 u and
    P = I - u u'; the mean loses its u-component.
    """
    proj = np.eye(u.size) - np.outer(u, u)
    s = np.linalg.solve(cov, u)
    c = -1.0 / float(u @ s)
    a = np.eye(u.size) - c * np.outer(u, proj @ s)
    return a @ cov @ a.T, proj @ mean


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)
