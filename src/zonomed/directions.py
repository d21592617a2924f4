"""Deterministic direction sets on the unit sphere."""

from __future__ import annotations

import math

import numpy as np


def sphere_directions(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """(count, dim) unit vectors: equal-angle in 2D, Fibonacci in 3D, seeded otherwise."""
    if dim < 1 or count < 1:
        raise ValueError("need dim >= 1 and count >= 1")
    if dim == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs[:, None]
    if dim == 2:
        theta = 2.0 * math.pi * (np.arange(count) + 0.5) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        k = np.arange(count)
        z = 1.0 - 2.0 * (k + 0.5) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = math.pi * (3.0 - math.sqrt(5.0))
        phi = golden * k
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def random_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One uniform unit vector drawn from an existing generator."""
    while True:
        u = rng.standard_normal(dim)
        norm = np.linalg.norm(u)
        if norm > 1e-12:
            return u / norm


def _complement_rows(u: np.ndarray) -> np.ndarray:
    """Rows other than row k of the Householder reflection I - 2 v v'/(v'v),
    v = u + sign(u_k) e_k, k the axis of largest |u|, for each of the (..., d)
    vectors u, unit or zero: (..., d - 1, d), an orthonormal basis of u-perp
    for unit u.  v'v by matmul keeps the bits of one vector's v @ v."""
    d = u.shape[-1]
    k = np.abs(u).argmax(axis=-1)[..., None]
    v = u + (np.arange(d) == k) * np.copysign(1.0, u)
    w = v * (2.0 / (v[..., None, :] @ v[..., :, None])[..., 0])
    kept = np.arange(d - 1) + (np.arange(d - 1) >= k)
    return np.eye(d)[kept] - np.take_along_axis(u, kept, -1)[..., None] * w[..., None, :]
