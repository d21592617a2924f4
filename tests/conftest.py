"""Shared builders for randomized test instances."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from zonomed import PointCloud, Zonotope, grid_oracle, medians
from zonomed.errors import ZonomedError


def random_zonotope(rng: np.random.Generator, d: int, m: int) -> Zonotope:
    return Zonotope(rng.standard_normal((m, d)))


def subset_volume_sum(gens: np.ndarray, j: int) -> float:
    """Sum over j-subsets S of |prod diag R_S|, where G_S' = Q_S R_S is the
    Householder QR of the subset's generators.

    Householder QR perturbs each generator by a few ulps of its own norm, so
    every subset volume is off by at most a few ulps of the product of the
    generator norms.  An SVD only promises a few ulps of the largest singular
    value, which on generators of very different lengths is far worse; forming
    G_S G_S' would square the condition number.
    """
    idx = np.asarray(list(itertools.combinations(range(len(gens)), j)), dtype=np.intp)
    if idx.size == 0:
        return 0.0
    r = np.linalg.qr(np.swapaxes(gens[idx], 1, 2), mode="r")
    vals = np.prod(np.abs(np.diagonal(r, axis1=1, axis2=2)), axis=1)
    return math.fsum(vals.tolist())


def face_form_charge(pts: np.ndarray, orders) -> int:
    """The bytes medians._face_forms' size guard charges for pts and orders,
    read from its refusal under a budget of none."""
    budget, medians._SOLVE_BYTES = medians._SOLVE_BYTES, 0
    try:
        medians._face_forms(pts, orders)
    except ZonomedError as refused:
        return int(re.search(r"need (\d+) bytes", str(refused))[1])
    finally:
        medians._SOLVE_BYTES = budget
    raise AssertionError("no budget, yet the forms were built")


def random_spd(rng: np.random.Generator, d: int, lo: float = 0.5, hi: float = 5.0):
    """Random SPD matrix with eigenvalues uniform in [lo, hi]; returns (cov, eigs)."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.sort(rng.uniform(lo, hi, size=d))
    return (q * eigs) @ q.T, eigs


def record_calls(monkeypatch, module, *names) -> dict[str, list[np.ndarray]]:
    """Wrap each named function of ``module``; record a copy of every first argument."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapped(a, *args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name].append(np.array(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    return calls


def rotation_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def refined_grid_minimum(
    cloud: PointCloud,
    objective,
    cell_target: float = 1e-3,
    resolution: int = 13,
    pad: float = 0.15,
    beam: int = 10,
):
    """Zooming grid search down to the requested cell size.

    Two safeguards keep shallow, narrow valleys from escaping the window:
    the window grows whenever the level's best point touches its boundary
    layer, and the next window is the padded bounding box of the ``beam``
    best grid points rather than a box around a single incumbent.  The
    final level goes through grid_oracle itself.  ``objective`` maps a
    (k, d) batch of points to their k values, and each level's grid goes
    through it in one call.  Returns (point, value, cell_diagonal) of the
    final, finest grid.
    """
    import itertools as _it

    pts = cloud.points
    d = cloud.dim
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-3)
    lo = lo - pad * span
    hi = hi + pad * span

    def evaluate(lo_, hi_):
        axes = [np.linspace(lo_[i], hi_[i], resolution) for i in range(d)]
        grid = np.asarray(list(_it.product(*axes)))
        return grid, np.asarray(objective(grid), dtype=float)

    for _ in range(120):
        cell = (hi - lo) / (resolution - 1)
        if cell.max() <= cell_target:
            bounds = np.column_stack([lo, hi])
            point, value = grid_oracle(cloud, objective, bounds, resolution)
            return point, value, float(np.linalg.norm(cell))
        grid, values = evaluate(lo, hi)
        top = grid[np.argsort(values, kind="stable")[:beam]]
        best = top[0]
        new_lo = top.min(axis=0) - 2.0 * cell
        new_hi = top.max(axis=0) + 2.0 * cell
        # force geometric progress: trim an over-wide beam box around the best
        for axis in range(d):
            limit = 0.75 * (hi[axis] - lo[axis])
            if new_hi[axis] - new_lo[axis] > limit:
                new_lo[axis] = max(new_lo[axis], best[axis] - 0.5 * limit)
                new_hi[axis] = new_lo[axis] + limit
        lo, hi = new_lo, new_hi
    raise RuntimeError("grid refinement failed to reach the target cell size")


def grid_value_band(objective, point: np.ndarray, radius: float) -> float:
    """Largest axis-step objective variation around a grid point.

    This is the value resolution of a grid with the given step: two
    candidate minimizers whose values differ by less than this band cannot
    be told apart by that grid.  ``objective`` maps a (k, d) batch of points
    to their k values; the point and its 2d probes go through it in one call.
    """
    steps = radius * np.eye(point.size)
    values = np.asarray(objective(np.vstack([point, point - steps, point + steps])), dtype=float)
    return float(np.max(np.abs(values[1:] - values[0])))
