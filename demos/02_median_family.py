#!/usr/bin/env python3
"""The V_j-median family on one sample.

For a cloud of points, minimizing V_j of the discrepancy zonotope Z(x)
sweeps from the L1 median (j = 1) to the Oja median (j = d).  The Wills
functional gives a non-homogeneous alternative, and maximizing the polar
volume gives yet another center.  All of them land inside the convex hull
and are translation equivariant.
"""

import numpy as np

from zonomed import (
    PointCloud,
    SolverOptions,
    grid_oracle,
    polar_median,
    v1_median,
    vd_median,
    vj_objective,
    wills_median,
)

rng = np.random.default_rng(2024)
cloud = PointCloud(rng.normal(size=(7, 2)) + np.array([1.0, -0.5]))
opts = SolverOptions(tolerance=1e-10, seed=3)

print("sample points:")
print(np.round(cloud.points, 4))
print()

r1 = v1_median(cloud, opts)
rd = vd_median(cloud, opts)
rw = wills_median(cloud, opts)
rp = polar_median(cloud, opts)

rows = [
    ("L1 median (V_1)", r1),
    ("Oja median (V_2)", rd),
    ("Wills median", rw),
    ("polar median", rp),
]
print(f"{'objective':<18} {'argmin':<26} {'value':>12} conv non-unique")
for name, r in rows:
    pt = np.array2string(np.round(r.argmin, 6), separator=", ")
    print(f"{name:<18} {pt:<26} {r.value:12.6f} {str(r.converged):>4} {r.non_unique}")

print()
print("cross-check the L1 median against a brute-force grid:")
gp, gv = grid_oracle(cloud, lambda X: vj_objective(X, cloud, 1), resolution=41)
print(f"   grid best {np.round(gp, 3)} value {gv:.6f}")
print(f"   solver    {np.round(r1.argmin, 3)} value {r1.value:.6f}")

print()
print("translation equivariance: shift the cloud, medians shift along")
shift = np.array([10.0, 5.0])
shifted = PointCloud(cloud.points + shift)
for name, solve in (("L1", v1_median), ("Oja", vd_median)):
    a = solve(cloud, opts).argmin
    b = solve(shifted, opts).argmin
    print(f"   {name}: |median(X + t) - median(X) - t| = {np.linalg.norm(b - a - shift):.2e}")
