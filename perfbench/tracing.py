"""Per-layer spans and counts, recorded by wrapping module attributes.

Each wrapper replaces a name one layer calls in the layer below (for
example ``zonomed.cli.intrinsic_volume`` or ``zonomed.empirical.cKDTree``)
and adds its time and counts to the current round.  ``install`` puts the
wrappers in place and ``remove`` restores the original attributes, so the
program's source is never touched and untraced rounds run the plain code.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from time import perf_counter

# (unit, better) for every per-layer metric, in report order.
LAYER_METRICS = {
    "setup.import_s": ("s", "lower"),
    "setup.inputs_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "medians.l1_s": ("s", "lower"),
    "medians.vj_s": ("s", "lower"),
    "medians.wills_s": ("s", "lower"),
    "medians.polar_s": ("s", "lower"),
    "medians.iterations": ("count", "lower"),
    "medians.kernel_calls": ("count", "lower"),
    "medians.kernel_s": ("s", "lower"),
    "zonotope.exact_calls": ("count", "lower"),
    "zonotope.exact_plane_s": ("s", "lower"),
    "zonotope.exact_space_s": ("s", "lower"),
    "zonotope.subsets_per_s": ("1/s", "higher"),
    "zonotope.mc_s": ("s", "lower"),
    "zonotope.mc_dets_per_s": ("1/s", "higher"),
    "empirical.knn_plane_s": ("s", "lower"),
    "empirical.knn_space_s": ("s", "lower"),
    "empirical.ols_s": ("s", "lower"),
    "empirical.tree_queries": ("count", "lower"),
    "empirical.neighbours": ("count", "lower"),
    "empirical.theorem1_s": ("s", "lower"),
    "empirical.explore_s": ("s", "lower"),
    "polygon.distances_s": ("s", "lower"),
    "polygon.clip_calls": ("count", "lower"),
    "polygon.clip_s": ("s", "lower"),
    "gauss.spherize_s": ("s", "lower"),
    "gauss.steps": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Time spent in spans that cli.main opens into the library layers.
CLI_CHILDREN = "cli.children_s"


def _median_key(problem) -> str:
    if problem.objective == "wills":
        return "medians.wills_s"
    if problem.objective == "polar":
        return "medians.polar_s"
    return "medians.l1_s" if problem.j == 1 else "medians.vj_s"


def _subsets(m: int, d: int, j: int) -> int:
    return math.comb(m, j) if 1 <= j <= d else 0


class Tracer:
    """Wrappers over one process's zonomed modules and the counters they fill."""

    def __init__(self):
        self.acc: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.acc.clear()

    def _patch(self, module, name: str, on_return) -> None:
        """Replace module.name by a wrapper that calls on_return(args, kwargs, seconds)."""
        original = getattr(module, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                on_return(args, kwargs, perf_counter() - start)

        self._undo.append((module, name, original))
        setattr(module, name, wrapper)

    def _cli_child(self, *keys: str):
        acc = self.acc

        def on_return(args, kwargs, dt):
            acc[CLI_CHILDREN] += dt
            for key in keys:
                acc[key] += dt

        return on_return

    def install(self) -> None:
        import zonomed.cli as cli
        import zonomed.empirical as empirical
        import zonomed.gauss as gauss
        import zonomed.medians as medians
        import zonomed.zonotope as zonotope

        acc = self.acc

        # cli -> medians
        problem_cls = cli.MedianProblem

        class TracedMedianProblem(problem_cls):
            def solve(self):
                start = perf_counter()
                try:
                    return super().solve()
                finally:
                    dt = perf_counter() - start
                    acc[CLI_CHILDREN] += dt
                    acc[_median_key(self)] += dt

        self._undo.append((cli, "MedianProblem", problem_cls))
        cli.MedianProblem = TracedMedianProblem

        # cli -> zonotope, empirical, gauss
        for name in ("intrinsic_volume", "wills_functional", "symmetrize_sample", "norm_reduction_check"):
            self._patch(cli, name, self._cli_child())
        self._patch(cli, "theorem1_check", self._cli_child("empirical.theorem1_s"))
        self._patch(cli, "conjecture_explorer", self._cli_child("empirical.explore_s"))
        self._patch(cli, "sphere_iterate", self._cli_child("gauss.spherize_s"))

        def mc(args, kwargs, dt):
            zono, j, samples = args[:3]
            acc[CLI_CHILDREN] += dt
            acc["zonotope.mc_s"] += dt
            acc["zonotope.mc_dets"] += samples * _subsets(zono.num_generators, zono.dim, j)

        self._patch(cli, "mc_intrinsic_volume", mc)

        # medians -> zonotope
        def kernel(args, kwargs, dt):
            acc["medians.kernel_calls"] += 1
            acc["medians.kernel_s"] += dt

        self._patch(medians, "intrinsic_volume_of_generators", kernel)
        self._patch(medians, "wills_of_generators", kernel)

        # zonotope -> its exact subset-volume kernel
        def exact(args, kwargs, dt):
            gens, j = args[:2]
            m, d = gens.shape
            acc["zonotope.exact_calls"] += 1
            acc["zonotope.exact_plane_s" if d <= 2 else "zonotope.exact_space_s"] += dt
            acc["zonotope.subsets"] += _subsets(m, d, j)

        self._patch(zonotope, "intrinsic_volume_of_generators", exact)

        # empirical -> regression, scipy.spatial, polygon
        def regression(args, kwargs, dt):
            sample, _, cfg = args[:3]
            if cfg.method == "exact_linear":
                key = "empirical.ols_s"
            else:
                key = "empirical.knn_plane_s" if sample.dim <= 2 else "empirical.knn_space_s"
            acc[key] += dt

        self._patch(empirical, "_conditional_mean", regression)

        tree_cls = empirical.cKDTree

        class CountingTree(tree_cls):
            def query(self, x, k=1, *args, **kwargs):
                result = super().query(x, k, *args, **kwargs)
                acc["empirical.tree_queries"] += len(x)
                acc["empirical.neighbours"] += len(x) * k
                return result

        self._undo.append((empirical, "cKDTree", tree_cls))
        empirical.cKDTree = CountingTree

        def distances(args, kwargs, dt):
            acc["polygon.distances_s"] += dt

        def clip(args, kwargs, dt):
            acc["polygon.clip_calls"] += 1
            acc["polygon.clip_s"] += dt

        self._patch(empirical, "distances_to_polygon", distances)
        self._patch(empirical, "clip_polygon_to_rect", clip)

        # gauss: one symmetrization per spherization step
        def step(args, kwargs, dt):
            acc["gauss.steps"] += 1

        self._patch(gauss, "symmetrize_gaussian", step)

    def remove(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def round_metrics(self, round_wall: float) -> dict[str, float]:
        """Per-layer values of the round just run; round_wall is its job time."""
        acc = self.acc
        out = {name: float(acc[name]) for name in LAYER_METRICS if name in acc}
        out["cli.self_s"] = round_wall - acc[CLI_CHILDREN]
        exact_s = acc["zonotope.exact_plane_s"] + acc["zonotope.exact_space_s"]
        out["zonotope.subsets_per_s"] = acc["zonotope.subsets"] / exact_s if exact_s > 0 else 0.0
        mc_s = acc["zonotope.mc_s"]
        out["zonotope.mc_dets_per_s"] = acc["zonotope.mc_dets"] / mc_s if mc_s > 0 else 0.0
        return out
