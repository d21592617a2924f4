"""Working sets of the sample commands' layers, of the polar tables and of
the subset-volume kernel: each holds at most a fixed budget beyond its
inputs and its output, whatever the sample's size.  The median face forms
hold at most half of what they held when built by QR, and no more than
their size guard charges.

tracemalloc sees the buffers numpy allocates, so a temporary as large as
the input shows here as bytes, not as a resident-set reading that depends
on the allocator.
"""

import math
import re
import tracemalloc

import numpy as np

from zonomed import cli, empirical, zonotope
from zonomed.cli import _read_csv, main
from zonomed.directions import sphere_directions
from zonomed.errors import ZonomedError
from zonomed.empirical import (
    EmpiricalSample,
    NormReduction,
    RegressorConfig,
    _conditional_mean,
    _symmetry_statistic,
    norm_reduction_check,
)
from zonomed.medians import _face_forms, _polar_evaluator, vj_objective
from zonomed.polygon import ConvexPolygon2D, distances_to_polygon
from zonomed.zonotope import PointCloud, intrinsic_volume_of_generators
from conftest import face_form_charge

MB = 2**20


def traced_peak(fn):
    """fn() and the peak of the bytes traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distances_to_polygon():
    angles = np.linspace(0.0, 2.0 * math.pi, 19)[:-1]
    poly = ConvexPolygon2D(np.column_stack([np.cos(angles), 0.7 * np.sin(angles)]))
    pts = np.random.default_rng(1).uniform(-1.5, 1.5, size=(200_000, 2))
    out, peak = traced_peak(lambda: distances_to_polygon(pts, poly))
    assert peak <= 1 * MB + out.nbytes


def test_read_csv(tmp_path):
    path = tmp_path / "sample.csv"
    rows = np.random.default_rng(2).standard_normal((50_000, 3))
    path.write_text("x,y,z\n" + "".join("%r,%r,%r\n" % tuple(r) for r in rows.tolist()))
    out, peak = traced_peak(lambda: _read_csv(str(path)))
    assert out.tobytes() == rows.tobytes()
    assert peak <= 1 * MB + out.nbytes


def test_sample_writer(tmp_path, monkeypatch):
    draws = np.random.default_rng(3).standard_normal((50_000, 3))
    reduction = NormReduction(1.0, 0.5, 0.5, 0.5, EmpiricalSample(draws))
    monkeypatch.setattr(cli, "_read_csv", lambda path: draws)
    monkeypatch.setattr(cli, "norm_reduction_check", lambda *args: reduction)
    out = tmp_path / "sym.csv"
    argv = ["empirical", "symmetrize", "--input", "in.csv", "--u", "0,0,1",
            "--method", "exact_linear", "--output-sample", str(out),
            "--output", str(tmp_path / "report.json")]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0 and out.stat().st_size > 50_000 * 3 * 10
    assert peak <= 2 * MB


def test_knn_conditional_mean():
    # two full blocks, so one block's indices must be freed before the next query
    k = 16
    draws = np.random.default_rng(4).standard_normal((2 * (empirical._BLOCK // k), 3))
    sample = EmpiricalSample(draws)
    u = np.array([0.0, 0.6, 0.8])
    empirical.cKDTree  # imports scipy before the tracing starts
    out, peak = traced_peak(lambda: _conditional_mean(sample, u, RegressorConfig("knn", k=k)))
    # a block's distances and indices, 16 bytes per neighbour, plus the
    # projections, u'X and the tree's indices, 4/3 of the draws in R^3
    block = 16 * empirical._BLOCK
    assert peak <= block + 2 * draws.nbytes + out.nbytes


def test_exact_linear():
    # the shifted draws go into one buffer, which first holds the
    # conditional means; the regression, the spread and roundoff checks and
    # the mean squares run over blocks, so no more than a few blocks of
    # _BLOCK floats are held beside it, whatever N is
    u = np.array([0.0, 0.6, 0.8])
    for n in (50_000, 200_000):
        sample = EmpiricalSample(np.random.default_rng(n).standard_normal((n, 3)))
        cfg = RegressorConfig("exact_linear")
        reduction, peak = traced_peak(lambda: norm_reduction_check(sample, u, cfg))
        assert peak <= reduction.symmetrized.draws.nbytes + 4 * 8 * empirical._BLOCK


def test_symmetry_statistic():
    # the probe values go over blocks of draws, so the peak does not grow with N
    for n in (10_000, 200_000):
        draws = np.random.default_rng(n).standard_normal((n, 3))
        _, peak = traced_peak(lambda: _symmetry_statistic(draws))
        assert peak <= 3 * 8 * empirical._BLOCK


def test_exact_sum():
    # the rows kept from each block are compressed again every 64 blocks, so
    # they do not grow with the number of blocks
    rng = np.random.default_rng(7)
    for count in (64, 6400):
        blocks = [rng.random((64, 1)) * 10.0 ** rng.integers(-20, 20) for _ in range(count)]
        expected = math.fsum(np.concatenate(blocks).ravel().tolist())
        total, peak = traced_peak(lambda: zonotope._exact_sum(iter(blocks)))
        assert total == [expected] and peak <= 64 * 1024


def test_polar_tables():
    # the sorted projections and S_n - 2 S_k, (M, n) and (M, n + 1) floats,
    # are built in place: no sorted copy, no second prefix-sum table
    n, m = 1000, 1024
    pts = np.random.default_rng(5).standard_normal((n, 2))
    directions = sphere_directions(2, m)
    _, peak = traced_peak(lambda: _polar_evaluator(pts, directions))
    assert peak <= 8 * m * (2 * n + 1) + 1 * MB


def test_polar_evaluation():
    # the ranks come from a search of the sorted tables, so one call holds
    # no (M, n) temporary beside them
    pts = np.random.default_rng(6).standard_normal((20_000, 2))
    evaluate = _polar_evaluator(pts, sphere_directions(2, 1024))
    values, peak = traced_peak(lambda: evaluate(np.array([[0.1, -0.2]])))
    assert np.all(np.isfinite(values))
    assert peak <= 1.5 * MB


# Peaks of exact V_3 at (m, d) = (400, 3) and of V_4 at (100, 4) when the
# kernel wedged one block per largest element and summed _CHUNK-term
# buffers: 2.60 and 2.68 MB.  Grouping blocks must not raise them.  V_3 at
# (400, 3) now pivots onto the planar prefix sum (m >= _PIVOT_FROM), whose
# pivot slices must stay within the same bound.
KERNEL_PEAK = {(400, 3, 3): 2.60 * MB, (100, 4, 4): 2.68 * MB}


def exact_charge(gens, j):
    """The bytes the exact kernel's size guard charges for V_j of gens, read
    from its refusal under a budget of none."""
    budget, zonotope._SOLVE_BYTES = zonotope._SOLVE_BYTES, 0
    try:
        intrinsic_volume_of_generators(gens, j)
    except ZonomedError as refused:
        return int(re.search(r"needs (\d+) bytes", str(refused))[1])
    finally:
        zonotope._SOLVE_BYTES = budget
    raise AssertionError("no budget, yet V_j was computed")


def test_exact_kernel():
    for (m, d, j), bound in KERNEL_PEAK.items():
        gens = np.random.default_rng(m + d).standard_normal((m, d))
        value, peak = traced_peak(lambda: intrinsic_volume_of_generators(gens, j))
        assert math.isfinite(value) and peak <= bound
    # V_8 of 12 generators in R^12: the largest colex block of its 6-minor
    # table takes 1.4 M products, far past _CHUNK, and comes in slices, so
    # the build holds no more than the size guard charges (8.4 MB)
    gens = np.random.default_rng(24).standard_normal((12, 12))
    value, peak = traced_peak(lambda: intrinsic_volume_of_generators(gens, 8))
    assert math.isfinite(value) and peak <= exact_charge(gens, 8)


def test_batched_objective():
    # a 13^3 grid of query points at (n, d, j) = (7, 3, 3), and a 5^3 grid
    # at n = _PIVOT_FROM, where V_3 pivots: the batches keep every temporary
    # within _CHUNK elements, so the batch holds no more than the kernel's
    # budget above, beside the grid and its values
    for n, size in [(7, 13), (zonotope._PIVOT_FROM, 5)]:
        cloud = PointCloud(np.random.default_rng(9).standard_normal((n, 3)))
        axis = np.linspace(-2.0, 2.0, size)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        values, peak = traced_peak(lambda: vj_objective(grid, cloud, 3))
        assert values.shape == (size**3,)
        assert peak <= KERNEL_PEAK[400, 3, 3] + values.nbytes


# Peaks of the face forms of the Oja median at (n, d) = (60, 3) and of the
# Wills median at (40, 3) when every subset's form came from a batched
# complete QR over a list of every subset's indices: 12 086 479 and
# 3 575 216 bytes.  The forms from the kernel's minors, filled block by
# block into arrays allocated once, must take at most half.
FACE_FORM_PEAK = {(60, (3,)): 12_086_479 // 2, (40, (1, 2, 3)): 3_575_216 // 2}


def test_face_forms():
    # beside the QR bounds, the build holds no more than the size guard
    # charges: at those sizes, for 50 MB of d = 3 Oja forms, for d = 15
    # order-7 forms (a 5 MB wedge table) and for the d = 10 Oja median,
    # whose middle minor tables outgrow its one form
    cases = [(60, 3, (3,)), (40, 3, (1, 2, 3)), (170, 3, (3,)), (8, 15, (7,)), (11, 10, (10,))]
    for n, d, orders in cases:
        pts = np.random.default_rng(n).standard_normal((n, d))
        groups, peak = traced_peak(lambda: _face_forms(pts, orders))
        assert len(groups[-1][1]) == math.comb(n, orders[-1])
        assert peak <= FACE_FORM_PEAK.get((n, orders), math.inf)
        assert peak <= face_form_charge(pts, orders)
