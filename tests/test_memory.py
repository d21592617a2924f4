"""Working sets of the sample commands' layers and of the polar tables: each
holds at most a fixed budget beyond its inputs and its output, whatever the
sample's size.

tracemalloc sees the buffers numpy allocates, so a temporary as large as
the input shows here as bytes, not as a resident-set reading that depends
on the allocator.
"""

import math
import tracemalloc

import numpy as np

from zonomed import cli, empirical
from zonomed.cli import _read_csv, main
from zonomed.directions import sphere_directions
from zonomed.empirical import EmpiricalSample, NormReduction, RegressorConfig, _conditional_mean
from zonomed.medians import _polar_evaluator
from zonomed.polygon import ConvexPolygon2D, distances_to_polygon

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
    k = 128
    draws = np.random.default_rng(4).standard_normal((2 * (empirical._QUERY_NEIGHBOURS // k), 3))
    sample = EmpiricalSample(draws)
    u = np.array([0.0, 0.6, 0.8])
    empirical.cKDTree  # imports scipy before the tracing starts
    out, peak = traced_peak(lambda: _conditional_mean(sample, u, RegressorConfig("knn", k=k)))
    # a block's distances and indices, 16 bytes per neighbour, plus the
    # projections and the tree's copy of them
    block = 16 * empirical._QUERY_NEIGHBOURS
    assert peak <= block + 6 * draws.nbytes + out.nbytes


def test_polar_tables():
    # the sorted projections and S_n - 2 S_k, (M, n) and (M, n + 1) floats,
    # are built in place: no sorted copy, no second prefix-sum table
    n, m = 1000, 1024
    pts = np.random.default_rng(5).standard_normal((n, 2))
    directions = sphere_directions(2, m)
    _, peak = traced_peak(lambda: _polar_evaluator(pts, directions))
    assert peak <= 8 * m * (2 * n + 1) + 1 * MB
