"""CLI behavior: determinism, exit codes, file handling."""

import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zonomed
from zonomed import cli, empirical
from zonomed.cli import _read_csv, main
from zonomed.empirical import EmpiricalSample, RegressorConfig, symmetrize_sample


@pytest.fixture
def tri_csv(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("x,y\n0,0\n1,0\n0.5,{}\n".format(math.sqrt(3.0) / 2.0))
    return str(path)


@pytest.fixture
def gens_csv(tmp_path):
    path = tmp_path / "gens.csv"
    path.write_text("2,0\n0,3\n")
    return str(path)


@pytest.fixture
def gauss_json(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"mean": [1.0, 2.0], "cov": [[1.0, 0.0], [0.0, 4.0]]}))
    return str(path)


@pytest.fixture
def square_json(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    return str(path)


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(0)
    draws = rng.multivariate_normal([0, 0], [[1, 0], [0, 4]], size=2000)
    path = tmp_path / "sample.csv"
    path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in draws) + "\n")
    return str(path)


def run_to_file(args, out_path):
    code = main(args + ["--output", str(out_path)])
    return code, out_path.read_bytes()


def overflow_error(tmp_path, monkeypatch, capsys, argv, rows):
    """Run ``argv`` on ``rows`` as in.csv; it must exit 2 with one error
    line and no file.  A leaked numpy warning fails the run: pytest turns
    RuntimeWarning into an error."""
    monkeypatch.chdir(tmp_path)
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())
    (tmp_path / "in.csv").write_text(text)
    code = main(argv + ["--input", "in.csv", "--output", "out.json"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("zonomed: error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]
    return err


class TestMedianCommand:
    def test_triangle_centroid(self, tri_csv, tmp_path):
        out = tmp_path / "res.json"
        code, raw = run_to_file(
            ["median", "--objective", "vj", "--j", "1", "--input", tri_csv, "--seed", "7"],
            out,
        )
        assert code == 0
        payload = json.loads(raw)
        np.testing.assert_allclose(payload["argmin"], [0.5, 0.28867513], atol=1e-6)
        assert payload["converged"] is True
        assert payload["config"]["seed"] == 7

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\nnot,numbers\n")
        code = main(["median", "--objective", "vj", "--j", "1", "--input", str(bad), "--seed", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_non_convergence_exit_3_still_writes(self, tri_csv, tmp_path):
        out = tmp_path / "res.json"
        code, raw = run_to_file(
            [
                "median", "--objective", "vj", "--j", "1", "--input", tri_csv,
                "--seed", "1", "--max-iter", "1", "--tolerance", "1e-14",
            ],
            out,
        )
        assert code == 3
        assert json.loads(raw)["converged"] is False

    def test_wills_step_cap_exit_3(self, tri_csv, tmp_path):
        out = tmp_path / "res.json"
        code, raw = run_to_file(
            ["median", "--objective", "wills", "--input", tri_csv, "--seed", "1",
             "--max-iter", "1"],
            out,
        )
        assert code == 3
        assert json.loads(raw)["converged"] is False

    def test_trace_emitted(self, tri_csv, tmp_path):
        out = tmp_path / "res.json"
        _, raw = run_to_file(
            ["median", "--objective", "vj", "--j", "1", "--input", tri_csv,
             "--seed", "2", "--emit-trace"],
            out,
        )
        payload = json.loads(raw)
        assert len(payload["trace"]) == payload["iterations"]

    @pytest.mark.parametrize(
        "objective, shape, scale, name",
        [
            (["vj", "--j", "4"], (9, 4), 1e110, "the V_4 value"),
            (["vj", "--j", "2"], (10, 3), 1e160, "the V_2 value"),
            (["polar"], (12, 2), 1e-300, "the polar value"),
        ],
        ids=["volumes", "squares", "polar"],
    )
    def test_overflow_exit_2(self, tmp_path, monkeypatch, capsys, objective, shape, scale, name):
        # the solve runs on the cloud divided by a power of two; only the
        # value mapped back (about 1e440, 1e320 and 1e598) passes float64
        points = np.random.default_rng(0).standard_normal(shape) * scale
        argv = ["median", "--objective", *objective, "--seed", "1"]
        err = overflow_error(tmp_path, monkeypatch, capsys, argv, points)
        assert f"{name} " in err and "overflows float64" in err

    def test_huge_l1_cloud_solves(self, tmp_path):
        # V_1 is about 1e201; the start test used to call it an overflow
        points = np.random.default_rng(0).standard_normal((12, 2))
        path = tmp_path / "in.csv"
        path.write_text("".join(f"{a!r},{b!r}\n" for a, b in (points * 1e200).tolist()))
        argv = ["median", "--objective", "vj", "--j", "1", "--seed", "1", "--input", str(path)]
        code, raw = run_to_file(argv, tmp_path / "out.json")
        assert code == 0
        base = zonomed.v1_median(zonomed.PointCloud(points))
        np.testing.assert_allclose(json.loads(raw)["argmin"], base.argmin * 1e200, rtol=1e-12)

    def test_power_of_two_sweep(self, tmp_path, monkeypatch, capsys):
        """The cloud 2^k X for k = -1000 ... 1000: each solve repeats the
        solve of X bit for bit, or exits 2 naming the value past float64."""
        monkeypatch.chdir(tmp_path)
        points = np.random.default_rng(0).standard_normal((6, 2))
        runs = [(["vj", "--j", "1"], 1, "V_1"), (["vj", "--j", "2"], 2, "V_2"),
                (["wills"], None, "Wills"), (["polar"], -2, "polar")]
        start = time.perf_counter()
        base = {}
        for k in [0] + list(range(-1000, 1001, 100)):
            rows = np.ldexp(points, k).tolist()
            (tmp_path / "in.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in rows))
            for objective, degree, name in runs:
                code = main(["median", "--seed", "1", "--input", "in.csv", "--output", "out.json",
                             "--objective", *objective])
                err = capsys.readouterr().err
                if code == 2:
                    assert err.startswith(f"zonomed: error: the {name} value ") and err.count("\n") == 1
                    assert "overflows float64" in err
                    continue
                assert code == 0 and err == ""
                out = json.loads((tmp_path / "out.json").read_text())
                got = (out["argmin"], out["value"], out["iterations"], out["non_unique"])
                base.setdefault(degree, got)
                if degree is not None:
                    argmin, value, iterations, non_unique = base[degree]
                    assert got == (np.ldexp(argmin, k).tolist(), float(np.ldexp(value, degree * k)),
                                   iterations, non_unique)
        assert len(base) == 4
        assert time.perf_counter() - start < 15.0

    def test_wills_objective(self, tri_csv, tmp_path):
        out = tmp_path / "res.json"
        code, raw = run_to_file(
            ["median", "--objective", "wills", "--input", tri_csv, "--seed", "3"], out
        )
        assert code == 0
        assert json.loads(raw)["value"] > 1.0


class TestIntrinsicCommand:
    def test_box_values(self, gens_csv, tmp_path):
        out = tmp_path / "res.json"
        code, raw = run_to_file(["intrinsic", "--input", gens_csv], out)
        assert code == 0
        payload = json.loads(raw)
        assert payload["V"] == [1.0, 5.0, 6.0]
        assert payload["wills"] == 12.0
        assert "mc" not in payload

    def test_mc_estimates_close(self, gens_csv, tmp_path):
        out = tmp_path / "res.json"
        _, raw = run_to_file(
            ["intrinsic", "--input", gens_csv, "--mc", "50000", "--seed", "5"], out
        )
        payload = json.loads(raw)
        for j, exact in (("1", 5.0), ("2", 6.0)):
            est = payload["mc"][j]
            assert abs(est["estimate"] - exact) <= 4.0 * est["std_error"]

    @pytest.mark.parametrize("scale, j", [(1e102, 3), (1e160, 2)], ids=["sum", "squares"])
    def test_overflow_exit_2(self, tmp_path, monkeypatch, capsys, scale, j):
        # the first V_j past float64 is named: V_3 (about 1e310) at 1e102,
        # although the squared 2 x 2 minors already pass it, and V_2 at 1e160
        gens = np.random.default_rng(0).standard_normal((40, 3)) * scale
        err = overflow_error(tmp_path, monkeypatch, capsys, ["intrinsic"], gens)
        assert f"computing V_{j} of these generators overflows float64" in err

    def test_mc_without_seed_rejected(self, gens_csv, tmp_path):
        code = main(["intrinsic", "--input", gens_csv, "--mc", "100"])
        assert code == 2


class TestGaussCommand:
    def test_spherize(self, gauss_json, tmp_path):
        out = tmp_path / "res.json"
        code, raw = run_to_file(["gauss", "--input", gauss_json, "--spherize"], out)
        assert code == 0
        payload = json.loads(raw)
        np.testing.assert_allclose(payload["mean"], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(payload["cov"], 2.0 * np.eye(2), atol=1e-8)
        dets = [s["det"] for s in payload["trace"] if s["kind"] == "eigen"]
        np.testing.assert_allclose(dets, dets[0], rtol=1e-10)

    def test_single_direction(self, gauss_json, tmp_path):
        out = tmp_path / "res.json"
        code, raw = run_to_file(["gauss", "--input", gauss_json, "--u", "1,1"], out)
        assert code == 0
        payload = json.loads(raw)
        eigs = np.linalg.eigvalsh(np.asarray(payload["cov"]))
        np.testing.assert_allclose(eigs, [1.6, 2.5], rtol=1e-10)

    def test_nan_direction_exit_2(self, gauss_json, capsys):
        assert main(["gauss", "--input", gauss_json, "--u", "nan,1"]) == 2
        assert "direction must be a unit vector" in capsys.readouterr().err

    def test_direction_of_wrong_dimension_exit_2(self, gauss_json, capsys):
        assert main(["gauss", "--input", gauss_json, "--u", "1,0,0"]) == 2
        assert "direction has dimension 3, covariance has 2" in capsys.readouterr().err

    def test_non_symmetric_cov_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mean": [0, 0], "cov": [[1, 0.5], [0.1, 1]]}))
        assert main(["gauss", "--input", str(bad), "--spherize"]) == 2

    def test_det_overflow_names_its_path(self, tmp_path, monkeypatch, capsys):
        # every state stays finite, but each step's det = prod(eigenvalues)
        # passes float64: the error names those leaves and no file is written
        monkeypatch.chdir(tmp_path)
        cov = np.diag([1.0, 2.0, 3.0]) * 1e300
        (tmp_path / "big.json").write_text(json.dumps({"mean": [0.0] * 3, "cov": cov.tolist()}))
        assert main(["gauss", "--input", "big.json", "--spherize", "--output", "out.json"]) == 2
        err = capsys.readouterr().err
        head = "zonomed: error: not finite, so not strict JSON: "
        assert err.startswith(head + "trace[0].det, trace[1].det, ") and err.count("\n") == 1
        names = err[len(head):].strip().split(", ")
        assert names == [f"trace[{i}].det" for i in range(len(names))]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]

    @pytest.mark.parametrize(
        "mean, argv, plain_mean, plain_argv",
        [
            (0.0, ["--u", "1e-160,0,0"], 0.0, ["--u", "1,0,0"]),
            (0.0, ["--u", "1e200,1e200,0"], 0.0, ["--u", "1,1,0"]),
            (1e-160, ["--spherize"], 1.0, ["--spherize"]),
        ],
        ids=["tiny-u", "huge-u", "tiny-mean"],
    )
    def test_direction_of_tiny_or_huge_vector(self, tmp_path, mean, argv, plain_mean, plain_argv):
        # the norm is taken of v / max|v|, so it neither underflows nor
        # overflows (a RuntimeWarning fails the run)
        def run(mean, argv):
            path = tmp_path / "state.json"
            path.write_text(json.dumps({"mean": [mean, 0.0, 0.0], "cov": np.diag([1.0, 2.0, 3.0]).tolist()}))
            code, raw = run_to_file(["gauss", "--input", str(path)] + argv, tmp_path / "out.json")
            payload = json.loads(raw)
            del payload["config"]
            return code, payload

        assert run(mean, argv) == run(plain_mean, plain_argv)

    def test_negative_max_iter_exit_2(self, gauss_json, capsys):
        assert main(["gauss", "--input", gauss_json, "--spherize", "--max-iter", "-3"]) == 2
        assert "max_iter must be nonnegative, got -3" in capsys.readouterr().err

    def test_spherical_input_zero_eigen_steps(self, tmp_path):
        path = tmp_path / "iso.json"
        path.write_text(json.dumps({"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}))
        out = tmp_path / "res.json"
        _, raw = run_to_file(["gauss", "--input", str(path), "--spherize"], out)
        assert json.loads(raw)["trace"] == []


class TestEmpiricalCommand:
    def test_symmetrize_writes_sample(self, sample_csv, tmp_path):
        out = tmp_path / "report.json"
        out_csv = tmp_path / "sym.csv"
        code = main(
            ["empirical", "symmetrize", "--input", sample_csv, "--u", "1,1",
             "--method", "exact_linear", "--output-sample", str(out_csv),
             "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["decrease"] == pytest.approx(
            payload["regression_mean_square"], abs=1e-10
        )
        data = np.loadtxt(out_csv, delimiter=",")
        assert data.shape == (2000, 2)

    def test_symmetrize_runs_one_regression(self, sample_csv, tmp_path, monkeypatch):
        calls = []
        regress = empirical._conditional_mean

        def counting(*args):
            calls.append(args)
            return regress(*args)

        monkeypatch.setattr(empirical, "_conditional_mean", counting)
        out = tmp_path / "report.json"
        out_csv = tmp_path / "sym.csv"
        code = main(
            ["empirical", "symmetrize", "--input", sample_csv, "--u", "1,1",
             "--method", "knn", "--output-sample", str(out_csv), "--output", str(out)]
        )
        assert code == 0
        assert len(calls) == 1
        sample = EmpiricalSample(np.loadtxt(sample_csv, delimiter=","))
        u = np.array([1.0, 1.0]) / np.linalg.norm([1.0, 1.0])
        expected = symmetrize_sample(sample, u, RegressorConfig("knn"))
        np.testing.assert_array_equal(np.loadtxt(out_csv, delimiter=","), expected.draws)

    def test_theorem1(self, square_json, tmp_path):
        out = tmp_path / "rep.json"
        code, raw = run_to_file(
            ["empirical", "theorem1", "--polygon", square_json, "--u", "1,1",
             "--n", "20000", "--seed", "4"],
            out,
        )
        assert code == 0
        payload = json.loads(raw)
        assert payload["inside_fraction"] >= 0.99
        assert payload["area_rel_error"] < 1e-12

    @pytest.mark.parametrize("k", [-20, -60, -400])
    def test_theorem1_on_a_scaled_square(self, tmp_path, k):
        # the symmetral's and the pruning's tolerances are relative to the
        # polygon's size; absolute floors emptied the symmetral of a 1e-6 square
        def run(k):
            path = tmp_path / "square.json"
            square = np.ldexp([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], k)
            path.write_text(json.dumps({"vertices": square.tolist()}))
            argv = ["empirical", "theorem1", "--polygon", str(path), "--u", "1,1",
                    "--n", "2000", "--seed", "4"]
            code, raw = run_to_file(argv, tmp_path / "rep.json")
            assert code == 0
            return json.loads(raw)

        base, scaled = run(0), run(k)
        for key in ("inside_fraction", "chi_square_dof"):
            assert scaled[key] == base[key]
        assert scaled["area_rel_error"] <= 1e-12

    @pytest.mark.parametrize("scale", [1e-160, 1e150])
    def test_theorem1_distances_on_an_extreme_square(self, tmp_path, scale):
        # squared edge lengths of the 1e-160 square underflow unless the
        # distances are computed on the polygon divided by a power of two; a
        # RuntimeWarning fails the test
        def run(scale):
            path = tmp_path / "square.json"
            square = scale * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
            path.write_text(json.dumps({"vertices": square.tolist()}))
            argv = ["empirical", "theorem1", "--polygon", str(path), "--u", "1,1",
                    "--n", "2000", "--seed", "11"]
            code, raw = run_to_file(argv, tmp_path / "rep.json")
            assert code == 0
            return json.loads(raw)

        base, scaled = run(1.0), run(scale)
        for key in ("inside_fraction", "chi_square_dof"):
            assert scaled[key] == base[key]

    def test_theorem1_on_a_huge_square_names_only_the_areas(self, tmp_path, capsys):
        # the areas of the 1e300 square leave float64; its diameter, the
        # relative area error and delta do not, and no RuntimeWarning leaks
        path = tmp_path / "square.json"
        square = 1e300 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        path.write_text(json.dumps({"vertices": square.tolist()}))
        argv = ["empirical", "theorem1", "--polygon", str(path), "--u", "1,1",
                "--n", "2000", "--seed", "11", "--output", str(tmp_path / "rep.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "zonomed: error: not finite, so not strict JSON: area_original, area_symmetral\n"
        assert not (tmp_path / "rep.json").exists()

    def test_explore_emits_one_line_per_step(self, sample_csv, tmp_path):
        out = tmp_path / "steps.jsonl"
        code = main(
            ["empirical", "explore", "--input", sample_csv, "--steps", "5",
             "--policy", "cyclic_axes", "--method", "exact_linear",
             "--seed", "9", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5
        assert json.loads(lines[0])["step"] == 1

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["empirical", "symmetrize", "--u", "1,0", "--method", "exact_linear",
              "--output-sample", "sym.csv"], "1e200,1\n-1e200,2\n3,4\n5,6\n"),
            (["empirical", "explore", "--steps", "2", "--policy", "cyclic_axes",
              "--method", "exact_linear", "--seed", "1"], "1,3\n2,3\n4,3\n-1,3\n"),
        ],
        ids=["overflow", "singular-covariance"],
    )
    def test_non_finite_output_exit_2(self, tmp_path, monkeypatch, capsys, argv, text):
        # before_mean_square overflows to inf (decrease is nan); a constant
        # column makes the anisotropy inf.  Strict JSON has neither, so the
        # command fails before it writes any file.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.csv").write_text(text)
        with np.errstate(all="ignore"):
            code = main(argv + ["--input", "in.csv", "--output", "out.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("zonomed: error:") and "JSON" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    @pytest.mark.parametrize(
        "argv",
        [["empirical", "symmetrize", "--u", "1,0,0", "--output-sample", "sym.csv"],
         ["empirical", "explore", "--steps", "2", "--seed", "1"]],
        ids=["symmetrize", "explore"],
    )
    def test_knn_tree_overflow_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        # finite draws whose squared distances overflow in the kd-tree are an
        # input error, found before the tree is built and before any file
        monkeypatch.chdir(tmp_path)
        draws = (np.random.default_rng(40).standard_normal((40, 3)) * 1e155).tolist()
        (tmp_path / "in.csv").write_text("".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in draws))
        code = main(argv + ["--method", "knn", "--input", "in.csv", "--output", "out.json"])
        assert code == 2
        assert "kd-tree" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    def test_overflow_names_the_quantities(self, tmp_path, monkeypatch, capsys):
        # the mean squares and the residual variance pass float64
        draws = np.random.default_rng(0).standard_normal((40, 3)) * 1e155
        argv = ["empirical", "symmetrize", "--u", "1,0,0", "--method", "exact_linear"]
        assert overflow_error(tmp_path, monkeypatch, capsys, argv, draws) == (
            "zonomed: error: not finite, so not strict JSON: after_mean_square, "
            "before_mean_square, decrease, regression_mean_square\n"
        )

    def test_explore_covariance_overflow_exit_2(self, tmp_path, monkeypatch, capsys):
        # the symmetrized draws' covariance passes float64 in np.cov
        draws = np.random.default_rng(0).standard_normal((40, 3)) * 1e155
        argv = ["empirical", "explore", "--method", "exact_linear", "--steps", "2", "--seed", "1"]
        assert overflow_error(tmp_path, monkeypatch, capsys, argv, draws) == (
            "zonomed: error: the sample covariance after step 1 overflows float64\n"
        )

    def test_explore_one_draw_exit_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("1,2\n")
        code = main(["empirical", "explore", "--input", str(path), "--steps", "2", "--seed", "1"])
        assert code == 2
        assert "need at least 2 draws to estimate a covariance, got 1" in capsys.readouterr().err

    def test_k_exceeds_n_exit_2(self, sample_csv):
        code = main(
            ["empirical", "symmetrize", "--input", sample_csv, "--u", "1,0",
             "--method", "knn", "--k", "999999"]
        )
        assert code == 2


_MEDIAN = {"argmin", "config", "converged", "iterations", "non_unique", "value"}
_MEDIAN_CONFIG = {
    "command", "emit_trace", "input", "j", "max_iter", "multistarts", "objective", "seed",
    "tolerance", "version",
}
_GAUSS = {"config", "converged", "cov", "mean", "trace"}
_GAUSS_CONFIG = {"command", "input", "max_iter", "spherize", "tol", "u", "version"}
_STEP = {"det", "direction", "eigenvalues_after", "eigenvalues_before", "kind", "mean_norm",
         "trace"}
_EXPLORE = {
    "anisotropy", "config", "direction", "mean_norm", "mean_square_decrease",
    "mean_square_norm", "regression_mean_square", "step", "symmetry_stat",
}
_EXPLORE_CONFIG = {"command", "input", "k", "method", "policy", "seed", "steps", "version"}


class TestOutputSchema:
    """The exact keys each subcommand writes.  Payloads are built from the
    result dataclasses, so renaming a field changes the output; this is the
    test that notices.  ``inner`` names a key whose every item (list entry or
    dict value) must have the given key set."""

    @pytest.mark.parametrize(
        "argv, top, config, inner",
        [
            (["median", "--j", "2", "--input", "@tri_csv", "--seed", "1"],
             _MEDIAN, _MEDIAN_CONFIG, None),
            (["median", "--objective", "wills", "--input", "@tri_csv", "--seed", "1",
              "--emit-trace"], _MEDIAN | {"trace"}, _MEDIAN_CONFIG, None),
            (["intrinsic", "--input", "@gens_csv"], {"V", "config", "wills"},
             {"command", "input", "mc", "seed", "version"}, None),
            (["intrinsic", "--input", "@gens_csv", "--mc", "100", "--seed", "1"],
             {"V", "config", "mc", "wills"}, {"command", "input", "mc", "seed", "version"},
             ("mc", {"estimate", "std_error"})),
            (["gauss", "--input", "@gauss_json", "--u", "1,1"], _GAUSS, _GAUSS_CONFIG, None),
            (["gauss", "--input", "@gauss_json", "--spherize"], _GAUSS, _GAUSS_CONFIG,
             ("trace", _STEP)),
            (["empirical", "symmetrize", "--input", "@sample_csv", "--u", "1,1",
              "--output-sample", "sym.csv"],
             {"after_mean_square", "before_mean_square", "config", "decrease",
              "regression_mean_square"},
             {"command", "input", "k", "method", "u", "version"}, None),
            (["empirical", "theorem1", "--polygon", "@square_json", "--u", "1,1", "--n", "2000",
              "--seed", "1"],
             {"area_original", "area_rel_error", "area_symmetral", "chi_square",
              "chi_square_dof", "config", "delta", "inside_fraction", "n"},
             {"command", "delta", "k", "method", "n", "polygon", "seed", "u", "version"}, None),
            (["empirical", "explore", "--input", "@sample_csv", "--steps", "2", "--seed", "1"],
             _EXPLORE, _EXPLORE_CONFIG, None),
            (["empirical", "explore", "--input", "@sample_csv", "--steps", "2", "--seed", "1",
              "--policy", "cyclic_axes", "--method", "exact_linear"],
             _EXPLORE, _EXPLORE_CONFIG, None),
            (["empirical", "explore", "--input", "@sample_csv", "--steps", "2", "--seed", "1",
              "--policy", "max_anisotropy"], _EXPLORE, _EXPLORE_CONFIG, None),
        ],
        ids=["median", "median-trace", "intrinsic", "intrinsic-mc", "gauss-u", "gauss-spherize",
             "symmetrize", "theorem1", "explore-random", "explore-cyclic", "explore-anisotropy"],
    )
    def test_keys(self, request, tmp_path, monkeypatch, argv, top, config, inner):
        argv = [request.getfixturevalue(a[1:]) if a.startswith("@") else a for a in argv]
        monkeypatch.chdir(tmp_path)
        code, raw = run_to_file(argv, tmp_path / "out.json")
        assert code == 0
        lines = raw.decode().splitlines()
        assert len(lines) == (2 if argv[:2] == ["empirical", "explore"] else 1)
        for line in lines:
            payload = json.loads(line)
            assert set(payload) == top
            assert set(payload["config"]) == config
            if inner is not None:
                key, keys = inner
                items = payload[key]
                items = items.values() if isinstance(items, dict) else items
                assert items and all(set(item) == keys for item in items)

    def test_non_finite_paths(self):
        # strict JSON has no inf or nan: the error names each one by its path
        payload = {"a": 1.0, "b": {"c": [1.0, -math.inf]}, "d": np.array([[0.0, math.nan]]),
                   "e": "inf", "f": [{"g": np.float64(math.inf)}]}
        with pytest.raises(ValueError) as info:
            cli._dumps(payload)
        assert str(info.value) == "not finite, so not strict JSON: b.c[1], d[0][1], f[0].g"


class TestDeterminism:
    @pytest.mark.parametrize(
        "objective",
        [["--objective", "vj", "--j", "2"], ["--objective", "polar"]],
        ids=["vj", "polar"],
    )
    def test_median_byte_identical(self, objective, tri_csv, tmp_path):
        args = ["median", *objective, "--input", tri_csv, "--seed", "11"]
        _, a = run_to_file(args, tmp_path / "a.json")
        _, b = run_to_file(args, tmp_path / "b.json")
        assert a == b

    def test_intrinsic_byte_identical(self, gens_csv, tmp_path):
        args = ["intrinsic", "--input", gens_csv, "--mc", "5000", "--seed", "13"]
        _, a = run_to_file(args, tmp_path / "a.json")
        _, b = run_to_file(args, tmp_path / "b.json")
        assert a == b

    def test_gauss_byte_identical(self, gauss_json, tmp_path):
        args = ["gauss", "--input", gauss_json, "--spherize"]
        _, a = run_to_file(args, tmp_path / "a.json")
        _, b = run_to_file(args, tmp_path / "b.json")
        assert a == b

    def test_empirical_byte_identical(self, square_json, tmp_path):
        args = ["empirical", "theorem1", "--polygon", square_json, "--u", "1,1",
                "--n", "5000", "--seed", "15"]
        _, a = run_to_file(args, tmp_path / "a.json")
        _, b = run_to_file(args, tmp_path / "b.json")
        assert a == b

    def test_different_seed_differs(self, gens_csv, tmp_path):
        _, a = run_to_file(["intrinsic", "--input", gens_csv, "--mc", "5000", "--seed", "1"],
                           tmp_path / "a.json")
        _, b = run_to_file(["intrinsic", "--input", gens_csv, "--mc", "5000", "--seed", "2"],
                           tmp_path / "b.json")
        assert a != b


class TestParserReuse:
    """main parses with one parser per process: repeated in-process calls
    print, and exit, as a parser built for each call does."""

    @staticmethod
    def _run(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_repeated_calls_match_a_fresh_parser(self, gens_csv, capsys, monkeypatch):
        cases = [
            ["intrinsic", "--input", gens_csv],  # success, JSON on stdout
            ["intrinsic", "--input", gens_csv, "--mc", "100"],  # input error: no --seed
            ["intrinsic", "--mc", "100"],  # usage error: no --input
            ["--help"],
            ["empirical", "theorem1", "--help"],
        ]
        assert cli.build_parser() is cli.build_parser()
        cached = [[self._run(capsys, argv) for _ in range(3)] for argv in cases]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [self._run(capsys, argv) for argv in cases]
        for runs, want in zip(cached, fresh):
            assert runs == [want] * 3
        assert [code for code, _, _ in fresh] == [0, 2, 2, 0, 0]
        assert "the following arguments are required: --input" in fresh[2][2]
        assert "{median,intrinsic,gauss,empirical}" in fresh[3][1]


class TestInputHandling:
    def test_header_auto_detect(self, tmp_path):
        with_header = tmp_path / "h.csv"
        with_header.write_text("col_a,col_b\n1,2\n3,4\n")
        without = tmp_path / "n.csv"
        without.write_text("1,2\n3,4\n")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["intrinsic", "--input", str(with_header), "--output", str(out_a)])
        main(["intrinsic", "--input", str(without), "--output", str(out_b)])
        assert json.loads(out_a.read_text())["V"] == json.loads(out_b.read_text())["V"]

    def test_missing_file_exit_2(self):
        assert main(["intrinsic", "--input", "/nonexistent/x.csv"]) == 2

    def test_ragged_rows_exit_2(self, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("1,2\n3\n")
        assert main(["intrinsic", "--input", str(bad)]) == 2

    def test_stdout_output(self, gens_csv, capsys):
        code = main(["intrinsic", "--input", gens_csv])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["V"] == [1.0, 5.0, 6.0]


def _old_read_csv(path):
    """The per-field float() reader the bulk reader replaced, as a reference."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    start = 0
    try:
        [float(c) for c in lines[0].split(",")]
    except ValueError:
        start = 1
    return np.asarray([[float(c) for c in ln.split(",")] for ln in lines[start:]], dtype=float)


_finite = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e300]),
)


class TestCsvReader:
    @settings(max_examples=200, deadline=None)
    @given(
        cols=st.integers(1, 4),
        data=st.data(),
        fmt=st.sampled_from([repr, lambda v: "%.17g" % v]),
    )
    def test_bitwise_equal_to_per_field_parse(self, cols, data, fmt):
        rows = data.draw(
            st.lists(st.lists(_finite, min_size=cols, max_size=cols), min_size=1, max_size=8)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(",".join(map(fmt, row)) + "\n" for row in rows))
            got = _read_csv(path)
            want = _old_read_csv(path)
        assert got.dtype == want.dtype and got.shape == want.shape == (len(rows), cols)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a,b\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("\n1,2\n\n  \n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("x,y\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
            (" 1 ,  2\n3\t, 4 \n", [[1.0, 2.0], [3.0, 4.0]]),
            ("v\n1\n-2.5\n3e2\n", [[1.0], [-2.5], [300.0]]),
            ("1,2,3\n", [[1.0, 2.0, 3.0]]),
            ("x,y\n1,2\n", [[1.0, 2.0]]),
            ("v\n1\n", [[1.0]]),
        ],
        ids=["header", "blank-lines", "crlf", "spaces", "one-column", "one-row",
             "header-one-row", "header-one-value"],
    )
    def test_layouts(self, tmp_path, text, expected):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        got = _read_csv(str(path))
        np.testing.assert_array_equal(got, expected)
        assert got.shape == np.shape(expected)
        assert got.tobytes() == _old_read_csv(str(path)).tobytes()

    def test_long_file(self, tmp_path):
        # longer than np.loadtxt's 50 000-line chunk, with a header and with
        # blank and whitespace-only lines around that boundary
        rows = np.random.default_rng(9).standard_normal((60_000, 3))
        lines = [",".join(map(repr, row)) for row in rows.tolist()]
        for at in (50_002, 50_001, 50_000, 49_999):
            lines.insert(at, " \t " if at % 2 else "")
        path = tmp_path / "long.csv"
        path.write_text("a,b,c\n" + "\n".join(lines) + "\n")
        got = _read_csv(str(path))
        assert got.shape == (60_000, 3)
        assert got.tobytes() == _old_read_csv(str(path)).tobytes() == rows.tobytes()

    # a warning, such as numpy's "input contained no data", is an error here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text",
        ["1,2\n3\n4,5\n", "1,2\n3,4 # note\n", "", "\n \n", "x,y\n", "x,y\n\n \n",
         "1_0,2\n3,4\n", "1,2x\n3,4\n", "# note\n1,2\n", "x,y\n1,2,3\n", "x,y\n1,2\n3,4,5\n"],
        ids=["ragged", "trailing-comment", "empty", "blank-only", "header-only", "header-blanks",
             "underscore", "first-row-typo", "leading-comment", "header-width", "ragged-after-header"],
    )
    def test_malformed_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["intrinsic", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"zonomed: error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,y\n\n1,2\n3\n", "line 4: 1 field, expected 2"),
            ("1,2\n3,4x\n", "line 2: '4x' is not a number"),
            ("1,2x\n3,4\n", "line 1: '2x' is not a number"),
            ("a,b\r\n\r\n1,2\r\n \r\n3,4,5\r\n", "line 5: 3 fields, expected 2"),
            ("1,2\n3, 4 # note\n", "line 2: '4 # note' is not a number"),
            ("1,2\n3,\n", "line 2: '' is not a number"),
            ("1,2\n1_0,2\n", "line 2: '1_0' is not a number"),
            ("1,2\n3,\u0661\n", "line 2: '\u0661' is not a number"),
        ],
        ids=["ragged", "typo", "first-row-typo", "crlf-blanks", "comment", "empty-field",
             "underscore", "arabic-digit"],
    )
    def test_malformed_names_the_line(self, tmp_path, capsys, text, message):
        # the line is the file's own, 1-based, with header and blank lines counted
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        assert main(["intrinsic", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"zonomed: error: {path}: {message}\n"

    def test_output_sample_bytes(self, tmp_path):
        # u = e_2 leaves the first coordinate as read, so the extreme values
        # below reach the writer unchanged
        rng = np.random.default_rng(5)
        draws = rng.standard_normal((40, 2))
        draws[:6, 0] = [-0.0, 5e-324, -1e-300, 1e150, 0.1, -123456789.125]
        src = tmp_path / "in.csv"
        src.write_text("".join(f"{a!r},{b!r}\n" for a, b in draws.tolist()))
        out_csv = tmp_path / "sym.csv"
        code = main(
            ["empirical", "symmetrize", "--input", str(src), "--u", "0,1",
             "--method", "exact_linear", "--output-sample", str(out_csv),
             "--output", str(tmp_path / "report.json")]
        )
        assert code == 0
        shifted = symmetrize_sample(
            EmpiricalSample(draws), [0.0, 1.0], RegressorConfig("exact_linear")
        ).draws
        expected = "\n".join(",".join(repr(float(v)) for v in row) for row in shifted) + "\n"
        assert out_csv.read_bytes() == expected.encode()
        text = out_csv.read_text()
        assert "\n5e-324," in text and "\n1e+150," in text

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_output_sample_blocks(self, tmp_path, capsys, extra, to_stdout):
        # the sample is written a block of rows at a time; the bytes are the
        # whole sample's %r rendering in one piece
        n = cli._SAMPLE_VALUES // 3 + extra
        draws = np.random.default_rng(6).standard_normal((n, 3))
        src = tmp_path / "in.csv"
        src.write_text("".join(",".join(map(repr, row)) + "\n" for row in draws.tolist()))
        out_csv = "-" if to_stdout else str(tmp_path / "sym.csv")
        code = main(
            ["empirical", "symmetrize", "--input", str(src), "--u", "0,0,1",
             "--method", "exact_linear", "--output-sample", out_csv,
             "--output", str(tmp_path / "report.json")]
        )
        assert code == 0
        shifted = symmetrize_sample(
            EmpiricalSample(draws), [0.0, 0.0, 1.0], RegressorConfig("exact_linear")
        ).draws
        expected = "%r,%r,%r\n" * n % tuple(shifted.ravel().tolist())
        got = capsys.readouterr().out if to_stdout else (tmp_path / "sym.csv").read_text()
        assert got == expected


def _fresh_interpreter(code: str, cwd: Path) -> dict:
    """Run code in a new Python process with this zonomed importable; its
    last stdout line, parsed as JSON."""
    src = str(Path(zonomed.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_RUN_CLI = """
import json, sys
from zonomed.cli import main
code = main({argv!r})
print(json.dumps({{"code": code, "scipy": "scipy" in sys.modules,
                  "scipy.optimize": "scipy.optimize" in sys.modules}}))
"""


class TestLazyScipy:
    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(8)
        for name, (n, d) in {"plane": (60, 2), "space": (200, 3)}.items():
            rows = rng.standard_normal((n, d)).tolist()
            (tmp_path / f"{name}.csv").write_text(
                "".join(",".join(map(repr, row)) + "\n" for row in rows)
            )
        (tmp_path / "state.json").write_text(
            json.dumps({"mean": [1.0, 2.0, 0.5], "cov": np.diag([1.0, 4.0, 9.0]).tolist()})
        )
        (tmp_path / "square.json").write_text(
            json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
        )
        return tmp_path

    def test_import_cli_leaves_scipy_out(self, tmp_path):
        code = 'import json, sys, zonomed.cli; print(json.dumps("scipy" in sys.modules))'
        assert _fresh_interpreter(code, tmp_path) is False

    @pytest.mark.parametrize(
        "argv, loads_scipy",
        [
            (["intrinsic", "--input", "plane.csv"], False),
            (["median", "--objective", "vj", "--j", "2", "--input", "plane.csv", "--seed", "1"],
             False),
            (["empirical", "symmetrize", "--input", "plane.csv", "--u", "1,1",
              "--output-sample", "out.csv"], False),
            (["median", "--objective", "polar", "--input", "plane.csv", "--seed", "1"], False),
            (["empirical", "symmetrize", "--input", "space.csv", "--u", "1,1,1",
              "--output-sample", "out.csv"], True),
            (["gauss", "--input", "state.json", "--spherize"], False),
            (["empirical", "theorem1", "--polygon", "square.json", "--u", "1,1", "--n", "400",
              "--seed", "1"], False),
            (["empirical", "symmetrize", "--input", "space.csv", "--u", "1,1,1",
              "--method", "exact_linear", "--output-sample", "out.csv"], False),
            (["median", "--objective", "wills", "--input", "space.csv", "--seed", "1"], False),
            (["intrinsic", "--input", "plane.csv", "--mc", "200", "--seed", "1"], False),
            (["gauss", "--input", "state.json", "--u", "1,0,1"], False),
            (["empirical", "explore", "--input", "space.csv", "--steps", "1", "--seed", "1"],
             True),
        ],
        ids=["intrinsic", "median-vj", "symmetrize-plane", "median-polar", "symmetrize-space",
             "gauss-spherize", "theorem1", "symmetrize-space-exact-linear", "median-wills",
             "intrinsic-mc", "gauss-u", "explore"],
    )
    def test_scipy_loaded_only_where_used(self, inputs, argv, loads_scipy):
        report = _fresh_interpreter(_RUN_CLI.format(argv=argv + ["--output", "out.json"]), inputs)
        assert report == {"code": 0, "scipy": loads_scipy, "scipy.optimize": False}
        json.loads((inputs / "out.json").read_text())

    def test_replaced_tree_class_is_built(self, tmp_path):
        code = """
import json
import numpy as np
import zonomed.empirical as emp
from scipy.spatial import cKDTree

built = []

class Tree(cKDTree):
    def __init__(self, data, *args, **kwargs):
        built.append(len(data))
        super().__init__(data, *args, **kwargs)

setattr(emp, "cKDTree", Tree)
sample = emp.EmpiricalSample(np.random.default_rng(0).standard_normal((50, 3)))
emp._conditional_mean(sample, np.array([0.0, 0.6, 0.8]), emp.RegressorConfig("knn", k=4))
print(json.dumps({"built": built, "same": emp.cKDTree is Tree}))
"""
        assert _fresh_interpreter(code, tmp_path) == {"built": [50], "same": True}
