"""CLI behavior: determinism, exit codes, file handling."""

import json
import math

import numpy as np
import pytest

from zonomed import empirical
from zonomed.cli import main
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

    def test_non_symmetric_cov_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mean": [0, 0], "cov": [[1, 0.5], [0.1, 1]]}))
        assert main(["gauss", "--input", str(bad), "--spherize"]) == 2

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
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "config", "before_mean_square", "after_mean_square", "decrease",
            "regression_mean_square",
        }
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

    def test_k_exceeds_n_exit_2(self, sample_csv):
        code = main(
            ["empirical", "symmetrize", "--input", sample_csv, "--u", "1,0",
             "--method", "knn", "--k", "999999"]
        )
        assert code == 2


class TestDeterminism:
    def test_median_byte_identical(self, tri_csv, tmp_path):
        args = ["median", "--objective", "vj", "--j", "2", "--input", tri_csv, "--seed", "11"]
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


class TestThreadCap:
    def test_env_threads_do_not_change_output(self, tri_csv, tmp_path, monkeypatch):
        args = ["median", "--objective", "vj", "--j", "2", "--input", tri_csv, "--seed", "5"]
        _, serial = run_to_file(args, tmp_path / "serial.json")
        monkeypatch.setenv("ZONOMED_THREADS", "4")
        _, threaded = run_to_file(args, tmp_path / "threaded.json")
        assert serial == threaded

    def test_bad_env_value_ignored(self, tri_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("ZONOMED_THREADS", "many")
        code, _ = run_to_file(
            ["median", "--objective", "vj", "--j", "1", "--input", tri_csv, "--seed", "5"],
            tmp_path / "out.json",
        )
        assert code == 0


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
