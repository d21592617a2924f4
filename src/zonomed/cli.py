"""Command-line front end: CSV/JSON in, deterministic JSON out.

Exit codes: 0 success, 2 input or validation error, 3 solver did not
converge (the result is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
# symmetrize_sample is not called here (``empirical symmetrize`` takes the
# shifted sample from norm_reduction_check, so the regression runs once),
# but it stays importable from this module: perfbench/tracing.py wraps it.
from .empirical import (
    EmpiricalSample,
    RegressorConfig,
    conjecture_explorer,
    norm_reduction_check,
    symmetrize_sample,
    theorem1_check,
)
from .errors import ZonomedError
from .gauss import GaussianState, SymmetrizationStep, sphere_iterate, symmetrize_gaussian
from .medians import MedianProblem, PointCloud, SolverOptions
from .polygon import polygon_from_json_dict
# wills_functional is not called here (``intrinsic`` sums the V_j it has
# already computed), but it stays importable from this module:
# perfbench/tracing.py wraps it.
from .zonotope import Zonotope, intrinsic_volume, mc_intrinsic_volume, wills_functional

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def _env_threads() -> int:
    try:
        return max(1, int(os.environ.get("ZONOMED_THREADS", "1")))
    except ValueError:
        return 1


def _read_csv(path: str) -> np.ndarray:
    """Comma-separated rows of numbers; a non-numeric first row is a header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    start = 0
    try:
        [float(c) for c in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = []
    for ln in lines[start:]:
        rows.append([float(c) for c in ln.split(",")])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.asarray(rows, dtype=float)


def _parse_vector(text: str) -> np.ndarray:
    vec = np.asarray([float(c) for c in text.split(",")], dtype=float)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError("direction vector must be nonzero")
    return vec / norm


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zonomed-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dumps(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":")) + "\n"


def _step_dict(step: SymmetrizationStep) -> dict:
    return {
        "kind": step.kind,
        "direction": step.direction,
        "eigenvalues_before": step.eigenvalues_before,
        "eigenvalues_after": step.eigenvalues_after,
        "det": step.det,
        "trace": step.trace,
        "mean_norm": step.mean_norm,
    }


def _cmd_median(args) -> int:
    points = _read_csv(args.input)
    cloud = PointCloud(points)
    opts = SolverOptions(
        tolerance=args.tolerance,
        max_iter=args.max_iter,
        multistarts=args.multistarts,
        seed=args.seed,
        keep_trace=args.emit_trace,
        threads=_env_threads(),
    )
    problem = MedianProblem(cloud, args.objective, j=args.j, options=opts)
    result = problem.solve()
    config = {
        "command": "median",
        "input": args.input,
        "objective": args.objective,
        "j": args.j,
        "tolerance": args.tolerance,
        "max_iter": args.max_iter,
        "multistarts": args.multistarts,
        "seed": args.seed,
        "emit_trace": args.emit_trace,
        "version": __version__,
    }
    payload = {
        "config": config,
        "argmin": result.argmin,
        "value": result.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "non_unique": result.non_unique,
    }
    if args.emit_trace:
        payload["trace"] = [[pt, val] for pt, val in (result.trace or [])]
    _write_output(_dumps(payload), args.output)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_intrinsic(args) -> int:
    gens = _read_csv(args.input)
    if args.mc is not None and args.seed is None:
        raise ValueError("--mc requires --seed for reproducibility")
    zono = Zonotope(gens)
    d = zono.dim
    volumes = [intrinsic_volume(zono, j) for j in range(d + 1)]
    config = {
        "command": "intrinsic",
        "input": args.input,
        "mc": args.mc,
        "seed": args.seed,
        "version": __version__,
    }
    payload = {
        "config": config,
        "V": volumes,
        "wills": 1.0 + math.fsum(volumes[1:]),
    }
    if args.mc is not None:
        mc = {}
        for j in range(1, d + 1):
            est = mc_intrinsic_volume(zono, j, args.mc, args.seed + j)
            mc[str(j)] = {"estimate": est.estimate, "std_error": est.std_error}
        payload["mc"] = mc
    _write_output(_dumps(payload), args.output)
    return EXIT_OK


def _cmd_gauss(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    state = GaussianState(np.asarray(data["mean"], dtype=float),
                          np.asarray(data["cov"], dtype=float))
    config = {
        "command": "gauss",
        "input": args.input,
        "u": args.u,
        "spherize": args.spherize,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "version": __version__,
    }
    exit_code = EXIT_OK
    if args.spherize:
        final, trace = sphere_iterate(state, tol=args.tol, max_iter=args.max_iter)
        steps = [_step_dict(s) for s in trace.steps]
        converged = trace.converged
        if not converged:
            exit_code = EXIT_NO_CONVERGENCE
    else:
        u = _parse_vector(args.u)
        final = symmetrize_gaussian(state, u)
        steps = []
        converged = True
    payload = {
        "config": config,
        "mean": final.mean,
        "cov": final.cov,
        "converged": converged,
        "trace": steps,
    }
    _write_output(_dumps(payload), args.output)
    return exit_code


def _regressor(args) -> RegressorConfig:
    k = None if args.k in (None, "auto") else int(args.k)
    return RegressorConfig(method=args.method, k=k)


def _cmd_empirical(args) -> int:
    cfg = _regressor(args)
    if args.empirical_command == "symmetrize":
        sample = EmpiricalSample(_read_csv(args.input))
        u = _parse_vector(args.u)
        reduction = norm_reduction_check(sample, u, cfg)
        if args.output_sample:
            draws = reduction.symmetrized.draws
            buf = "\n".join(",".join(repr(float(v)) for v in row) for row in draws) + "\n"
            _write_output(buf, args.output_sample)
        payload = {
            "config": _empirical_config(args),
            "before_mean_square": reduction.before,
            "after_mean_square": reduction.after,
            "decrease": reduction.decrease,
            "regression_mean_square": reduction.regression_mean_square,
        }
        _write_output(_dumps(payload), args.output)
        return EXIT_OK
    if args.empirical_command == "theorem1":
        with open(args.polygon, "r", encoding="utf-8") as fh:
            poly = polygon_from_json_dict(json.load(fh))
        u = _parse_vector(args.u)
        report = theorem1_check(poly, u, args.n, cfg, seed=args.seed, delta=args.delta)
        payload = {
            "config": _empirical_config(args),
            "n": report.n,
            "delta": report.delta,
            "inside_fraction": report.inside_fraction,
            "chi_square": report.chi_square,
            "chi_square_dof": report.chi_square_dof,
            "area_original": report.area_original,
            "area_symmetral": report.area_symmetral,
            "area_rel_error": report.area_rel_error,
        }
        _write_output(_dumps(payload), args.output)
        return EXIT_OK
    # explore
    sample = EmpiricalSample(_read_csv(args.input))
    reports = conjecture_explorer(
        sample, args.steps, direction_policy=args.policy, cfg=cfg, seed=args.seed
    )
    lines = []
    for rep in reports:
        lines.append(
            _dumps(
                {
                    "config": _empirical_config(args),
                    "step": rep.step,
                    "direction": rep.direction,
                    "anisotropy": rep.anisotropy,
                    "mean_norm": rep.mean_norm,
                    "mean_square_norm": rep.mean_square_norm,
                    "symmetry_stat": rep.symmetry_stat,
                    "mean_square_decrease": rep.mean_square_decrease,
                    "regression_mean_square": rep.regression_mean_square,
                }
            )
        )
    _write_output("".join(lines), args.output)
    return EXIT_OK


def _empirical_config(args) -> dict:
    cfg = {
        "command": f"empirical {args.empirical_command}",
        "method": args.method,
        "k": args.k,
        "version": __version__,
    }
    for name in ("input", "polygon", "u", "n", "steps", "policy", "seed", "delta"):
        if hasattr(args, name):
            cfg[name] = getattr(args, name)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonomed",
        description="Zonotope medians and Steiner symmetrization of measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_med = sub.add_parser("median", help="solve a median problem over a point CSV")
    p_med.add_argument("--input", required=True, help="CSV of sample points, one per row")
    p_med.add_argument("--objective", choices=["vj", "wills", "polar"], default="vj")
    p_med.add_argument("--j", type=int, default=None, help="intrinsic-volume order for vj")
    p_med.add_argument("--tolerance", type=float, default=1e-8)
    p_med.add_argument("--max-iter", type=int, default=10_000)
    p_med.add_argument(
        "--multistarts", type=int, default=8,
        help="Nelder-Mead starts for the polar objective; vj and wills solve from one start",
    )
    p_med.add_argument("--seed", type=int, required=True)
    p_med.add_argument("--emit-trace", action="store_true")
    p_med.add_argument("--output", default="-")
    p_med.set_defaults(func=_cmd_median)

    p_int = sub.add_parser("intrinsic", help="intrinsic volumes of a generator CSV")
    p_int.add_argument("--input", required=True, help="CSV of generators, one per row")
    p_int.add_argument("--mc", type=int, default=None, help="add Monte Carlo estimates")
    p_int.add_argument("--seed", type=int, default=None)
    p_int.add_argument("--output", default="-")
    p_int.set_defaults(func=_cmd_intrinsic)

    p_gauss = sub.add_parser("gauss", help="symmetrize a Gaussian state (JSON mean/cov)")
    p_gauss.add_argument("--input", required=True)
    group = p_gauss.add_mutually_exclusive_group(required=True)
    group.add_argument("--u", help="single symmetrization direction, comma-separated")
    group.add_argument("--spherize", action="store_true", help="iterate to spherical symmetry")
    p_gauss.add_argument("--tol", type=float, default=1e-10)
    p_gauss.add_argument("--max-iter", type=int, default=1000)
    p_gauss.add_argument("--output", default="-")
    p_gauss.set_defaults(func=_cmd_gauss)

    p_emp = sub.add_parser("empirical", help="sample-based symmetrization tools")
    emp_sub = p_emp.add_subparsers(dest="empirical_command", required=True)

    p_sym = emp_sub.add_parser("symmetrize", help="symmetrize a sample CSV once")
    p_sym.add_argument("--input", required=True)
    p_sym.add_argument("--u", required=True)
    p_sym.add_argument("--method", choices=["knn", "exact_linear"], default="knn")
    p_sym.add_argument("--k", default="auto")
    p_sym.add_argument("--output-sample", default=None, help="write symmetrized CSV here")
    p_sym.add_argument("--output", default="-")
    p_sym.set_defaults(func=_cmd_empirical)

    p_thm = emp_sub.add_parser("theorem1", help="uniform-law check on a polygon")
    p_thm.add_argument("--polygon", required=True, help="JSON with a 'vertices' list")
    p_thm.add_argument("--u", required=True)
    p_thm.add_argument("--n", type=int, required=True)
    p_thm.add_argument("--method", choices=["knn", "exact_linear"], default="knn")
    p_thm.add_argument("--k", default="auto")
    p_thm.add_argument("--seed", type=int, required=True)
    p_thm.add_argument("--delta", type=float, default=None)
    p_thm.add_argument("--output", default="-")
    p_thm.set_defaults(func=_cmd_empirical)

    p_exp = emp_sub.add_parser("explore", help="repeated symmetrization diagnostics")
    p_exp.add_argument("--input", required=True)
    p_exp.add_argument("--steps", type=int, required=True)
    p_exp.add_argument(
        "--policy",
        choices=["random_seeded", "cyclic_axes", "max_anisotropy"],
        default="random_seeded",
    )
    p_exp.add_argument("--method", choices=["knn", "exact_linear"], default="knn")
    p_exp.add_argument("--k", default="auto")
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--output", default="-")
    p_exp.set_defaults(func=_cmd_empirical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ZonomedError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"zonomed: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
