"""Command-line front end: CSV/JSON in, deterministic JSON out.

Exit codes: 0 success, 2 input or validation error (a result past float64
included), 3 solver did not converge (the result is still written).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

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
from .gauss import GaussianState, SymmetrizationTrace, _unit, sphere_iterate, symmetrize_gaussian
from .medians import MedianProblem, PointCloud, SolverOptions
from .polygon import polygon_from_json_dict
# wills_functional is not called here (``intrinsic`` sums the V_j it has
# already computed), but it stays importable from this module:
# perfbench/tracing.py wraps it.
from .zonotope import Zonotope, _refuse_oversized, intrinsic_volume, mc_intrinsic_volume, wills_functional

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
# Values per block of the output sample; a block's floats and text are 1 MB.
_SAMPLE_VALUES = 2**14


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_csv(path: str) -> np.ndarray:
    """Comma-separated rows of numbers.  The first row is a header when none of
    its fields is a number; it must have as many fields as the data rows.

    Blank lines are skipped and spaces around fields are allowed.  ``#`` does
    not start a comment: a data row that holds one is malformed, and the
    error names its line in the file.  The lines stream into ``np.loadtxt``,
    so only the array is held.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = filter(None, map(str.strip, fh))
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty file")
        if not any(map(_is_number, first.split(","))):
            header, first = first, next(lines, None)
            if first is None:
                raise ValueError(f"{path}: no data rows")
            if header.count(",") != first.count(","):
                raise ValueError(f"{path}: the header and the first data row differ in width")
        try:
            return np.loadtxt(itertools.chain((first,), lines), delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(f"{path}: {_bad_row(path) or exc}") from None


def _bad_row(path: str) -> str | None:
    """Why the first malformed data row of a CSV fails, with its 1-based line
    in the file (header and blank lines counted).  Runs only once the reader
    has failed, so the file is read a second time."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = ((no, ln.split(",")) for no, ln in enumerate(map(str.strip, fh), 1) if ln)
        no, fields = next(rows)
        if not any(map(_is_number, fields)):
            no, fields = next(rows)
        width = len(fields)
        for no, fields in itertools.chain(((no, fields),), rows):
            if len(fields) != width:
                return f"line {no}: {len(fields)} field{'s' * (len(fields) != 1)}, expected {width}"
            for f in map(str.strip, fields):
                # np.loadtxt, unlike float(), refuses digit separators and
                # non-ASCII digits
                if "_" in f or not f.isascii() or not _is_number(f):
                    return f"line {no}: {f!r} is not a number"
    return None


def _parse_vector(text: str) -> np.ndarray:
    return _unit([float(c) for c in text.split(",")])


def _write_output(chunks, path: str) -> None:
    """Write an iterable of strings to path, atomically, or to stdout for "-"."""
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zonomed-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _non_finite(value, path: str = "") -> list[str]:
    """The paths of the non-finite numbers in a payload, such as ``trace[0].det``."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [p for k in sorted(value) for p in _non_finite(value[k], f"{path}.{k}" if path else k)]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    return []


def _dumps(payload: dict) -> str:
    """Strict JSON, one line; a non-finite value raises ValueError, which
    names each number that is not finite by its path."""
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False,
            default=lambda o: o.tolist(),
        ) + "\n"
    except ValueError:
        names = ", ".join(_non_finite(payload))
        raise ValueError(f"not finite, so not strict JSON: {names}") from None


def _config(args) -> dict:
    """Every parsed option except the output paths, plus the version."""
    hidden = ("func", "output", "output_sample", "empirical_command")
    config = {k: v for k, v in vars(args).items() if k not in hidden}
    if "empirical_command" in vars(args):
        config["command"] += " " + args.empirical_command
    return dict(config, version=__version__)


def _cmd_median(args) -> int:
    cloud = PointCloud(_read_csv(args.input))
    opts = SolverOptions(
        tolerance=args.tolerance,
        max_iter=args.max_iter,
        multistarts=args.multistarts,
        seed=args.seed,
        keep_trace=args.emit_trace,
    )
    result = MedianProblem(cloud, args.objective, j=args.j, options=opts).solve()
    payload = dict(asdict(result), config=_config(args))
    if not args.emit_trace:
        del payload["trace"]
    _write_output([_dumps(payload)], args.output)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_intrinsic(args) -> int:
    gens = _read_csv(args.input)
    if args.mc is not None and args.seed is None:
        raise ValueError("--mc requires --seed for reproducibility")
    zono = Zonotope(gens)
    d = zono.dim
    _refuse_oversized(zono.num_generators, d)  # every order, before V_1
    volumes = [intrinsic_volume(zono, j) for j in range(d + 1)]
    payload = {
        "config": _config(args),
        "V": volumes,
        "wills": 1.0 + math.fsum(volumes[1:]),
    }
    if args.mc is not None:
        payload["mc"] = {}
        for j in range(1, d + 1):
            est = mc_intrinsic_volume(zono, j, args.mc, args.seed + j)
            payload["mc"][str(j)] = {"estimate": est.estimate, "std_error": est.std_error}
    _write_output([_dumps(payload)], args.output)
    return EXIT_OK


def _cmd_gauss(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    state = GaussianState(data["mean"], data["cov"])
    if args.spherize:
        final, trace = sphere_iterate(state, tol=args.tol, max_iter=args.max_iter)
    else:
        final = symmetrize_gaussian(state, _parse_vector(args.u))
        trace = SymmetrizationTrace(converged=True)
    payload = dict(
        asdict(final),
        config=_config(args),
        converged=trace.converged,
        trace=[asdict(step) for step in trace.steps],
    )
    _write_output([_dumps(payload)], args.output)
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def _regressor(args) -> RegressorConfig:
    k = None if args.k in (None, "auto") else int(args.k)
    return RegressorConfig(method=args.method, k=k)


def _cmd_symmetrize(args) -> int:
    cfg = _regressor(args)
    sample = EmpiricalSample(_read_csv(args.input))
    reduction = norm_reduction_check(sample, _parse_vector(args.u), cfg)
    text = _dumps({
        "config": _config(args),
        "before_mean_square": reduction.before,
        "after_mean_square": reduction.after,
        "decrease": reduction.decrease,
        "regression_mean_square": reduction.regression_mean_square,
    })
    if args.output_sample:
        draws = reduction.symmetrized.draws
        row = ",".join(["%r"] * draws.shape[1]) + "\n"
        step = max(1, _SAMPLE_VALUES // draws.shape[1])
        blocks = (draws[lo:lo + step] for lo in range(0, len(draws), step))
        _write_output((row * len(b) % tuple(b.ravel().tolist()) for b in blocks), args.output_sample)
    _write_output([text], args.output)
    return EXIT_OK


def _cmd_theorem1(args) -> int:
    cfg = _regressor(args)
    with open(args.polygon, "r", encoding="utf-8") as fh:
        poly = polygon_from_json_dict(json.load(fh))
    report = theorem1_check(
        poly, _parse_vector(args.u), args.n, cfg, seed=args.seed, delta=args.delta
    )
    _write_output([_dumps(dict(asdict(report), config=_config(args)))], args.output)
    return EXIT_OK


def _cmd_explore(args) -> int:
    cfg = _regressor(args)
    sample = EmpiricalSample(_read_csv(args.input))
    reports = conjecture_explorer(
        sample, args.steps, direction_policy=args.policy, cfg=cfg, seed=args.seed
    )
    _write_output([_dumps(dict(asdict(rep), config=_config(args))) for rep in reports], args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and main is called many times by in-process
    callers."""
    parser = argparse.ArgumentParser(
        prog="zonomed",
        description="Zonotope medians and Steiner symmetrization of measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_med = sub.add_parser("median", help="solve a median problem over a point CSV")
    p_med.add_argument("--input", required=True, help="CSV of sample points, one per row")
    p_med.add_argument("--objective", choices=["vj", "wills", "polar"], default="vj")
    p_med.add_argument("--j", type=int, default=None, help="intrinsic-volume order for vj")
    p_med.add_argument("--tolerance", type=float, default=1e-8,
                       help="polar polish only: a simplex width relative to the cloud's spread")
    p_med.add_argument("--max-iter", type=int, default=10_000)
    p_med.add_argument(
        "--multistarts", type=int, default=8,
        help="Nelder-Mead starts for the polar objective; vj and wills solve from one start",
    )
    p_med.add_argument("--seed", type=int, required=True)
    p_med.add_argument("--emit-trace", action="store_true")

    p_int = sub.add_parser("intrinsic", help="intrinsic volumes of a generator CSV")
    p_int.add_argument("--input", required=True, help="CSV of generators, one per row")
    p_int.add_argument("--mc", type=int, default=None, help="add Monte Carlo estimates")
    p_int.add_argument("--seed", type=int, default=None)

    p_gauss = sub.add_parser("gauss", help="symmetrize a Gaussian state (JSON mean/cov)")
    p_gauss.add_argument("--input", required=True)
    group = p_gauss.add_mutually_exclusive_group(required=True)
    group.add_argument("--u", help="single symmetrization direction, comma-separated")
    group.add_argument("--spherize", action="store_true", help="iterate to spherical symmetry")
    p_gauss.add_argument("--tol", type=float, default=1e-10)
    p_gauss.add_argument("--max-iter", type=int, default=1000)

    p_emp = sub.add_parser("empirical", help="sample-based symmetrization tools")
    emp_sub = p_emp.add_subparsers(dest="empirical_command", required=True)

    p_sym = emp_sub.add_parser("symmetrize", help="symmetrize a sample CSV once")
    p_sym.add_argument("--input", required=True)
    p_sym.add_argument("--u", required=True)
    p_sym.add_argument("--method", choices=["knn", "exact_linear"], default="knn")
    p_sym.add_argument("--k", default="auto")
    p_sym.add_argument("--output-sample", default=None, help="write symmetrized CSV here")

    p_thm = emp_sub.add_parser("theorem1", help="uniform-law check on a polygon")
    p_thm.add_argument("--polygon", required=True, help="JSON with a 'vertices' list")
    p_thm.add_argument("--u", required=True)
    p_thm.add_argument("--n", type=int, required=True)
    p_thm.add_argument("--method", choices=["knn", "exact_linear"], default="knn")
    p_thm.add_argument("--k", default="auto")
    p_thm.add_argument("--seed", type=int, required=True)
    p_thm.add_argument("--delta", type=float, default=None)

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

    for p, func in ((p_med, _cmd_median), (p_int, _cmd_intrinsic), (p_gauss, _cmd_gauss),
                    (p_sym, _cmd_symmetrize), (p_thm, _cmd_theorem1), (p_exp, _cmd_explore)):
        p.add_argument("--output", default="-")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ZonomedError, ValueError, OverflowError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"zonomed: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
