#!/usr/bin/env python3
"""End-to-end benchmark of the zonomed command line.

    python3 perfbench/run.py --workload medians --seed 1 --seconds 30 --trace 0

Runs one workload (medians, volumes or symmetrize) in this process by calling
``zonomed.cli.main(argv)`` on seeded input files, round after round, until
``--seconds`` have passed.  Every output is checked against the reference
computations in ``reference.py``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are wall_s, peak_rss_mb and setup_s; with
``--trace 1`` they are the per-layer metrics of ``tracing.py``.  See
README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: a 2000-generator V_2 job was both
# slower and noisier with the default thread count on a 2-core machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# The program's own default parallelism is what gets measured.
os.environ.pop("ZONOMED_THREADS", None)

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh processes that set up the workload; setup_s is their median.
SETUP_PROBES = 5


def setup(workload: str, seed: int, workdir: Path):
    """Import the command line, then write the workload's inputs.

    Returns (cli module, jobs, import seconds, inputs seconds).
    """
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import zonomed.cli as cli

    imported = perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"zonomed was imported from {cli.__file__}, not from {SRC}")
    import workloads

    jobs = workloads.build(workload, seed, workdir)
    return cli, jobs, imported - start, perf_counter() - imported


def probe_setup(workload: str, seed: int, workdir: Path) -> dict:
    """Time one set-up in a fresh interpreter, from launch to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe", str(workdir)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {code}")
    report = json.loads(line)
    report["setup_s"] = ready
    return report


def run_round(cli, jobs) -> tuple[float, list]:
    """Run every job once; return the summed job time and each exit code."""
    times = []
    codes = []
    for job in jobs:
        start = perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        times.append(perf_counter() - start)
        codes.append(code)
    print(f"round {sum(times):.4f} s, jobs " + " ".join(f"{t:.4f}" for t in times), file=sys.stderr)
    return sum(times), codes


class Verdicts:
    """Checks the first round's outputs in full; later rounds must repeat its bytes."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first: list[tuple[bool, list[bytes]]] | None = None
        self.attempted = 0
        self.failed = 0
        self.unexpected: set[str] = set()

    def record(self, codes) -> None:
        outputs = [[p.read_bytes() if p.exists() else b"" for p in job.outputs] for job in self.jobs]
        if self.first is None:
            self.first = []
            for job, code, data in zip(self.jobs, codes, outputs):
                problems = [f"exit code {code}"] if code != 0 else _run_check(job)
                for problem in problems:
                    print(f"[{job.name}] {problem}", file=sys.stderr)
                self.first.append((not problems, data))
        for job, code, data, (ok, data0) in zip(self.jobs, codes, outputs, self.first):
            self.attempted += 1
            if code == 0 and ok and data == data0:
                continue
            self.failed += 1
            if job.known_fault is None:
                self.unexpected.add(job.name)
            if ok and code == 0:
                print(f"[{job.name}] output differs from the first round", file=sys.stderr)


def medians_iterations(jobs) -> float:
    return float(sum(
        json.loads(job.outputs[0].read_text(encoding="utf-8"))["iterations"]
        for job in jobs if job.medians_objective
    ))


def _run_check(job) -> list[str]:
    try:
        return job.check()
    except Exception as exc:
        traceback.print_exc()
        return [f"check raised {exc!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["medians", "volumes", "symmetrize"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.setup_probe:
        _, _, import_s, inputs_s = setup(args.workload, args.seed, Path(args.setup_probe))
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)
        return 0

    if not (SRC / "zonomed" / "cli.py").is_file():
        print(f"perfbench: no zonomed sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        probes = [probe_setup(args.workload, args.seed, workdir / f"setup{i}") for i in range(SETUP_PROBES)]
        cli, jobs, _, _ = setup(args.workload, args.seed, workdir / "run")
        result = measure(cli, jobs, args, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def measure(cli, jobs, args, probes) -> dict:
    verdicts = Verdicts(jobs)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    plain_walls, traced_walls, layer_rounds = [], [], []
    start = perf_counter()
    # Traced runs alternate plain and traced rounds, so both kinds are timed.
    while perf_counter() - start < args.seconds or (tracer and not traced_walls):
        traced = tracer is not None and len(plain_walls) > len(traced_walls)
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, codes = run_round(cli, jobs)
            finally:
                tracer.remove()
            traced_walls.append(wall)
            layer_rounds.append(tracer.round_metrics(wall))
        else:
            wall, codes = run_round(cli, jobs)
            plain_walls.append(wall)
        verdicts.record(codes)
        if traced:
            layer_rounds[-1]["medians.iterations"] = medians_iterations(jobs)

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(plain_walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        }
    else:
        from tracing import LAYER_METRICS

        metrics = {}
        for name, (unit, _) in LAYER_METRICS.items():
            values = [r.get(name, 0.0) for r in layer_rounds]
            metrics[name] = (statistics.median(values), unit)
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["setup.inputs_s"] = (statistics.median(p["inputs_s"] for p in probes), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(plain_walls), "s"
        )
    return {
        "correct": not verdicts.unexpected,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
