"""Benchmark of the almostcover command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Every operation is an in-process call of
``almostcover.cli.main(argv)`` with its output captured, sent in a closed
loop: one operation at a time, one thread.  ``--seconds`` sets the run's
work, not a deadline: a run makes ``seconds // pass_s`` passes over the
workload, where ``pass_s`` is one pass measured at the baseline commit, so
every commit does the same work and the tail percentile stays comparable.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes over the same
operations and reports the per-layer metrics of the traced ones, per pass.
Every operation's answer is checked (see ``checks.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import LAYER_METRICS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUPS_PER_PASS = 3
MAX_REPORTED_FAILURES = 20

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class OpRun:
    op: workloads.Op
    returncode: int | None
    stdout: str
    latency: float
    error: str | None = None


def import_package():
    """Import almostcover afresh from the checkout's src/ and return its cli."""
    if not (SRC / "almostcover" / "__init__.py").is_file():
        raise BenchError(f"no almostcover package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "almostcover" or m.startswith("almostcover.")]:
        del sys.modules[name]
    package = importlib.import_module("almostcover")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"almostcover was imported from {package.__file__}, not from {SRC}")
    return importlib.import_module("almostcover.cli")


def set_up(name: str, seed: int, passes: int, workdir: Path):
    """Import the package and build the workload's inputs; returns (seconds, cli, batches)."""
    shutil.rmtree(workdir, ignore_errors=True)
    started = perf_counter()
    cli = import_package()
    batches = workloads.build(name, seed, passes, workdir)
    return perf_counter() - started, cli, batches


def run_pass(main, ops) -> tuple[float, list]:
    """Run the operations one after another; returns (wall seconds, runs)."""
    gc.collect()
    runs = []
    started = perf_counter()
    for op in ops:
        out = io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                returncode = main(list(op.argv))
            except Exception:  # an escaped exception is a failed operation
                returncode, error = None, traceback.format_exc(limit=-3)
            latency = perf_counter() - t0
        runs.append(OpRun(op, returncode, out.getvalue(), latency, error))
    return perf_counter() - started, runs


def check_passes(passes, golden) -> list:
    """(argv, reason) for every failed operation of every pass."""
    failures = []
    for runs in passes:
        crossed = checks.crosscheck(runs)
        for i, run in enumerate(runs):
            if run.error is not None:
                reasons = [f"raised: {run.error.strip().splitlines()[-1]}"]
            else:
                reasons = checks.check_op(run.op, run.returncode, run.stdout, golden)
            if i in crossed:
                reasons.append(crossed[i])
            if reasons:
                failures.append((" ".join(run.op.argv), "; ".join(reasons)))
    return failures


def tail_latency(latencies):
    """The highest percentile with at least ten operations beyond it.

    Below 20 operations, the slowest one.  Returns (value, description).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], f"slowest of {n} operations"
    percentile = 100 * (n - 10) // n
    rank = math.ceil(percentile * n / 100)
    return xs[rank - 1], f"p{percentile} of {n} operations, {n - rank} beyond it"


def measure(name, seed, passes, trace, workdir, wrap_main=None):
    """Set up and run every pass; returns (metrics, notes, runs per pass, missing).

    SETUPS_PER_PASS timed set-ups come before each pass, so set-up time is
    sampled across the whole run, and each pass starts from a fresh import,
    as a command-line process would.  Traced runs make an untraced and a
    traced pass over each batch, alternating which goes first.
    """
    tracer = Tracer() if trace else None
    setups, walls, traced_walls, all_runs = [], [], [], []
    for index in range(passes):
        for _ in range(SETUPS_PER_PASS):
            elapsed, cli, batches = set_up(name, seed, passes, workdir)
            setups.append(elapsed)
        main = wrap_main(cli.main) if wrap_main else cli.main
        ops = batches[index]
        turns = (False, True) if trace else (False,)
        for traced_turn in turns if index % 2 == 0 else turns[::-1]:
            if traced_turn:
                tracer.pass_index = index
                with tracer:
                    wall, runs = run_pass(lambda argv: tracer.root(main, argv), ops)
                traced_walls.append(wall)
            else:
                wall, runs = run_pass(main, ops)
                walls.append(wall)
            all_runs.append(runs)
    if trace:
        metrics = tracer.metrics(passes, sum(traced_walls), sum(walls))
        notes = {m: f"moves {LAYER_METRICS[m][2]}" for m in metrics}
        return metrics, notes, all_runs, tracer.missing
    latencies = [run.latency for runs in all_runs for run in runs]
    tail, tail_note = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"mean of {len(walls)} passes, {sum(walls):.3f} s in all",
        "op_p50_s": f"median of {len(latencies)} operations",
        "op_tail_s": tail_note,
        "peak_rss_mb": "peak resident memory of this process",
    }
    return metrics, notes, all_runs, []


def run_workload(name, seed, seconds, trace, wrap_main=None):
    """Measure one workload; returns the result object and the report lines.

    ``wrap_main`` lets a test substitute the operation entry point.
    """
    if name not in workloads.WORKLOADS and name != "smoke":
        raise BenchError(f"unknown workload {name!r}")
    os.environ.pop("ALMOSTCOVER_THREADS", None)
    passes = max(1, int(seconds // workloads.WORKLOADS.get(name, seconds)))
    if trace:
        passes = max(1, passes // 2)
    workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    try:
        metrics, notes, all_runs, missing = measure(name, seed, passes, trace, workdir, wrap_main)
        failures = check_passes(all_runs, checks.load_golden())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(runs) for runs in all_runs)
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()} if trace else END_TO_END
    lines = [
        f"workload {name}, seed {seed}, {len(all_runs)} passes, {attempted} operations, "
        f"trace {'on' if trace else 'off'}"
    ]
    for metric, value in metrics.items():
        lines.append(f"{metric:28} {value:14.6f} {units[metric]:10} {notes[metric]}")
    lines.append(f"{'ops_failed':28} {len(failures):14d} {'count':10} of {attempted} attempted")
    lines.extend(f"wrap point missing, its time shows in cli.self_s: {m}" for m in missing)
    lines.extend(f"FAILED {argv}: {why}" for argv, why in failures[:MAX_REPORTED_FAILURES])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
