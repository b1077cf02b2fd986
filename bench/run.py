#!/usr/bin/env python3
"""Benchmark for bernfit's error-table pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload interval --seed 1 --seconds 50 --trace 0

Runs the workload's invocations (see workloads.py) through the CLI's row
pipeline (see pipeline.py), in one process.  Every row is run from cleared
package caches, as in a fresh ``bernfit`` process.

--trace 0 runs whole passes over every row, writing the tables as the CLI
does, until the next pass would not end within --seconds (at least three),
and reports the end-to-end metrics.  On a shared host the speed of the
same code swings by up to 2x for tens of seconds, so row times are taken
at a reference speed: a fixed calibration kernel, independent of bernfit,
is timed before every row, and each run of a row is scaled by
CALIBRATION_MS over the least kernel time of the CALIBRATION_WINDOW rows
run before it and after it.  A row's latency is the least of its scaled
runs, which are spread over the whole run.  row_p50_ms and row_tail_ms
are percentiles of these latencies, and rows_per_s is the rows of one
pass over their sum, the throughput of a pass at those latencies.  The
unscaled figures and the wall-clock rate are in the result file.
--trace 1 runs the workload once untraced and once traced, reports
per-layer metrics and the tracing overhead, and writes the spans to
.bench_out/.

The last line of standard output is one JSON object: correct, attempted
and failed, and the metrics.  attempted counts rows and failed the rows
the pipeline could not finish (``bernfit.cli`` would have stopped there);
cells that end as `nan` or fail their checks are counted in pass_frac and
listed by reason.  correct is false when a row failed, a written table
does not read back as written, a pass wrote other tables than the first,
or a cell failed that is not among baseline.json's known failures.  A
result file with the provenance, the failed cells and every metric goes
to .bench_out/.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the matrices are tiny and a
# shared machine makes threaded BLAS timings noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import fnmatch
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# failed cells the code is known to produce; any other failure makes a run incorrect
KNOWN_FAILURES = json.loads((HERE / "baseline.json").read_text())["known_failures"]
SETUP_REPEATS = 7
# whole passes a timed run makes at the least, so a row's latency is the least of three
MIN_PASSES = 3
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from bernfit import approx, bernstein, cli, cone, kkt, serialize, simplex
approx.interval_rule()
approx.simplex_rule()
print("ready", flush=True)
"""


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "bernfit" / "__init__.py").is_file():
    _fail(f"no bernfit sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bernfit  # noqa: E402
# every layer is imported up front, so its caches and functions are found below
from bernfit import approx, bernstein, cone, kkt, serialize, simplex  # noqa: E402,F401

import pipeline  # noqa: E402
import workloads  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402

if Path(bernfit.__file__).resolve().parent != SRC / "bernfit":
    _fail(f"imported bernfit from {bernfit.__file__}, not from {SRC}")

# every functools cache in the package, cleared before each row is run
CACHES = list(
    {
        id(obj): obj
        for name in MODULES
        if f"bernfit.{name}" in sys.modules
        for obj in vars(sys.modules[f"bernfit.{name}"]).values()
        if callable(getattr(obj, "cache_clear", None))
    }.values()
)


def measure_setup() -> list[float]:
    """Seconds from spawning a process until it has imported the package
    and built both quadrature rules, once per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            _fail(f"set-up process failed (exit {code})")
    return times


def clear_caches() -> None:
    for cache in CACHES:
        cache.cache_clear()


# the speed at which timed rows are reported: the calibration kernel below
# takes this long at it, about its least time on an idle 2 GHz Xeon core
CALIBRATION_MS = 2.0
# rows on each side of a row whose kernel times calibrate it: near enough
# to share its machine speed, and enough that one of them catches the
# speed a row of a few milliseconds also catches
CALIBRATION_WINDOW = 5
CALIBRATION_MATRIX = np.random.default_rng(0).random((40, 40))
CALIBRATION_MATRIX = CALIBRATION_MATRIX @ CALIBRATION_MATRIX.T


def calibration_kernel() -> float:
    """Seconds one run of the calibration kernel takes: small dense
    eigensolves and a Python loop, the two kinds of work a row does."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.linalg.eigh(CALIBRATION_MATRIX)
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - t0


class Pass(NamedTuple):
    seconds: float | None  # wall time, calibration included
    rows: list
    errors: list
    kernel_s: list[float] | None  # kernel time before each row


def run_pass(invocations, quads, out_dir: Path, tracer=None, reset=clear_caches):
    """Every row of the workload once, in order, tables written."""
    rows, errors = [], []
    for i, inv in enumerate(invocations):
        out = out_dir / f"{i:02d}-{inv.target.ident}.csv"
        result = pipeline.run_invocation(inv, quads[inv.target.dim], out, tracer, reset)
        rows += result.rows
        errors += result.errors
    return rows, errors


def timed_passes(invocations, quads, out_dir: Path, seconds: float) -> list[Pass]:
    """Whole untraced passes, one after another, until the next one would
    not end within `seconds` (at least MIN_PASSES), with the calibration
    kernel timed before every row."""
    passes = []
    started = time.perf_counter()
    while True:
        kernel = []

        def reset():
            clear_caches()
            kernel.append(calibration_kernel())

        t0 = time.perf_counter()
        rows, errors = run_pass(invocations, quads, out_dir, reset=reset)
        passes.append(Pass(time.perf_counter() - t0, rows, errors, kernel))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].seconds > seconds:
            return passes


def written(rows) -> list:
    """What a pass writes and concludes, row by row: cell texts and reasons."""
    return [(r.target, r.m, [c and (c.text, c.reason) for c in r.cells]) for r in rows]


def known_failure(fail) -> bool:
    """Whether a failed cell is one of baseline.json's known failures."""
    target, m, column, reason, _ = fail
    return any(
        fnmatch.fnmatchcase(target, k["target"])
        and k["m"] in (None, m)
        and k["column"] == column
        and k["reason"] == reason
        for k in KNOWN_FAILURES
    )


def traced(invocations, quads, out_dir: Path):
    """One pass with every layer call traced."""
    tracer = Tracer()
    tracer.install()
    try:
        rows, errors = run_pass(invocations, quads, out_dir, tracer)
    finally:
        tracer.uninstall()
    return tracer, rows, errors


def tail_rank(n: int) -> tuple[int, int]:
    """Highest whole percentile with at least ten rows beyond it, and its
    nearest rank (1-based) among n sorted rows."""
    p = 100 * (n - 10) // n
    return p, -(-p * n // 100)


def failures(rows) -> list[tuple]:
    return [
        (row.target, row.m, cell.column.name, cell.reason, cell.detail)
        for row in rows
        for cell in row.cells
        if cell is not None and cell.reason is not None
    ]


def records(fails) -> list[dict]:
    return [dict(zip(("target", "m", "column", "reason", "detail"), f)) for f in fails]


def cells_attempted(rows) -> int:
    return sum(c is not None for row in rows for c in row.cells)


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the timed passes: a row's latency is the
    least of its runs at the reference speed; the checks are those of the
    first pass."""
    rows = passes[0].rows
    n = len(rows)
    kernel = [t for p in passes for t in p.kernel_s]  # in the order run

    def scale(k: int, i: int) -> float:
        """Factor to the reference speed for row i of pass k."""
        j = k * n + i
        near = kernel[max(0, j - CALIBRATION_WINDOW) : j + CALIBRATION_WINDOW + 1]
        return CALIBRATION_MS / (1e3 * min(near))

    runs_ms = [[1e3 * p.rows[i].seconds for p in passes] for i in range(n)]
    lat = sorted(min(ms * scale(k, i) for k, ms in enumerate(runs)) for i, runs in enumerate(runs_ms))
    raw = sorted(min(runs) for runs in runs_ms)
    p, rank = tail_rank(len(lat))
    cells = cells_attempted(rows)
    failed = len(failures(rows))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "rows_per_s": (1e3 * len(lat) / math.fsum(lat), "1/s"),
        "row_p50_ms": (statistics.median(lat), "ms"),
        "row_tail_ms": (lat[rank - 1], "ms"),
        "pass_frac": ((cells - failed) / cells, "frac"),
        "err_ratio_gmean": (pipeline.error_ratio_gmean(rows), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {
        "fail_frac": failed / cells,
        "tail_percentile": p,
        "tail_rows": len(lat),
        "passes": len(passes),
        "unscaled_rows_per_s": 1e3 * len(raw) / math.fsum(raw),
        "unscaled_row_p50_ms": statistics.median(raw),
        "unscaled_row_tail_ms": raw[rank - 1],
        "wall_rows_per_s": len(rows) * len(passes) / sum(p.seconds for p in passes),
        "pass_s": [round(p.seconds, 3) for p in passes],
        "kernel_least_ms": [round(1e3 * min(p.kernel_s), 4) for p in passes],
        "kernel_median_ms": [round(1e3 * statistics.median(p.kernel_s), 4) for p in passes],
        "row_ms": [[r.target, r.m, [round(ms, 3) for ms in runs]] for r, runs in zip(rows, runs_ms)],
    }


def per_layer(tracer: Tracer, traced_rows, untraced_rows) -> dict:
    """Per-layer metrics of a traced pass, with the tracing overhead measured
    against an untraced pass over the same rows."""
    calls, busy, own = tracer.busy()
    solves = tracer.results["kkt.solve"]
    diags = tracer.results["kkt.verify_kkt"]
    cones = tracer.results["cone.solve_cone"]
    subsets = sum(s.subsets_examined for s in solves)

    def residual(d):
        return max(d.stationarity_inf, d.max_slack, d.integral_gap, -d.min_elevated, -d.min_mu, 0.0)

    def repeat_frac(name):
        return tracer.repeats[name] / calls[name] if calls.get(name) else 0.0

    traced_s = sum(r.seconds for r in traced_rows)
    traced_rps = len(traced_rows) / traced_s
    untraced_rps = len(untraced_rows) / sum(r.seconds for r in untraced_rows)
    out = {
        "kkt.solve.calls": (calls.get("kkt.solve", 0), "count"),
        "kkt.solve.s": (busy.get("kkt.solve", 0.0), "s"),
        "kkt.solve.self_s": (own.get("kkt.solve", 0.0), "s"),
        "kkt.subsets_examined": (subsets, "count"),
        "kkt.systems_solved": (sum(s.systems_solved for s in solves), "count"),
        "kkt.rank_skips": (sum(s.rank_skips for s in solves), "count"),
        # the enumerator accepts exactly one subset per returned solve
        "kkt.useful_ratio": (len(solves) / subsets if subsets else 0.0, "ratio"),
        "kkt.verify.s": (busy.get("kkt.verify_kkt", 0.0), "s"),
        "kkt.residual_max": (max((residual(d) for d in diags), default=0.0), "1"),
        "cone.solve_cone.calls": (calls.get("cone.solve_cone", 0), "count"),
        "cone.solve_cone.s": (busy.get("cone.solve_cone", 0.0), "s"),
        "cone.solve_cone.self_s": (own.get("cone.solve_cone", 0.0), "s"),
        "cone.objective_evals": (tracer.calls_under("cone.omega_adjoint", "cone.solve_cone"), "count"),
        "cone.omega.s": (busy.get("cone.omega_adjoint", 0.0) + busy.get("cone.omega_forward", 0.0), "s"),
        "cone.hankel_basis.calls": (tracer.counts["cone.hankel_basis"], "count"),
        # iterations of the winning restart, summed over solves
        "cone.iterations": (sum(r.iterations for r in cones), "count"),
        "cone.converged_frac": (sum(r.converged for r in cones) / len(cones) if cones else 0.0, "frac"),
        "cone.grad_norm_max": (max((r.grad_norm for r in cones), default=0.0), "1"),
    }
    for name in ("simplex.simplex_spectral_factors", "bernstein.spectral_factors"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.s"] = (busy.get(name, 0.0), "s")
        out[f"{name}.repeat_frac"] = (repeat_frac(name), "frac")
    for name in (
        "simplex.orthogonal_complement_basis",
        "simplex.simplex_mass_matrix",
        "bernstein.mass_matrix",
        "bernstein.elevation_matrix",
        "approx.project",
        "approx.l2_error",
    ):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.s"] = (busy.get(name, 0.0), "s")
    out["simplex.simplex_basis_values.s"] = (busy.get("simplex.simplex_basis_values", 0.0), "s")
    out["approx.project.self_s"] = (own.get("approx.project", 0.0), "s")
    out["approx.moments.s"] = (busy.get("approx.moments", 0.0), "s")
    out["serialize.format_float.calls"] = (tracer.counts["serialize.format_float"], "count")
    out["serialize.write.s"] = (busy.get("serialize.write", 0.0), "s")
    out["trace.row_s"] = (traced_s, "s")
    out["trace.rows_per_s"] = (traced_rps, "1/s")
    out["trace.untraced_rows_per_s"] = (untraced_rps, "1/s")
    out["trace.overhead_rows_per_s"] = (traced_rps - untraced_rps, "1/s")
    return out


def provenance(args, invocations) -> dict:
    def commit():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    digest = hashlib.sha256()
    for path in sorted((SRC / "bernfit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "invocations_per_pass": len(invocations),
        "rows_per_pass": sum(len(inv.degrees) for inv in invocations),
        "cells_per_pass": sum(inv.cells for inv in invocations),
        "targets": [inv.target.ident for inv in invocations],
    }


def report(metrics: dict, extra: dict, fails: list, unexpected: list, errors: list) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for key, value in extra.items():
        if key != "row_ms":
            print(f"{key:40s} {value}")
    print(f"failed cells: {len(fails)}")
    for target, m, col, reason, detail in fails:
        print(f"  {target} m={m} {col}: {reason} ({detail})")
    print(f"failed cells not among the known failures: {len(unexpected)}")
    for target, m, col, reason, detail in unexpected:
        print(f"  {target} m={m} {col}: {reason} ({detail})")
    for err in errors:
        print(f"error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup = measure_setup() if args.trace == 0 else []
    quads = {1: approx.default_rule(1), 2: approx.default_rule(2)}
    invocations = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        passes = timed_passes(invocations, quads, out_dir, args.seconds)
        metrics, extra = end_to_end(passes, setup)
        extra["setup_runs_s"] = [round(t, 4) for t in setup]
        (_, rows, errors, _), more = passes[0], passes[1:]
    else:
        rows, errors = run_pass(invocations, quads, out_dir)
        tracer, traced_rows, traced_errors = traced(invocations, quads, out_dir)
        metrics = per_layer(tracer, traced_rows, rows)
        extra = {}
        tracer.write(f"{stem}-spans.csv")
        more = [Pass(None, traced_rows, traced_errors, None)]
    # every pass must write what the first one wrote
    for k, other in enumerate(more, 2):
        if written(other.rows) != written(rows) or other.errors != errors:
            errors.append(f"pass {k} differs from pass 1")
    fails = failures(rows)
    unexpected = [f for f in fails if not known_failure(f)]
    all_rows = rows + [r for other in more for r in other.rows]

    report(metrics, extra, fails, unexpected, errors)
    failed_rows = sum(row.error is not None for row in all_rows)
    with open(f"{stem}.json", "w") as fh:
        json.dump(
            {
                "provenance": provenance(args, invocations),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "extra": extra,
                "failed_cells": records(fails),
                "unexpected_failed_cells": records(unexpected),
                "errors": errors,
            },
            fh,
            indent=1,
        )
    print(
        json.dumps(
            {
                "correct": failed_rows == 0 and not errors and not unexpected,
                "attempted": len(all_rows),
                "failed": failed_rows,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
