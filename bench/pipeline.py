"""The CLI's row pipeline, run through the layers' public functions.

For each degree of an invocation: ``approx.project``, then each column's
solver, then ``approx.l2_error``, then the output checks, then
``serialize.format_float``.  After the last degree the error table (and,
when asked, the sample table) is written exactly as ``bernfit.cli`` writes
it, and read back.  Every call into the package goes through a module
attribute, so a tracer that replaces those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bernfit import approx, bernstein, cone, kkt, serialize
from workloads import Column, Invocation

SAMPLE_POINTS = 512

# verify_kkt tolerance every KKT cell must pass
KKT_TOL = 1e-9
# L2 errors that must be ordered may tie up to the roundoff of two solves
ORDER_RTOL = 1e-9
# the cone solver stops once its factor gradient is below 1e-8; costs and
# errors it reports are trusted to this relative accuracy
CONE_RTOL = 1e-6
ABS_TOL = 1e-14

CONSTRAINED = ("kkt", "kkt-mass", "cone")


@dataclass
class Cell:
    column: Column
    value: float = math.nan
    reason: str | None = None
    detail: str = ""
    approximant: object = None
    cost: float | None = None
    # a cost the cone cell's cost is compared on: p^T M p of the projection p
    scale: float = 0.0
    text: str = ""

    def fail(self, reason: str, detail: str) -> None:
        if self.reason is None:
            self.reason, self.detail = reason, detail


@dataclass
class Row:
    target: str
    m: int
    seconds: float
    projection_error: float
    cells: list[Cell | None] = field(default_factory=list)
    error: str | None = None


def _solve(col: Column, f, m: int, quad, projection, cell: Cell):
    """Mirror of the CLI's per-method dispatch, keeping what the checks need."""
    if col.method == "project":
        return projection
    if col.method in ("kkt", "kkt-mass"):
        problem = kkt.KktProblem(
            dim=f.dim,
            m=m,
            n=m + col.offset,
            target=projection.coeffs,
            delta=1 if col.method == "kkt-mass" else 0,
        )
        sol = kkt.solve(problem)
        diag = kkt.verify_kkt(problem, sol, KKT_TOL)
        if not diag.passed:
            cell.fail(
                "verify_kkt",
                f"stationarity {diag.stationarity_inf:.2e} slack {diag.max_slack:.2e} "
                f"min elevated {diag.min_elevated:.2e} gap {diag.integral_gap:.2e}",
            )
        cell.cost = kkt.objective(problem, sol.q.coeffs)
        return sol.q
    if col.method == "cone":
        result = cone.solve_cone(projection)
        if not result.converged:
            cell.fail("cone_not_converged", f"grad {result.grad_norm:.2e}")
            return None
        cell.cost = cone.cone_objective(projection, result.q)
        cell.scale = cone.cone_objective(projection, bernstein.PolyCoeffs(m, np.zeros(m + 1)))
        return result.q
    if col.method == "bernstein":
        return approx.bernstein_operator(f, m)
    if col.method == "p1":
        return approx.p1_interpolant(f, m)
    raise ValueError(f"unknown method {col.method!r}")


def _cell(col: Column, f, m: int, quad, projection) -> Cell:
    cell = Cell(col)
    try:
        obj = _solve(col, f, m, quad, projection, cell)
        if obj is not None:
            cell.value = approx.l2_error(f, obj, quad)
            cell.approximant = obj
    except Exception as e:  # the CLI turns any solver failure into a nan cell
        cell.fail("raised", f"{type(e).__name__}: {e}")
        return cell
    if cell.approximant is not None and not math.isfinite(cell.value):
        cell.fail("nan", "non-finite L2 error")
    return cell


def _above(a: float, b: float, rtol: float) -> bool:
    """True when a exceeds b by more than the tolerance."""
    return a > b + rtol * abs(b) + ABS_TOL


def _check_row(cells: dict[str, Cell], projection_error: float) -> None:
    """Row checks: projection <= kkt10 <= kkt0 in L2, cone cost <= kkt0 cost.

    kkt10's feasible set contains kkt0's, and every degree-m polynomial is a
    candidate for the projection, so a violation means kkt10 missed its
    optimum; the failure is charged to kkt10.
    """
    chain = [("project", projection_error)] + [
        (name, cells[name].value)
        for name in ("kkt10", "kkt0")
        if name in cells and cells[name].reason is None
    ]
    for (lo_name, lo), (hi_name, hi) in zip(chain, chain[1:]):
        if _above(lo, hi, ORDER_RTOL):
            blamed = "kkt10" if "kkt10" in (lo_name, hi_name) else hi_name
            cells[blamed].fail("order", f"L2 {lo_name} {lo:.17g} > {hi_name} {hi:.17g}")
    c, k = cells.get("cone"), cells.get("kkt0")
    if c and k and c.reason is None and k.reason is None:
        # the cone solver's accuracy is relative to the size of the problem,
        # p^T M p, not to the kkt0 cost, which can be 0
        if c.cost > k.cost + CONE_RTOL * (k.cost + c.scale) + ABS_TOL:
            c.fail("cone_above_kkt0", f"cost {c.cost:.6e} > kkt0 cost {k.cost:.6e}")


def _write_errors(path: Path, columns, rows: list[Row]) -> list[list[str]]:
    header = ["m"] + [c.name for c in columns]
    lines = [header]
    for row in rows:
        lines.append(
            [str(row.m)]
            + ["" if cell is None else cell.text for cell in row.cells]
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(",".join(ln) + "\n" for ln in lines))
    return lines


def _write_samples(path: Path, inv: Invocation, row: Row) -> list[list[str]]:
    xs = np.linspace(0.0, 1.0, SAMPLE_POINTS)
    table = {"x": xs, "f": np.asarray(inv.target(xs), dtype=float)}
    for cell in row.cells:
        obj = cell.approximant
        if obj is None:
            table[cell.column.name] = np.full(SAMPLE_POINTS, math.nan)
        elif callable(obj):
            table[cell.column.name] = np.asarray(obj(xs), dtype=float)
        else:
            table[cell.column.name] = bernstein.evaluate(obj, xs)
    lines = [list(table)]
    lines += [[serialize.format_float(table[k][i]) for k in table] for i in range(SAMPLE_POINTS)]
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(",".join(ln) + "\n" for ln in lines))
    return lines


def _read_back(path: Path, lines: list[list[str]]) -> str | None:
    """Check the file holds exactly the lines written."""
    with open(path) as fh:
        got = [ln.split(",") for ln in fh.read().splitlines()]
    return None if got == lines else f"{path.name}: file differs from the table written"


def _round_trips(text: str, value: float) -> bool:
    back = float(text)
    return back == value or (math.isnan(back) and math.isnan(value))


def samples_path(out: Path) -> Path:
    return out.with_name(out.stem + "_samples" + (out.suffix or ".csv"))


@dataclass
class InvocationResult:
    rows: list[Row]
    errors: list[str]  # rows that crashed, values or files that did not read back


def _row(inv: Invocation, m: int, quad, best_cone: float, errors: list[str]) -> Row:
    f = inv.target
    t0 = time.perf_counter()
    projection = approx.project(f, m, quad)
    cells = [_cell(col, f, m, quad, projection) if col.applies(m) else None for col in inv.columns]
    by_name = {c.column.name: c for c in cells if c is not None}
    projection_error = by_name["project"].value
    _check_row(by_name, projection_error)
    c = by_name.get("cone")
    # a nonnegative degree-m polynomial is also one of every higher degree
    if c is not None and c.reason is None and _above(c.value, best_cone, CONE_RTOL):
        c.fail("cone_not_monotone", f"L2 {c.value:.17g} > {best_cone:.17g} at lower m")
    for cell in cells:
        if cell is not None:
            cell.text = serialize.format_float(cell.value)
            if not _round_trips(cell.text, cell.value):
                errors.append(
                    f"{f.ident} m={m} {cell.column.name}: {cell.text} does not "
                    f"round-trip {cell.value!r}"
                )
    return Row(f.ident, m, time.perf_counter() - t0, projection_error, cells)


def _span(tracer, name: str, new_row: bool = False):
    return tracer.span(name, new_row) if tracer is not None else contextlib.nullcontext()


def timed_row(inv: Invocation, m: int, quad, best_cone=math.inf, errors=None, tracer=None) -> Row:
    """Run and time one row; a crash fails every cell of the row."""
    errors = [] if errors is None else errors
    t0 = time.perf_counter()
    try:
        with _span(tracer, "row", new_row=True):
            return _row(inv, m, quad, best_cone, errors)
    except Exception as e:  # the CLI itself would stop here
        error = f"{type(e).__name__}: {e}"
        cells = [Cell(c, reason="raised", detail=error) if c.applies(m) else None for c in inv.columns]
        errors.append(f"{inv.target.ident} m={m}: {error}")
        return Row(inv.target.ident, m, time.perf_counter() - t0, math.nan, cells, error)


def run_invocation(inv: Invocation, quad, out: Path, tracer=None, reset=None) -> InvocationResult:
    """Run one invocation row by row, then write and re-read its tables.

    reset, when given, clears the package's caches before every row, so
    each row is timed from the same state however often it is run.
    """
    rows: list[Row] = []
    errors: list[str] = []
    best_cone = math.inf
    for m in inv.degrees:
        if reset is not None:
            reset()
        row = timed_row(inv, m, quad, best_cone, errors, tracer)
        rows.append(row)
        for cell in row.cells:
            if cell is not None and cell.column.method == "cone" and cell.reason is None:
                best_cone = min(best_cone, cell.value)

    with _span(tracer, "serialize.write"):
        written = [(out, _write_errors(out, inv.columns, rows))]
        if inv.samples_degree is not None:
            row = next(r for r in rows if r.m == inv.samples_degree)
            spath = samples_path(out)
            written.append((spath, _write_samples(spath, inv, row)))
    for path, lines in written:
        problem = _read_back(path, lines)
        if problem:
            errors.append(problem)
    return InvocationResult(rows, errors)


def error_ratio_gmean(rows: list[Row]) -> float:
    """Geometric mean of L2(f - q) / L2(f - projection) over passing
    constrained cells; 1 means every constrained solve matched projection."""
    logs = [
        math.log(cell.value / row.projection_error)
        for row in rows
        for cell in row.cells
        if cell is not None
        and cell.reason is None
        and cell.column.method in CONSTRAINED
        and row.projection_error > 0.0
    ]
    return math.exp(math.fsum(logs) / len(logs)) if logs else math.nan
