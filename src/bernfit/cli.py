"""Experiment runner: error tables and sample overlays as CSV.

For a chosen target function and degree range, computes the L2 error of a
set of approximation methods per degree and writes one CSV row per degree.
Optionally also writes the sampled approximants at one degree on a
512-point grid (a second CSV next to the error table).

Exit codes: 0 full success, 2 partial (some cells are NaN, each with a
note on stderr), 1 on a bad specification.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import approx, cone, kkt
from .approx import TargetFunction
from .serialize import format_float
from .simplex import simplex_evaluate

MAX_DEGREE_1D = 12
MAX_ELEVATE_1D = 10
MAX_DEGREE_2D = 4

KNOWN_METHODS = ("project", "kkt", "kkt-mass", "cone", "bernstein", "p1")
SAMPLE_POINTS = 512

# The n = m KKT feasible set lies inside the cone, so a cone cost above the
# n = m KKT cost is a solver miss once it exceeds the solver's accuracy,
# which is relative to the size of the problem p^T M p.
CONE_RTOL = 1e-6
CONE_ATOL = 1e-14
# every KKT residual of a written kkt cell is at most this (absolute)
KKT_TOL = 1e-9


class SpecError(Exception):
    """Bad experiment specification; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpecError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="bernfit",
        description="Tabulate L2 errors of bounds-respecting polynomial "
        "approximations over a degree range.",
    )
    p.add_argument(
        "--func",
        required=True,
        help="target id (f0..f3, f2alt, g0..g2) or an expression in x "
        "(and y for --dim 2), e.g. '0.5*(sin(2*pi*x)+1)'",
    )
    p.add_argument("--dim", type=int, default=1, choices=(1, 2))
    p.add_argument("--mmin", type=int, default=0)
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument(
        "--elevate",
        type=int,
        action="append",
        help="elevation offset for the kkt methods; repeatable (default: 0)",
    )
    p.add_argument(
        "--methods",
        default="project,kkt",
        help=f"comma-separated subset of {','.join(KNOWN_METHODS)}",
    )
    p.add_argument("--out", required=True, help="error table CSV path")
    p.add_argument(
        "--samples-degree",
        type=int,
        default=None,
        help="also sample every method's approximant at this degree on a "
        f"{SAMPLE_POINTS}-point grid (written next to --out)",
    )
    p.add_argument(
        "--quad-points",
        type=int,
        default=None,
        help="Gauss points per panel (1-D) or per axis (2-D) for the "
        "moment/error quadrature; the rule must integrate degree 2*mmax exactly",
    )
    return p


def _resolve_function(ident: str, dim: int) -> TargetFunction:
    if ident in approx.CORPUS:
        f = approx.get_function(ident)
        if f.dim != dim:
            raise SpecError(f"function {ident!r} is {f.dim}-dimensional, not {dim}")
        return f
    try:
        return approx.function_from_expression(ident, dim=dim)
    except (ValueError, SyntaxError) as e:
        raise SpecError(f"cannot interpret --func {ident!r}: {e}") from None


def _validate(args, methods, elevations):
    for meth in methods:
        if meth not in KNOWN_METHODS:
            raise SpecError(f"unknown method {meth!r}; known: {KNOWN_METHODS}")
    if args.mmin < 0 or args.mmin > args.mmax:
        raise SpecError(f"need 0 <= mmin <= mmax, got {args.mmin}..{args.mmax}")
    if any(off < 0 for off in elevations):
        raise SpecError("elevation offsets must be nonnegative")
    if args.dim == 1:
        if args.mmax > MAX_DEGREE_1D:
            raise SpecError(f"1-D degrees are capped at {MAX_DEGREE_1D}")
        if any(off > MAX_ELEVATE_1D for off in elevations):
            raise SpecError(f"elevation offsets are capped at {MAX_ELEVATE_1D}")
    else:
        if args.mmax > MAX_DEGREE_2D:
            raise SpecError(f"2-D degrees are capped at {MAX_DEGREE_2D}")
        if any(off != 0 for off in elevations):
            raise SpecError("2-D runs use n = m (no elevation offsets)")
        bad = [m for m in methods if m in ("cone", "bernstein", "p1")]
        if bad:
            raise SpecError(f"methods {bad} are univariate only")
    if args.quad_points is not None and args.quad_points < 1:
        raise SpecError(f"--quad-points must be at least 1, got {args.quad_points}")
    if args.samples_degree is not None:
        if args.dim != 1:
            raise SpecError("sample output is available for 1-D runs only")
        if not args.mmin <= args.samples_degree <= args.mmax:
            raise SpecError("--samples-degree must lie in [mmin, mmax]")


def _columns(methods, elevations):
    cols = []
    for meth in methods:
        if meth in ("kkt", "kkt-mass"):
            cols.extend((f"{meth}{off}", meth, off) for off in elevations)
        else:
            cols.append((meth, meth, None))
    return cols


def _approximant(method, offset, f, m, quad, projection):
    """Build one method's approximant; returns an object l2_error accepts."""
    if method == "project":
        return projection
    if method == "kkt" or method == "kkt-mass":
        problem = kkt.KktProblem(
            dim=f.dim,
            m=m,
            n=m + (offset or 0),
            target=projection.coeffs,
            delta=1 if method == "kkt-mass" else 0,
        )
        solution = kkt.solve(problem)
        _check_kkt(problem, solution)
        return solution.q
    if method == "cone":
        result = cone.solve_cone(projection)
        if not result.converged:
            raise RuntimeError(
                f"cone solver did not converge at m={m} "
                f"(grad {result.grad_norm:.2e}, dual {result.dual_min:.2e}, "
                f"{result.evaluations} evaluations)"
            )
        _check_cone_cost(projection, result.q)
        return result.q
    if method == "bernstein":
        return approx.bernstein_operator(f, m)
    if method == "p1":
        return approx.p1_interpolant(f, m)
    raise AssertionError(method)


def _check_kkt(problem, solution) -> None:
    """Raise, naming the largest residual, unless verify_kkt passes at KKT_TOL."""
    diag = kkt.verify_kkt(problem, solution, KKT_TOL)
    if diag.passed:
        return
    residuals = {
        "stationarity": diag.stationarity_inf,
        "primal": -diag.min_elevated,
        "dual": -diag.min_mu,
        "complementary slackness": diag.max_slack,
        "integral": diag.integral_gap,
    }
    name = max(residuals, key=residuals.get)
    raise RuntimeError(
        f"verify_kkt failed at m={problem.m}, n={problem.n}: largest residual is "
        f"{name} {residuals[name]:.2e} > {KKT_TOL:g}"
    )


def _check_cone_cost(projection, q) -> None:
    """Raise unless the cone cost is within tolerance of the n = m KKT cost."""
    m = projection.degree
    problem = kkt.KktProblem(dim=1, m=m, n=m, target=projection.coeffs)
    bound = kkt.objective(problem, kkt.solve(problem).q.coeffs)
    scale = kkt.objective(problem, np.zeros(m + 1))
    cost = kkt.objective(problem, q.coeffs)
    if cost > bound + CONE_RTOL * (bound + scale) + CONE_ATOL:
        raise RuntimeError(
            f"cone cost {cost:.6e} exceeds the n=m KKT cost {bound:.6e} at m={m}"
        )


def _check_finite(f: TargetFunction, points, where: str) -> None:
    """Reject a target that is not finite at every point, before any row."""
    with np.errstate(all="ignore"):
        values = f(*points.T)
    if not np.all(np.isfinite(values)):
        raise SpecError(f"target {f.ident} is not finite at every {where}")


def run(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    elevations = args.elevate if args.elevate else [0]
    _validate(args, methods, elevations)
    f = _resolve_function(args.func, args.dim)
    quad = approx.default_rule(args.dim, args.quad_points)
    # the mass-matrix normal equations integrate products of two degree-m
    # basis polynomials
    if quad.design_degree < 2 * args.mmax:
        raise SpecError(
            f"--quad-points {args.quad_points} integrates exactly only through "
            f"degree {quad.design_degree}, below 2*mmax = {2 * args.mmax}"
        )
    xs = np.linspace(0.0, 1.0, SAMPLE_POINTS)
    _check_finite(f, quad.nodes, "quadrature node")
    if args.samples_degree is not None:
        _check_finite(f, xs[:, None], "sample point")
    # bernstein and p1 sample the target at the control points i/m
    if {"bernstein", "p1"} & set(methods):
        for m in range(max(args.mmin, 1), args.mmax + 1):
            _check_finite(f, (np.arange(m + 1) / m)[:, None], "control point i/m")
    cols = _columns(methods, elevations)

    degrees = range(args.mmin, args.mmax + 1)
    table = {}
    approximants = {}
    failures = 0
    for m in degrees:
        projection = approx.project(f, m, quad)
        row = []
        for name, method, offset in cols:
            try:
                obj = _approximant(method, offset, f, m, quad, projection)
                err = approx.l2_error(f, obj, quad)
            except Exception as e:
                print(f"bernfit: {name} failed at m={m}: {e}", file=sys.stderr)
                obj, err = None, math.nan
                failures += 1
            else:
                if not math.isfinite(err):
                    print(f"bernfit: {name} has a non-finite L2 error ({err}) "
                          f"at m={m}", file=sys.stderr)
                    failures += 1
            row.append(err)
            if args.samples_degree == m:
                approximants[name] = obj
        table[m] = row

    out = Path(args.out)
    header = ["m"] + [name for name, _, _ in cols]
    with open(out, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for m in degrees:
            cells = [str(m)] + [format_float(v) for v in table[m]]
            fh.write(",".join(cells) + "\n")

    if args.samples_degree is not None:
        columns = {"x": xs, "f": np.asarray(f(xs), dtype=float)}
        for name, _, _ in cols:
            obj = approximants.get(name)
            if obj is None:
                columns[name] = np.full(SAMPLE_POINTS, math.nan)
            elif callable(obj):
                columns[name] = np.asarray(obj(xs), dtype=float)
            else:
                columns[name] = simplex_evaluate(obj, xs)
        spath = samples_path(out)
        with open(spath, "w", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for i in range(SAMPLE_POINTS):
                fh.write(",".join(format_float(columns[k][i]) for k in columns) + "\n")

    return 2 if failures else 0


def samples_path(out: Path) -> Path:
    """The sample table lands next to the error table: errors.csv ->
    errors_samples.csv."""
    return out.with_name(out.stem + "_samples" + (out.suffix or ".csv"))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args)
    except SpecError as e:
        print(f"bernfit: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
