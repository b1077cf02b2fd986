#!/usr/bin/env python3
"""Time the basis builders, the stages of each KKT cell and the cone solve
from cleared caches.

Usage, from the root of a checkout:

    python3 scripts/time_layers.py [--repeats 15]

Every call is timed with every functools cache in the package cleared
before it, as in a fresh ``bernfit`` process, so its time includes the
tables it builds on, such as the multiindices, the elevation, mass and
spectral factors.  The median of --repeats calls is reported.

builders: each per-degree builder of the basis layer at d = 1 (m = 0..12)
and d = 2 (m = 0..10), the degrees of the interval and triangle
workloads.  Elevation and the elevated spectral factors are timed at
n = m + 10, the KKT offset of the interval workload.

stages: every cell of the 1-D corpus (f0-f3 and f2alt, m = 0..12, n = m
and m + 10, delta = 0 and 1) and of the 2-D corpus (g0-g2, m = 0..4,
n = m), in three stages: building its KktProblem and solving it,
verify_kkt on the answer at the CLI's tolerance, and objective at the
answer.  The targets, the projections of the default rule, are computed
once beforehand.

cone: solve_cone on the projections of the 1-D corpus (f0-f3 and f2alt)
at every degree it solves, m = 1..12.

Prints one JSON object: for each builder and dimension, for each stage
and corpus, and for the cone, the median microseconds of a call at every
degree (summed over the cells of a degree) and their sum over the
degrees; then the three stages' sum for each corpus.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bernfit import approx, cli, cone, kkt, simplex  # noqa: E402

OFFSET = 10
DEGREES = {1: range(13), 2: range(11)}

# name -> (call at (d, m) on the default rule, dimensions it is timed at)
BUILDERS = {
    "_multiindex_array": (lambda d, m, rule: simplex._multiindex_array(d, m), (1, 2)),
    "_multinomials": (lambda d, m, rule: simplex._multinomials(d, m), (1, 2)),
    "simplex_mass_matrix": (lambda d, m, rule: simplex.simplex_mass_matrix(d, m), (1, 2)),
    "simplex_elevation": (lambda d, m, rule: simplex.simplex_elevation(d, m, m + OFFSET), (1, 2)),
    "orthogonal_complement_basis": (
        lambda d, m, rule: simplex.orthogonal_complement_basis(d, m),
        (1, 2),
    ),
    "simplex_spectral_factors": (
        lambda d, m, rule: simplex.simplex_spectral_factors(d, m, m + OFFSET),
        (1, 2),
    ),
    "_node_factors": (lambda d, m, rule: approx._node_factors(rule, m), (1, 2)),
    "omega_operator": (lambda d, m, rule: cone.omega_operator(m), (1,)),
}

# corpus -> (functions, degrees, elevations n - m, deltas)
CORPORA = {
    "d1": (("f0", "f1", "f2", "f3", "f2alt"), range(13), (0, OFFSET), (0, 1)),
    "d2": (("g0", "g1", "g2"), range(5), (0,), (0, 1)),
}
CONE_FUNCTIONS = CORPORA["d1"][0]

STAGES = {
    "solve": lambda problem, sol: kkt.solve(
        kkt.KktProblem(dim=problem.dim, m=problem.m, n=problem.n, target=problem.target, delta=problem.delta)
    ),
    "verify_kkt": lambda problem, sol: kkt.verify_kkt(problem, sol, cli.KKT_TOL),
    "objective": lambda problem, sol: kkt.objective(problem, sol.q.coeffs),
}

CACHES = [
    obj
    for module in (approx, cone, kkt, simplex)
    for obj in vars(module).values()
    if callable(getattr(obj, "cache_clear", None))
]


def cold_us(call, repeats: int) -> float:
    """Median microseconds of call(), every cache cleared before each call."""
    times = []
    for _ in range(repeats):
        for cache in CACHES:
            cache.cache_clear()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def table(per_m: dict) -> dict:
    return {
        "per_m_us": {m: round(t, 1) for m, t in per_m.items()},
        "total_us": round(sum(per_m.values()), 1),
    }


def time_builders(repeats: int) -> dict:
    # each rule is built once, as a process builds it at start-up
    rules = {d: approx.default_rule(d) for d in DEGREES}
    out = {}
    for name, (call, dims) in BUILDERS.items():
        out[name] = {
            f"d{d}": table(
                {m: cold_us(lambda: call(d, m, rules[d]), repeats) for m in DEGREES[d]}
            )
            for d in dims
        }
    return out


def time_stages(repeats: int) -> dict:
    per_m = {stage: {} for stage in STAGES}
    for corpus, (idents, degrees, elevations, deltas) in CORPORA.items():
        for stage in STAGES:
            per_m[stage][corpus] = dict.fromkeys(degrees, 0.0)
        for ident in idents:
            f = approx.get_function(ident)
            quad = approx.default_rule(f.dim)
            for m in degrees:
                target = approx.project(f, m, quad).coeffs
                for n in (m + e for e in elevations):
                    for delta in deltas:
                        problem = kkt.KktProblem(dim=f.dim, m=m, n=n, target=target, delta=delta)
                        sol = kkt.solve(problem)
                        for stage, call in STAGES.items():
                            per_m[stage][corpus][m] += cold_us(lambda: call(problem, sol), repeats)
    return {stage: {corpus: table(t) for corpus, t in corpora.items()} for stage, corpora in per_m.items()}


def time_cone(repeats: int) -> dict:
    quad = approx.default_rule(1)
    per_m = dict.fromkeys(range(1, cone.CONE_DEGREE_LIMIT + 1), 0.0)
    for ident in CONE_FUNCTIONS:
        f = approx.get_function(ident)
        for m in per_m:
            target = approx.project(f, m, quad)
            per_m[m] += cold_us(lambda: cone.solve_cone(target), repeats)
    return table(per_m)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15, help="calls per builder or stage and cell")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    builders = time_builders(args.repeats)
    stages = time_stages(args.repeats)
    cone_table = time_cone(args.repeats)
    out = {
        "repeats": args.repeats,
        "offset": OFFSET,
        "builders": builders,
        "stages": stages,
        "cone": cone_table,
        "all_stages_total_us": {
            corpus: round(sum(stages[stage][corpus]["total_us"] for stage in STAGES), 1)
            for corpus in CORPORA
        },
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
