#!/usr/bin/env python3
"""Time each stage of a KKT cell from cleared caches.

Usage, from the root of a checkout:

    python3 scripts/time_kkt.py [--repeats 15]

Every cell of the 1-D corpus (f0-f3 and f2alt, m = 0..12, n = m and
m + 10, delta = 0 and 1) and of the 2-D corpus (g0-g2, m = 0..4, n = m)
is timed in three stages: building its KktProblem and solving it,
verify_kkt on the answer at the CLI's tolerance, and objective at the
answer.  Every functools cache in the package is cleared before each
call, as in a fresh ``bernfit`` process, so a stage's time includes the
tables it builds, such as the elevation, mass and spectral factors.  The
targets, the projections of the default rule, are computed once
beforehand.

Prints one JSON object: for each stage and corpus, the median
microseconds of a call summed over the cells of each degree, and their
sum over the degrees; then the three stages' sum for each corpus.
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
# corpus -> (functions, degrees, elevations n - m, deltas)
CORPORA = {
    "d1": (("f0", "f1", "f2", "f3", "f2alt"), range(13), (0, OFFSET), (0, 1)),
    "d2": (("g0", "g1", "g2"), range(5), (0,), (0, 1)),
}

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


def cold_us(call, problem, sol, repeats: int) -> float:
    """Median microseconds of call(problem, sol), every cache cleared before each call."""
    times = []
    for _ in range(repeats):
        for cache in CACHES:
            cache.cache_clear()
        t0 = time.perf_counter()
        call(problem, sol)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15, help="calls per stage and cell")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    out = {"repeats": args.repeats, "offset": OFFSET, "stages": {}, "all_stages_total_us": {}}
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
                            per_m[stage][corpus][m] += cold_us(call, problem, sol, args.repeats)
    for stage, corpora in per_m.items():
        out["stages"][stage] = {
            corpus: {
                "per_m_us": {m: round(t, 1) for m, t in times.items()},
                "total_us": round(sum(times.values()), 1),
            }
            for corpus, times in corpora.items()
        }
    for corpus in CORPORA:
        out["all_stages_total_us"][corpus] = round(
            sum(out["stages"][stage][corpus]["total_us"] for stage in STAGES), 1
        )
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
