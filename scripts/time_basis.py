#!/usr/bin/env python3
"""Time each per-degree builder of the basis layer from cleared caches.

Usage, from the root of a checkout:

    python3 scripts/time_basis.py [--repeats 15]

Each builder is called at d = 1 (m = 0..12) and d = 2 (m = 0..10), the
degrees of the interval and triangle workloads, with every functools cache
in the package cleared before each call, as in a fresh ``bernfit``
process.  A call's time includes the tables it builds on, such as the
multiindices.  Elevation and the elevated spectral factors are timed at
n = m + 10, the KKT offset of the interval workload.

Prints one JSON object: for each builder and dimension, the median
microseconds of a call at every degree, and their sum over the degrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bernfit import approx, cone, simplex  # noqa: E402

DEGREES = {1: range(13), 2: range(11)}
OFFSET = 10

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
    "_hessian_tables": (lambda d, m, rule: cone._hessian_tables(m), (1,)),
}

CACHES = [
    obj
    for module in (approx, cone, simplex)
    for obj in vars(module).values()
    if callable(getattr(obj, "cache_clear", None))
]


def cold_us(call, d: int, m: int, repeats: int) -> float:
    """Median microseconds of call(d, m, rule), every cache cleared before each call."""
    # the rule is built once, as a process builds it at start-up
    rule = approx.default_rule(d)
    times = []
    for _ in range(repeats):
        for cache in CACHES:
            cache.cache_clear()
        t0 = time.perf_counter()
        call(d, m, rule)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15, help="calls per builder and degree")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    out = {"repeats": args.repeats, "offset": OFFSET, "builders": {}}
    for name, (call, dims) in BUILDERS.items():
        entry = {}
        for d in dims:
            per_m = {m: round(cold_us(call, d, m, args.repeats), 1) for m in DEGREES[d]}
            entry[f"d{d}"] = {"per_m_us": per_m, "total_us": round(sum(per_m.values()), 1)}
        out["builders"][name] = entry
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
