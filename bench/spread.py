#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload interval --seconds 50 --seeds 1 2 3 4 5

For every metric of the runs' last-line results: the median, and the
distance between the first and third quartiles (statistics.quantiles with
n=4) as a share of the median, which is what a bound in BENCHMARK.json is
compared against.  The runs are untraced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=RUN.parent.parent, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: correct={results[-1]['correct']}", flush=True)

    print(f"{args.workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
    if len(results) < 2:
        return 0
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med, iqr = spread(values)
        print(f"  {name:40s} median {med:<12.6g} {first['unit']:6s} iqr/median {iqr:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
