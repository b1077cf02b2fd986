#!/usr/bin/env python3
"""Reproduce the desk-scale accuracy study for the built-in corpus.

Writes error tables into the output directory, one CSV per target function
and method group: the univariate targets with the projection baseline, the
constrained solves at elevation offsets 0 and 10 and the exact-nonnegativity
cone solve (plus sample overlays at degree 5), the two linear baselines, and
the triangle targets with projection and the constrained solve at n = m.

Usage: python3 scripts/error_study.py [outdir] [--quick]
"""

import sys
from pathlib import Path

from bernfit.cli import main as cli_main


def run(outdir: Path, quick: bool) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    mmax_1d = "6" if quick else "8"
    mmax_2d = "2" if quick else "4"
    worst = 0

    for fid in ("f0", "f1", "f2", "f3"):
        worst = max(worst, cli_main([
            "--func", fid,
            "--mmin", "0",
            "--mmax", mmax_1d,
            "--elevate", "0",
            "--elevate", "10",
            "--methods", "project,kkt,cone",
            "--samples-degree", "5",
            "--out", str(outdir / f"errors_{fid}.csv"),
        ]))
        # the sampling baselines need at least one interior node
        worst = max(worst, cli_main([
            "--func", fid,
            "--mmin", "1",
            "--mmax", mmax_1d,
            "--methods", "bernstein,p1",
            "--out", str(outdir / f"errors_{fid}_baselines.csv"),
        ]))

    for fid in ("g0", "g1", "g2"):
        worst = max(worst, cli_main([
            "--func", fid,
            "--dim", "2",
            "--mmin", "0",
            "--mmax", mmax_2d,
            "--methods", "project,kkt",
            "--out", str(outdir / f"errors_{fid}.csv"),
        ]))

    print(f"error tables written to {outdir}")
    return worst


if __name__ == "__main__":
    argv = sys.argv[1:]
    quick = "--quick" in argv
    argv = [a for a in argv if a != "--quick"]
    out = Path(argv[0]) if argv else Path("study_out")
    sys.exit(run(out, quick))
