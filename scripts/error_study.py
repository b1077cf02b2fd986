#!/usr/bin/env python3
"""Reproduce the desk-scale accuracy study for the built-in corpus.

Writes error tables into the output directory, one CSV per target function
and method group: the univariate targets with the projection baseline, the
constrained solves at elevation offsets 0 and 10 and the exact-nonnegativity
cone solve (plus sample overlays at degree 5), the two linear baselines, and
the triangle targets with projection and the constrained solve at n = m.

Usage: python3 scripts/error_study.py [outdir] [--quick]

Any other argument is refused with exit 1 and one line on stderr, before
the output directory is made.
"""

import argparse
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error_study: {message}", file=sys.stderr)
        sys.exit(1)


def main(argv=None) -> int:
    ap = _Parser(prog="error_study", description=__doc__.splitlines()[0])
    ap.add_argument("outdir", nargs="?", type=Path, default=Path("study_out"),
                    help="directory for the error tables (default: study_out)")
    ap.add_argument("--quick", action="store_true",
                    help="degrees up to 6 in 1-D and 2 in 2-D, not 8 and 4")
    args = ap.parse_args(argv)
    return run(args.outdir, args.quick)


if __name__ == "__main__":
    sys.exit(main())
