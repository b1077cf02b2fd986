#!/usr/bin/env python3
"""Re-verify a serialized nonnegativity certificate, independently.

Reads the CSV-block certificate written by bernfit.serialize.save_cone_point
through the package's one loader, bernfit.serialize.load_cone_point, and
checks, without going through the library's adjoint-map code path:

  1. both blocks are symmetric and positive semidefinite (eigenvalue check);
  2. the polynomial assembled directly from the quadratic-form identity

         even m=2l:  q(x) = v_l(x)^T A v_l(x) + x(1-x) v_{l-1}(x)^T B v_{l-1}(x)
         odd  m=2l+1: q(x) = x v_l(x)^T A v_l(x) + (1-x) v_l(x)^T B v_l(x)

     with v_k(x) = (u^k_0(x), ..., u^k_k(x)), u^k_i(x) = x^i (1-x)^(k-i), the
     scaled Bernstein basis, is nonnegative on a uniform grid of [0, 1];
  3. optionally, that it matches stored Bernstein coefficients (--coeffs,
     a one-row CSV), evaluated by bernfit.evaluate, on the same grid.

Exit code 0 when every check passes; 1 when one fails, or when a file
cannot be read (one line on stderr naming the file and the reason).
"""

import argparse
import sys

import numpy as np

from bernfit import evaluate, poly
from bernfit.serialize import load_cone_point

GRID = 10001  # points of the uniform grid on [0, 1]
PSD_TOL = 1e-10  # a block passes with smallest eigenvalue >= -PSD_TOL
MIN_TOL = 1e-9  # the certified polynomial passes with grid minimum >= -MIN_TOL


def u_basis(x, k):
    """Columns x^i (1-x)^(k-i), i = 0..k; no columns for k < 0."""
    i = np.arange(k + 1)
    return x[:, None] ** i * (1.0 - x[:, None]) ** (k - i)


def quadratic_form_values(m, A, B, x):
    ell = m // 2
    v = u_basis(x, ell)
    qa = np.einsum("pi,ij,pj->p", v, A, v)
    if m % 2 == 0:
        w = u_basis(x, ell - 1)
        return qa + x * (1.0 - x) * np.einsum("pi,ij,pj->p", w, B, w)
    return x * qa + (1.0 - x) * np.einsum("pi,ij,pj->p", v, B, v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("certificate")
    ap.add_argument("--coeffs", help="one-row CSV of Bernstein coefficients")
    args = ap.parse_args(argv)

    path = args.certificate
    try:
        point = load_cone_point(path)
        if args.coeffs:
            path = args.coeffs
            with open(path) as fh:
                coeffs = np.array([float(v) for v in fh.read().strip().split(",")])
    except (OSError, ValueError) as e:
        print(f"verify_certificate: {path}: {e}", file=sys.stderr)
        return 1

    ok = True
    for name, block in (("A", point.A), ("B", point.B)):
        if block.size == 0:
            print(f"{name}: empty block, skipped")
            continue
        sym = np.max(np.abs(block - block.T))
        lam_min = float(np.linalg.eigvalsh(0.5 * (block + block.T)).min())
        good = sym <= 1e-12 and lam_min >= -PSD_TOL
        ok &= good
        print(f"{name}: symmetry {sym:.2e}, min eigenvalue {lam_min:.2e}"
              f" -> {'ok' if good else 'FAIL'}")

    m = point.m
    x = np.linspace(0.0, 1.0, GRID)
    vals = quadratic_form_values(m, point.A, point.B, x)
    gmin = float(vals.min())
    good = gmin >= -MIN_TOL
    ok &= good
    print(f"grid minimum of certified polynomial: {gmin:.3e}"
          f" -> {'ok' if good else 'FAIL'}")

    if args.coeffs:
        if coeffs.shape[0] != m + 1:
            print(f"coefficient count {coeffs.shape[0]} != degree+1 = {m + 1} -> FAIL")
            ok = False
        else:
            gap = float(np.max(np.abs(evaluate(poly(coeffs), x) - vals)))
            good = gap <= 1e-8 * max(1.0, float(np.max(np.abs(vals))))
            ok &= good
            print(f"certificate vs stored coefficients: max gap {gap:.3e}"
                  f" -> {'ok' if good else 'FAIL'}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
