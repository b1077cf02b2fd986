#!/usr/bin/env python3
"""Re-verify a serialized nonnegativity certificate, independently.

Reads the CSV-block certificate written by bernfit.serialize.save_cone_point
and checks, without going through the library's adjoint-map code path:

  1. both blocks are symmetric and positive semidefinite (eigenvalue check);
  2. the polynomial assembled directly from the quadratic-form identity

         even m=2l:  q(x) = v_l(x)^T A v_l(x) + x(1-x) v_{l-1}(x)^T B v_{l-1}(x)
         odd  m=2l+1: q(x) = x v_l(x)^T A v_l(x) + (1-x) v_l(x)^T B v_l(x)

     with v_k(x) = (u^k_0(x), ..., u^k_k(x)), u^k_i(x) = x^i (1-x)^(k-i), the
     scaled Bernstein basis, is nonnegative on a dense grid;
  3. optionally, that it matches stored Bernstein coefficients (--coeffs,
     a one-row CSV) on the same grid.

Exit code 0 when every check passes.
"""

import argparse
import sys

import numpy as np


def read_certificate(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    m = int(lines[0].split(",")[1])
    blocks = {}
    i = 1
    while i < len(lines):
        _, name, size = lines[i].split(",")
        size = int(size)
        rows = lines[i + 1 : i + 1 + size]
        blocks[name] = (
            np.array([[float(v) for v in r.split(",")] for r in rows])
            if size
            else np.zeros((0, 0))
        )
        i += 1 + size
    return m, blocks["A"], blocks["B"]


def u_basis(x, k):
    """Columns x^i (1-x)^(k-i), i = 0..k; no columns for k < 0."""
    i = np.arange(k + 1)
    return x[:, None] ** i * (1.0 - x[:, None]) ** (k - i)


def quadratic_form_values(m, A, B, x):
    ell = m // 2
    v = u_basis(x, ell)
    qa = np.einsum("pi,ij,pj->p", v, A, v) if A.size else np.zeros_like(x)
    if m % 2 == 0:
        w = u_basis(x, ell - 1)
        qb = np.einsum("pi,ij,pj->p", w, B, w) if B.size else np.zeros_like(x)
        return qa + x * (1.0 - x) * qb
    qb = np.einsum("pi,ij,pj->p", v, B, v) if B.size else np.zeros_like(x)
    return x * qa + (1.0 - x) * qb


def bernstein_values(coeffs, x):
    beta = np.broadcast_to(coeffs, x.shape + (coeffs.shape[0],)).copy()
    t = x[:, None]
    for _ in range(coeffs.shape[0] - 1):
        beta = beta[:, :-1] * (1.0 - t) + beta[:, 1:] * t
    return beta[:, 0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("certificate")
    ap.add_argument("--coeffs", help="one-row CSV of Bernstein coefficients")
    ap.add_argument("--grid", type=int, default=10001)
    ap.add_argument("--psd-tol", type=float, default=1e-10)
    ap.add_argument("--min-tol", type=float, default=1e-9)
    args = ap.parse_args(argv)

    m, A, B = read_certificate(args.certificate)
    ok = True
    for name, block in (("A", A), ("B", B)):
        if block.size == 0:
            print(f"{name}: empty block, skipped")
            continue
        sym = np.max(np.abs(block - block.T))
        lam_min = float(np.linalg.eigvalsh(0.5 * (block + block.T)).min())
        good = sym <= 1e-12 and lam_min >= -args.psd_tol
        ok &= good
        print(f"{name}: symmetry {sym:.2e}, min eigenvalue {lam_min:.2e}"
              f" -> {'ok' if good else 'FAIL'}")

    x = np.linspace(0.0, 1.0, args.grid)
    vals = quadratic_form_values(m, A, B, x)
    gmin = float(vals.min())
    good = gmin >= -args.min_tol
    ok &= good
    print(f"grid minimum of certified polynomial: {gmin:.3e}"
          f" -> {'ok' if good else 'FAIL'}")

    if args.coeffs:
        with open(args.coeffs) as fh:
            coeffs = np.array([float(v) for v in fh.read().strip().split(",")])
        if coeffs.shape[0] != m + 1:
            print(f"coefficient count {coeffs.shape[0]} != degree+1 = {m + 1} -> FAIL")
            ok = False
        else:
            gap = float(np.max(np.abs(bernstein_values(coeffs, x) - vals)))
            good = gap <= 1e-8 * max(1.0, float(np.max(np.abs(vals))))
            ok &= good
            print(f"certificate vs stored coefficients: max gap {gap:.3e}"
                  f" -> {'ok' if good else 'FAIL'}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
