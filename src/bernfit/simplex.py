"""Bernstein-basis machinery on the unit right d-simplex.

The simplex is conv{0, e_1, ..., e_d}; barycentric coordinates are
b_0 = 1 - sum(x), b_i = x_i.  Coefficient vectors are indexed by the
multiindices of a fixed order, enumerated in descending lexicographic
order on (a_0, ..., a_d).  At d = 1 that reduces to the usual i = 0..n
ordering of the univariate basis, so both code paths share fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .bernstein import _factorial_ratio


@lru_cache(maxsize=None)
def multiindices(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All multiindices (a_0..a_d) with |a| = n, descending lexicographic."""
    if d < 0 or n < 0:
        raise ValueError(f"need d >= 0 and n >= 0, got d={d}, n={n}")
    if d == 0:
        return ((n,),)
    out = []
    for a0 in range(n, -1, -1):
        for rest in multiindices(d - 1, n - a0):
            out.append((a0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _index_map(d: int, n: int) -> dict[tuple[int, ...], int]:
    return {a: k for k, a in enumerate(multiindices(d, n))}


def multi_factorial(alpha) -> int:
    """alpha! = prod_i alpha_i! for a multiindex."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


@dataclass(frozen=True)
class SimplexPoly:
    """Polynomial on the d-simplex as Bernstein coefficients of degree n."""

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        want = math.comb(self.dim + self.degree, self.dim)
        if c.ndim != 1 or c.shape[0] != want:
            raise ValueError(
                f"coefficient vector must have length C({self.dim}+{self.degree},"
                f"{self.dim}) = {want}, got shape {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def simplex_poly(d: int, n: int, coeffs) -> SimplexPoly:
    return SimplexPoly(dim=d, degree=n, coeffs=np.asarray(coeffs, dtype=float))


def barycentric(d: int, x) -> np.ndarray:
    """Barycentric coordinates (b_0..b_d) of point(s) x in R^d.

    Accepts a single point of shape (d,) or a stack of shape (npts, d).
    Affine, so points outside the simplex give coordinates outside [0, 1].
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != d:
        raise ValueError(f"points must have {d} coordinates, got {pts.shape}")
    b = np.empty((pts.shape[0], d + 1))
    b[:, 0] = 1.0 - pts.sum(axis=1)
    b[:, 1:] = pts
    return b[0] if single else b


def simplex_evaluate(p: SimplexPoly, x) -> float | np.ndarray:
    """Evaluate p at x by the multivariate de Casteljau recurrence."""
    d, n = p.dim, p.degree
    b = barycentric(d, x)
    single = b.ndim == 1
    b = np.atleast_2d(b)
    vals = np.broadcast_to(p.coeffs, (b.shape[0], p.coeffs.shape[0])).copy()
    for k in range(n, 0, -1):
        lower = multiindices(d, k - 1)
        upper_map = _index_map(d, k)
        nxt = np.zeros((b.shape[0], len(lower)))
        for pos, beta in enumerate(lower):
            for i in range(d + 1):
                src = upper_map[beta[:i] + (beta[i] + 1,) + beta[i + 1 :]]
                nxt[:, pos] += b[:, i] * vals[:, src]
        vals = nxt
    out = vals[:, 0]
    return float(out[0]) if single else out


def simplex_basis_values(d: int, n: int, points) -> np.ndarray:
    """Values of every degree-n basis polynomial at the given points.

    Returns shape (npts, C(d+n, d)); column order matches multiindices(d, n).
    Uses the closed product form n!/a! * prod b_i^{a_i}, vectorized over
    points; the de Casteljau path in simplex_evaluate cross-checks it.
    """
    b = np.atleast_2d(barycentric(d, points))
    idx = multiindices(d, n)
    # b_i^e for all needed exponents, computed once
    pows = np.ones((d + 1, n + 1, b.shape[0]))
    for i in range(d + 1):
        for e in range(1, n + 1):
            pows[i, e] = pows[i, e - 1] * b[:, i]
    out = np.empty((b.shape[0], len(idx)))
    nfac = math.factorial(n)
    for k, alpha in enumerate(idx):
        col = np.full(b.shape[0], nfac / multi_factorial(alpha))
        for i, e in enumerate(alpha):
            if e:
                col = col * pows[i, e]
        out[:, k] = col
    return out


@lru_cache(maxsize=None)
def _elevation_step(d: int, k: int) -> sparse.csr_matrix:
    """Single-step elevation k -> k+1: c'_a = sum_j (a_j/(k+1)) c_{a-e_j}."""
    upper = multiindices(d, k + 1)
    lower_map = _index_map(d, k)
    rows, cols, vals = [], [], []
    for r, alpha in enumerate(upper):
        for j in range(d + 1):
            if alpha[j] == 0:
                continue
            beta = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
            rows.append(r)
            cols.append(lower_map[beta])
            vals.append(alpha[j] / (k + 1))
    shape = (len(upper), math.comb(d + k, d))
    return sparse.csr_matrix((vals, (rows, cols)), shape=shape)


def elevation_steps(d: int, m: int, n: int) -> tuple[sparse.csr_matrix, ...]:
    """The single-step factors whose product elevates degree m to degree n."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return tuple(_elevation_step(d, k) for k in range(m, n))


def apply_elevation(d: int, m: int, n: int, c: np.ndarray) -> np.ndarray:
    """Elevate a degree-m coefficient vector (or stacked columns) to degree n."""
    out = np.asarray(c, dtype=float)
    for step in elevation_steps(d, m, n):
        out = step @ out
    return out


def simplex_elevation(d: int, m: int, n: int) -> np.ndarray:
    """Dense elevation matrix of shape C(d+n,d) x C(d+m,d)."""
    return apply_elevation(d, m, n, np.eye(math.comb(d + m, d)))


def simplex_mass_matrix(d: int, n: int) -> np.ndarray:
    """Gram matrix of the degree-n simplex basis.

    Entry (a, b) = C(n, a) C(n, b) / C(2n, a+b) * (2n)!/(2n+d)!, with the
    multinomials C(n, a) = n!/a!: the product of two basis functions is
    C(n, a) C(n, b) / C(2n, a+b) times B^{2n}_{a+b}, and every degree-2n
    basis function integrates to (2n)!/(2n+d)!.
    """
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    fact = np.array([math.factorial(k) for k in range(2 * n + 1)], dtype=float)
    idx = np.array(multiindices(d, n))
    c_n = fact[n] / fact[idx].prod(axis=1)
    c_2n = fact[2 * n] / fact[idx[:, None, :] + idx[None, :, :]].prod(axis=2)
    return np.outer(c_n, c_n) / c_2n * _factorial_ratio((2 * n,), (2 * n + d,))


def simplex_mass_eigenvalues(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam_j = (n!)^2 / ((n+j+d)! (n-j)!) with multiplicities.

    Returns (values for j = 0..n, multiplicities C(d+j-1, d-1)).
    """
    lam = np.empty(n + 1)
    lam[0] = _factorial_ratio((n,), (n + d,))
    for j in range(n):
        lam[j + 1] = lam[j] * (n - j) / (n + j + d + 1)
    mult = np.array([math.comb(d + j - 1, d - 1) for j in range(n + 1)])
    return lam, mult


def orthogonal_complement_basis(d: int, j: int) -> np.ndarray:
    """Degree-j coefficients of a basis for the part of P^j orthogonal to P^{j-1}.

    That part is the lam_j eigenspace of M^{d,j}, the null space of E^T M^{d,j}
    for the elevation E from degree j-1; it has dimension C(d+j-1, d-1).  Its
    basis is the trailing columns of one complete QR of M^{d,j} E, made
    M^{d,j}-orthonormal by one eigendecomposition of their Gram matrix.
    j = 0 gives the constant polynomial 1, not normalized.
    """
    if j == 0:
        return np.ones((1, 1))
    M = simplex_mass_matrix(d, j)
    ME = M @ _elevation_step(d, j - 1).toarray()
    L = np.linalg.qr(ME, mode="complete")[0][:, ME.shape[1] :]
    w, V = np.linalg.eigh(L.T @ M @ L)
    return L @ (V / np.sqrt(w))


@dataclass(frozen=True)
class SimplexSpectralFactors:
    """Block spectral data for the simplex mass matrices between degrees m <= n.

    eigenvalues repeats lam^{d,n}_j according to its multiplicity
    C(d+j-1, d-1), matching the column blocks of U.  W = U U^T / 2.
    """

    dim: int
    m: int
    n: int
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    U: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        for a in (self.eigenvalues, self.multiplicities, self.U, self.W):
            a.setflags(write=False)


def simplex_spectral_factors(d: int, m: int, n: int) -> SimplexSpectralFactors:
    """Stack the M-orthonormal complement blocks j = 0..m, elevated to degree n.

    One sweep climbs from degree 0 to n: each step elevates the blocks stacked
    so far by one degree and, up to degree m, appends the next complement
    block.  Elevation preserves the L2 inner product, so the columns of U are
    M^{d,n}-orthonormal eigenvectors of M^{d,n}.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    lam_n, mult = simplex_mass_eigenvalues(d, n)
    # the constant block, normalized: M^{d,0} = 1/d!
    U = np.full((1, 1), math.sqrt(math.factorial(d)))
    for k in range(n):
        U = _elevation_step(d, k) @ U
        if k < m:
            U = np.hstack([U, orthogonal_complement_basis(d, k + 1)])
    return SimplexSpectralFactors(
        dim=d,
        m=m,
        n=n,
        eigenvalues=np.repeat(lam_n[: m + 1], mult[: m + 1]),
        multiplicities=mult[: m + 1],
        U=U,
        W=0.5 * (U @ U.T),
    )


def simplex_downgrade(d: int, m: int, n: int, y) -> SimplexPoly:
    """Least-squares reduction of a degree-n coefficient vector to degree m."""
    y = np.asarray(y, dtype=float)
    fac_mn = simplex_spectral_factors(d, m, n)
    fac_mm = simplex_spectral_factors(d, m, m)
    q = fac_mm.U @ (fac_mn.eigenvalues * (fac_mn.U.T @ y))
    return SimplexPoly(dim=d, degree=m, coeffs=q)


def simplex_integral(p: SimplexPoly) -> float:
    """Integral over the simplex: every basis function integrates to n!/(n+d)!."""
    n, d = p.degree, p.dim
    return _factorial_ratio((n,), (n + d,)) * float(p.coeffs.sum())
