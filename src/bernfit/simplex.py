"""Bernstein-basis machinery on the unit right d-simplex.

The simplex is conv{0, e_1, ..., e_d}; barycentric coordinates are
b_0 = 1 - sum(x), b_i = x_i.  Coefficient vectors are indexed by the
multiindices of a fixed order, enumerated in descending lexicographic
order on (a_0, ..., a_d).  At d = 1 that reduces to the usual i = 0..n
ordering of the univariate basis: the interval is the d = 1 simplex and
runs through the same functions.  Polynomials are bernstein.PolyCoeffs
with their dim set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bernstein import PolyCoeffs, _factorial_ratio


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
def _multiindex_array(d: int, n: int) -> np.ndarray:
    """multiindices(d, n) as a read-only integer array of shape (count, d+1)."""
    idx = np.array(multiindices(d, n))
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _index_map(d: int, n: int) -> dict[tuple[int, ...], int]:
    return {a: k for k, a in enumerate(multiindices(d, n))}


def multi_factorial(alpha) -> int:
    """alpha! = prod_i alpha_i! for a multiindex."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


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


def simplex_evaluate(p: PolyCoeffs, x) -> float | np.ndarray:
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

    Returns a C-contiguous array of shape (npts, C(d+n, d)); column order
    matches multiindices(d, n).  Uses the closed product form
    n!/a! * prod b_i^{a_i}, one array operation per exponent and per
    coordinate; the de Casteljau path in simplex_evaluate cross-checks it.
    """
    b = np.atleast_2d(barycentric(d, points))
    idx = _multiindex_array(d, n)
    # pows[i, e] = b_i^e, one multiply per exponent for every coordinate
    pows = np.ones((d + 1, n + 1, b.shape[0]))
    for e in range(1, n + 1):
        pows[:, e] = pows[:, e - 1] * b.T
    nfac = math.factorial(n)
    out = np.array([nfac / multi_factorial(a) for a in multiindices(d, n)])[:, None]
    # coordinate by coordinate; a zero exponent multiplies by exactly 1.0
    for i in range(d + 1):
        out = out * pows[i, idx[:, i]]
    return np.ascontiguousarray(out.T)


# rows of the cached Pascal table: every table the CLI's degree caps reach
# has at most 2 * 12 + 1 rows, so one table per row of output serves them all
_PASCAL_ROWS = 32
# the last row of Pascal's rule in float64 that is exact: row 58 holds 2
# rounded entries
_BINOMIAL_EXACT_ROWS = 57


@lru_cache(maxsize=None)
def _pascal(rows: int) -> np.ndarray:
    """Read-only table of C(a, b), 0 <= a, b < rows, zero for b > a, by Pascal's rule."""
    C = np.zeros((rows, rows))
    C[:, 0] = 1.0
    for a in range(1, rows):
        C[a, 1:] = C[a - 1, 1:] + C[a - 1, :-1]
    C.setflags(write=False)
    return C


def _binomials(n: int) -> np.ndarray:
    """Read-only table of C(a, b), 0 <= a, b <= n, zero for b > a.

    The top-left corner of one cached Pascal table.  Row a of Pascal's rule
    depends only on row a - 1, so every corner holds the same floating-point
    sums, and these are the exact integers through row 57.
    """
    if n > _BINOMIAL_EXACT_ROWS:
        raise ValueError(
            f"binomials are exact in float64 through row {_BINOMIAL_EXACT_ROWS}, asked for {n}"
        )
    rows = _PASCAL_ROWS if n < _PASCAL_ROWS else _BINOMIAL_EXACT_ROWS + 1
    return _pascal(rows)[: n + 1, : n + 1]


@lru_cache(maxsize=128)
def simplex_elevation(d: int, m: int, n: int) -> np.ndarray:
    """Dense C-contiguous elevation matrix of shape C(d+n,d) x C(d+m,d).

    Entry (a, b) = C(m; b) C(n-m; a-b) / C(n; a) with the multinomials
    C(n; a) = n!/a!, which equals prod_i C(a_i, b_i) / C(n, m).  The
    binomial table is exact through row 57 (and refuses larger n), and for
    the degrees used here the products stay exact integers, so each entry
    is one correctly rounded division.  Cached and read-only.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    upper = _multiindex_array(d, n)
    lower = _multiindex_array(d, m)
    binom = _binomials(n)
    prod = binom[upper[:, 0]][:, lower[:, 0]]
    for i in range(1, d + 1):
        prod = prod * binom[upper[:, i]][:, lower[:, i]]
    # the gathers can leave prod in Fortran order; C order fixes BLAS's
    # summation order in products with E, and so every written digit
    E = np.ascontiguousarray(prod) / math.comb(n, m)
    E.setflags(write=False)
    return E


@lru_cache(maxsize=128)
def simplex_mass_matrix(d: int, n: int) -> np.ndarray:
    """Gram matrix of the degree-n simplex basis, cached and read-only.

    Entry (a, b) = C(n, a) C(n, b) / C(2n, a+b) * (2n)!/(2n+d)!, with the
    multinomials C(n, a) = n!/a!: the product of two basis functions is
    C(n, a) C(n, b) / C(2n, a+b) times B^{2n}_{a+b}, and every degree-2n
    basis function integrates to (2n)!/(2n+d)!.
    """
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    fact = np.array([math.factorial(k) for k in range(2 * n + 1)], dtype=float)
    idx = _multiindex_array(d, n)
    c_n = fact[n] / fact[idx].prod(axis=1)
    c_2n = fact[2 * n] / fact[idx[:, None, :] + idx[None, :, :]].prod(axis=2)
    M = np.outer(c_n, c_n) / c_2n * _factorial_ratio((2 * n,), (2 * n + d,))
    M.setflags(write=False)
    return M


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
    """Degree-j coefficients of an M-orthonormal basis of P^j mod P^{j-1}.

    The part of P^j orthogonal to P^{j-1} is the lam_j eigenspace of
    M^{d,j}; it has dimension C(d+j-1, d-1).  It is spanned by the
    Rodrigues polynomials R_b = d^b [x^b (1 - |x|)^j] / b! over b in N^d
    with |b| = j, whose Bernstein coefficient at a is
    (-1)^(j-a_0) prod_{i>=1} C(b_i, a_i), and whose Gram matrix is exactly
    (j!)^2/(2j+d)! prod_{i>=1} C(b_i+c_i, b_i)
    (Farouki, Goodman & Sauer, CAGD 2003).  One eigendecomposition of that
    Gram matrix makes the block M^{d,j}-orthonormal.  A 1 x 1 Gram matrix
    (d = 1, or j = 0) is its own eigenvalue with eigenvector [1.0], which
    LAPACK returns as such, so it is scaled without the call.  At d = 1 the
    block is (-1)^j sqrt(2j+1) times the shifted Legendre polynomial; j = 0
    gives the constant sqrt(d!).
    """
    rows = _multiindex_array(d, j)
    cols = _multiindex_array(d - 1, j)
    binom = _binomials(2 * j)
    sign = np.where((j - rows[:, 0]) % 2, -1.0, 1.0)
    R = sign[:, None] * binom[cols[None, :, :], rows[:, None, 1:]].prod(axis=2)
    G = binom[cols[:, None, :] + cols[None, :, :], cols[:, None, :]].prod(axis=2)
    G = G * _factorial_ratio((j, j), (2 * j + d,))
    if G.shape == (1, 1):
        # the bits of V / sqrt(w) with V = [[1.0]]; R / sqrt(G) rounds otherwise
        return R @ (1.0 / np.sqrt(G))
    w, V = np.linalg.eigh(G)
    return R @ (V / np.sqrt(w))


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


@lru_cache(maxsize=128)
def _elevated_blocks(d: int, m: int, n: int) -> np.ndarray:
    """U^{m,n} = E^{m->n} [U^{m-1,m}, L_m], read-only and cached.

    L_m is the degree-m complement block, so each (m, m) reuses the stack
    one degree down, and each n > m elevates the cached (m, m) stack.
    """
    if n > m:
        U = simplex_elevation(d, m, n) @ _elevated_blocks(d, m, m)
    else:
        lower = [_elevated_blocks(d, m - 1, m)] if m else []
        U = np.hstack(lower + [orthogonal_complement_basis(d, m)])
    U.setflags(write=False)
    return U


@lru_cache(maxsize=128)
def simplex_spectral_factors(d: int, m: int, n: int) -> SimplexSpectralFactors:
    """The M-orthonormal complement blocks j = 0..m, elevated to degree n.

    U^{m,n} = E^{m->n} [U^{m-1,m}, L_m] with L_m the degree-m complement
    block.  The chain of U's is built and cached on its own, so the
    eigenvalues and W = U U^T / 2 are formed only for the (m, n) asked for,
    not for every degree below it.  Elevation preserves the L2 inner
    product, so the columns of U are M^{d,n}-orthonormal eigenvectors of
    M^{d,n}.  Cached: the factors are read-only and shared by every caller.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    lam_n, mult = simplex_mass_eigenvalues(d, n)
    U = _elevated_blocks(d, m, n)
    return SimplexSpectralFactors(
        dim=d,
        m=m,
        n=n,
        eigenvalues=np.repeat(lam_n[: m + 1], mult[: m + 1]),
        multiplicities=mult[: m + 1],
        U=U,
        W=0.5 * (U @ U.T),
    )


def simplex_downgrade(d: int, m: int, n: int, y) -> PolyCoeffs:
    """Least-squares degree reduction of a degree-n coefficient vector.

    Returns the degree-m coefficients solving min_x ||E^{m,n} x - y||_2,
    computed in the spectral form U^{m,m} diag(lam^n) (U^{m,n})^T y.  Exact
    (up to roundoff) whenever y lies in the range of the elevation.
    """
    y = np.asarray(y, dtype=float)
    want = math.comb(d + n, d)
    if y.shape != (want,):
        raise ValueError(f"expected vector of length {want}, got {y.shape}")
    fac_mn = simplex_spectral_factors(d, m, n)
    fac_mm = simplex_spectral_factors(d, m, m)
    q = fac_mm.U @ (fac_mn.eigenvalues * (fac_mn.U.T @ y))
    return PolyCoeffs(degree=m, coeffs=q, dim=d)


def simplex_integral(p: PolyCoeffs) -> float:
    """Integral over the simplex: every basis function integrates to n!/(n+d)!."""
    n, d = p.degree, p.dim
    return _factorial_ratio((n,), (n + d,)) * float(p.coeffs.sum())
