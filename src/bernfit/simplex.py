"""Bernstein-basis machinery on the unit right d-simplex.

The simplex is conv{0, e_1, ..., e_d}; barycentric coordinates are
b_0 = 1 - sum(x), b_i = x_i.  Coefficient vectors are indexed by the
multiindices of a fixed order, enumerated in descending lexicographic
order on (a_0, ..., a_d).  At d = 1 that reduces to the usual i = 0..n
ordering of the univariate basis: the interval is the d = 1 simplex and
runs through the same functions, evaluation, mass and elevation matrices
and spectral factors alike.  Polynomials are PolyCoeffs with their dim
set; this module is the package's one basis layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

# Largest degree for which mass-matrix entries are built from exact integer
# factorial ratios; beyond this the entries come from log-gamma.
MASS_EXACT_LIMIT = 30


@dataclass(frozen=True)
class PolyCoeffs:
    """A polynomial held as its Bernstein coefficient vector of fixed degree.

    dim = 1 is the interval [0, 1]; a larger dim is the unit right
    dim-simplex, with the coefficients in multiindices order.
    """

    degree: int
    coeffs: np.ndarray
    dim: int = 1

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        want = math.comb(self.dim + self.degree, self.dim)
        if c.ndim != 1 or c.shape[0] != want:
            raise ValueError(
                f"coefficient vector must have length C(dim+degree, dim) = "
                f"{want}, got shape {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def poly(coeffs) -> PolyCoeffs:
    """Wrap a coefficient sequence as a univariate PolyCoeffs of the implied degree."""
    c = np.asarray(coeffs, dtype=float)
    return PolyCoeffs(degree=c.shape[0] - 1, coeffs=c)


def _factorial_ratio(num_factorials, den_factorials) -> float:
    """Product of factorials over product of factorials as a float.

    Exact integer arithmetic (correctly rounded on division) below
    MASS_EXACT_LIMIT-sized inputs; log-gamma otherwise.
    """
    if max(list(num_factorials) + list(den_factorials), default=0) <= 2 * MASS_EXACT_LIMIT + 1:
        num = 1
        for a in num_factorials:
            num *= math.factorial(a)
        den = 1
        for a in den_factorials:
            den *= math.factorial(a)
        return num / den
    s = sum(math.lgamma(a + 1) for a in num_factorials) - sum(
        math.lgamma(a + 1) for a in den_factorials
    )
    return math.exp(s)


@lru_cache(maxsize=None)
def _multiindex_array(d: int, n: int) -> np.ndarray:
    """Read-only integer array of shape (C(d+n, d), d+1): every multiindex
    (a_0..a_d) with |a| = n, in descending lexicographic order.

    Stars and bars, with no recursion: the d bars among n + d slots, in
    reverse lexicographic order of their positions, leave a_0 stars before
    the first bar, a_i between bars i and i+1 and a_d after the last, in
    descending lexicographic order of a.
    """
    if d < 0 or n < 0:
        raise ValueError(f"need d >= 0 and n >= 0, got d={d}, n={n}")
    count = math.comb(n + d, d)
    bars = np.empty((count, d + 2), dtype=np.intp)
    bars[:, 0] = -1
    bars[:, -1] = n + d
    positions = chain.from_iterable(combinations(range(n + d), d))
    bars[::-1, 1:-1] = np.fromiter(positions, np.intp, count * d).reshape(count, d)
    idx = np.diff(bars, axis=1) - 1
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def multiindices(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All multiindices (a_0..a_d) with |a| = n, descending lexicographic."""
    return tuple(map(tuple, _multiindex_array(d, n).tolist()))


@lru_cache(maxsize=None)
def _multinomials(d: int, n: int) -> np.ndarray:
    """Read-only n!/a! over multiindices(d, n), each from Python integers by
    one correctly rounded division."""
    nfac = math.factorial(n)
    c = np.array([nfac / math.prod(map(math.factorial, a)) for a in multiindices(d, n)])
    c.setflags(write=False)
    return c


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
    """Evaluate p at x by the de Casteljau recurrence, the one path for every d.

    x is a point (d,) or a stack (npts, d); at d = 1 also a scalar or a
    vector of points.  A scalar, or a (d,) point with d > 1, gives a float.
    Each level sums its d + 1 terms from the first product, so at d = 1 a
    step is beta_i (1 - x) + beta_{i+1} x, signed zeros included.
    """
    d = p.dim
    x = np.asarray(x, dtype=float)
    if d == 1 and x.ndim < 2:
        single = x.ndim == 0
        x = x.reshape(-1, 1)
    else:
        single = x.ndim == 1
    b = np.atleast_2d(barycentric(d, x))
    vals = np.broadcast_to(p.coeffs, (b.shape[0], p.coeffs.shape[0])).copy()
    for k in range(p.degree, 0, -1):
        # in base k + 1 the degree-k multiindices are descending keys, and
        # a + e_i adds digit i's weight: src[i] is where a + e_i sits
        w = (k + 1) ** np.arange(d, -1, -1)
        keys = -(_multiindex_array(d, k) @ w)
        src = np.searchsorted(keys, -(_multiindex_array(d, k - 1) @ w + w[:, None]))
        nxt = vals[:, src[0]] * b[:, :1]
        for i in range(1, d + 1):
            nxt = nxt + vals[:, src[i]] * b[:, i : i + 1]
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
    out = _multinomials(d, n)[:, None]
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
    c_n = _multinomials(d, n)
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


@lru_cache(maxsize=128)
def orthogonal_complement_basis(d: int, m: int) -> np.ndarray:
    """U^{m,m}: the M^{d,m}-orthonormal complement blocks j = 0..m at degree m.

    The part of P^j orthogonal to P^{j-1} is the lam_j eigenspace of the
    mass matrices; it has dimension C(d+j-1, d-1) and is spanned by the
    Rodrigues polynomials R_b = d^b [x^b (1 - |x|)^j] / b! over b in N^d
    with |b| = j, whose degree-j Bernstein coefficient at a is
    (-1)^(j-a_0) prod_{i>=1} C(b_i, a_i), and whose Gram matrix is exactly
    (j!)^2/(2j+d)! prod_{i>=1} C(b_i+c_i, b_i)
    (Farouki, Goodman & Sauer, CAGD 2003).  Every multiindex of degree
    <= m comes from one enumeration, multiindices(d+1, m) read as
    (m - j, a) with |a| = j, and the column (j, b) of U is the degree-m
    multiindex (m - j, b), so the blocks come in order j = 0..m.

    X = E_all R_all holds every R_b elevated to degree m: each entry is a
    sum of integer products prod_i C(A_i, a_i) times a Rodrigues
    coefficient, at most C(m, j) C(j, j/2) < 2^53 for every m the binomial
    table allows, so exact, then divided once by C(m, j).  One Cholesky
    factor C of the block-diagonal Gram matrix makes the blocks
    orthonormal: U = X C^{-T}.  The Gram entries carry their scale, so a
    1 x 1 block (every block at d = 1, the constant block at every d) is
    R / sqrt(G) through the reciprocal, the bits of its eigendecomposition.
    Cached and read-only.  At d = 1 column j is (-1)^j sqrt(2j+1) times
    the shifted Legendre polynomial, and the constant column is sqrt(d!).
    """
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    # rows (m - j, a): a is a degree-j multiindex, in blocks j = 0..m
    slack = _multiindex_array(d + 1, m)
    lower, degree = slack[:, 1:], m - slack[:, 0]
    # the degree-m multiindices index the rows of U and, as (m - j, b), its columns
    idx = lower[-math.comb(d + m, d):]
    block = m - idx[:, 0]
    binom = _binomials(2 * m)
    # E_all[A, a] * C(m, j) = prod_i C(A_i, a_i); R_all^T[(j, b), a] on block j
    elevate = binom[idx[:, 0]][:, lower[:, 0]]
    rodrigues = np.where(block[:, None] == degree, 1.0 - 2.0 * ((degree - lower[:, 0]) % 2), 0.0)
    gram = (block[:, None] == block).astype(float)
    for i in range(1, d + 1):
        # C(A_i, a_i) for the elevation and C(b_i, a_i) for R, b = A[1:]
        factor = binom[idx[:, i]][:, lower[:, i]]
        elevate *= factor
        rodrigues *= factor
        gram *= binom[idx[:, i, None] + idx[:, i], idx[:, i, None]]
    X = (elevate @ rodrigues.T) / binom[m, block]
    scale = np.array([_factorial_ratio((j, j), (2 * j + d,)) for j in range(m + 1)])
    C = np.linalg.cholesky(gram * scale[block])
    U = X @ np.linalg.inv(C).T
    U.setflags(write=False)
    return U


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
    U: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        for a in (self.eigenvalues, self.U, self.W):
            a.setflags(write=False)


@lru_cache(maxsize=128)
def simplex_spectral_factors(d: int, m: int, n: int) -> SimplexSpectralFactors:
    """The M-orthonormal complement blocks j = 0..m, elevated to degree n.

    U^{m,n} = E^{m->n} U^{m,m}, with U^{m,m} from orthogonal_complement_basis
    (itself at n = m).  Elevation preserves the L2 inner product, so the
    columns of U are M^{d,n}-orthonormal eigenvectors of M^{d,n}.  Cached:
    the factors are read-only and shared by every caller.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    lam_n, mult = simplex_mass_eigenvalues(d, n)
    U = orthogonal_complement_basis(d, m)
    if n > m:
        U = simplex_elevation(d, m, n) @ U
    return SimplexSpectralFactors(
        dim=d,
        m=m,
        n=n,
        eigenvalues=np.repeat(lam_n[: m + 1], mult[: m + 1]),
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
    q = orthogonal_complement_basis(d, m) @ (fac_mn.eigenvalues * (fac_mn.U.T @ y))
    return PolyCoeffs(degree=m, coeffs=q, dim=d)


def simplex_integral(p: PolyCoeffs) -> float:
    """Integral over the simplex: every basis function integrates to n!/(n+d)!."""
    n, d = p.degree, p.dim
    return _factorial_ratio((n,), (n + d,)) * float(p.coeffs.sum())
