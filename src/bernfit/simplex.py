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
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations

import numpy as np

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

    Exact integer arithmetic, then one int / int division, which Python
    rounds correctly for integers of any size.
    """
    num = math.prod(map(math.factorial, num_factorials))
    return num / math.prod(map(math.factorial, den_factorials))


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
    idx = bars[:, 1:] - bars[:, :-1]
    idx -= 1
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def multiindices(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All multiindices (a_0..a_d) with |a| = n, descending lexicographic."""
    return tuple(map(tuple, _multiindex_array(d, n).tolist()))


@lru_cache(maxsize=None)
def _multinomials(d: int, n: int) -> np.ndarray:
    """Read-only n!/a! over multiindices(d, n), each correctly rounded.

    n!/a! = prod_t C(n_t, a_t) with n_t = a_0 + ... + a_t, taken from t = d
    (n_d = n) down.  Through Pascal row 57 the binomials are exact, and a
    product of them whose float value is below 2^53 never rounded, so it is
    the exact integer.  Past either bound each entry is one correctly
    rounded division of Python integers.
    """
    idx = _multiindex_array(d, n)
    if n <= _BINOMIAL_EXACT_ROWS:
        c, rest = _PASCAL[n, idx[:, d]], n
        for t in range(d - 1, 0, -1):
            rest = rest - idx[:, t + 1]
            c = c * _PASCAL[rest, idx[:, t]]
        if c.max() < 2.0**53:
            c.setflags(write=False)
            return c
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


# the last row of Pascal's rule in float64 that is exact: row 58 holds 2
# rounded entries
_BINOMIAL_EXACT_ROWS = 57


def _pascal(rows: int) -> np.ndarray:
    """Read-only table of C(a, b), 0 <= a, b < rows, zero for b > a, by Pascal's rule."""
    C = np.zeros((rows, rows))
    C[:, 0] = 1.0
    for a in range(1, rows):
        C[a, 1:] = C[a - 1, 1:] + C[a - 1, :-1]
    C.setflags(write=False)
    return C


def _shifted(C: np.ndarray) -> np.ndarray:
    """Read-only view S[c + r, a, s] = C(c, a - s) for |c|, a, s <= r, with
    r + 1 the rows of C: zero for c < 0, s > a or a - s > c.

    A strided view of C padded with r zero rows above and r zero columns
    to the left, so the three-index table costs no more than the padding.
    """
    r = C.shape[0] - 1
    pad = np.zeros((2 * r + 1, 2 * r + 1))
    pad[r:, r:] = C
    row, col = pad.strides
    return np.lib.stride_tricks.as_strided(
        pad[:, r:], shape=(2 * r + 1, r + 1, r + 1), strides=(row, col, -col), writeable=False
    )


def _block_gram(C: np.ndarray) -> np.ndarray:
    """Read-only table G[d, j] = C(2j, j) (j!)^2/(2j+d)! for 2j + d - 1 below
    the rows of C, zero elsewhere.

    The ratio is 1 / (C(2j, j) (2j+1) ... (2j+d)) from Python integers, the
    same rational as the factorial quotient and so one correctly rounded
    division, and it is multiplied by the exact float C(2j, j).
    """
    rows = C.shape[0]
    G = [[0.0] * ((rows + 1) // 2) for _ in range(rows + 1)]
    for j in range((rows + 1) // 2):
        den = math.comb(2 * j, j)
        for d in range(1, rows - 2 * j + 1):
            den *= 2 * j + d
            G[d][j] = float(C[2 * j, j]) * (1 / den)
    G = np.array(G)
    G.setflags(write=False)
    return G


def _factorials(top: int) -> np.ndarray:
    """Read-only float64 table of k!, k = 0..top, each correctly rounded."""
    F = np.array([float(f) for f in accumulate(range(1, top + 1), operator.mul, initial=1)])
    F.setflags(write=False)
    return F


# every binomial coefficient the package computes with, built once at import
_PASCAL = _pascal(_BINOMIAL_EXACT_ROWS + 1)
# _SIGNED_PASCAL[a, s] = (-1)^s C(a, s), with +0.0 where C(a, s) = 0
_SIGNED_PASCAL = np.where(np.arange(_BINOMIAL_EXACT_ROWS + 1) % 2, -1.0, 1.0) * _PASCAL + 0.0
_SIGNED_PASCAL.setflags(write=False)
_SHIFTED_PASCAL = _shifted(_PASCAL)
# _BLOCK_GRAM[d, j] = C(2j, j) (j!)^2/(2j+d)!, the float Gram entry of a 1 x 1
# block of orthogonal_complement_basis, at every (d, j) with 2j + d - 1 <= 57
_BLOCK_GRAM = _block_gram(_PASCAL)
# k! through 170!, the largest factorial below the float64 overflow
_FACTORIALS = _factorials(170)


def _axis1_table(top: int) -> np.ndarray:
    """Read-only table A[(c + top) (top + 1) + a, k] =
    sum_s (-1)^s C(k, s)^2 C(c, a - s) for |c|, a, k <= top.

    The first axis's N_1 of orthogonal_complement_basis at n_1 - k_1 = c,
    a_1 = a and k_1 = k, for every degree up to top: one product of a slice
    of _SHIFTED_PASCAL, C(c, a - s), with (-1)^s C(k, s)^2.  Where
    c + k <= 28 the sum of the terms' magnitudes is below 2^53, so every
    partial sum is exact and the entry is the exact integer, in any
    summation order.  Larger c + k can pass 2^53; no degree reads them.
    """
    r = _BINOMIAL_EXACT_ROWS
    T = _SHIFTED_PASCAL[r - top : r + top + 1, : top + 1, : top + 1].reshape(-1, top + 1)
    x = _SIGNED_PASCAL[: top + 1, : top + 1] * _PASCAL[: top + 1, : top + 1]
    A = T @ x.T
    A.setflags(write=False)
    return A


# the highest degree of orthogonal_complement_basis, which reads Pascal row
# 2m + d - 1 <= 57
_TOP_DEGREE = _BINOMIAL_EXACT_ROWS // 2
_AXIS1 = _axis1_table(_TOP_DEGREE)
# gathers of orthogonal_complement_basis take this many entries at a time
_GATHER_BLOCK = 1 << 16


def _binomials(n: int) -> np.ndarray:
    """Read-only table of C(a, b), 0 <= a, b <= n, zero for b > a.

    The top-left corner of the one Pascal table, whose entries are the
    exact integers through row 57; larger n is refused.
    """
    if n > _BINOMIAL_EXACT_ROWS:
        raise ValueError(
            f"binomials are exact in float64 through row {_BINOMIAL_EXACT_ROWS}, asked for {n}"
        )
    return _PASCAL[: n + 1, : n + 1]


@lru_cache(maxsize=128)
def simplex_elevation(d: int, m: int, n: int) -> np.ndarray:
    """Dense C-contiguous elevation matrix of shape C(d+n,d) x C(d+m,d).

    Entry (a, b) = C(m; b) C(n-m; a-b) / C(n; a) with the multinomials
    C(n; a) = n!/a!, which equals prod_i C(a_i, b_i) / C(n, m).  The
    binomial table is exact through row 57 (and refuses larger n), and for
    the degrees used here the products stay exact integers, so each entry
    is one correctly rounded division.  At n = m every off-diagonal entry
    has a factor C(a_i, b_i) = 0 with a_i < b_i, so E is the identity,
    bit for bit.  Cached and read-only.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    binom = _binomials(n)
    upper = _multiindex_array(d, n)
    lower = _multiindex_array(d, m)
    prod = binom[upper[:, 0]][:, lower[:, 0]]
    for i in range(1, d + 1):
        prod = prod * binom[upper[:, i]][:, lower[:, i]]
    # the gathers can leave prod in Fortran order; C order fixes BLAS's
    # summation order in products with E, and so every written digit
    E = np.ascontiguousarray(prod) / binom[n, m]
    E.setflags(write=False)
    return E


@lru_cache(maxsize=128)
def simplex_mass_matrix(d: int, n: int) -> np.ndarray:
    """Gram matrix of the degree-n simplex basis, cached and read-only.

    Entry (a, b) = C(n, a) C(n, b) / C(2n, a+b) * (2n)!/(2n+d)!, with the
    multinomials C(n, a) = n!/a!: the product of two basis functions is
    C(n, a) C(n, b) / C(2n, a+b) times B^{2n}_{a+b}, and every degree-2n
    basis function integrates to (2n)!/(2n+d)!.  The factorials are read
    from the correctly rounded _FACTORIALS, so n > 85 is refused.
    """
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    if 2 * n >= _FACTORIALS.shape[0]:
        raise ValueError(f"(2n)! overflows float64 past n = 85, asked for n = {n}")
    idx = _multiindex_array(d, n)
    c_n = _multinomials(d, n)
    # (a+b)! = prod_i (a_i+b_i)!, multiplied coordinate by coordinate
    fact = _FACTORIALS[idx[:, None, 0] + idx[:, 0]]
    for i in range(1, d + 1):
        fact = fact * _FACTORIALS[idx[:, None, i] + idx[:, i]]
    c_2n = _FACTORIALS[2 * n] / fact
    M = np.outer(c_n, c_n) / c_2n * _factorial_ratio((2 * n,), (2 * n + d,))
    M.setflags(write=False)
    return M


@lru_cache(maxsize=128)
def orthogonal_complement_basis(d: int, m: int) -> np.ndarray:
    """U^{m,m}: the M^{d,m}-orthonormal complement blocks j = 0..m at degree m.

    In the collapsed coordinates x_t = b_t / (b_0 + ... + b_t), t = 1..d,
    a basis polynomial factors axis by axis, B^m_a = prod_t B^{n_t}_{a_t}(x_t)
    with n_t = a_0 + ... + a_t, and so does the Dubiner polynomial of
    kappa = (k_1..k_d), prod_t (1 - x_t)^{K_{t-1}} P_{k_t}^{(0, b_t)}(1 - 2x_t)
    with K_t = k_1 + ... + k_t and b_t = 2K_{t-1} + t - 1 (Dubiner,
    J. Sci. Comput. 1991; Sherwin & Karniadakis, IJNME 1995).  Those with
    |kappa| = j are an orthogonal basis of the part of P^j orthogonal to
    P^{j-1}, the lam_j eigenspace of the mass matrices, each of squared
    norm 1 / prod_t (2K_t + t).  Column kappa of U is the degree-m
    multiindex (m - j, kappa), so the blocks come in order j = 0..m.

    The coefficient at row a is prod_t N_t / C(n_t, a_t), where
    N_t = sum_s (-1)^s C(k_t, s) C(k_t + b_t, s) C(n_t - K_t, a_t - s),
    zero when n_t < K_t, makes N_t / C(n_t, a_t) the degree-n_t Bernstein
    coefficient of axis t's factor.  Axis t reads N_t off one integer
    product T @ x^T, a table over (c, a_t) and the keys of x:
    T[(c, a), s] = C(c, a - s) is a slice of _SHIFTED_PASCAL, and row key
    of x is (-1)^s C(k_t, s) C(k_t + b_t, s), s = 0..m, for each key the
    axis depends on.  Axis 1 has b_1 = 0, so its keys are k_1 alone, and
    its table is _AXIS1, built once at import for every degree through 28;
    it is read only at c + k_1 = n_1 <= m, where every entry is exact.
    Later axes key by column.  On the last axis n_d = m, so c = m - j >= 0
    and its T covers c = 0..m; a middle axis covers c = -1..m, and reads
    N_t = 0 at every c < 0 from its zero block at c = -1.  Each N_t is an
    exact integer below 2^53 at every m the binomial table allows (checked
    with Python integers for d <= 5 and d = 8).  At d <= 3 so is the sum of
    its terms' magnitudes (at most 3.2e15, at d = 2 and m = 28), so every
    partial sum is exact and any summation order gives the same bits.  Each
    factor is gathered a block of rows at a time and multiplied into the
    running product in place, so the build holds one full-size array, the
    result, and a table per axis.  The product of the N_t is divided
    once by m!/a! = prod_t C(n_t, a_t), so at d = 1 every entry is its
    exact rational, correctly rounded.  The column is then scaled by
    1 / sqrt(g), with its squared norm written as
    g = C(2j, j) j!^2/(2j+d)! prod_{t<d} (2j+t)/(2K_t+t), the first two
    factors read from _BLOCK_GRAM: in a 1 x 1 block (every block at d = 1,
    the constant block at every d) each factor of the product is exactly 1,
    so g is the float Gram entry and the column has the bits of its
    eigendecomposition.  Cached and read-only; numpy only, with no linear
    algebra routine.  At d = 1 column j is (-1)^j sqrt(2j+1) times the
    shifted Legendre polynomial, and the constant column is sqrt(d!).
    """
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    # the rows a and, read as (m - j, kappa), the columns; idx[:, t] is a_t
    # along the rows and k_t along the columns
    idx = _multiindex_array(d, m)
    n = idx.cumsum(axis=1)
    K = n - idx[:, :1]
    j = K[:, -1]
    binom = _binomials(2 * m + d - 1)
    r = _BINOMIAL_EXACT_ROWS
    rows = idx.shape[0]
    step = max(1, _GATHER_BLOCK // rows)
    num = np.empty((rows, rows))
    for t in range(1, d + 1):
        k = idx[:, t]
        if t == 1:
            # N_1 depends on k_1 alone, and is read off the import-time table
            # over |c|, a, k_1 <= 28: column col reads key[col] = k_1
            lo, height, key, table = -_TOP_DEGREE, _TOP_DEGREE + 1, k, _AXIS1
        else:
            # c = n_t - K_t; on the last axis c = m - j >= 0, and on a middle
            # axis N_t = 0 at every c < 0, read from the zero block at c = -1
            lo, height, key = (0 if t == d else -1), m + 1, np.arange(rows)
            x = _SIGNED_PASCAL[k, : m + 1] * binom[2 * K[:, t - 1] + t - 1 + k, : m + 1]
            T = _SHIFTED_PASCAL[r + lo : r + m + 1, : m + 1, : m + 1].reshape(-1, m + 1)
            table = T @ x.T
        # table[(c - lo) height + a, key] is N_t at n_t - K_t = c and a_t = a;
        # with c = n_t(row) - K_t(col) its flat index is a row part plus a
        # column part, negative only where c < lo on a middle axis, which
        # mode="clip" reads at 0, an entry of the zero block
        width = table.shape[1]
        row_part = (n[:, t] * height + k) * width
        col_part = key - (K[:, t] + lo) * (height * width)
        # num = N_1 * ... * N_t, each factor gathered a block of rows at a
        # time and multiplied in place (it commutes bit for bit)
        for b in range(0, rows, step):
            flat = row_part[b : b + step, None] + col_part
            if t == 1:
                table.take(flat, out=num[b : b + step], mode="clip")
            else:
                num[b : b + step] *= table.take(flat, mode="clip")
        # so that no two axes' tables are held at once
        del table
    gram = _BLOCK_GRAM[d, j]
    for t in range(1, d):
        gram *= (2 * j + t) / (2 * K[:, t] + t)
    # m!/a! = prod_t C(n_t, a_t)
    multinomial = binom[n[:, 1:], idx[:, 1:]].prod(axis=1)
    # U = num / multinomial * (1 / sqrt(gram)), in place
    num /= multinomial[:, None]
    num *= 1.0 / np.sqrt(gram)
    num.setflags(write=False)
    return num


@lru_cache(maxsize=128)
def simplex_spectral_factors(d: int, m: int, n: int) -> np.ndarray:
    """U^{m,n}: the M-orthonormal complement blocks j = 0..m, elevated to degree n.

    U^{m,n} = E^{m->n} U^{m,m}, with U^{m,m} from orthogonal_complement_basis
    (itself at n = m).  Elevation preserves the L2 inner product, so the
    columns are M^{d,n}-orthonormal eigenvectors of M^{d,n}.  Cached and
    read-only.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    U = orthogonal_complement_basis(d, m)
    if n > m:
        U = simplex_elevation(d, m, n) @ U
        U.setflags(write=False)
    return U
