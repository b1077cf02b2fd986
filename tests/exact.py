"""Exact d = 1 references from integers, independent of the package.

Every quantity is a closed form over fractions.Fraction and math.comb, so
the interval's mass, elevation and spectral data can be checked against
numbers the package's own basis layer did not produce.  mass_eigenvalues
gives the closed-form mass spectrum at every d in floating point, integral
a polynomial's integral over the simplex and grid_min a univariate
polynomial's minimum over a uniform grid, by its own de Casteljau loop.
simplex_mass gives the Gram matrix at every d, and dubiner_columns the
orthogonal basis at every d, expanded from its product form with Python
integers.
"""

import math
from fractions import Fraction

import numpy as np


def mass(n):
    """Entries C(n,i) C(n,j) / (C(2n,i+j) (2n+1)) of the degree-n Gram matrix."""
    return [
        [
            Fraction(math.comb(n, i) * math.comb(n, j), math.comb(2 * n, i + j) * (2 * n + 1))
            for j in range(n + 1)
        ]
        for i in range(n + 1)
    ]


def elevation(m, n):
    """Entries C(m,j) C(n-m,i-j) / C(n,i) re-expressing degree m in degree n."""
    return [
        [
            Fraction(math.comb(m, j) * math.comb(n - m, i - j), math.comb(n, i))
            if 0 <= i - j <= n - m
            else Fraction(0)
            for j in range(m + 1)
        ]
        for i in range(n + 1)
    ]


def legendre(j):
    """Bernstein coefficients (-1)^(j+i) C(j,i) of the shifted Legendre
    polynomial of degree j, scaled to 1 at x = 1."""
    return [Fraction((-1) ** (j + i) * math.comb(j, i)) for i in range(j + 1)]


def eigenvalues(n):
    """The degree-n mass matrix's eigenvalues (n!)^2 / ((n+j+1)! (n-j)!), j = 0..n."""
    return [
        Fraction(math.factorial(n) ** 2, math.factorial(n + j + 1) * math.factorial(n - j))
        for j in range(n + 1)
    ]


def mass_eigenvalues(d, n):
    """Eigenvalues lam_j = (n!)^2 / ((n+j+d)! (n-j)!) of the degree-n mass
    matrix on the d-simplex, with multiplicities.

    Returns (values for j = 0..n, multiplicities C(d+j-1, d-1)): lam_0 =
    n!/(n+d)! correctly rounded, then lam_{j+1} = lam_j (n-j)/(n+j+d+1)
    in floating point.
    """
    lam = np.empty(n + 1)
    lam[0] = math.factorial(n) / math.factorial(n + d)
    for j in range(n):
        lam[j + 1] = lam[j] * (n - j) / (n + j + d + 1)
    mult = np.array([math.comb(d + j - 1, d - 1) for j in range(n + 1)])
    return lam, mult


def integral(p):
    """Integral of a PolyCoeffs over its simplex: every degree-n basis
    function integrates to n!/(n+d)!."""
    n, d = p.degree, p.dim
    return math.factorial(n) / math.factorial(n + d) * float(p.coeffs.sum())


def grid_min(p, npoints=10_001):
    """Minimum of a univariate PolyCoeffs over a uniform grid on [0, 1].

    De Casteljau steps beta_i (1 - x) + beta_{i+1} x at every grid point.
    """
    x = np.linspace(0.0, 1.0, npoints)
    beta = np.outer(p.coeffs, np.ones(npoints))
    for _ in range(p.degree):
        beta = beta[:-1] * (1.0 - x) + beta[1:] * x
    return float(beta.min())


def elevate(coeffs, n):
    """Exact coefficients at degree n of a polynomial given at a lower degree."""
    E = elevation(len(coeffs) - 1, n)
    return [sum(e * c for e, c in zip(row, coeffs)) for row in E]


def to_float(values):
    """A nested list of Fractions as a float array, each entry correctly rounded."""
    return np.array(values, dtype=float)


def multiindices(d, n):
    """Every (a_0..a_d) with |a| = n, in descending lexicographic order."""
    if d == 0:
        return [(n,)]
    return [(a0,) + rest for a0 in range(n, -1, -1) for rest in multiindices(d - 1, n - a0)]


def simplex_mass(d, n):
    """Entries C(n; a) C(n; b) (a+b)! / (2n+d)! of the degree-n Gram matrix on
    the d-simplex, with the multinomials C(n; a) = n!/a! and (a+b)! = prod_i (a_i+b_i)!."""
    f = math.factorial
    idx = multiindices(d, n)
    return [
        [
            Fraction(
                f(n) ** 2 * math.prod(f(x + y) for x, y in zip(a, b)),
                math.prod(map(f, a)) * math.prod(map(f, b)) * f(2 * n + d),
            )
            for b in idx
        ]
        for a in idx
    ]


def _power_of_sum(t, k, d):
    """(b_0 + ... + b_t)^k as {exponents of b_0..b_d: integer coefficient}."""
    f = math.factorial
    return {
        alpha + (0,) * (d - t): f(k) // math.prod(map(f, alpha)) for alpha in multiindices(t, k)
    }


def _times(p, q):
    """Product of two polynomials held as {exponents: coefficient}."""
    out = {}
    for e, c in p.items():
        for g, r in q.items():
            key = tuple(x + y for x, y in zip(e, g))
            out[key] = out.get(key, 0) + c * r
    return out


def dubiner_columns(d, m):
    """Exact degree-m Bernstein coefficients of the Dubiner polynomials.

    Column kappa, over kappa = (k_1..k_d) read from multiindices(d, m) as
    (m - j, kappa), is the polynomial whose value in the collapsed
    coordinates x_t = b_t / (b_0 + ... + b_t) is
    prod_t (1 - x_t)^{K_{t-1}} P_{k_t}^{(0, 2K_{t-1}+t-1)}(1 - 2x_t), with
    K_t = k_1 + ... + k_t.  From P_k^{(0, b)}(1 - 2x) =
    sum_s (-1)^s C(k, s) C(k + b, s) x^s (1 - x)^(k - s), cleared of its
    denominators b_0 + ... + b_t, it is the homogeneous polynomial
    sum_s prod_t (-1)^{s_t} C(k_t, s_t) C(k_t + 2K_{t-1} + t - 1, s_t)
    b_t^{s_t} (b_0 + ... + b_{t-1})^(k_t - s_t), here multiplied by
    (b_0 + ... + b_d)^(m - j) and read off the degree-m basis.  Returns
    (rows of Fractions in multiindices(d, m) order, the integers
    prod_t (2K_t + t)): column kappa times the square root of its integer
    is M-normalized.
    """
    rows = multiindices(d, m)
    columns, norms = [], []
    for kappa in (a[1:] for a in rows):
        K = [sum(kappa[:t]) for t in range(d + 1)]
        poly = _power_of_sum(d, m - K[d], d)
        for t in range(1, d + 1):
            k, top = kappa[t - 1], kappa[t - 1] + 2 * K[t - 1] + t - 1
            factor = {}
            for s in range(k + 1):
                c = (-1) ** s * math.comb(k, s) * math.comb(top, s)
                for e, r in _power_of_sum(t - 1, k - s, d).items():
                    e = e[:t] + (s,) + e[t + 1 :]
                    factor[e] = factor.get(e, 0) + c * r
            poly = _times(poly, factor)
        f = math.factorial
        columns.append([Fraction(poly.get(a, 0) * math.prod(map(f, a)), f(m)) for a in rows])
        norms.append(math.prod(2 * K[t] + t for t in range(1, d + 1)))
    return [list(r) for r in zip(*columns)], norms


def scaled_to_float(q, n):
    """q sqrt(n) for a Fraction q and a positive integer n, correctly rounded.

    The square root of q^2 n is taken to 256 fractional bits by isqrt, far
    below half an ulp of any value of the size met here.
    """
    r = q * q * n
    root = math.isqrt(r.numerator * 4**256 // r.denominator)
    return math.copysign(float(Fraction(root, 2**256)), q)


# Float constructions of the basis layer in their earlier form, each a
# direct transcription of its closed form.  The package builds every one
# of these tables another way, at less cost, and must return their bits.

_PASCAL_ROWS = 58


def _float_pascal():
    """C(a, b) for 0 <= a, b < 58 in float64 by Pascal's rule, exact integers."""
    C = np.zeros((_PASCAL_ROWS, _PASCAL_ROWS))
    C[:, 0] = 1.0
    for a in range(1, _PASCAL_ROWS):
        C[a, 1:] = C[a - 1, 1:] + C[a - 1, :-1]
    return C


def _float_binomials(n):
    if n >= _PASCAL_ROWS:
        raise ValueError(f"binomials are exact in float64 through row 57, asked for {n}")
    return _float_pascal()[: n + 1, : n + 1]


def _factorial_ratio(num, den):
    return math.prod(map(math.factorial, num)) / math.prod(map(math.factorial, den))


def float_multiindices(d, n):
    """multiindices(d, n) as an integer array, by stars and bars."""
    from itertools import chain, combinations

    count = math.comb(n + d, d)
    bars = np.empty((count, d + 2), dtype=np.intp)
    bars[:, 0] = -1
    bars[:, -1] = n + d
    positions = chain.from_iterable(combinations(range(n + d), d))
    bars[::-1, 1:-1] = np.fromiter(positions, np.intp, count * d).reshape(count, d)
    idx = bars[:, 1:] - bars[:, :-1]
    idx -= 1
    return idx


def float_multinomials(d, n):
    """n!/a! over multiindices(d, n), each one correctly rounded division."""
    nfac = math.factorial(n)
    return np.array([nfac / math.prod(map(math.factorial, a)) for a in multiindices(d, n)])


def float_mass(d, n):
    """C(n; a) C(n; b) / C(2n; a+b) * (2n)!/(2n+d)! from the float factorials."""
    fact = np.array([math.factorial(k) for k in range(2 * n + 1)], dtype=float)
    idx = float_multiindices(d, n)
    c_n = float_multinomials(d, n)
    c_2n = fact[2 * n] / fact[idx[:, None, :] + idx[None, :, :]].prod(axis=2)
    return np.outer(c_n, c_n) / c_2n * _factorial_ratio((2 * n,), (2 * n + d,))


def float_elevation(d, m, n):
    """prod_i C(a_i, b_i) / C(n, m), one row and one column gather per coordinate."""
    binom = _float_binomials(n)
    if m == n:
        return np.eye(math.comb(d + n, d))
    upper = float_multiindices(d, n)
    lower = float_multiindices(d, m)
    prod = binom[upper[:, 0]][:, lower[:, 0]]
    for i in range(1, d + 1):
        prod = prod * binom[upper[:, i]][:, lower[:, i]]
    return np.ascontiguousarray(prod) / binom[n, m]


def float_complement_basis(d, m):
    """U^{m,m} with each axis's N_t read from the product of two integer
    matrices over every (n_t - K_t, a_t) and every column."""
    idx = float_multiindices(d, m)
    rows = idx.shape[0]
    n = idx.cumsum(axis=1)
    K = n - idx[:, :1]
    j = K[:, -1]
    binom = _float_binomials(2 * m + d - 1)
    pad = np.zeros((2 * m + 1, 2 * m + 1))
    pad[m:, m:] = binom[: m + 1, : m + 1]
    s = np.arange(m + 1)
    T = pad[:, m + s[:, None] - s]
    T[..., 1::2] *= -1.0
    T = T.reshape(-1, m + 1)
    num = 1.0
    for t in range(1, d + 1):
        k = idx[:, t]
        table = T @ (binom[k, : m + 1] * binom[2 * K[:, t - 1] + t - 1 + k, : m + 1]).T
        row_part = ((n[:, t] + m) * (m + 1) + k) * rows
        col_part = np.arange(rows) - K[:, t] * (m + 1) * rows
        num = num * table.take(row_part[:, None] + col_part)
    ratio = np.array([_factorial_ratio((i, i), (2 * i + d,)) for i in range(m + 1)])
    gram = binom[2 * j, j] * ratio[j]
    for t in range(1, d):
        gram *= (2 * j + t) / (2 * K[:, t] + t)
    multinomial = binom[n[:, 1:], idx[:, 1:]].prod(axis=1)
    return num / multinomial[:, None] * (1.0 / np.sqrt(gram))


def float_node_factors(quad, n):
    """The rule's degree-n axis tables C(k, c) (1-u)^(k-c) u^c, with the
    powers formed by one multiply per exponent."""
    c = float_multiindices(quad.dim, n)[:, 1:].T
    e = n - c.cumsum(0)
    pows = np.empty((n + 1, 2, quad.axis.shape[0]))
    pows[0] = 1.0
    b = np.stack([1.0 - quad.axis, quad.axis])
    for i in range(1, n + 1):
        np.multiply(pows[i - 1], b, out=pows[i])
    tables = (_float_pascal()[e + c, c][..., None] * pows[e, 0]) * pows[c, 1]
    return tuple(np.ascontiguousarray(tables.transpose(0, 2, 1)))
