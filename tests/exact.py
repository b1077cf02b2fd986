"""Exact d = 1 references from integers, independent of the package.

Every quantity is a closed form over fractions.Fraction and math.comb, so
the interval's mass, elevation and spectral data can be checked against
numbers the package's own basis layer did not produce.  mass_eigenvalues
gives the closed-form mass spectrum at every d in floating point, integral
a polynomial's integral over the simplex and grid_min a univariate
polynomial's minimum over a uniform grid, by its own de Casteljau loop.
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
