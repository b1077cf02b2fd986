"""Univariate Bernstein-basis machinery on [0, 1].

Provides evaluation (de Casteljau), degree elevation, mass (Gram) matrices,
the Legendre-Bernstein connection and spectral factorizations of the mass
matrix.  All operations are pure functions over immutable values.
Projection and the KKT solve reach the interval through simplex.py, as the
d = 1 simplex; these closed forms are its d = 1 references in the tests
and the univariate toolkit of the cone solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Largest n for which C(n, k) fits the exact-integer contract.
BINOMIAL_EXACT_LIMIT = 62

# Largest degree for which mass-matrix entries are built from exact integer
# factorial ratios; beyond this the entries come from log-gamma.
MASS_EXACT_LIMIT = 30


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); zero for k < 0 or k > n.

    Raises OverflowError for n > BINOMIAL_EXACT_LIMIT so callers are forced
    onto the floating variant where 64-bit exactness is no longer meaningful.
    """
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got {n}")
    if n > BINOMIAL_EXACT_LIMIT:
        raise OverflowError(
            f"binomial({n}, {k}) exceeds the exact-integer range (n <= "
            f"{BINOMIAL_EXACT_LIMIT}); use binomial_float"
        )
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_float(n: int, k: int) -> float:
    """C(n, k) in floating point via log-gamma, for any n >= 0."""
    if n < 0:
        raise ValueError(f"binomial_float needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0.0
    if n <= BINOMIAL_EXACT_LIMIT:
        return float(math.comb(n, k))
    return math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


@dataclass(frozen=True)
class PolyCoeffs:
    """A polynomial held as its Bernstein coefficient vector of fixed degree.

    dim = 1 is the interval [0, 1]; a larger dim is the unit right
    dim-simplex, with the coefficients in simplex.multiindices order.
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
    """Wrap a coefficient sequence as a PolyCoeffs of the implied degree."""
    c = np.asarray(coeffs, dtype=float)
    return PolyCoeffs(degree=c.shape[0] - 1, coeffs=c)


def evaluate(p: PolyCoeffs, x) -> float | np.ndarray:
    """Evaluate p at x (scalar or array) by the de Casteljau recurrence.

    Valid for any real x; outside [0, 1] the recurrence still computes the
    polynomial, it just loses the convex-combination structure.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    beta = np.broadcast_to(p.coeffs, xs.shape + (p.degree + 1,)).copy()
    t = xs[..., None]
    for _ in range(p.degree):
        beta = beta[..., :-1] * (1.0 - t) + beta[..., 1:] * t
    out = beta[..., 0]
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ElevationMatrix:
    """Degree-elevation matrix from degree m to degree n >= m."""

    m: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


def elevation_matrix(m: int, n: int) -> ElevationMatrix:
    """Matrix re-expressing degree-m Bernstein coefficients in degree n.

    Entry (i, j) = C(m, j) C(n-m, i-j) / C(n, i); banded with lower bandwidth
    n - m, nonnegative, rows summing to one.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    E = np.zeros((n + 1, m + 1))
    for i in range(n + 1):
        ci = binomial_float(n, i)
        lo = max(0, i - (n - m))
        hi = min(m, i)
        for j in range(lo, hi + 1):
            E[i, j] = binomial_float(m, j) * binomial_float(n - m, i - j) / ci
    return ElevationMatrix(m=m, n=n, entries=E)


def elevate_step(c: np.ndarray) -> np.ndarray:
    """One degree-elevation step, k -> k+1, applied to a coefficient vector."""
    k = c.shape[0] - 1
    out = np.empty(k + 2)
    i = np.arange(1, k + 1)
    out[0] = c[0]
    out[-1] = c[-1]
    out[1:-1] = (i / (k + 1)) * c[:-1] + (1.0 - i / (k + 1)) * c[1:]
    return out


def elevate_coeffs(c: np.ndarray, n: int) -> np.ndarray:
    """Elevate a coefficient vector to degree n by repeated single steps."""
    c = np.asarray(c, dtype=float)
    m = c.shape[0] - 1
    if n < m:
        raise ValueError(f"cannot elevate degree {m} down to {n}")
    for _ in range(n - m):
        c = elevate_step(c)
    return c


def elevate(p: PolyCoeffs, n: int) -> PolyCoeffs:
    """Re-express p in the degree-n Bernstein basis (same polynomial)."""
    return PolyCoeffs(degree=n, coeffs=elevate_coeffs(p.coeffs, n))


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


@dataclass(frozen=True)
class MassMatrix:
    """Gram matrix of the degree-n Bernstein basis in L2([0, 1])."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


def mass_matrix(n: int) -> MassMatrix:
    """Mass matrix with entries C(n,i) C(n,j) (2n-i-j)! (i+j)! / (2n+1)!."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    M = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i, n + 1):
            M[i, j] = M[j, i] = _factorial_ratio(
                (n, n, 2 * n - i - j, i + j), (i, n - i, j, n - j, 2 * n + 1)
            )
    return MassMatrix(n=n, entries=M)


def mass_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues lam_j = (n!)^2 / ((n+j+1)! (n-j)!), j = 0..n.

    Built by the ratio recurrence lam_{j+1} = lam_j (n-j)/(n+j+2), which
    stays accurate where the raw factorials would overflow.
    """
    lam = np.empty(n + 1)
    lam[0] = 1.0 / (n + 1)
    for j in range(n):
        lam[j + 1] = lam[j] * (n - j) / (n + j + 2)
    return lam


def legendre_bernstein_coeffs(j: int) -> PolyCoeffs:
    """Bernstein coefficients of the shifted Legendre polynomial of degree j.

    Scaled so the value at 1 is 1; coefficient i is (-1)^(j+i) C(j, i).
    """
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    i = np.arange(j + 1)
    signs = np.where((j + i) % 2 == 0, 1.0, -1.0)
    c = signs * np.array([binomial_float(j, int(k)) for k in i])
    return PolyCoeffs(degree=j, coeffs=c)


@dataclass(frozen=True)
class SpectralFactors:
    """Spectral data tying M^m, M^n and the elevation between degrees m <= n.

    eigenvalues holds lam^n_j for j = 0..m.  Column j of U is
    sqrt(2j+1) * (Legendre_j elevated to degree n); the columns are
    eigenvectors of M^n with Euclidean norm 1/sqrt(lam^n_j).  W = U U^T / 2.
    """

    m: int
    n: int
    eigenvalues: np.ndarray
    U: np.ndarray
    W: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.eigenvalues, self.U, self.W):
            a.setflags(write=False)

    @property
    def Q(self) -> np.ndarray:
        """Orthonormal eigenvector block: column j of U times sqrt(lam^n_j)."""
        return self.U * np.sqrt(self.eigenvalues)


def spectral_factors(m: int, n: int) -> SpectralFactors:
    """Assemble U, W and the eigenvalue vector for degrees m <= n.

    Each U column is grown by iterated single-step elevation of the Legendre
    coefficient vector, so no dense elevation matrix is formed per column.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    U = np.empty((n + 1, m + 1))
    for j in range(m + 1):
        col = elevate_coeffs(legendre_bernstein_coeffs(j).coeffs, n)
        U[:, j] = math.sqrt(2 * j + 1) * col
    W = 0.5 * (U @ U.T)
    lam = mass_eigenvalues(n)[: m + 1]
    return SpectralFactors(m=m, n=n, eigenvalues=lam, U=U, W=W)


def l2_inner(p: PolyCoeffs, q: PolyCoeffs) -> float:
    """Exact L2 inner product on [0, 1] via the mass-matrix bilinear form.

    Operands of different degrees are elevated to a common degree first.
    """
    n = max(p.degree, q.degree)
    a = elevate_coeffs(p.coeffs, n)
    b = elevate_coeffs(q.coeffs, n)
    M = mass_matrix(n).entries
    return float(a @ M @ b)


def l2_norm(p: PolyCoeffs) -> float:
    """L2 norm of p on [0, 1]."""
    return math.sqrt(max(l2_inner(p, p), 0.0))
