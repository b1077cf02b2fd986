"""Exact univariate nonnegativity through a pair of PSD matrices.

A polynomial of degree m is nonnegative on [0, 1] exactly when its monomial
coefficient vector can be written Omega0*(A) + Omega1*(B) with A and B
positive semidefinite; the Omega maps sum Hankel antidiagonals and depend on
the parity of m.  Both maps are one 0/+-1 matrix per degree, built once.
This module provides the forward and adjoint maps, the monomial-to-Bernstein
change of basis, and a solver that minimizes the projection cost over the
cone by quasi-Newton descent on full-rank factors A = R0 R0^T, B = R1 R1^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize

from . import kkt
from .bernstein import PolyCoeffs, binomial_float, evaluate, mass_matrix

CONE_DEGREE_LIMIT = 12


@dataclass(frozen=True)
class ConePoint:
    """PSD certificate pair for a degree-m nonnegative polynomial.

    For even m = 2l, A is (l+1)x(l+1) and B is l x l; for odd m = 2l+1 both
    are (l+1)x(l+1).
    """

    m: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        sa, sb = _block_sizes(self.m)
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.shape != (sa, sa) or B.shape != (sb, sb):
            raise ValueError(
                f"degree {self.m} needs blocks {(sa, sa)} and {(sb, sb)}, "
                f"got {A.shape} and {B.shape}"
            )
        A = A.copy()
        B = B.copy()
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)


def _block_sizes(m: int) -> tuple[int, int]:
    ell = m // 2
    if m % 2 == 0:
        return ell + 1, ell  # B is empty for m = 0
    return ell + 1, ell + 1


def hankel_basis(size: int, k: int) -> np.ndarray:
    """size x size matrix with ones on the antidiagonal i + j = k.

    Zero when k < 0 or k > 2(size-1).  The tests' reference for
    omega_operator, which the maps use instead.
    """
    H = np.zeros((size, size))
    if 0 <= k <= 2 * (size - 1):
        i = np.arange(max(0, k - size + 1), min(size - 1, k) + 1)
        H[i, k - i] = 1.0
    return H


@lru_cache(maxsize=32)
def omega_operator(m: int) -> np.ndarray:
    """Read-only (m+1) x (sa^2 + sb^2) matrix W of the adjoint maps.

    W [vec A; vec B] = Omega0*(A) + Omega1*(B) for row-major vec, so W^T q
    stacks vec Omega0(q) and vec Omega1(q).  Entry (i+j+s, col of A[i,j]) is
    1 with s = m mod 2; B[i,j] adds 1 at row i+j+1-s and -1 at row i+j+2-s.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    sa, sb = _block_sizes(m)
    s = m % 2
    W = np.zeros((m + 1, sa * sa + sb * sb))
    i, j = np.divmod(np.arange(sa * sa), sa)
    W[i + j + s, np.arange(sa * sa)] = 1.0
    i, j = np.divmod(np.arange(sb * sb), sb)
    W[i + j + 1 - s, sa * sa + np.arange(sb * sb)] = 1.0
    W[i + j + 2 - s, sa * sa + np.arange(sb * sb)] = -1.0
    W.setflags(write=False)
    return W


def omega_forward(m: int, q) -> tuple[np.ndarray, np.ndarray]:
    """Images (Omega0(q), Omega1(q)) of a monomial coefficient vector."""
    q = np.asarray(q, dtype=float)
    if q.shape != (m + 1,):
        raise ValueError(f"expected {m + 1} monomial coefficients, got {q.shape}")
    return _unpack(omega_operator(m).T @ q, *_block_sizes(m))


def omega_adjoint(point: ConePoint) -> np.ndarray:
    """Monomial coefficients Omega0*(A) + Omega1*(B) of a cone point."""
    return omega_operator(point.m) @ _pack(point.A, point.B)


def monomial_to_bernstein(m: int) -> np.ndarray:
    """Lower-triangular change of basis: x^j = sum_i C(i,j)/C(m,j) B^m_i.

    Severely ill-conditioned as m grows; see t_condition.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    T = np.zeros((m + 1, m + 1))
    for i in range(m + 1):
        for j in range(i + 1):
            T[i, j] = binomial_float(i, j) / binomial_float(m, j)
    return T


@lru_cache(maxsize=32)
def _solver_data(m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Read-only T and M^m of degree m, and the condition of T, built once."""
    T = monomial_to_bernstein(m)
    T.setflags(write=False)
    return T, mass_matrix(m).entries, float(np.linalg.cond(T, 1))


def t_condition(m: int) -> float:
    """1-norm condition estimate of the monomial-to-Bernstein map."""
    return _solver_data(m)[2]


def grid_min(p: PolyCoeffs, npoints: int = 10_001) -> float:
    """Minimum of p over a uniform grid on [0, 1]."""
    x = np.linspace(0.0, 1.0, npoints)
    return float(np.min(evaluate(p, x)))


def hull_lower_bound(p: PolyCoeffs, levels: int = 1) -> float:
    """Certified lower bound for min p on [0, 1] by coefficient subdivision.

    Splitting at the midpoint via de Casteljau and taking the smallest
    coefficient across the pieces bounds the true minimum from below
    (convex hull property on each piece).
    """
    pieces = [np.asarray(p.coeffs, dtype=float)]
    for _ in range(levels):
        nxt = []
        for c in pieces:
            deg = c.shape[0] - 1
            left = np.empty_like(c)
            right = np.empty_like(c)
            work = c.copy()
            left[0] = work[0]
            right[-1] = work[-1]
            for r in range(1, deg + 1):
                work = 0.5 * (work[:-1] + work[1:])
                left[r] = work[0]
                right[-1 - r] = work[-1]
            nxt.extend((left, right))
        pieces = nxt
    return float(min(c.min() for c in pieces))


@dataclass(frozen=True)
class ConeResult:
    q: PolyCoeffs
    point: ConePoint
    objective: float
    grad_norm: float
    converged: bool
    condition: float
    restart_index: int
    iterations: int
    # objective evaluations summed over every restart
    evaluations: int


def _pack(R0, R1):
    return np.concatenate([R0.ravel(), R1.ravel()])


def _unpack(z, sa, sb):
    R0 = z[: sa * sa].reshape(sa, sa)
    R1 = z[sa * sa :].reshape(sb, sb)
    return R0, R1


def _composite(z, m, T, M, target, sa, sb):
    """Objective d_p(T (Omega0*(R0 R0^T) + Omega1*(R1 R1^T))) and its gradient.

    The gradient flows through the chain rule: residual -> Bernstein ->
    monomial (T transpose) -> symmetric blocks (W transpose, the forward
    Omega maps) -> factors.
    """
    R0, R1 = _unpack(z, sa, sb)
    W = omega_operator(m)
    r = T @ (W @ _pack(R0 @ R0.T, R1 @ R1.T)) - target
    Mr = M @ r
    GA, GB = _unpack(W.T @ (T.T @ (2.0 * Mr)), sa, sb)
    return float(r @ Mr), _pack(2.0 * GA @ R0, 2.0 * GB @ R1)


def solve_cone(
    p: PolyCoeffs,
    restarts: int = 5,
    max_iterations: int = 5000,
    grad_tol: float = 1e-10,
    stall_tol: float = 1e-8,
    seed: int = 1234,
) -> ConeResult:
    """Best approximation of p among degree-m polynomials nonnegative on [0, 1].

    Minimizes over full-rank factorized PSD pairs with seeded random
    restarts; the best objective wins, ties broken by restart index.  The
    optimizer targets grad_tol but line searches routinely terminate a
    shade above it at the double-precision floor, so only a final gradient
    beyond stall_tol is reported as a stall (converged=False, best iterate
    still returned).
    """
    m = p.degree
    if m > CONE_DEGREE_LIMIT:
        raise ValueError(
            f"degree {m} exceeds the conditioning guard ({CONE_DEGREE_LIMIT}) "
            f"on the monomial-to-Bernstein map"
        )
    sa, sb = _block_sizes(m)
    T, M, condition = _solver_data(m)
    target = np.asarray(p.coeffs, dtype=float)
    rng = np.random.default_rng(seed)

    best = None
    evaluations = 0
    for idx in range(restarts):
        z0 = _pack(
            rng.standard_normal((sa, sa)) * 0.5, rng.standard_normal((sb, sb)) * 0.5
        )
        res = optimize.minimize(
            _composite,
            z0,
            args=(m, T, M, target, sa, sb),
            jac=True,
            method="L-BFGS-B",
            options=dict(maxiter=max_iterations, gtol=grad_tol, ftol=1e-18, maxcor=30),
        )
        evaluations += int(res.nfev)
        gnorm = float(np.abs(res.jac).max()) if res.jac is not None else np.inf
        cand = (res.fun, idx, res.x, gnorm, int(res.nit))
        if best is None or cand[0] < best[0]:
            best = cand
    fun, idx, z, gnorm, nit = best
    R0, R1 = _unpack(z, sa, sb)
    point = ConePoint(m=m, A=R0 @ R0.T, B=R1 @ R1.T)
    q = PolyCoeffs(degree=m, coeffs=T @ omega_adjoint(point))
    return ConeResult(
        q=q,
        point=point,
        objective=fun,
        grad_norm=gnorm,
        converged=gnorm <= stall_tol,
        condition=condition,
        restart_index=idx,
        iterations=nit,
        evaluations=evaluations,
    )


def cone_objective(p: PolyCoeffs, q: PolyCoeffs) -> float:
    """Projection cost (q - p)^T M^m (q - p) at the common degree m."""
    prob = kkt.KktProblem(dim=1, m=p.degree, n=p.degree, target=p.coeffs)
    return kkt.objective(prob, q.coeffs)
