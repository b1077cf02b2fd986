"""Exact univariate nonnegativity through a pair of PSD matrices.

A polynomial of degree m is nonnegative on [0, 1] exactly when it is
Omega0*(A) + Omega1*(B) with A and B positive semidefinite (Nesterov,
"Squared functional systems and optimization problems", 2000).  In the
basis u^k_i = x^i (1-x)^(k-i) = B^k_i / C(k, i), products and the factors
x and 1-x only shift indices, so both maps sum Hankel antidiagonals into
one 0/1 matrix per degree, built once, and the Bernstein coefficients are
the u^m coefficients divided by C(m, k).  Damped Newton steps on the
exact Hessian minimize the projection cost over the cone on square factors
A = R0 R0^T, B = R1 R1^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import simplex
from .simplex import PolyCoeffs

CONE_DEGREE_LIMIT = 12
# damped Newton steps from a seeded random start until max|g| <= GRAD_TOL:
# a step is kept when the cost falls by more than ACCEPT times the decrease
# its quadratic model predicts, and the damping starts at DAMPING
SEED = 1234
MAX_ITERATIONS = 200
GRAD_TOL = 1e-10
ACCEPT = 1e-4
DAMPING = 1e-8
# a stationary point of the factored cost is the convex optimum when the
# cost gradient Z in the blocks is PSD; lambda_min(Z) is tested against the
# size p^T M p of the problem
DUAL_RTOL = 1e-6
DUAL_ATOL = 1e-14


@dataclass(frozen=True)
class ConePoint:
    """PSD certificate pair for a degree-m nonnegative polynomial.

    For even m = 2l, q = v^T A v + x(1-x) w^T B w with v = u^l, w = u^(l-1):
    A is (l+1)x(l+1) and B is l x l.  For odd m = 2l+1,
    q = x v^T A v + (1-x) v^T B v with v = u^l: both are (l+1)x(l+1).
    """

    m: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"degree must be nonnegative, got {self.m}")
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
    """Read-only (m+1) x (sa^2 + sb^2) 0/1 matrix W of the adjoint maps.

    W [vec A; vec B] = Omega0*(A) + Omega1*(B) in the basis u^m for row-major
    vec, so W^T q stacks vec Omega0(q) and vec Omega1(q).  With s = m mod 2,
    A[i,j] adds 1 at row i+j+s and B[i,j] adds 1 at row i+j+1-s.
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
    W.setflags(write=False)
    return W


def omega_forward(m: int, q) -> tuple[np.ndarray, np.ndarray]:
    """Images (Omega0(q), Omega1(q)) of a coefficient vector in the basis u^m."""
    q = np.asarray(q, dtype=float)
    if q.shape != (m + 1,):
        raise ValueError(f"expected {m + 1} coefficients, got {q.shape}")
    return _unpack(omega_operator(m).T @ q, *_block_sizes(m))


def omega_adjoint(point: ConePoint) -> np.ndarray:
    """Coefficients Omega0*(A) + Omega1*(B) of a cone point in the basis u^m."""
    return omega_operator(point.m) @ _pack(point.A, point.B)


@dataclass(frozen=True)
class ConeResult:
    q: PolyCoeffs
    point: ConePoint
    objective: float
    grad_norm: float
    # smallest eigenvalue of the cost gradient in the blocks A and B
    dual_min: float
    converged: bool
    iterations: int
    evaluations: int


def _pack(R0, R1):
    return np.concatenate([R0.ravel(), R1.ravel()])


def _unpack(z, sa, sb):
    R0 = z[: sa * sa].reshape(sa, sa)
    R1 = z[sa * sa :].reshape(sb, sb)
    return R0, R1


def _residual_change(z, d, m, scale, sa, sb):
    """r(z + d) - r(z), formed from d: (R + D)(R + D)^T - R R^T = D R^T + R D^T
    + D D^T keeps its digits when the step is small against R."""
    R0, R1 = _unpack(z, sa, sb)
    D0, D1 = _unpack(d, sa, sb)
    S0 = D0 @ R0.T
    S1 = D1 @ R1.T
    return scale * (omega_operator(m) @ _pack(S0 + S0.T + D0 @ D0.T, S1 + S1.T + D1 @ D1.T))


def _state(z, m, scale, M, target, sa, sb):
    """The residual r = scale * (Omega0*(A) + Omega1*(B)) - target at
    A = R0 R0^T, B = R1 R1^T, formed once, with the cost r^T M r, its
    gradient (GA, GB) in the blocks and its gradient in the factors,
    2 GA R0 and 2 GB R1."""
    R0, R1 = _unpack(z, sa, sb)
    W = omega_operator(m)
    r = scale * (W @ _pack(R0 @ R0.T, R1 @ R1.T)) - target
    Mr = M @ r
    GA, GB = _unpack(W.T @ (scale * (2.0 * Mr)), sa, sb)
    return r, float(r @ Mr), (GA, GB), _pack(2.0 * GA @ R0, 2.0 * GB @ R1)


def _hessian(z, blocks, m, scale, M, sa, sb):
    """Hessian of the cost in the factors: 2 J^T M J + blockdiag(2 GA (x) I, 2 GB (x) I).

    blocks is (GA, GB) at z, from _state.  J = dr/dz has the columns
    2 scale * (W_k R0)[i, a] for R0[i, a], W_k the Hankel matrix of row k of
    the operator, and likewise for R1.
    """
    R0, R1 = _unpack(z, sa, sb)
    GA, GB = blocks
    W = omega_operator(m)
    WA = W[:, : sa * sa].reshape(m + 1, sa, sa)
    WB = W[:, sa * sa :].reshape(m + 1, sb, sb)
    J = np.hstack([(WA @ R0).reshape(m + 1, -1), (WB @ R1).reshape(m + 1, -1)])
    J *= (2.0 * scale)[:, None]
    H = 2.0 * (J.T @ M @ J)
    for G, k, s in ((GA, 0, sa), (GB, sa * sa, sb)):
        # G (x) I: entry G[i, j] at rows i*s + a, columns j*s + a
        GI = 2.0 * G[:, None, :, None] * np.eye(s)[None, :, None, :]
        H[k : k + s * s, k : k + s * s] += GI.reshape(s * s, s * s)
    return H


def _start_point(sa, sb):
    """The seeded random factors every Newton run starts from."""
    rng = np.random.default_rng(SEED)
    return _pack(rng.standard_normal((sa, sa)) * 0.5, rng.standard_normal((sb, sb)) * 0.5)


def _newton(z, args):
    """Damped Newton descent on the factored cost from z.

    Each step is -Q diag(1 / (lam + max(0, -lam_min) + mu)) Q^T g, with
    Q diag(lam) Q^T the exact Hessian: the shift makes the system positive
    definite at a saddle, and the damping mu gives a trust-region step
    (More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983).  The cost change
    is taken from the change in the residual, so the acceptance test stays
    accurate while the decrease is far below the rounding of the cost.  Stops
    when max|g| <= GRAD_TOL or after MAX_ITERATIONS steps.  mu is divided by
    4 after a step that gains at least 3/4 of the predicted decrease and
    multiplied by 4 after a rejected one.  Returns z, the steps and the cost
    evaluations: one per step and one at the start.
    """
    m, scale, M, _, sa, sb = args
    r, _, blocks, grad = _state(z, *args)
    mu, steps, lam = DAMPING, 0, None
    while np.abs(grad).max() > GRAD_TOL and steps < MAX_ITERATIONS:
        if lam is None:  # a rejected step keeps the factorization
            lam, Q = np.linalg.eigh(_hessian(z, blocks, m, scale, M, sa, sb))
            qg = Q.T @ grad
            shifted = lam + max(0.0, -lam[0])
        c = -qg / (shifted + mu)
        predicted = -(qg @ c + 0.5 * (lam * c) @ c)
        d = Q @ c
        dr = _residual_change(z, d, m, scale, sa, sb)
        decrease = -(dr @ M @ (2.0 * r + dr))
        steps += 1
        if decrease > ACCEPT * predicted:
            z = z + d
            r, _, blocks, grad = _state(z, *args)
            lam = None
            if decrease >= 0.75 * predicted:
                mu /= 4.0
        else:
            mu *= 4.0
    return z, steps, steps + 1


def solve_cone(p: PolyCoeffs) -> ConeResult:
    """Best approximation of p among degree-m polynomials nonnegative on [0, 1].

    A target whose Bernstein coefficients are all nonnegative is its own
    optimum: each u^m_k is a square, or x, 1-x or x(1-x) times one, so its
    coefficient C(m, k) p_k goes on one diagonal entry of A or B, and p is
    returned unchanged with that diagonal certificate and no iteration.
    Otherwise damped Newton steps on square factors from a seeded random
    start run until the factor gradient is at most GRAD_TOL; iterations
    counts the steps and evaluations the cost evaluations.  Every local
    minimum of the factored cost is a global one (Burer & Monteiro, Math.
    Program. 103, 2005), but a stationary point may be a saddle, so
    converged also requires the blocks' cost gradient to be PSD: with
    <Z, X> = 0 at a stationary point, that is the convex problem's KKT
    condition.  Both answers pass the same tests.
    """
    m = p.degree
    if p.dim != 1:
        raise ValueError("the cone solver is univariate")
    if m > CONE_DEGREE_LIMIT:
        raise ValueError(f"degree {m} exceeds the cone solver's limit ({CONE_DEGREE_LIMIT})")
    sa, sb = _block_sizes(m)
    # from u^m to Bernstein form: u^m_k = B^m_k / C(m, k)
    comb = simplex._binomials(m)[m]
    scale = 1.0 / comb
    M = simplex.simplex_mass_matrix(1, m)
    target = np.asarray(p.coeffs, dtype=float)
    args = (m, scale, M, target, sa, sb)
    if target.min() >= 0.0:
        # A[i, i] lands on u^m_{2i+s} and B[i, i] on u^m_{2i+1-s}, s = m mod 2
        u = target * comb
        s = m % 2
        point = ConePoint(m=m, A=np.diag(u[s::2]), B=np.diag(u[1 - s :: 2]))
        z = _pack(np.diag(np.sqrt(u[s::2])), np.diag(np.sqrt(u[1 - s :: 2])))
        q, iterations, evaluations = p, 0, 0
    else:
        z, iterations, evaluations = _newton(_start_point(sa, sb), args)
        R0, R1 = _unpack(z, sa, sb)
        point = ConePoint(m=m, A=R0 @ R0.T, B=R1 @ R1.T)
        q = PolyCoeffs(degree=m, coeffs=scale * omega_adjoint(point))
    _, cost, blocks, grad = _state(z, *args)
    gnorm = float(np.abs(grad).max())
    dual_min = min(np.linalg.eigvalsh(G)[0] for G in blocks if G.size)
    floor = DUAL_RTOL * float(target @ M @ target) + DUAL_ATOL
    return ConeResult(
        q=q,
        point=point,
        objective=float(cost),
        grad_norm=gnorm,
        dual_min=float(dual_min),
        converged=gnorm <= GRAD_TOL and dual_min >= -floor,
        iterations=int(iterations),
        evaluations=int(evaluations),
    )


def cone_objective(p: PolyCoeffs, q: PolyCoeffs) -> float:
    """Projection cost (q - p)^T M^m (q - p) at the common degree m."""
    r = np.asarray(q.coeffs, dtype=float) - p.coeffs
    return float(r @ simplex.simplex_mass_matrix(1, p.degree) @ r)
