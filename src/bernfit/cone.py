"""Exact univariate nonnegativity through a pair of PSD matrices.

A polynomial of degree m is nonnegative on [0, 1] exactly when it is
Omega0*(A) + Omega1*(B) with A and B positive semidefinite (Nesterov,
"Squared functional systems and optimization problems", 2000).  In the
basis u^k_i = x^i (1-x)^(k-i) = B^k_i / C(k, i), products and the factors
x and 1-x only shift indices, so both maps sum Hankel antidiagonals into
one 0/1 matrix per degree, built once, and the Bernstein coefficients are
the u^m coefficients divided by C(m, k).  Damped Newton steps on the
exact Hessian minimize the projection cost over the cone on square factors
A = R0 R0^T, B = R1 R1^T, starting from the target's own diagonal
certificate, on the target divided by a power of 256 near its size: the
division is exact, so the solve is equivariant under such scalings and its
tolerances act relative to the target.  A Hessian is shifted only when a
Cholesky test finds it indefinite by more than the damping; only then is
its smallest eigenvalue computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import simplex
from .simplex import PolyCoeffs, _scale_exponent

CONE_DEGREE_LIMIT = 12
# damped Newton steps from the target's own diagonal certificate, its u^m
# coefficients clipped below at START_FLOOR times the largest, until
# max|g| <= GRAD_TOL: a step is kept when the cost falls by more than ACCEPT
# times the decrease its quadratic model predicts, and the damping starts
# at DAMPING
START_FLOOR = 1e-3
MAX_ITERATIONS = 200
GRAD_TOL = 1e-10
ACCEPT = 1e-4
DAMPING = 1e-8
# a stationary point of the factored cost is the convex optimum when the
# cost gradient Z in the blocks is PSD; lambda_min(Z) is tested against the
# size p^T M p of the problem
DUAL_RTOL = 1e-6


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
    # cost evaluations: one per Newton step and one at the start, 0 when the
    # target is nonnegative and is returned at once
    evaluations: int


def _pack(R0, R1):
    return np.concatenate([R0.ravel(), R1.ravel()])


def _unpack(z, sa, sb):
    R0 = z[: sa * sa].reshape(sa, sa)
    R1 = z[sa * sa :].reshape(sb, sb)
    return R0, R1


def _state(z, m, scale, M, target, sa, sb):
    """The residual r = scale * (Omega0*(A) + Omega1*(B)) - target at
    A = R0 R0^T, B = R1 R1^T, formed once, with the cost r^T M r, its
    gradient (GA, GB) in the blocks and its gradient in the factors,
    2 GA R0 and 2 GB R1."""
    n0 = sa * sa
    R0, R1 = z[:n0].reshape(sa, sa), z[n0:].reshape(sb, sb)
    W = omega_operator(m)
    AB = np.empty_like(z)
    np.matmul(R0, R0.T, out=AB[:n0].reshape(sa, sa))
    np.matmul(R1, R1.T, out=AB[n0:].reshape(sb, sb))
    r = scale * (W @ AB) - target
    Mr = M @ r
    g = W.T @ (scale * (2.0 * Mr))
    GA, GB = g[:n0].reshape(sa, sa), g[n0:].reshape(sb, sb)
    grad = np.empty_like(z)
    np.matmul(2.0 * GA, R0, out=grad[:n0].reshape(sa, sa))
    np.matmul(2.0 * GB, R1, out=grad[n0:].reshape(sb, sb))
    return r, float(r @ Mr), (GA, GB), grad


def _hessian(z, blocks, m, scale, M, sa, sb):
    """Hessian H = 2 J^T M J + blockdiag(2 GA (x) I, 2 GB (x) I) of the cost
    in the factors, and the residual's Jacobian J = dr/dz.

    blocks is (GA, GB) at z, from _state.  Row k of J is 2 scale_k
    (W_k R0, W_k R1), W_k the Hankel slice of row k of omega_operator, one
    batched product per block written through a view of J; each entry is
    one entry of z, or 0.  2 G (x) I puts 2 G[i, j] at
    (i n + a, j n + a) of an n x n block's square for each a < n, and is
    added there alone, through an (n, n, n, n) view of the block; the kron
    form adds exact zeros everywhere else, so H has the same bits.
    """
    W = omega_operator(m)
    J = np.empty_like(W)
    for k, R in zip((0, sa * sa), _unpack(z, sa, sb)):
        cols, shape = slice(k, k + R.size), (m + 1, *R.shape)
        np.matmul(W[:, cols].reshape(shape), R, out=J[:, cols].reshape(shape))
    J *= (2.0 * scale)[:, None]
    H = 2.0 * (J.T @ M @ J)
    for k, G in zip((0, sa * sa), blocks):
        n, a = len(G), np.arange(len(G))
        H[k : k + G.size, k : k + G.size].reshape(n, n, n, n)[:, a, :, a] += 2.0 * G
    return H, J


def _diagonal_blocks(u, m):
    """Diagonal blocks whose image is u in the basis u^m: A[i, i] lands on
    u^m_{2i+s} and B[i, i] on u^m_{2i+1-s}, s = m mod 2."""
    s = m % 2
    return np.diag(u[s::2]), np.diag(u[1 - s :: 2])


def _start_point(u, m):
    """Square factors of the diagonal certificate of the target's u^m
    coefficients u, clipped below at START_FLOOR * max|u|."""
    return _pack(*_diagonal_blocks(np.sqrt(np.maximum(u, START_FLOOR * np.abs(u).max())), m))


def _newton(z, args):
    """Damped Newton descent on the factored cost from z.

    Each step d solves (H + (shift + mu) I) d = -g, with H the exact
    Hessian: the shift makes the system positive definite at a saddle, and
    the damping mu gives a trust-region step (More & Sorensen, SIAM J. Sci.
    Stat. Comput. 4, 1983).  The shift is 0 when H + mu I has a Cholesky
    factor, as it has on nearly every Hessian; only when the factorization
    fails is eigvalsh run, and the shift is max(0, -lam_min(H)).  A rejected
    step keeps H, J and the shift.  The cost change is taken from the change
    in the residual, r(z + d) - r(z) = J d + scale * W vec(D D^T), where
    (R + D)(R + D)^T - R R^T = D R^T + R D^T + D D^T, so the acceptance test
    keeps its digits while the step is small against R and the decrease is
    far below the rounding of the cost.  Stops when max|g| <= GRAD_TOL or after
    MAX_ITERATIONS steps.  mu is divided by 4 after a step that gains at
    least 3/4 of the predicted decrease and multiplied by 4 after a rejected
    one.  Returns the last accepted z, its _state tuple (residual, cost,
    block gradients, factor gradient), the steps and the cost evaluations:
    one per step and one at the start.
    """
    m, scale, M, _, sa, sb = args
    W = omega_operator(m)
    r, _, blocks, grad = state = _state(z, *args)
    mu, steps, H, eye = DAMPING, 0, None, np.eye(z.size)
    while np.abs(grad).max() > GRAD_TOL and steps < MAX_ITERATIONS:
        if H is None:
            H, J = _hessian(z, blocks, m, scale, M, sa, sb)
            K = H + mu * eye
            try:
                np.linalg.cholesky(K)
                shift = 0.0
            except np.linalg.LinAlgError:
                shift = max(0.0, -np.linalg.eigvalsh(H)[0])
                K = H + (shift + mu) * eye
        else:
            K = H + (shift + mu) * eye
        d = np.linalg.solve(K, -grad)
        predicted = -(grad @ d + 0.5 * d @ (H @ d))
        D0, D1 = _unpack(d, sa, sb)
        dr = J @ d + scale * (W @ _pack(D0 @ D0.T, D1 @ D1.T))
        decrease = -(dr @ M @ (2.0 * r + dr))
        steps += 1
        if decrease > ACCEPT * predicted:
            z = z + d
            r, _, blocks, grad = state = _state(z, *args)
            H = None
            if decrease >= 0.75 * predicted:
                mu /= 4.0
        else:
            mu *= 4.0
    return z, state, steps, steps + 1


def solve_cone(p: PolyCoeffs) -> ConeResult:
    """Best approximation of p among degree-m polynomials nonnegative on [0, 1].

    A target whose Bernstein coefficients are all nonnegative is its own
    optimum: each u^m_k is a square, or x, 1-x or x(1-x) times one, so its
    coefficient C(m, k) p_k goes on one diagonal entry of A or B.  p is
    returned at once with that certificate, where the residual, the cost and
    both gradients are exactly 0.  Otherwise the problem is solved on
    t = p / k, k = 256^j with j from _scale_exponent, and q, A and B are
    multiplied by k and the objective by k^2 afterwards: scaling by a power
    of 2 is exact, so 256^i p is solved on p's own bits, and every tolerance
    acts relative to the size of p.  Damped Newton steps on square factors
    start from the square roots of t's diagonal certificate, clipped below
    at START_FLOOR times its largest entry, and run until the factor gradient
    is at most GRAD_TOL; the answer is read from the last accepted step's
    state.  Every local minimum of the factored cost is a global one (Burer
    & Monteiro, Math. Program. 103, 2005), but a stationary point may be a
    saddle, so converged also requires the blocks' cost gradient to be PSD:
    with <Z, X> = 0 at a stationary point, that is the convex problem's KKT
    condition.  converged is decided on t; grad_norm and dual_min are
    reported in p's units, times k^(3/2) and k.
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
    if target.min() >= 0.0:
        point = ConePoint(m, *_diagonal_blocks(target * comb, m))
        return ConeResult(
            q=p, point=point, objective=0.0, grad_norm=0.0, dual_min=0.0,
            converged=True, iterations=0, evaluations=0,
        )
    j = _scale_exponent(target, M)
    t = np.ldexp(target, -8 * j)
    args = (m, scale, M, t, sa, sb)
    z, (_, cost, blocks, grad), iterations, evaluations = _newton(_start_point(t * comb, m), args)
    R0, R1 = _unpack(z, sa, sb)
    point = ConePoint(m=m, A=np.ldexp(R0 @ R0.T, 8 * j), B=np.ldexp(R1 @ R1.T, 8 * j))
    gnorm = float(np.abs(grad).max())
    dual_min = float(min(np.linalg.eigvalsh(G)[0] for G in blocks if G.size))
    return ConeResult(
        q=PolyCoeffs(degree=m, coeffs=scale * omega_adjoint(point)),
        point=point,
        objective=float(np.ldexp(cost, 16 * j)),
        grad_norm=float(np.ldexp(gnorm, 12 * j)),
        dual_min=float(np.ldexp(dual_min, 8 * j)),
        converged=gnorm <= GRAD_TOL and dual_min >= -DUAL_RTOL * float(t @ M @ t),
        iterations=iterations,
        evaluations=evaluations,
    )


def cone_objective(p: PolyCoeffs, q: PolyCoeffs) -> float:
    """Projection cost (q - p)^T M^m (q - p) at the common degree m."""
    r = np.asarray(q.coeffs, dtype=float) - p.coeffs
    return float(r @ simplex.simplex_mass_matrix(1, p.degree) @ r)
