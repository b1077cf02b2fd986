"""Exact constrained projection onto polynomials with nonnegative elevation.

Solves min (q - p)^T M (q - p) over coefficient vectors q whose degree-n
elevation is componentwise nonnegative, optionally with the integral of q
pinned to the integral of p (the delta switch).  Works on the interval
(dim = 1) and on the unit right d-simplex with one code path.

In the orthonormal coordinates q = p + U^{m,m} v the cost is ||v||^2 and
the constraints read G v >= -E p, with G = U^{m,n} = E U^{m,m}; delta = 1
drops G's constant column 0 (and v's entry), so the integral stays fixed.
solve answers this least distance program with one nonnegative
least-squares (NNLS) call: Lawson & Hanson (Solving Least Squares Problems,
1974, ch. 23) turn it into min ||A u - e_last|| over u >= 0 with
A = [G^T; h^T], h = -E p / s and s = max |E p|.  The answer is read off the
NNLS solution u and its residual r = 1 - h^T u:

    mu = (2 s / r) u,    v = G^T mu / 2 = (s / r) G^T u,

so 2 v = G^T mu, the stationarity of the cost, holds exactly, and the
active set J is the support of u.  E p + G v is the elevated vector and q
follows from v.  No subset is enumerated, so the constraint count is not
bounded here.  A target whose elevation is already feasible skips NNLS: it
is its own answer.
The paper's exhaustive search over every J, in the form (W - c delta)
mu_J = -(E p)_J with W = U^{m,n} (U^{m,n})^T / 2, is not part of the
package: it lives with the tests, in tests/oracles.py, as the reference
method they check solve against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import simplex
from .simplex import PolyCoeffs, _factorial_ratio

PRIMAL_TOL = 1e-9
DUAL_TOL = 1e-12
# the NNLS residual r is >= 1/2 for a feasible problem scaled as in
# _least_distance and 0 for an infeasible one
INFEASIBLE_RESIDUAL = 0.25
# Lawson & Hanson iterations allowed per constraint; scipy's default of 3
# stops short on some problems inside the caps (d = 1, m = n = 10)
NNLS_ITERATIONS = 10


class NoFeasibleSubsetError(Exception):
    """Raised when NNLS finds the constraints infeasible, or its answer
    fails the dual check or the primal check.

    Should be impossible for a well-posed feasible problem; seeing it means
    either the constraints are infeasible (e.g. a mass constraint with
    negative target integral), a tolerance is mis-sized or NNLS ran out of
    iterations (NNLS_ITERATIONS).
    """


@dataclass(frozen=True)
class KktProblem:
    """Constrained projection instance.

    target holds the Bernstein coefficients of the polynomial being
    projected, at degree m (length C(dim+m, dim)), and must be finite.
    delta=1 additionally pins the integral.
    """

    dim: int
    m: int
    n: int
    target: np.ndarray
    delta: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0 <= self.m <= self.n:
            raise ValueError(f"need 0 <= m <= n, got m={self.m}, n={self.n}")
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        t = np.asarray(self.target, dtype=float)
        want = math.comb(self.dim + self.m, self.dim)
        if t.shape != (want,):
            raise ValueError(f"target must have shape ({want},), got {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError("target coefficients must be finite")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "target", t)

    @property
    def num_constraints(self) -> int:
        return math.comb(self.dim + self.n, self.dim)


@dataclass(frozen=True)
class KktSolution:
    q: PolyCoeffs
    mu: np.ndarray
    nu: float
    active_set: tuple[int, ...]
    elevated: np.ndarray
    subsets_examined: int
    systems_solved: int
    candidates_reconstructed: int
    rank_skips: int


@dataclass(frozen=True)
class KktDiagnostics:
    stationarity_inf: float
    min_elevated: float
    min_mu: float
    max_slack: float
    integral_gap: float
    passed: bool


def _least_distance(
    problem: KktProblem, G, ep
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Solve min ||v|| subject to G v >= -E p by one NNLS call.

    G is Umn, without its constant column 0 when delta = 1, in the
    coordinates v of the module docstring.  Lawson & Hanson solve the
    program as min ||A u - e_last|| over u >= 0 with A = [G^T; h^T] and
    h = -E p / s, s = max |E p|.  The scaling leaves the support unchanged
    and bounds the distance to the feasible set by ||p||_L2 / s <= 1, so a
    feasible problem has residual r = 1 - h^T u = 1 / (1 + ||v / s||^2)
    >= 1/2 and an infeasible one has r = 0.  Returns the active set J, the
    support of u as a sorted tuple, v = G^T mu / 2 and the multipliers
    mu = (2 s / r) u, one per constraint.
    """
    k, c = G.shape
    A = np.empty((c + 1, k))
    A[:c] = G.T
    h = A[c]
    s = np.abs(ep).max()
    np.divide(ep, -s, out=h)
    b = np.zeros(c + 1)
    b[c] = 1.0
    try:
        u, _ = optimize.nnls(A, b, maxiter=NNLS_ITERATIONS * k)
    except RuntimeError as e:
        raise NoFeasibleSubsetError(
            f"NNLS stopped on the {problem.num_constraints} constraints: {e} "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, delta={problem.delta})"
        ) from None
    r = 1.0 - h @ u
    # written so that a NaN in u passes on to the dual check
    if r < INFEASIBLE_RESIDUAL:
        raise NoFeasibleSubsetError(
            f"NNLS finds the {problem.num_constraints} constraints infeasible "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, "
            f"delta={problem.delta})"
        )
    J = tuple(u.nonzero()[0].tolist())
    mu = (2.0 * s / r) * u
    return J, 0.5 * (G.T @ mu), mu


def solve(problem: KktProblem) -> KktSolution:
    """Find the unique constrained minimizer.

    A target whose elevation is feasible is its own answer (J = ()), its
    coefficients returned unchanged; the test reads the signs of E p
    alone, with no NNLS call.
    At n = m, E is the identity, and E p is the target itself: no
    elevation matrix is built or multiplied, and the elevated vector
    E p + G v that the primal check reads is q = p + U v itself.
    Otherwise one NNLS call gives the active set J, v and the multipliers
    mu at once (the residual identity of the module docstring), refused
    unless mu passes the dual check and E p + G v the primal check.  The
    counters report the one or two subsets this examines: the empty set,
    which the feasibility test stands for, then J.
    """
    if problem.n == problem.m:
        ep = problem.target
    else:
        ep = simplex.simplex_elevation(problem.dim, problem.m, problem.n) @ problem.target
    if ep.min() >= -PRIMAL_TOL:
        # the empty set examined, solved (0 x 0) and reconstructed; its nu,
        # -d! * 0.0, keeps its sign bit
        return KktSolution(
            q=PolyCoeffs(problem.m, problem.target, problem.dim),
            mu=np.zeros(problem.num_constraints),
            nu=-0.0 if problem.delta else 0.0,
            active_set=(),
            elevated=ep,
            subsets_examined=1,
            systems_solved=1,
            candidates_reconstructed=1,
            rank_skips=0,
        )
    G = simplex.simplex_spectral_factors(problem.dim, problem.m, problem.n)[:, problem.delta :]
    J, v, mu = _least_distance(problem, G, ep)

    def refuse(check):
        return NoFeasibleSubsetError(
            f"the active set {J} found by NNLS fails the {check} "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, "
            f"delta={problem.delta})"
        )

    # written so that a NaN multiplier fails it
    if not mu.min() >= -DUAL_TOL:
        raise refuse("dual check")
    # q - p = U v: the cost is ||v||^2, and E p + G v is the elevated q
    y = ep + G @ v
    if not y.min() >= -PRIMAL_TOL:
        raise refuse("primal check")
    if problem.n == problem.m:
        # G = U and E p = p, so y is p + U v itself
        q = y
    else:
        U = simplex.orthogonal_complement_basis(problem.dim, problem.m)
        q = problem.target + U[:, problem.delta :] @ v
    return KktSolution(
        q=PolyCoeffs(problem.m, q, problem.dim),
        mu=mu,
        nu=-math.factorial(problem.dim) * float(mu.sum()) if problem.delta else 0.0,
        active_set=J,
        elevated=y,
        subsets_examined=2,
        systems_solved=2,
        candidates_reconstructed=2,
        rank_skips=0,
    )


def objective(problem: KktProblem, qvec) -> float:
    """The cost (q - p)^T M (q - p) being minimized."""
    M = simplex.simplex_mass_matrix(problem.dim, problem.m)
    r = np.asarray(qvec, dtype=float) - problem.target
    return float(r @ M @ r)


def verify_kkt(problem: KktProblem, sol: KktSolution, tol: float) -> KktDiagnostics:
    """Recompute every KKT residual from scratch and compare against tol.

    The stationarity residual is 2 M (q - p) - E^T mu, minus nu c_eq when
    the integral is pinned.  M (q - p) is doubled in place, which has the
    bits of (2 M)(q - p) since x2 is exact away from the subnormal range.
    At n = m, E is the identity and is never built: E^T mu is mu and the
    elevated q is q.
    """
    M = simplex.simplex_mass_matrix(problem.dim, problem.m)
    qvec = np.asarray(sol.q.coeffs, dtype=float)
    # gradient of the Lagrangian at (q, mu, nu); zero at the optimum
    stat = M @ (qvec - problem.target)
    stat *= 2.0
    if problem.n == problem.m:
        stat -= sol.mu
        elevated = qvec
    else:
        E = simplex.simplex_elevation(problem.dim, problem.m, problem.n)
        stat -= E.T @ sol.mu
        elevated = E @ qvec
    slack = np.abs(sol.mu * elevated)
    gap = 0.0
    if problem.delta:
        # m!/(m+d)!: the integral of one degree-m basis function, so c_eq
        # times the coefficient sum is the integral of a degree-m polynomial
        c_eq = _factorial_ratio((problem.m,), (problem.m + problem.dim,))
        stat -= sol.nu * c_eq
        gap = abs(c_eq * float(qvec.sum()) - c_eq * float(problem.target.sum()))
    stationarity = float(np.abs(stat).max())
    min_elev = float(elevated.min())
    min_mu = float(sol.mu.min()) if sol.mu.size else 0.0
    max_slack = float(slack.max()) if slack.size else 0.0
    passed = (
        stationarity <= tol
        and min_elev >= -tol
        and min_mu >= -tol
        and max_slack <= tol
        and gap <= tol
    )
    return KktDiagnostics(
        stationarity_inf=stationarity,
        min_elevated=min_elev,
        min_mu=min_mu,
        max_slack=max_slack,
        integral_gap=gap,
        passed=passed,
    )
