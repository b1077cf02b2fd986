"""Exact constrained projection onto polynomials with nonnegative elevation.

Solves min (q - p)^T M (q - p) over coefficient vectors q whose degree-n
elevation is componentwise nonnegative, optionally with the integral of q
pinned to the integral of p (the delta switch).  Works on the interval
(dim = 1) and on the unit right d-simplex with one code path.

In the orthonormal coordinates q = p + U^{m,m} v the cost is ||v||^2 and
the constraints read G v >= -E p, with G = U^{m,n} = E U^{m,m}; delta = 1
drops G's constant column 0 (and v's entry), so the integral stays fixed.
solve finds the active set J with one nonnegative least-squares (NNLS)
call: Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23) turn
this least distance program into an NNLS problem whose support is J.  On
J the multipliers solve

    (1/2) G_J G_J^T mu_J = -(E p)_J,

and v = G_J^T mu_J / 2 gives both the elevated vector E p + G v and q.
No subset is enumerated, so the constraint count is not bounded here.  A
target whose elevation is already feasible skips NNLS and the reduced
solve: it is its own answer.
The paper's exhaustive search over every J, in the form (W - c delta)
mu_J = -(E p)_J with W = U^{m,n} (U^{m,n})^T / 2, is kept in the oracles
module as the reference method the tests check solve against.
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
RANK_TOL = 1e-11
# -r_last of the NNLS residual is >= 1/2 for a feasible problem scaled as in
# _nnls_active_set and 0 for an infeasible one
INFEASIBLE_RESIDUAL = 0.25
# Lawson & Hanson iterations allowed per constraint; scipy's default of 3
# stops short on some problems inside the caps (d = 1, m = n = 10)
NNLS_ITERATIONS = 10


class NoFeasibleSubsetError(Exception):
    """Raised when NNLS finds no active set, or its set fails the rank
    guard, the dual check or the primal check.

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


def _nnls_active_set(problem: KktProblem, G, ep) -> tuple[int, ...]:
    """The active set, as the support of one NNLS solution.

    In the coordinates v of the module docstring the problem is
    min ||v|| subject to G v >= h, where G is Umn, without its constant
    column 0 when delta = 1, and h = -E p.  Lawson & Hanson solve it as
    min ||A u - e_last|| over u >= 0 with A = [G^T; h^T].  h is scaled to
    max |h| = 1, which leaves the support unchanged and bounds the distance
    to the feasible set by ||p||_L2 / max |E p| <= 1, so a feasible problem
    has residual r_last = -1 / (1 + ||v||^2) <= -1/2 and an infeasible one
    has r_last = 0.
    """
    k, c = G.shape
    A = np.empty((c + 1, k))
    A[:c] = G.T
    h = A[c]
    np.divide(ep, -np.abs(ep).max(), out=h)
    b = np.zeros(c + 1)
    b[c] = 1.0
    try:
        u, _ = optimize.nnls(A, b, maxiter=NNLS_ITERATIONS * k)
    except RuntimeError as e:
        raise NoFeasibleSubsetError(
            f"NNLS stopped on the {problem.num_constraints} constraints: {e} "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, delta={problem.delta})"
        ) from None
    # r_last = h^T u - 1
    if h @ u - 1.0 > -INFEASIBLE_RESIDUAL:
        raise NoFeasibleSubsetError(
            f"NNLS finds the {problem.num_constraints} constraints infeasible "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, "
            f"delta={problem.delta})"
        )
    return tuple(u.nonzero()[0].tolist())


def solve(problem: KktProblem) -> KktSolution:
    """Find the unique constrained minimizer.

    A target whose elevation is feasible is its own answer (J = ()), its
    coefficients returned unchanged; the test reads the signs of E p
    alone, with no reduced solve.
    Otherwise NNLS names the active set J, and the reduced system on J
    gives the solution, refused unless it passes the rank guard, the dual
    check and the primal check.  The rank guard counts the eigenvalues of
    the symmetric reduced matrix above RANK_TOL times its largest entry in
    magnitude, the count matrix_rank(..., hermitian=True) makes from the
    same eigvalsh call.  The counters report the one or two
    subsets this examines: the empty set, which the feasibility test
    stands for, then J.
    """
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
    J = _nnls_active_set(problem, G, ep)

    def refuse(check):
        return NoFeasibleSubsetError(
            f"the active set {J} found by NNLS fails the {check} "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, "
            f"delta={problem.delta})"
        )

    GJ = G.take(J, axis=0)
    A = GJ @ GJ.T
    A *= 0.5
    tol = RANK_TOL * np.abs(A).max(initial=0.0)
    if np.count_nonzero(np.abs(np.linalg.eigvalsh(A)) > tol) < len(J):
        raise refuse("rank guard")
    mu_J = np.linalg.solve(A, -ep.take(J))
    # written so that a NaN multiplier fails it
    if not mu_J.min(initial=np.inf) >= -DUAL_TOL:
        raise refuse("dual check")
    # q - p = U v: the cost is ||v||^2, and E p + G v is the elevated q
    v = 0.5 * (GJ.T @ mu_J)
    y = ep + G @ v
    if not y.min() >= -PRIMAL_TOL:
        raise refuse("primal check")
    mu = np.zeros(problem.num_constraints)
    mu.put(J, mu_J)
    U = simplex.orthogonal_complement_basis(problem.dim, problem.m)
    return KktSolution(
        q=PolyCoeffs(problem.m, problem.target + U[:, problem.delta :] @ v, problem.dim),
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
    """Recompute every KKT residual from scratch and compare against tol."""
    E = simplex.simplex_elevation(problem.dim, problem.m, problem.n)
    M = simplex.simplex_mass_matrix(problem.dim, problem.m)
    qvec = np.asarray(sol.q.coeffs, dtype=float)
    # gradient of the Lagrangian at (q, mu, nu); zero at the optimum
    stat = 2.0 * M @ (qvec - problem.target) - E.T @ sol.mu
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
