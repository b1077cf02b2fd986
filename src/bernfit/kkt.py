"""Exact constrained projection onto polynomials with nonnegative elevation.

Solves min (q - p)^T M (q - p) over coefficient vectors q whose degree-n
elevation is componentwise nonnegative, optionally with the integral of q
pinned to the integral of p (the delta switch).  Works on the interval
(dim = 1) and on the unit right d-simplex with one code path.

For an active set J the reduced system

    sum_{j in J} (W_ij - c * delta) mu_j = -(E p)_i,   i in J,

is solved, where W is half the elevated inverse-mass product U U^T and
c = d!/2.  J is accepted when the multipliers are nonnegative and the
reconstructed elevated vector is feasible.

solve finds J with one nonnegative least-squares (NNLS) call: in the
orthonormal coordinates c = lam * U^T y the problem is the least distance
program min ||c - c_p|| subject to U c >= 0, which Lawson & Hanson
(Solving Least Squares Problems, 1974, ch. 23) turn into an NNLS problem
whose support is J.  The exact reduced solve on J then gives the answer,
so the constraint count is not bounded here.  A target whose elevation is
already feasible skips NNLS and the reduced solve: it is its own answer.
The paper's exhaustive search over every J, with its 2^MAX_SUBSET_BITS
budget, is kept in the oracles module as the reference method the tests
check solve against; solve shares the reduced solve and its checks
(_accepted) with it only for the NNLS set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    """Raised when NNLS finds no active set or none passes both KKT checks.

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
        if not np.all(np.isfinite(t)):
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
    dual_feasible: bool
    passed: bool


@dataclass(frozen=True)
class _ProblemData:
    """Precomputed matrices shared by every subset of one instance, all
    read-only from simplex's caches."""

    E: np.ndarray            # elevation, constraints x unknowns
    W: np.ndarray            # U^{m,n} (U^{m,n})^T / 2
    Umn: np.ndarray
    M: np.ndarray            # degree-m mass matrix
    c_delta: float           # d!/2, subtracted from W on the active block
    c_eq: float              # m!/(m+d)!: integral of one degree-m basis function
    d_factorial: float


@lru_cache(maxsize=64)
def _problem_data(dim: int, m: int, n: int) -> _ProblemData:
    fac = simplex.simplex_spectral_factors(dim, m, n)
    dfact = float(math.factorial(dim))
    return _ProblemData(
        E=simplex.simplex_elevation(dim, m, n),
        W=fac.W,
        Umn=fac.U,
        M=simplex.simplex_mass_matrix(dim, m),
        c_delta=dfact / 2.0,
        c_eq=_factorial_ratio((m,), (m + dim,)),
        d_factorial=dfact,
    )


def _candidate_solution(data, problem, J, mu_J):
    """Assemble (mu, nu, y) for a dual-feasible subset; y is the elevated q."""
    N = problem.num_constraints
    mu = np.zeros(N)
    if len(J):
        mu[np.asarray(J)] = mu_J
    nu = -data.d_factorial * float(mu.sum()) if problem.delta else 0.0
    y = data.W @ mu + data.E @ problem.target
    if problem.delta:
        y += 0.5 * nu
    return mu, nu, y


def _accepted(data, problem: KktProblem, ep, chunk, counters: dict):
    """Yield (J, mu, nu, y) for every row of chunk passing both KKT checks.

    chunk stacks subsets of one size k as rows of constraint indices; the
    accepted ones come out in row order.  A reduced matrix whose rank at
    tolerance RANK_TOL * max|A| is below k is skipped, a zero block too.
    """
    batch, k = chunk.shape
    A = data.W[chunk[:, :, None], chunk[:, None, :]]
    if problem.delta:
        A = A - data.c_delta
    tol = RANK_TOL * np.abs(A).max(axis=(1, 2), initial=0.0)
    fullrank = np.linalg.matrix_rank(A, tol=tol, hermitian=True) == k
    chunk = chunk[fullrank]
    x = np.linalg.solve(A[fullrank], -ep[chunk][..., None])[..., 0]
    counters["subsets"] += batch
    counters["solved"] += len(chunk)
    counters["rank_skips"] += batch - len(chunk)
    dual_ok = np.all(x >= -DUAL_TOL, axis=1)
    for J, mu_J in zip(chunk[dual_ok], x[dual_ok]):
        J = tuple(int(c) for c in J)
        mu, nu, y = _candidate_solution(data, problem, J, mu_J)
        counters["reconstructed"] += 1
        if y.min() >= -PRIMAL_TOL:
            yield J, mu, nu, y


def _nnls_active_set(problem: KktProblem, data, ep) -> tuple[int, ...]:
    """The active set, as the support of one NNLS solution.

    With x = c - c_p the problem is min ||x|| subject to G x >= h, where
    G = Umn and h = -E p; with delta = 1 the constant column 0 of Umn is
    dropped, so the integral stays fixed.  Lawson & Hanson solve it as
    min ||A u - e_last|| over u >= 0 with A = [G^T; h^T].  h is scaled to
    max |h| = 1, which leaves the support unchanged and bounds the distance
    to the feasible set by ||p||_L2 / max |E p| <= 1, so a feasible problem
    has residual r_last = -1 / (1 + ||x||^2) <= -1/2 and an infeasible one
    has r_last = 0.
    """
    G = data.Umn[:, 1:] if problem.delta else data.Umn
    h = -ep / np.abs(ep).max()
    A = np.vstack([G.T, h])
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    try:
        u, _ = optimize.nnls(A, b, maxiter=NNLS_ITERATIONS * A.shape[1])
    except RuntimeError as e:
        raise NoFeasibleSubsetError(
            f"NNLS stopped on the {problem.num_constraints} constraints: {e} "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, delta={problem.delta})"
        ) from None
    if (A @ u - b)[-1] > -INFEASIBLE_RESIDUAL:
        raise NoFeasibleSubsetError(
            f"NNLS finds the {problem.num_constraints} constraints infeasible "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, "
            f"delta={problem.delta})"
        )
    return tuple(int(j) for j in np.flatnonzero(u))


def _counters() -> dict:
    return dict(subsets=0, solved=0, reconstructed=0, rank_skips=0)


def _finish(problem: KktProblem, J, mu, nu, y, counters) -> KktSolution:
    """The solution for an accepted subset J.

    With J = () the target is feasible and is returned unchanged;
    otherwise q is the degree-m preimage of y.
    """
    if J:
        q = simplex.simplex_downgrade(problem.dim, problem.m, problem.n, y)
    else:
        q = PolyCoeffs(problem.m, problem.target, problem.dim)
    return KktSolution(
        q=q,
        mu=mu,
        nu=nu,
        active_set=J,
        elevated=y,
        subsets_examined=counters["subsets"],
        systems_solved=counters["solved"],
        candidates_reconstructed=counters["reconstructed"],
        rank_skips=counters["rank_skips"],
    )


def solve(problem: KktProblem) -> KktSolution:
    """Find the unique constrained minimizer.

    A target whose elevation is feasible is its own answer (J = ()), its
    coefficients returned unchanged; the test reads the signs of E p
    alone, with no reduced solve.
    Otherwise NNLS names the active set J, and the reduced system on J,
    checked as in the exhaustive search (_accepted), gives the solution.
    The counters report the one or two subsets this examines: the empty
    set, which the feasibility test stands for, then J.
    """
    data = _problem_data(problem.dim, problem.m, problem.n)
    ep = data.E @ problem.target
    # the empty set examined, solved (0 x 0) and reconstructed
    counters = dict(subsets=1, solved=1, reconstructed=1, rank_skips=0)
    if ep.min() >= -PRIMAL_TOL:
        mu = np.zeros(problem.num_constraints)
        # the empty set's nu, -d! * 0.0, keeps its sign bit
        nu = -0.0 if problem.delta else 0.0
        return _finish(problem, (), mu, nu, ep, counters)
    J = _nnls_active_set(problem, data, ep)
    chunk = np.array([J], dtype=np.intp)
    found = next(_accepted(data, problem, ep, chunk, counters), None)
    if found is None:
        raise NoFeasibleSubsetError(
            f"the active set {J} found by NNLS failed the KKT checks "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, "
            f"delta={problem.delta})"
        )
    return _finish(problem, *found, counters)


def objective(problem: KktProblem, qvec) -> float:
    """The cost (q - p)^T M (q - p) being minimized."""
    data = _problem_data(problem.dim, problem.m, problem.n)
    r = np.asarray(qvec, dtype=float) - problem.target
    return float(r @ data.M @ r)


def verify_kkt(problem: KktProblem, sol: KktSolution, tol: float) -> KktDiagnostics:
    """Recompute every KKT residual from scratch and compare against tol."""
    data = _problem_data(problem.dim, problem.m, problem.n)
    qvec = np.asarray(sol.q.coeffs, dtype=float)
    # gradient of the Lagrangian at (q, mu, nu); zero at the optimum
    stat = (
        2.0 * data.M @ (qvec - problem.target)
        - data.E.T @ sol.mu
        - problem.delta * sol.nu * data.c_eq
    )
    elevated = data.E @ qvec
    slack = np.abs(sol.mu * elevated)
    # c_eq times the coefficient sum is the integral of a degree-m polynomial
    gap = (
        abs(data.c_eq * float(np.sum(qvec)) - data.c_eq * float(np.sum(problem.target)))
        if problem.delta
        else 0.0
    )
    stationarity = float(np.abs(stat).max())
    min_elev = float(elevated.min())
    min_mu = float(sol.mu.min()) if sol.mu.size else 0.0
    max_slack = float(slack.max()) if slack.size else 0.0
    dual_ok = min_mu >= -tol
    passed = (
        stationarity <= tol
        and min_elev >= -tol
        and dual_ok
        and max_slack <= tol
        and gap <= tol
    )
    return KktDiagnostics(
        stationarity_inf=stationarity,
        min_elevated=min_elev,
        min_mu=min_mu,
        max_slack=max_slack,
        integral_gap=gap,
        dual_feasible=dual_ok,
        passed=passed,
    )
