"""Reference methods the test suite checks the production solvers against.

enumerate_solve is the paper's exhaustive active-set search: it tries
every subset J of the constraints by size, then lexicographically, and
solves the paper's reduced system

    sum_{j in J} (W_ij - c * delta) mu_j = -(E p)_i,   i in J,

with W = U^{m,n} (U^{m,n})^T / 2 formed here and c = d!/2.  J is accepted
when the multipliers are nonnegative and the elevated vector W mu + E p +
nu/2 is feasible, both up to kkt.solve's tolerances times max|p|, so the
two agree at any scale of p, and q comes from the stationarity condition
2 M (q - p) = E^T mu + nu c_eq 1.  The minimizer is unique, so the first
accepted J is the answer.  Its cost grows as 2^N in the constraint count
N, so subset_iterator refuses N above MAX_SUBSET_BITS.  kkt.solve shares
only the basis layer's matrices with it, not its reduced solve.

penalty_solve minimizes the same quadratic cost but replaces the
constraints with quadratic penalty terms on an increasing weight schedule.
It shares no code path with kkt (no subsets, no reduced systems), which is
the point: agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from bernfit import kkt, simplex
from bernfit.kkt import DUAL_TOL, PRIMAL_TOL, KktProblem, KktSolution
from bernfit.simplex import PolyCoeffs, _factorial_ratio

# subsets of one size stacked into one batch of reduced solves
_CHUNK = 32768
MAX_SUBSET_BITS = 22
# a reduced matrix A is rank deficient when it has fewer eigenvalues above
# RANK_TOL * max|A| in magnitude than rows
RANK_TOL = 1e-11


class IntractableProblemError(Exception):
    """Raised when the constraint count exceeds MAX_SUBSET_BITS."""


def subset_iterator(num_constraints: int):
    """All subsets of {0..num_constraints-1}: by cardinality, then lexicographic."""
    if num_constraints > MAX_SUBSET_BITS:
        raise IntractableProblemError(
            f"{num_constraints} constraints means 2^{num_constraints} subsets; "
            f"the enumeration budget is 2^{MAX_SUBSET_BITS}"
        )
    for k in range(num_constraints + 1):
        yield from itertools.combinations(range(num_constraints), k)


@dataclass(frozen=True)
class _PaperSystem:
    """The paper's reduced-system matrix for one instance."""

    W: np.ndarray            # U^{m,n} (U^{m,n})^T / 2
    c_delta: float           # d!/2, subtracted from W on the active block


def _paper_system(problem: KktProblem) -> _PaperSystem:
    U = simplex.simplex_spectral_factors(problem.dim, problem.m, problem.n)
    return _PaperSystem(W=0.5 * (U @ U.T), c_delta=math.factorial(problem.dim) / 2.0)


def _counters() -> dict:
    return dict(subsets=0, solved=0, reconstructed=0, rank_skips=0)


def _candidate_solution(system, problem, ep, J, mu_J):
    """Assemble (mu, nu, y) for a dual-feasible subset; y is the elevated q."""
    N = problem.num_constraints
    mu = np.zeros(N)
    if len(J):
        mu[np.asarray(J)] = mu_J
    nu = -math.factorial(problem.dim) * float(mu.sum()) if problem.delta else 0.0
    y = system.W @ mu + ep
    if problem.delta:
        y += 0.5 * nu
    return mu, nu, y


def _accepted(system, problem: KktProblem, ep, chunk, counters: dict):
    """Yield (J, mu, nu, y) for every row of chunk passing both KKT checks,
    at kkt.solve's tolerances times problem.scale.

    chunk stacks subsets of one size k as rows of constraint indices; the
    accepted ones come out in row order.  A reduced matrix whose rank at
    tolerance RANK_TOL * max|A| is below k is skipped, a zero block too.
    """
    batch, k = chunk.shape
    A = system.W[chunk[:, :, None], chunk[:, None, :]]
    if problem.delta:
        A = A - system.c_delta
    tol = RANK_TOL * np.abs(A).max(axis=(1, 2), initial=0.0)
    fullrank = np.linalg.matrix_rank(A, tol=tol, hermitian=True) == k
    chunk = chunk[fullrank]
    x = np.linalg.solve(A[fullrank], -ep[chunk][..., None])[..., 0]
    counters["subsets"] += batch
    counters["solved"] += len(chunk)
    counters["rank_skips"] += batch - len(chunk)
    dual_ok = np.all(x >= -DUAL_TOL * problem.scale, axis=1)
    for J, mu_J in zip(chunk[dual_ok], x[dual_ok]):
        J = tuple(int(c) for c in J)
        mu, nu, y = _candidate_solution(system, problem, ep, J, mu_J)
        counters["reconstructed"] += 1
        if y.min() >= -PRIMAL_TOL * problem.scale:
            yield J, mu, nu, y


def _enumerate_accepted(problem: KktProblem, counters: dict):
    """Yield (J, mu, nu, y) for every subset passing both KKT checks.

    Subsets come in subset_iterator order.  Cardinalities above the rank of
    the reduced-matrix family are skipped: any principal submatrix of a PSD
    matrix of rank r is singular beyond size r, so the rank guard would
    reject every such subset anyway.
    """
    system = _paper_system(problem)
    ep = simplex.simplex_elevation(problem.dim, problem.m, problem.n) @ problem.target
    max_card = len(problem.target) - problem.delta
    for k, subsets in itertools.groupby(subset_iterator(problem.num_constraints), len):
        if k > max_card:
            break
        while chunk := list(itertools.islice(subsets, _CHUNK)):
            rows = np.array(chunk, dtype=np.intp).reshape(len(chunk), k)
            yield from _accepted(system, problem, ep, rows, counters)


def _finish(problem: KktProblem, J, mu, nu, y, counters) -> KktSolution:
    """The solution for an accepted subset J, q from stationarity:
    2 M (q - p) = E^T mu + nu c_eq 1."""
    E = simplex.simplex_elevation(problem.dim, problem.m, problem.n)
    M = simplex.simplex_mass_matrix(problem.dim, problem.m)
    c_eq = _factorial_ratio((problem.m,), (problem.m + problem.dim,))
    q = problem.target + 0.5 * np.linalg.solve(M, E.T @ mu + nu * c_eq)
    return KktSolution(
        q=PolyCoeffs(problem.m, q, problem.dim),
        mu=mu,
        nu=nu,
        active_set=J,
        elevated=y,
        subsets_examined=counters["subsets"],
        systems_solved=counters["solved"],
        candidates_reconstructed=counters["reconstructed"],
        rank_skips=counters["rank_skips"],
    )


def enumerate_solve(problem: KktProblem, exhaustive: bool = False) -> KktSolution:
    """The first accepted subset in subset_iterator order.

    With exhaustive=True the search runs to the end, so the counters cover
    every subset; the first accepted subset is still returned (uniqueness
    makes all accepted subsets reconstruct the same polynomial, which tests
    verify).
    """
    counters = _counters()
    accepted = _enumerate_accepted(problem, counters)
    found = next(accepted, None)
    if found is None:
        raise kkt.NoFeasibleSubsetError(
            f"no subset of {problem.num_constraints} constraints passed both "
            f"feasibility checks (m={problem.m}, n={problem.n}, "
            f"dim={problem.dim}, delta={problem.delta})"
        )
    if exhaustive:
        for _ in accepted:
            pass
    return _finish(problem, *found, counters)


def accepted_subsets(problem: KktProblem) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All accepted (J, elevated vector) pairs, for uniqueness checks."""
    return [(J, y) for J, _, _, y in _enumerate_accepted(problem, _counters())]


class PenaltyStalledError(Exception):
    """An inner minimization hit its iteration cap before its tolerance."""


@dataclass(frozen=True)
class PenaltyConfig:
    rhos: tuple[float, ...] = tuple(10.0 * 10.0**k for k in range(8))
    grad_tol: float = 1e-12
    max_inner_iterations: int = 200_000

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.rhos, self.rhos[1:])):
            raise ValueError("penalty weights must be strictly increasing")


def _penalty_objective(q, rho, E, M, c_eq, problem, upper):
    r = q - problem.target
    val = r @ M @ r
    grad = 2.0 * M @ r
    eq = E @ q
    neg = np.minimum(eq, 0.0)
    val += rho * float(neg @ neg)
    grad += 2.0 * rho * (E.T @ neg)
    if upper is not None:
        over = np.maximum(eq - upper, 0.0)
        val += rho * float(over @ over)
        grad += 2.0 * rho * (E.T @ over)
    if problem.delta:
        h = c_eq * float(np.sum(problem.target - q))
        val += rho * h * h
        grad += 2.0 * rho * h * (-c_eq)
    return val, grad


def _newton_polish(q, rho, E, M, c_eq, problem, upper, iterations=25):
    """Drive one penalty stage to its exact minimizer.

    The penalized objective is piecewise quadratic, so once the sign pattern
    of the constraint values settles, a Newton step on the matching quadratic
    piece lands on the stage optimum.  Quasi-Newton alone stalls along the
    mass matrix's soft eigendirections; this polish removes that slack.
    """
    for _ in range(iterations):
        val, g = _penalty_objective(q, rho, E, M, c_eq, problem, upper)
        eq = E @ q
        active = eq < 0.0
        H = 2.0 * M + 2.0 * rho * (E[active].T @ E[active])
        if upper is not None:
            over = eq > upper
            H = H + 2.0 * rho * (E[over].T @ E[over])
        if problem.delta:
            H = H + 2.0 * rho * c_eq * c_eq * np.ones_like(H)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        trial = q + step
        if _penalty_objective(trial, rho, E, M, c_eq, problem, upper)[0] <= val:
            q = trial
        else:
            q = q + 0.5 * step
        if np.abs(step).max() < 1e-15:
            break
    return q


def penalty_solve(
    problem: KktProblem, config: PenaltyConfig | None = None, *, upper: float | None = None
) -> np.ndarray:
    """Approximate minimizer by the quadratic-penalty method.

    upper, when given, also bounds every elevated coefficient from above.

    Each stage is minimized by a quasi-Newton method warm-started from the
    previous stage and then polished by Newton steps on the penalized
    objective.  Empirically lands within ~1e-7 of the exact optimum at the
    default schedule on well-posed instances.
    """
    if problem.num_constraints > 64:
        raise ValueError("oracle is meant for modest instances (<= 64 constraints)")
    cfg = config or PenaltyConfig()
    E = simplex.simplex_elevation(problem.dim, problem.m, problem.n)
    M = simplex.simplex_mass_matrix(problem.dim, problem.m)
    c_eq = _factorial_ratio((problem.m,), (problem.m + problem.dim,))
    q = problem.target.copy()
    for rho in cfg.rhos:
        res = optimize.minimize(
            _penalty_objective,
            q,
            args=(rho, E, M, c_eq, problem, upper),
            jac=True,
            method="L-BFGS-B",
            options=dict(
                maxiter=cfg.max_inner_iterations,
                gtol=cfg.grad_tol,
                ftol=1e-18,
                maxcor=20,
            ),
        )
        q = res.x
        if res.status == 1:  # scipy's "maxiter reached"
            raise PenaltyStalledError(
                f"stage rho={rho} hit {cfg.max_inner_iterations} iterations"
            )
        q = _newton_polish(q, rho, E, M, c_eq, problem, upper)
    return q


def finite_diff_gradient(objective, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if not 1e-8 <= h <= 1e-4:
        raise ValueError(f"step h must lie in [1e-8, 1e-4], got {h}")
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (objective(x + e) - objective(x - e)) / (2.0 * h)
    return g
