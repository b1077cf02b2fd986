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
whose support is J.  The exact reduced solve on J then gives the answer.
enumerate is the paper's reference method and the test oracle: it tries
every subset by size, then lexicographically, and the minimizer is
unique, so the first acceptance is the answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize

from . import simplex
from .bernstein import PolyCoeffs, _factorial_ratio

MAX_SUBSET_BITS = 22

PRIMAL_TOL = 1e-9
DUAL_TOL = 1e-12
RANK_TOL = 1e-11
# -r_last of the NNLS residual is >= 1/2 for a feasible problem scaled as in
# _nnls_active_set and 0 for an infeasible one
INFEASIBLE_RESIDUAL = 0.25

_CHUNK = 32768


class IntractableProblemError(Exception):
    """Raised when the constraint count exceeds MAX_SUBSET_BITS."""


class NoFeasibleSubsetError(Exception):
    """Raised when no active set passes both KKT checks.

    Should be impossible for a well-posed feasible problem; seeing it means
    either the constraints are infeasible (e.g. a mass constraint with
    negative target integral) or a tolerance is mis-sized.
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
    stationarity_residual: float
    min_elevated: float
    max_slack_violation: float
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
class _ProblemData:
    """Precomputed matrices shared by every subset of one instance."""

    E: np.ndarray            # elevation, constraints x unknowns
    W: np.ndarray            # U^{m,n} (U^{m,n})^T / 2
    Umm: np.ndarray
    Umn: np.ndarray
    lam: np.ndarray          # degree-n eigenvalues repeated per multiplicity
    M: np.ndarray            # degree-m mass matrix
    c_delta: float           # d!/2, subtracted from W on the active block
    c_eq: float              # m!/(m+d)!: integral of one degree-m basis function
    d_factorial: float

    def __post_init__(self):
        # instances are cached and shared by every caller
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@lru_cache(maxsize=64)
def _problem_data(dim: int, m: int, n: int) -> _ProblemData:
    fac = simplex.simplex_spectral_factors(dim, m, n)
    dfact = float(math.factorial(dim))
    return _ProblemData(
        E=simplex.simplex_elevation(dim, m, n),
        W=fac.W,
        Umm=simplex.simplex_spectral_factors(dim, m, m).U,
        Umn=fac.U,
        lam=fac.eigenvalues,
        M=simplex.simplex_mass_matrix(dim, m),
        c_delta=dfact / 2.0,
        c_eq=_factorial_ratio((m,), (m + dim,)),
        d_factorial=dfact,
    )


def _batched_solve(A: np.ndarray, b: np.ndarray):
    """Gaussian elimination with partial pivoting over a stack of systems.

    A has shape (batch, k, k) and b (batch, k).  Returns (x, full_rank)
    where full_rank marks systems whose pivots all clear RANK_TOL * max|A|.
    """
    batch, k, _ = A.shape
    U = A.copy()
    x = b.astype(float).copy()
    scale = np.max(np.abs(A), axis=(1, 2))
    # a zero block is rank deficient outright; the pivot test below would
    # otherwise accept it vacuously
    ok = scale > 0.0
    rows = np.arange(batch)
    for col in range(k):
        piv = np.argmax(np.abs(U[:, col:, col]), axis=1) + col
        swap = piv != col
        if np.any(swap):
            sb = rows[swap]
            pv = piv[swap]
            U[sb, pv, :], U[sb, col, :] = U[sb, col, :], U[sb, pv, :].copy()
            x[sb, pv], x[sb, col] = x[sb, col], x[sb, pv].copy()
        pivval = U[:, col, col]
        ok &= np.abs(pivval) >= RANK_TOL * scale
        safe = np.where(pivval == 0.0, 1.0, pivval)
        factors = U[:, col + 1 :, col] / safe[:, None]
        U[:, col + 1 :, col:] -= factors[:, :, None] * U[:, None, col, col:]
        x[:, col + 1 :] -= factors * x[:, col, None]
    for col in range(k - 1, -1, -1):
        acc = np.einsum("bj,bj->b", U[:, col, col + 1 :], x[:, col + 1 :])
        pivval = U[:, col, col]
        x[:, col] = (x[:, col] - acc) / np.where(pivval == 0.0, 1.0, pivval)
    return x, ok


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


def _check_size(problem: KktProblem) -> None:
    N = problem.num_constraints
    if N > MAX_SUBSET_BITS:
        raise IntractableProblemError(
            f"{N} constraints means 2^{N} subsets; the enumeration budget "
            f"is 2^{MAX_SUBSET_BITS}"
        )


def _accepted(data, problem: KktProblem, ep, chunk, counters: dict):
    """Yield (J, mu, nu, y) for every row of chunk passing both KKT checks.

    chunk stacks subsets of one size as rows of constraint indices; the
    accepted ones come out in row order.
    """
    batch, k = chunk.shape
    counters["subsets"] += batch
    if k == 0:
        x, fullrank = np.zeros((batch, 0)), np.ones(batch, dtype=bool)
    else:
        A = data.W[chunk[:, :, None], chunk[:, None, :]]
        if problem.delta:
            A = A - data.c_delta
        x, fullrank = _batched_solve(A, -ep[chunk])
    counters["rank_skips"] += int(batch - fullrank.sum())
    counters["solved"] += int(fullrank.sum())
    dual_ok = fullrank & np.all(x >= -DUAL_TOL, axis=1)
    for idx in np.flatnonzero(dual_ok):
        J = tuple(int(c) for c in chunk[idx])
        mu, nu, y = _candidate_solution(data, problem, J, x[idx])
        counters["reconstructed"] += 1
        if y.min() >= -PRIMAL_TOL:
            yield J, mu, nu, y


def _enumerate_accepted(problem: KktProblem, counters: dict):
    """Yield (J, mu, nu, y) for every subset passing both KKT checks.

    Enumeration follows subset_iterator order.  Cardinalities above the rank
    of the reduced-matrix family are skipped: any principal submatrix of a
    PSD matrix of rank r is singular beyond size r, so the rank guard would
    reject every such subset anyway.
    """
    _check_size(problem)
    N = problem.num_constraints
    data = _problem_data(problem.dim, problem.m, problem.n)
    ep = data.E @ problem.target

    n_unknowns = problem.target.shape[0]
    max_card = min(N, n_unknowns - 1 if problem.delta else n_unknowns)

    yield from _accepted(data, problem, ep, np.empty((1, 0), dtype=np.intp), counters)
    for k in range(1, max_card + 1):
        combos = itertools.combinations(range(N), k)
        while True:
            chunk = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(combos, _CHUNK)),
                dtype=np.intp,
            ).reshape(-1, k)
            if chunk.shape[0] == 0:
                break
            yield from _accepted(data, problem, ep, chunk, counters)


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
    u, _ = optimize.nnls(A, b)
    if (A @ u - b)[-1] > -INFEASIBLE_RESIDUAL:
        raise NoFeasibleSubsetError(
            f"NNLS finds the {problem.num_constraints} constraints infeasible "
            f"(m={problem.m}, n={problem.n}, dim={problem.dim}, "
            f"delta={problem.delta})"
        )
    return tuple(int(j) for j in np.flatnonzero(u))


def _counters() -> dict:
    return dict(subsets=0, solved=0, reconstructed=0, rank_skips=0)


def _stationarity(problem: KktProblem, data, qvec, mu, nu) -> np.ndarray:
    """Gradient of the Lagrangian at (q, mu, nu); zero at the optimum."""
    return (
        2.0 * data.M @ (qvec - problem.target)
        - data.E.T @ mu
        - problem.delta * nu * data.c_eq
    )


def _finish(problem: KktProblem, data, J, mu, nu, y, counters) -> KktSolution:
    qvec = data.Umm @ (data.lam * (data.Umn.T @ y))
    stat = _stationarity(problem, data, qvec, mu, nu)
    slack = np.abs(mu * y)
    return KktSolution(
        q=PolyCoeffs(degree=problem.m, coeffs=qvec, dim=problem.dim),
        mu=mu,
        nu=nu,
        active_set=J,
        elevated=y,
        stationarity_residual=float(np.abs(stat).max()),
        min_elevated=float(y.min()),
        max_slack_violation=float(slack.max()) if slack.size else 0.0,
        subsets_examined=counters["subsets"],
        systems_solved=counters["solved"],
        candidates_reconstructed=counters["reconstructed"],
        rank_skips=counters["rank_skips"],
    )


def solve(problem: KktProblem) -> KktSolution:
    """Find the unique constrained minimizer.

    A target whose elevation is feasible is its own answer (J = ()).
    Otherwise NNLS names the active set J, and the reduced system on J,
    checked as in enumerate, gives the solution.  The counters report the
    one or two subsets this examines.
    """
    _check_size(problem)
    counters = _counters()
    data = _problem_data(problem.dim, problem.m, problem.n)
    ep = data.E @ problem.target
    empty = np.empty((1, 0), dtype=np.intp)
    found = next(_accepted(data, problem, ep, empty, counters), None)
    if found is None:
        J = _nnls_active_set(problem, data, ep)
        chunk = np.array([J], dtype=np.intp)
        found = next(_accepted(data, problem, ep, chunk, counters), None)
        if found is None:
            raise NoFeasibleSubsetError(
                f"the active set {J} found by NNLS failed the KKT checks "
                f"(m={problem.m}, n={problem.n}, dim={problem.dim}, "
                f"delta={problem.delta})"
            )
    return _finish(problem, data, *found, counters)


# shadows the builtin enumerate inside this module, which does not use it
def enumerate(problem: KktProblem, exhaustive: bool = False) -> KktSolution:
    """The reference method: the first accepted subset in enumeration order.

    With exhaustive=True the enumeration is not stopped at the first
    accepted subset; the first one is still returned (uniqueness makes all
    accepted subsets reconstruct the same polynomial, which tests verify).
    """
    counters = _counters()
    data = _problem_data(problem.dim, problem.m, problem.n)
    found = None
    for J, mu, nu, y in _enumerate_accepted(problem, counters):
        if found is None:
            found = (J, mu, nu, y)
            if not exhaustive:
                break
    if found is None:
        raise NoFeasibleSubsetError(
            f"no subset of {problem.num_constraints} constraints passed both "
            f"feasibility checks (m={problem.m}, n={problem.n}, "
            f"dim={problem.dim}, delta={problem.delta})"
        )
    return _finish(problem, data, *found, counters)


def accepted_subsets(problem: KktProblem) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All accepted (J, elevated vector) pairs, for uniqueness checks."""
    return [(J, y) for J, _, _, y in _enumerate_accepted(problem, _counters())]


def objective(problem: KktProblem, qvec) -> float:
    """The cost (q - p)^T M (q - p) being minimized."""
    data = _problem_data(problem.dim, problem.m, problem.n)
    r = np.asarray(qvec, dtype=float) - problem.target
    return float(r @ data.M @ r)


def integral(problem: KktProblem, coeffs) -> float:
    """Integral of the degree-m polynomial with the given coefficients."""
    data = _problem_data(problem.dim, problem.m, problem.n)
    return data.c_eq * float(np.sum(coeffs))


def verify_kkt(problem: KktProblem, sol: KktSolution, tol: float) -> KktDiagnostics:
    """Recompute every KKT residual from scratch and compare against tol."""
    data = _problem_data(problem.dim, problem.m, problem.n)
    qvec = np.asarray(sol.q.coeffs, dtype=float)
    stat = _stationarity(problem, data, qvec, sol.mu, sol.nu)
    elevated = data.E @ qvec
    slack = np.abs(sol.mu * elevated)
    gap = (
        abs(integral(problem, qvec) - integral(problem, problem.target))
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
