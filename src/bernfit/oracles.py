"""Reference methods the test suite checks the production solvers against.

enumerate_solve is the paper's exhaustive active-set search: it tries
every subset J of the constraints by size, then lexicographically, with
kkt's reduced solve and checks, and the minimizer is unique, so the first
accepted J is the answer.  Its cost grows as 2^N in the constraint count N,
so subset_iterator refuses N above MAX_SUBSET_BITS.

penalty_solve minimizes the same quadratic cost but replaces the
constraints with quadratic penalty terms on an increasing weight schedule.
It shares no code path with kkt (no subsets, no W matrices), which is the
point: agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import kkt
from .kkt import KktProblem, KktSolution, _problem_data

# subsets of one size stacked into one batch of reduced solves
_CHUNK = 32768
MAX_SUBSET_BITS = 22


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


def _enumerate_accepted(problem: KktProblem, counters: dict):
    """Yield (J, mu, nu, y) for every subset passing both KKT checks.

    Subsets come in subset_iterator order.  Cardinalities above the rank of
    the reduced-matrix family are skipped: any principal submatrix of a PSD
    matrix of rank r is singular beyond size r, so the rank guard would
    reject every such subset anyway.
    """
    data = _problem_data(problem.dim, problem.m, problem.n)
    ep = data.E @ problem.target
    max_card = len(problem.target) - problem.delta
    for k, subsets in itertools.groupby(subset_iterator(problem.num_constraints), len):
        if k > max_card:
            break
        while chunk := list(itertools.islice(subsets, _CHUNK)):
            rows = np.array(chunk, dtype=np.intp).reshape(len(chunk), k)
            yield from kkt._accepted(data, problem, ep, rows, counters)


def enumerate_solve(problem: KktProblem, exhaustive: bool = False) -> KktSolution:
    """The first accepted subset in subset_iterator order.

    With exhaustive=True the search runs to the end, so the counters cover
    every subset; the first accepted subset is still returned (uniqueness
    makes all accepted subsets reconstruct the same polynomial, which tests
    verify).
    """
    counters = kkt._counters()
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
    return kkt._finish(problem, *found, counters)


def accepted_subsets(problem: KktProblem) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All accepted (J, elevated vector) pairs, for uniqueness checks."""
    return [(J, y) for J, _, _, y in _enumerate_accepted(problem, kkt._counters())]


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


def _penalty_objective(q, rho, data, problem, upper):
    r = q - problem.target
    val = r @ data.M @ r
    grad = 2.0 * data.M @ r
    eq = data.E @ q
    neg = np.minimum(eq, 0.0)
    val += rho * float(neg @ neg)
    grad += 2.0 * rho * (data.E.T @ neg)
    if upper is not None:
        over = np.maximum(eq - upper, 0.0)
        val += rho * float(over @ over)
        grad += 2.0 * rho * (data.E.T @ over)
    if problem.delta:
        h = data.c_eq * float(np.sum(problem.target - q))
        val += rho * h * h
        grad += 2.0 * rho * h * (-data.c_eq)
    return val, grad


def _newton_polish(q, rho, data, problem, upper, iterations=25):
    """Drive one penalty stage to its exact minimizer.

    The penalized objective is piecewise quadratic, so once the sign pattern
    of the constraint values settles, a Newton step on the matching quadratic
    piece lands on the stage optimum.  Quasi-Newton alone stalls along the
    mass matrix's soft eigendirections; this polish removes that slack.
    """
    E, M, c = data.E, data.M, data.c_eq
    for _ in range(iterations):
        val, g = _penalty_objective(q, rho, data, problem, upper)
        eq = E @ q
        active = eq < 0.0
        H = 2.0 * M + 2.0 * rho * (E[active].T @ E[active])
        if upper is not None:
            over = eq > upper
            H = H + 2.0 * rho * (E[over].T @ E[over])
        if problem.delta:
            H = H + 2.0 * rho * c * c * np.ones_like(H)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        trial = q + step
        if _penalty_objective(trial, rho, data, problem, upper)[0] <= val:
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
    data = _problem_data(problem.dim, problem.m, problem.n)
    q = problem.target.copy()
    for rho in cfg.rhos:
        res = optimize.minimize(
            _penalty_objective,
            q,
            args=(rho, data, problem, upper),
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
        q = _newton_polish(q, rho, data, problem, upper)
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
