"""Function-level approximation pipeline.

Moments against the Bernstein basis, unconstrained L2 projection, the
classical Bernstein operator and piecewise-linear interpolant baselines,
L2 error measurement, and the built-in corpus of target functions on
[0, 1] and on the unit right triangle.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .simplex import PolyCoeffs, _binomials, _multiindex_array, orthogonal_complement_basis


@dataclass(frozen=True)
class TargetFunction:
    """A named target with an evaluator and known range bounds."""

    ident: str
    dim: int
    fn: Callable
    lower: float = 0.0
    upper: float = 1.0

    def __call__(self, *args):
        return self.fn(*args)


def _f0(x):
    return 0.5 * (np.sin(2.0 * np.pi * x) + 1.0)


def _f1(x):
    return 0.01 + x / (x * x + 1.0)


def _f2(x):
    return (26.0 / 25.0) * (1.0 / (1.0 + 25.0 * (2.0 * x - 1.0) ** 2)) - 1.0 / 26.0


def _f2alt(x):
    return (26.0 / 25.0) * (1.0 / (1.0 + 25.0 * (2.0 * x - 1.0) ** 2) - 1.0 / 26.0)


def _f3(x):
    return np.pi / 2.0 + np.arctan(30.0 * (x - 0.5))


def _g0(x, y):
    return 0.5 * (1.0 - np.sin(np.pi * (x - y)))


def _g1(x, y):
    s = x - y + 1.0
    return 0.01 + 2.0 * s / (s * s + 4.0)


def _g2(x, y):
    return (26.0 / 25.0) * (1.0 / (1.0 + 25.0 * (x - y) ** 2) - 1.0 / 26.0)


CORPUS: dict[str, TargetFunction] = {
    f.ident: f
    for f in (
        TargetFunction("f0", 1, _f0, 0.0, 1.0),
        TargetFunction("f1", 1, _f1, 0.0, 0.51),
        TargetFunction("f2", 1, _f2, 0.0, 26.0 / 25.0 - 1.0 / 26.0),
        TargetFunction("f2alt", 1, _f2alt, 0.0, 1.0),
        TargetFunction("f3", 1, _f3, 0.0, np.pi / 2.0 + math.atan(15.0)),
        TargetFunction("g0", 2, _g0, 0.0, 1.0),
        TargetFunction("g1", 2, _g1, 0.0, 0.51),
        TargetFunction("g2", 2, _g2, 0.0, 1.0),
    )
}


def get_function(ident: str) -> TargetFunction:
    try:
        return CORPUS[ident]
    except KeyError:
        raise KeyError(
            f"unknown function id {ident!r}; known ids: {sorted(CORPUS)}"
        ) from None


_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "atan": np.arctan}
_ALLOWED_NAMES = {"pi": np.pi}
_ALLOWED_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow}


def function_from_expression(expr: str, dim: int = 1) -> TargetFunction:
    """Build a TargetFunction from a small arithmetic expression.

    Grammar: + - * / ^, sin, cos, atan, pi, numbers, and the variables x
    (and y when dim=2).  '^' means power.
    """
    source = expr.replace("^", "**")
    tree = ast.parse(source, mode="eval")
    names = {"x"} | ({"y"} if dim == 2 else set())

    def check(node):
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            check(node.operand)
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS):
                raise ValueError(f"unsupported call in expression: {expr!r}")
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"calls take exactly one argument: {expr!r}")
            check(node.args[0])
        elif isinstance(node, ast.Name):
            if node.id not in names and node.id not in _ALLOWED_NAMES:
                raise ValueError(f"unknown name {node.id!r} in expression {expr!r}")
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValueError(f"non-numeric constant in expression: {expr!r}")
        else:
            raise ValueError(f"unsupported syntax in expression: {expr!r}")

    check(tree)
    code = compile(tree, "<expression>", "eval")
    env = dict(_ALLOWED_CALLS) | dict(_ALLOWED_NAMES)

    def fn(*coords):
        out = eval(code, {"__builtins__": {}}, env | dict(zip("xy", coords)))
        return np.broadcast_to(np.asarray(out), np.shape(coords[0])).astype(float)

    return TargetFunction(ident=f"expr:{expr}", dim=dim, fn=fn, lower=-np.inf, upper=np.inf)


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Fixed integration rule on the unit d-simplex: [0, 1] for d = 1.

    axis holds the rule's 1-D nodes u on [0, 1].  At d = 1 they are the
    nodes themselves; at d = 2 the nodes are their tensor grid collapsed
    onto the triangle, node i * P + j at (u_i, u_j (1 - u_i)) for P axis
    nodes, with the Jacobian (1 - u_i) folded into its weight.  Moments
    and node values are formed from univariate tables on the axis.
    Rules compare and hash by identity, so a rule can key a cache.
    """

    dim: int
    nodes: np.ndarray  # (npts, dim)
    weights: np.ndarray
    design_degree: int
    axis: np.ndarray  # (P,), npts = P ** dim

    def __post_init__(self):
        if self.nodes.shape[0] != self.axis.shape[0] ** self.dim:
            raise ValueError(
                f"{self.nodes.shape[0]} nodes do not form the {self.dim}-fold "
                f"grid of {self.axis.shape[0]} axis nodes"
            )
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        self.axis.setflags(write=False)

    def integrate_values(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))

    def integrate(self, fn) -> float:
        return self.integrate_values(fn(*self.nodes.T))


@lru_cache(maxsize=16)
def interval_rule(points: int = 24) -> Quadrature:
    """Composite Gauss-Legendre rule on [0, 1]: points nodes on each of 16 panels."""
    x, w = np.polynomial.legendre.leggauss(points)
    h = 1.0 / 16
    u = (np.arange(16)[:, None] * h + 0.5 * h * (x + 1.0)).ravel()
    return Quadrature(
        dim=1,
        nodes=u.reshape(-1, 1),
        weights=np.tile(0.5 * h * w, 16),
        design_degree=2 * points - 1,
        axis=u,
    )


@lru_cache(maxsize=16)
def simplex_rule(points: int = 32) -> Quadrature:
    """Rule on the unit right triangle by collapsing a tensor Gauss grid.

    Maps the square through (u, v) -> (u, v(1-u)) with Jacobian (1-u); a
    polynomial of total degree k becomes a bivariate polynomial of degree
    at most k+1 per axis, so the rule is exact through degree 2*points - 2.
    Both axes carry the same points Gauss nodes u on [0, 1], kept as the
    rule's axis; nodes run u-major.
    """
    x, w = np.polynomial.legendre.leggauss(points)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    nodes = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    weights = (WU * WV * (1.0 - U)).ravel()
    return Quadrature(
        dim=2,
        nodes=nodes,
        weights=weights,
        design_degree=2 * points - 2,
        axis=u,
    )


def default_rule(dim: int, points: int | None = None) -> Quadrature:
    if dim == 1:
        return interval_rule() if points is None else interval_rule(points=points)
    return simplex_rule() if points is None else simplex_rule(points=points)


@lru_cache(maxsize=32)
def _node_factors(quad: Quadrature, n: int) -> tuple[np.ndarray, ...]:
    """The degree-n basis at the nodes as univariate tables, one per axis.

    On the collapsed rule B^n_a(u, v(1-u)) = B^n_{a1}(u) B^{n-a1}_{a2}(v),
    so at d = 2 the value of B^n_a at node i * P + j is
    first[i, a] * second[j, a]; at d = 1 the one table is the basis at
    the nodes.  Column a of the table of axis t holds B^k_c at the P axis
    nodes, c = a_{t+1} and k = n - a_1 - ... - a_t, with a running over
    multiindices(d, n), so no contraction gathers columns.  Each entry is
    C(k, c) (1-u)^(k-c) u^c from repeated powers, multiplied in the order
    of simplex_basis_values, so at d = 1 the table has its bits.  Cached
    and read-only, so the moments and the error of every approximant of
    one degree share the tables.
    """
    c = _multiindex_array(quad.dim, n)[:, 1:].T
    # the exponent k - c of (1 - u) on axis t: n - a_1 - ... - a_{t+1}
    e = n - c.cumsum(0)
    # pows[0, i] = (1-u)^i and pows[1, i] = u^i, one multiply per exponent
    pows = np.ones((2, n + 1, quad.axis.shape[0]))
    b = np.stack([1.0 - quad.axis, quad.axis])
    for i in range(1, n + 1):
        pows[:, i] = pows[:, i - 1] * b
    tables = (_binomials(n)[e + c, c][..., None] * pows[0, e]) * pows[1, c]
    factors = np.ascontiguousarray(tables.transpose(0, 2, 1))
    factors.setflags(write=False)
    return tuple(factors)


def moments(f: TargetFunction, m: int, quad: Quadrature | None = None) -> np.ndarray:
    """Integrals of f against every degree-m basis polynomial.

    At d = 2 the weighted values F (P x P, u-major) are summed over v
    first, H = F @ second, then over u against the first factor, so no
    table of every basis polynomial at every node is formed.
    """
    quad = quad or default_rule(f.dim)
    if quad.dim != f.dim:
        raise ValueError(f"rule is {quad.dim}-dimensional but f is {f.dim}-dimensional")
    fv = f(*quad.nodes.T)
    weighted = quad.weights * np.asarray(fv, dtype=float)
    factors = _node_factors(quad, m)
    if quad.dim == 1:
        return factors[0].T @ weighted
    first, second = factors
    P = first.shape[0]
    return (first * (weighted.reshape(P, P) @ second)).sum(axis=0)


def project(f: TargetFunction, m: int, quad: Quadrature | None = None) -> PolyCoeffs:
    """Unconstrained best L2 approximation of degree m.

    Coefficients solve the mass-matrix normal equations, applied in the
    inverse-free spectral form U U^T (moments) with U = U^{m,m}.
    """
    mom = moments(f, m, quad)
    U = orthogonal_complement_basis(f.dim, m)
    return PolyCoeffs(degree=m, coeffs=U @ (U.T @ mom), dim=f.dim)


def bernstein_operator(f: TargetFunction, m: int) -> PolyCoeffs:
    """Degree-m polynomial with coefficients sampled at the control points i/m.

    Inherits the bounds of f; converges uniformly but only at rate m^-2.
    """
    if f.dim != 1:
        raise ValueError("the Bernstein operator baseline is univariate")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    samples = f(np.arange(m + 1) / m)
    return PolyCoeffs(degree=m, coeffs=np.asarray(samples, dtype=float))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear interpolant on equispaced nodes in [0, 1]."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.values.setflags(write=False)

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)


def p1_interpolant(f: TargetFunction, m: int) -> PiecewiseLinear:
    """Interpolate f at the control points i/m by a piecewise-linear function."""
    if f.dim != 1:
        raise ValueError("the piecewise-linear baseline is univariate")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    nodes = np.arange(m + 1) / m
    return PiecewiseLinear(nodes=nodes, values=np.asarray(f(nodes), dtype=float))


def _evaluate_candidate(q, quad: Quadrature) -> np.ndarray:
    """Values of an approximant at the rule's nodes, in the nodes' order.

    A PolyCoeffs at d = 2 is contracted factor by factor:
    ((first * q) @ second^T)[i, j] is its value at node i * P + j.
    """
    if isinstance(q, PolyCoeffs):
        if q.dim != quad.dim:
            raise ValueError(f"rule is {quad.dim}-dimensional but q is {q.dim}-dimensional")
        factors = _node_factors(quad, q.degree)
        if quad.dim == 1:
            return factors[0] @ q.coeffs
        first, second = factors
        return ((first * q.coeffs) @ second.T).ravel()
    if callable(q):
        return q(*quad.nodes.T)
    raise TypeError(f"cannot evaluate approximation of type {type(q)!r}")


def l2_error(f: TargetFunction, q, quad: Quadrature | None = None) -> float:
    """L2 norm of f - q over the domain, by quadrature."""
    quad = quad or default_rule(f.dim)
    fv = f(*quad.nodes.T)
    qv = _evaluate_candidate(q, quad)
    diff = np.asarray(fv, dtype=float) - qv
    return math.sqrt(max(quad.integrate_values(diff * diff), 0.0))
