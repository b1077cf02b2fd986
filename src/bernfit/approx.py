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

from .simplex import PolyCoeffs, orthogonal_complement_basis, simplex_basis_values


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

    Rules compare and hash by identity, so a rule can key a cache.
    """

    dim: int
    nodes: np.ndarray  # (npts, dim)
    weights: np.ndarray
    design_degree: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate_values(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))

    def integrate(self, fn) -> float:
        return self.integrate_values(fn(*self.nodes.T))


@lru_cache(maxsize=16)
def interval_rule(points: int = 24) -> Quadrature:
    """Composite Gauss-Legendre rule on [0, 1]: points nodes on each of 16 panels."""
    x, w = np.polynomial.legendre.leggauss(points)
    h = 1.0 / 16
    return Quadrature(
        dim=1,
        nodes=(np.arange(16)[:, None] * h + 0.5 * h * (x + 1.0)).reshape(-1, 1),
        weights=np.tile(0.5 * h * w, 16),
        design_degree=2 * points - 1,
    )


@lru_cache(maxsize=16)
def simplex_rule(points: int = 32) -> Quadrature:
    """Rule on the unit right triangle by collapsing a tensor Gauss grid.

    Maps the square through (u, v) -> (u, v(1-u)) with Jacobian (1-u); a
    polynomial of total degree k becomes a bivariate polynomial of degree
    at most k+1 per axis, so the rule is exact through degree 2*points - 2.
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
    )


def default_rule(dim: int, points: int | None = None) -> Quadrature:
    if dim == 1:
        return interval_rule() if points is None else interval_rule(points=points)
    return simplex_rule() if points is None else simplex_rule(points=points)


@lru_cache(maxsize=32)
def _node_basis(quad: Quadrature, n: int) -> np.ndarray:
    """Every degree-n basis polynomial at the rule's nodes, read-only.

    Cached, so the moments and the error of every approximant of one
    degree share one matrix.
    """
    basis = simplex_basis_values(quad.dim, n, quad.nodes)
    basis.setflags(write=False)
    return basis


def moments(f: TargetFunction, m: int, quad: Quadrature | None = None) -> np.ndarray:
    """Integrals of f against every degree-m basis polynomial."""
    quad = quad or default_rule(f.dim)
    if quad.dim != f.dim:
        raise ValueError(f"rule is {quad.dim}-dimensional but f is {f.dim}-dimensional")
    fv = f(*quad.nodes.T)
    return _node_basis(quad, m).T @ (quad.weights * np.asarray(fv, dtype=float))


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
    if isinstance(q, PolyCoeffs):
        if q.dim != quad.dim:
            raise ValueError(f"rule is {quad.dim}-dimensional but q is {q.dim}-dimensional")
        return _node_basis(quad, q.degree) @ q.coeffs
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
