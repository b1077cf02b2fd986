"""Function-level approximation pipeline.

Moments against the Bernstein basis, unconstrained L2 projection, the
classical Bernstein operator and piecewise-linear interpolant baselines,
L2 error measurement, and the built-in corpus of target functions on
[0, 1] and on the unit right triangle.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
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


class _Float64Literals(ast.NodeTransformer):
    """Bind each numeric literal to a name whose value in env is its float64.

    The literals then follow the float64 rules of the arrays, not Python's
    scalar rules: 1/0 and 10.0**400 are inf and 9**9**9 overflows at once,
    where Python would raise or compute a huge integer.
    """

    def __init__(self, env: dict):
        self.env = env

    def visit_Constant(self, node):
        try:
            value = np.float64(node.value)
        except OverflowError:  # an integer literal past the float64 range
            value = np.float64(np.inf)
        name = f"_{len(self.env)}"
        self.env[name] = value
        return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)


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
    env = dict(_ALLOWED_CALLS) | dict(_ALLOWED_NAMES)
    tree = ast.fix_missing_locations(_Float64Literals(env).visit(tree))
    code = compile(tree, "<expression>", "eval")

    def fn(*coords):
        out = eval(code, {"__builtins__": {}}, env | dict(zip("xy", coords)))
        return np.broadcast_to(np.asarray(out), np.shape(coords[0])).astype(float)

    return TargetFunction(ident=f"expr:{expr}", dim=dim, fn=fn, lower=-np.inf, upper=np.inf)


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Fixed integration rule on the unit d-simplex: [0, 1] for d = 1.

    A rule is its 1-D rule, nodes u (axis) and weights on [0, 1] exact
    through axis_degree, plus a dimension.  Its nodes are the dim-fold
    tensor grid of the axis collapsed onto the simplex, node
    (i_1, ..., i_d), u-major, at x_t = u_t (1 - u_1) ... (1 - u_{t-1}),
    with weight (w_1 ... w_d) (1 - u_1)^(d-1) ... (1 - u_{d-1}), the
    Jacobian of the collapse.  That Jacobian costs the 1-D rule d - 1
    degrees, so the rule is exact through design_degree =
    axis_degree - (d - 1).  At d = 1 the nodes and weights are the axis
    rule itself.  Moments and node values are contracted axis by axis
    from univariate tables (_node_factors).  Rules compare and hash by
    identity, so a rule can key a cache.
    """

    dim: int
    axis: np.ndarray  # (P,)
    axis_weights: np.ndarray  # (P,)
    axis_degree: int
    nodes: np.ndarray = field(init=False)  # (P ** dim, dim)
    weights: np.ndarray = field(init=False)  # (P ** dim,)
    design_degree: int = field(init=False)

    def __post_init__(self):
        # row t of idx is i_t over the grid, u-major
        idx = np.indices((self.axis.shape[0],) * self.dim).reshape(self.dim, -1)
        u = self.axis[idx]
        # rest[t] = (1 - u_1) ... (1 - u_t), the length left to axis t + 1
        rest = np.cumprod(np.vstack([np.ones_like(u[:1]), 1.0 - u[:-1]]), axis=0)
        # the weight's Jacobian is rest[1] ... rest[d-1]
        weights = self.axis_weights[idx].prod(axis=0) * rest[1:].prod(axis=0)
        object.__setattr__(self, "nodes", (u * rest).T)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "design_degree", self.axis_degree - (self.dim - 1))
        for a in (self.axis, self.axis_weights, self.nodes, self.weights):
            a.setflags(write=False)

    def integrate_values(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))

    def integrate(self, fn) -> float:
        return self.integrate_values(fn(*self.nodes.T))


def _gauss_axis(points: int, panels: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Composite Gauss-Legendre rule on [0, 1]: points nodes on each of panels panels."""
    x, w = np.polynomial.legendre.leggauss(points)
    h = 1.0 / panels
    u = (np.arange(panels)[:, None] * h + 0.5 * h * (x + 1.0)).ravel()
    return u, np.tile(0.5 * h * w, panels), 2 * points - 1


@lru_cache(maxsize=16)
def interval_rule(points: int = 24) -> Quadrature:
    """Composite Gauss-Legendre rule on [0, 1]: points nodes on each of 16 panels."""
    return Quadrature(1, *_gauss_axis(points, 16))


@lru_cache(maxsize=16)
def simplex_rule(points: int = 32) -> Quadrature:
    """Rule on the unit right triangle: one points-node Gauss panel, collapsed.

    The collapse (u, v) -> (u, v(1-u)) costs one degree, so the rule is
    exact through degree 2*points - 2.
    """
    return Quadrature(2, *_gauss_axis(points, 1))


def default_rule(dim: int, points: int | None = None) -> Quadrature:
    rule = interval_rule if dim == 1 else simplex_rule
    return rule() if points is None else rule(points)


@lru_cache(maxsize=32)
def _node_factors(quad: Quadrature, n: int) -> tuple[np.ndarray, ...]:
    """The degree-n basis at the nodes as univariate tables, one per axis.

    On the collapsed rule a basis polynomial factors axis by axis,
    B^n_a(x) = B^n_{a1}(u_1) B^{n-a1}_{a2}(u_2) ... B^{n-a1-...-a(d-1)}_{ad}(u_d),
    so B^n_a at node (i_1, ..., i_d) is the product over axes t of
    factors[t][i_t, a]; at d = 1 the one table is the basis at the
    nodes.  Column a of the table of axis t holds B^k_c at the P axis
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


def _rule(f: TargetFunction, quad: Quadrature | None) -> Quadrature:
    """quad, or f's default rule; refuses a rule of another dimension."""
    quad = quad or default_rule(f.dim)
    if quad.dim != f.dim:
        raise ValueError(f"rule is {quad.dim}-dimensional but f is {f.dim}-dimensional")
    return quad


def moments(f: TargetFunction, m: int, quad: Quadrature | None = None) -> np.ndarray:
    """Integrals of f against every degree-m basis polynomial.

    The weighted values W, a P x ... x P grid, are summed over the last
    axis against its table, H = W @ last, then over the slowest axis left
    against each earlier table in turn, so no table of every basis
    polynomial at every node is formed.
    """
    quad = _rule(f, quad)
    weighted = quad.weights * np.asarray(f(*quad.nodes.T), dtype=float)
    *earlier, last = _node_factors(quad, m)
    P, N = last.shape
    H = weighted.reshape(-1, P) @ last
    for F in earlier:
        H = (F[:, None, :] * H.reshape(P, -1, N)).sum(axis=0)
    return H.reshape(N)


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

    A PolyCoeffs is contracted factor by factor: X = q, then
    X = F * X for each table but the last, one more axis of nodes per
    table, and X @ last^T gives the values on the u-major grid.
    """
    if isinstance(q, PolyCoeffs):
        if q.dim != quad.dim:
            raise ValueError(f"rule is {quad.dim}-dimensional but q is {q.dim}-dimensional")
        *earlier, last = _node_factors(quad, q.degree)
        X = q.coeffs
        for F in earlier:
            X = (F * X[..., None, :]).reshape(-1, X.shape[-1])
        return (X @ last.T).reshape(-1)
    if callable(q):
        return q(*quad.nodes.T)
    raise TypeError(f"cannot evaluate approximation of type {type(q)!r}")


def l2_error(f: TargetFunction, q, quad: Quadrature | None = None) -> float:
    """L2 norm of f - q over the domain, by quadrature."""
    quad = _rule(f, quad)
    fv = f(*quad.nodes.T)
    qv = _evaluate_candidate(q, quad)
    diff = np.asarray(fv, dtype=float) - qv
    return math.sqrt(max(quad.integrate_values(diff * diff), 0.0))
