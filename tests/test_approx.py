import math

import numpy as np
import pytest

from bernfit import approx, kkt
from bernfit import bernstein as bn
from bernfit import simplex as sx


def as_target(p):
    """Wrap a univariate polynomial as a corpus-style target."""
    return approx.TargetFunction("wrapped", 1, lambda x: bn.evaluate(p, x))


class TestCorpus:
    def test_formulas(self):
        f0, f1 = approx.get_function("f0"), approx.get_function("f1")
        f2, f3 = approx.get_function("f2"), approx.get_function("f3")
        assert f0(0.25) == pytest.approx(1.0)
        assert f0(0.75) == pytest.approx(0.0, abs=1e-16)
        assert f1(0.0) == pytest.approx(0.01)
        assert f1(1.0) == pytest.approx(0.51)
        assert f2(0.5) == pytest.approx(26 / 25 - 1 / 26)
        assert f3(0.5) == pytest.approx(math.pi / 2)

    def test_f2_variants_differ_by_constant(self):
        f2, f2alt = approx.get_function("f2"), approx.get_function("f2alt")
        xs = np.linspace(0, 1, 11)
        gap = f2(xs) - f2alt(xs)
        assert np.allclose(gap, gap[0], atol=1e-15)
        assert f2alt(0.0) == pytest.approx(0.0, abs=1e-15)
        assert f2alt(0.5) == pytest.approx(1.0)

    def test_bivariate(self):
        g0, g1, g2 = (approx.get_function(k) for k in ("g0", "g1", "g2"))
        assert g0(0.5, 0.5) == pytest.approx(0.5)
        assert g1(0.0, 0.0) == pytest.approx(0.01 + 2 / 5)
        assert g2(0.3, 0.3) == pytest.approx(1.0)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            approx.get_function("nope")


class TestQuadrature:
    def test_interval_polynomial_exactness(self):
        quad = approx.interval_rule()
        rng = np.random.default_rng(0)
        for deg in (0, 7, 20, 40):
            c = rng.uniform(-1, 1, deg + 1)
            p = bn.poly(c)
            exact = c.sum() / (deg + 1)  # integral of the Bernstein expansion
            got = quad.integrate(lambda x: bn.evaluate(p, x))
            assert abs(got - exact) < 1e-13

    def test_simplex_polynomial_exactness(self):
        quad = approx.simplex_rule()
        # monomial integrals over the unit triangle: a! b! / (a+b+2)!
        for a, b in [(0, 0), (3, 2), (10, 5), (0, 20)]:
            exact = (
                math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            )
            got = quad.integrate(lambda x, y: x**a * y**b)
            assert abs(got - exact) < 1e-13

    def test_design_degree_recorded(self):
        assert approx.interval_rule().design_degree >= 40
        assert approx.simplex_rule().design_degree >= 20


class TestMoments:
    def test_constant(self):
        one = approx.TargetFunction("one", 1, lambda x: np.ones_like(np.asarray(x, float)))
        for m in (0, 3, 6):
            assert np.allclose(approx.moments(one, m), 1.0 / (m + 1), atol=1e-15)

    def test_linear(self):
        lin = approx.TargetFunction("x", 1, lambda x: np.asarray(x, float))
        assert np.allclose(approx.moments(lin, 1), [1 / 6, 1 / 3], atol=1e-15)

    def test_f0_mean(self):
        f0 = approx.get_function("f0")
        assert approx.moments(f0, 0)[0] == pytest.approx(0.5, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            approx.moments(approx.get_function("g0"), 2, approx.interval_rule())


class TestProject:
    def test_reproduces_polynomials(self):
        rng = np.random.default_rng(1)
        for m in (0, 2, 5):
            p = bn.poly(rng.uniform(-1, 1, m + 1))
            back = approx.project(as_target(p), m)
            assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-10

    def test_f0_mean_value(self):
        assert np.allclose(approx.project(approx.get_function("f0"), 0).coeffs, [0.5])

    def test_orthogonality_residual(self):
        f = approx.get_function("f1")
        for m in (2, 5, 8):
            mom = approx.moments(f, m)
            pr = approx.project(f, m)
            resid = mom - sx.simplex_mass_matrix(1, m) @ pr.coeffs
            assert np.max(np.abs(resid)) <= 1e-10

    def test_f1_projection_is_feasible(self):
        # drives the coincidence between constrained and unconstrained fits
        f = approx.get_function("f1")
        for m in range(2, 9):
            pr = approx.project(f, m)
            assert (sx.simplex_elevation(1, m, m + 10) @ pr.coeffs).min() >= 0

    def test_projection_optimality(self):
        rng = np.random.default_rng(2)
        f = approx.get_function("f0")
        m = 4
        pstar = approx.project(f, m)
        base = approx.l2_error(f, pstar)
        for _ in range(20):
            q = bn.poly(rng.uniform(-1, 1, m + 1))
            assert base <= approx.l2_error(f, q) + 1e-12

    def test_simplex_projection(self):
        g0 = approx.get_function("g0")
        pr = approx.project(g0, 2)
        mom = approx.moments(g0, 2)
        resid = mom - sx.simplex_mass_matrix(2, 2) @ pr.coeffs
        assert np.max(np.abs(resid)) < 1e-12


def polynomial_target(q):
    """A degree-m polynomial on the triangle as a target, by de Casteljau."""
    return approx.TargetFunction(
        "poly", q.dim, lambda *xy: sx.simplex_evaluate(q, np.column_stack(xy))
    )


def factor_outer(quad, n):
    """Every degree-n basis polynomial at the nodes, from the rule's factors."""
    first, second = approx._node_factors(quad, n)
    P = quad.axis.shape[0]
    return (first[:, None, :] * second[None, :, :]).reshape(P * P, -1)


class TestNodeBasis:
    @pytest.mark.parametrize("ident,m", [("f2", 6), ("g2", 4)])
    def test_one_matrix_per_row(self, ident, m, monkeypatch):
        # project, then the errors of the projection and of a constrained
        # fit of the same degree, build the univariate tables once and
        # evaluate no basis polynomial at the nodes one by one
        built = []

        def counting(*args):
            built.append(args[:2])
            return sx.simplex_basis_values(*args)

        # approx holds no name for it; one imported later is caught too
        monkeypatch.setattr(sx, "simplex_basis_values", counting)
        monkeypatch.setattr(approx, "simplex_basis_values", counting, raising=False)
        f = approx.get_function(ident)
        quad = approx.default_rule(f.dim)
        approx._node_factors.cache_clear()
        pr = approx.project(f, m, quad)
        approx.l2_error(f, pr, quad)
        sol = kkt.solve(kkt.KktProblem(dim=f.dim, m=m, n=m, target=pr.coeffs))
        approx.l2_error(f, sol.q, quad)
        assert approx._node_factors.cache_info().misses == 1
        assert built == []

    def test_read_only_and_unchanged(self):
        for quad, axes, columns in [(approx.simplex_rule(), 2, 10), (approx.interval_rule(), 1, 4)]:
            factors = approx._node_factors(quad, 3)
            assert len(factors) == axes
            for table in factors:
                assert not table.flags.writeable
                # one row per axis node, not per node of the rule
                assert table.shape == (quad.axis.shape[0], columns)
            assert factors is approx._node_factors(quad, 3)

    @pytest.mark.parametrize("points", [1, 5, 24])
    def test_one_axis_table_is_the_node_basis(self, points):
        quad = approx.interval_rule(points)
        for n in range(13):
            (table,) = approx._node_factors(quad, n)
            assert table.flags.c_contiguous
            assert np.array_equal(table, sx.simplex_basis_values(1, n, quad.nodes))

    @pytest.mark.parametrize("points", [5, 8, 16, 32])
    def test_factors_match_basis_values(self, points):
        quad = approx.simplex_rule(points)
        for n in range(min(12, 2 * points - 1) + 1):
            ref = sx.simplex_basis_values(2, n, quad.nodes)
            assert np.max(np.abs(factor_outer(quad, n) - ref)) <= 2e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("points,m", [(8, 7), (32, 10), (32, 12)])
    def test_moments_of_a_polynomial(self, points, m):
        # the rule is exact through degree 2m, so the moments are M q
        quad = approx.simplex_rule(points)
        rng = np.random.default_rng(m)
        q = sx.PolyCoeffs(m, rng.uniform(-1, 1, math.comb(m + 2, 2)), dim=2)
        ref = sx.simplex_mass_matrix(2, m) @ q.coeffs
        mom = approx.moments(polynomial_target(q), m, quad)
        assert np.max(np.abs(mom - ref)) <= 2e-14 * np.max(np.abs(ref))
        values = approx._evaluate_candidate(q, quad)
        assert values.shape == (points * points,)
        assert np.max(np.abs(values - sx.simplex_evaluate(q, quad.nodes))) <= 1e-14

    def test_rules_hash_by_identity(self):
        a = approx.simplex_rule(points=8)
        b = approx.Quadrature(
            dim=a.dim, nodes=a.nodes.copy(), weights=a.weights.copy(),
            design_degree=a.design_degree, axis=a.axis.copy(),
        )
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_nodes_must_form_the_axis_grid(self):
        a = approx.simplex_rule(points=8)
        with pytest.raises(ValueError, match="grid"):
            approx.Quadrature(
                dim=2, nodes=a.nodes.copy(), weights=a.weights.copy(),
                design_degree=a.design_degree, axis=a.axis[:7].copy(),
            )


class TestBernsteinOperator:
    def test_constant(self):
        c = approx.TargetFunction("c", 1, lambda x: np.full_like(np.asarray(x, float), 0.7))
        assert np.allclose(approx.bernstein_operator(c, 3).coeffs, 0.7)

    def test_f0_endpoints(self):
        b = approx.bernstein_operator(approx.get_function("f0"), 1)
        assert np.allclose(b.coeffs, [0.5, 0.5], atol=1e-15)

    def test_square_bias(self):
        x2 = approx.TargetFunction("x2", 1, lambda x: np.asarray(x, float) ** 2)
        b = approx.bernstein_operator(x2, 2)
        assert np.allclose(b.coeffs, [0, 0.25, 1.0])
        assert bn.evaluate(b, 0.5) == pytest.approx(3 / 8)

    def test_bound_preservation(self):
        for ident in ("f0", "f1", "f2alt", "g2"):
            f = approx.CORPUS[ident]
            if f.dim != 1:
                continue
            for m in (1, 4, 9):
                b = approx.bernstein_operator(f, m)
                assert b.coeffs.min() >= f.lower - 1e-15
                assert b.coeffs.max() <= f.upper + 1e-15
                xs = np.linspace(0, 1, 501)
                vals = bn.evaluate(b, xs)
                assert vals.min() >= f.lower - 1e-12
                assert vals.max() <= f.upper + 1e-12

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            approx.bernstein_operator(approx.get_function("f0"), 0)


class TestP1Interpolant:
    def test_linear_exact(self):
        lin = approx.TargetFunction("lin", 1, lambda x: 2.0 * np.asarray(x, float) - 0.3)
        interp = approx.p1_interpolant(lin, 3)
        xs = np.linspace(0, 1, 50)
        assert np.max(np.abs(interp(xs) - lin(xs))) < 1e-14

    def test_f0_flat_samples(self):
        p1 = approx.p1_interpolant(approx.get_function("f0"), 2)
        assert np.allclose(p1.values, [0.5, 0.5, 0.5], atol=1e-15)

    def test_h2_error_scaling(self):
        x2 = approx.TargetFunction("x2", 1, lambda x: np.asarray(x, float) ** 2)
        # on each cell the error is h^2 t(1-t), so the squared error per cell
        # is h^5/30 and the total L2 error is h^2/sqrt(30)
        m = 4
        err = approx.l2_error(x2, approx.p1_interpolant(x2, m))
        assert err == pytest.approx((1 / m) ** 2 / math.sqrt(30), rel=1e-10)


class TestL2Error:
    def test_zero_for_self(self):
        p = bn.poly([0.1, 0.8, 0.4])
        assert approx.l2_error(as_target(p), p) < 1e-13

    def test_f0_against_mean(self):
        err = approx.l2_error(approx.get_function("f0"), bn.poly([0.5]))
        assert err == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-12)

    def test_pythagoras(self):
        rng = np.random.default_rng(3)
        f = approx.get_function("f0")
        m = 4
        pstar = approx.project(f, m)
        prob = kkt.KktProblem(dim=1, m=m, n=m, target=pstar.coeffs)
        for _ in range(5):
            q = bn.poly(rng.uniform(-1, 1, m + 1))
            lhs = approx.l2_error(f, q) ** 2
            rhs = approx.l2_error(f, pstar) ** 2 + kkt.objective(prob, q.coeffs)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_surrogate_equivalence(self):
        # ranking by distance-to-projection equals ranking by distance-to-f
        rng = np.random.default_rng(4)
        f = approx.get_function("f2")
        m = 3
        pstar = approx.project(f, m)
        prob = kkt.KktProblem(dim=1, m=m, n=m, target=pstar.coeffs)
        for _ in range(10):
            qa = bn.poly(rng.uniform(-1, 1, m + 1))
            qb = bn.poly(rng.uniform(-1, 1, m + 1))
            full_order = approx.l2_error(f, qa) ** 2 - approx.l2_error(f, qb) ** 2
            surr_order = kkt.objective(prob, qa.coeffs) - kkt.objective(prob, qb.coeffs)
            assert full_order == pytest.approx(surr_order, abs=1e-10)

    def test_error_ordering_on_f1(self):
        f = approx.get_function("f1")
        for m in range(2, 9):
            pr = approx.project(f, m)
            e_proj = approx.l2_error(f, pr)
            sol = kkt.solve(kkt.KktProblem(dim=1, m=m, n=m, target=pr.coeffs))
            e_kkt = approx.l2_error(f, sol.q)
            e_bop = approx.l2_error(f, approx.bernstein_operator(f, m))
            assert e_proj <= e_kkt + 1e-12
            assert e_kkt <= e_bop + 1e-12

    def test_dimension_mismatch(self):
        # a dim-2 polynomial of degree 1 has as many coefficients as a
        # dim-1 polynomial of degree 2, so only the check catches it
        q = bn.PolyCoeffs(1, np.ones(3), dim=2)
        with pytest.raises(ValueError):
            approx.l2_error(approx.get_function("f1"), q)


class TestExpressions:
    def test_matches_builtin(self):
        ef = approx.function_from_expression("0.5*(sin(2*pi*x)+1)")
        f0 = approx.get_function("f0")
        xs = np.linspace(0, 1, 33)
        assert np.allclose(ef(xs), f0(xs), atol=1e-15)

    def test_power_operator(self):
        ef = approx.function_from_expression("x^3 - 2*x + 1")
        assert ef(np.array([2.0]))[0] == pytest.approx(5.0)

    def test_two_variables(self):
        eg = approx.function_from_expression("atan(x - y) + cos(0*x)", dim=2)
        assert eg(np.array([0.5]), np.array([0.5]))[0] == pytest.approx(1.0)

    def test_rejects_names_and_calls(self):
        for bad in ("__import__('os')", "open('x')", "z + 1", "x.real"):
            with pytest.raises(ValueError):
                approx.function_from_expression(bad)

    def test_y_requires_dim_two(self):
        with pytest.raises(ValueError):
            approx.function_from_expression("x + y", dim=1)
