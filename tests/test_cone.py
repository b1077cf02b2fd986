import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernfit import bernstein as bn
from bernfit import cone, kkt
from bernfit import simplex as sx


def u_values(coeffs, x):
    """Values of sum_k c_k x^k (1-x)^(m-k), the scaled Bernstein basis u^m."""
    m = len(coeffs) - 1
    return sum(c * x**k * (1 - x) ** (m - k) for k, c in enumerate(coeffs))


def bernstein_coeffs(point):
    """Bernstein coefficients of a cone point: omega_adjoint / C(m, k)."""
    binom = np.array([math.comb(point.m, k) for k in range(point.m + 1)])
    return cone.omega_adjoint(point) / binom


class TestHankel:
    def test_basic(self):
        H = cone.hankel_basis(3, 2)
        expected = np.zeros((3, 3))
        expected[0, 2] = expected[1, 1] = expected[2, 0] = 1.0
        assert np.array_equal(H, expected)

    def test_out_of_range_is_zero(self):
        assert not cone.hankel_basis(3, -1).any()
        assert not cone.hankel_basis(3, 5).any()


class TestOmegaMaps:
    def test_even_adjoint_by_hand(self):
        A = np.array([[2.0, 0.5], [0.5, 3.0]])
        B = np.array([[0.7]])
        q = cone.omega_adjoint(cone.ConePoint(m=2, A=A, B=B))
        a, b, c, beta = A[0, 0], A[0, 1], A[1, 1], B[0, 0]
        assert np.allclose(q, [a, 2 * b + beta, c])
        # the quadratic-form identity, sampled
        xs = np.linspace(0, 1, 9)
        direct = a * (1 - xs) ** 2 + 2 * b * xs * (1 - xs) + c * xs**2 + beta * xs * (1 - xs)
        assert np.allclose(u_values(q, xs), direct, atol=1e-14)

    def test_identity_block(self):
        q = cone.omega_adjoint(cone.ConePoint(m=2, A=np.eye(2), B=np.zeros((1, 1))))
        assert np.allclose(q, [1.0, 0.0, 1.0])  # (1-x)^2 + x^2

    def test_zero_blocks(self):
        q = cone.omega_adjoint(
            cone.ConePoint(m=3, A=np.zeros((2, 2)), B=np.zeros((2, 2)))
        )
        assert np.allclose(q, np.zeros(4))

    def test_even_forward_by_hand(self):
        O0, O1 = cone.omega_forward(2, [1.0, 2.0, 3.0])
        assert np.allclose(O0, [[1, 2], [2, 3]])
        assert np.allclose(O1, [[2.0]])

    def test_forward_zero(self):
        O0, O1 = cone.omega_forward(2, np.zeros(3))
        assert not O0.any() and not O1.any()

    def test_odd_maps_match_quadratic_form(self):
        # odd m: q(x) = x v^T A v + (1-x) v^T B v with v = (1-x, x)
        rng = np.random.default_rng(0)
        m = 3
        A = rng.standard_normal((2, 2))
        A = A + A.T
        B = rng.standard_normal((2, 2))
        B = B + B.T
        q = cone.omega_adjoint(cone.ConePoint(m=m, A=A, B=B))
        xs = np.linspace(0, 1, 11)
        v = np.stack([1 - xs, xs], axis=1)
        direct = xs * np.einsum("pi,ij,pj->p", v, A, v) + (1 - xs) * np.einsum(
            "pi,ij,pj->p", v, B, v
        )
        assert np.allclose(u_values(q, xs), direct, atol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 10**9))
    def test_adjoint_pairing(self, m, seed):
        rng = np.random.default_rng(seed)
        sa, sb = cone._block_sizes(m)
        X0 = rng.standard_normal((sa, sa))
        X0 = X0 + X0.T
        X1 = rng.standard_normal((sb, sb))
        X1 = X1 + X1.T
        q = rng.standard_normal(m + 1)
        O0, O1 = cone.omega_forward(m, q)
        adj = cone.omega_adjoint(cone.ConePoint(m=m, A=X0, B=X1))
        lhs = float(np.sum(O0 * X0) + np.sum(O1 * X1))
        rhs = float(q @ adj)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cone.ConePoint(m=2, A=np.eye(3), B=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            cone.omega_forward(4, np.zeros(4))


def hankel_sum_operator(m):
    """W(m) assembled row by row from Hankel basis matrices."""
    sa, sb = cone._block_sizes(m)
    s = m % 2
    rows = []
    for k in range(m + 1):
        HA = cone.hankel_basis(sa, k - s)
        HB = cone.hankel_basis(sb, k - 1 + s)
        rows.append(np.concatenate([HA.ravel(), HB.ravel()]))
    return np.array(rows)


def loop_adjoint(m, A, B):
    """Omega0*(A) + Omega1*(B) summed one Hankel matrix at a time."""
    sa, sb = cone._block_sizes(m)
    q = np.zeros(m + 1)
    for k in range(m + 1):
        if m % 2 == 0:
            q[k] = np.sum(A * cone.hankel_basis(sa, k))
            if sb:
                q[k] += np.sum(B * cone.hankel_basis(sb, k - 1))
        else:
            HB = cone.hankel_basis(sb, k)
            q[k] = np.sum(A * cone.hankel_basis(sa, k - 1)) + np.sum(B * HB)
    return q


def loop_forward(m, q):
    """(Omega0(q), Omega1(q)) summed one Hankel matrix at a time."""
    sa, sb = cone._block_sizes(m)
    ell = m // 2
    O0, O1 = np.zeros((sa, sa)), np.zeros((sb, sb))
    if m % 2 == 0:
        for k in range(2 * ell + 1):
            O0 += q[k] * cone.hankel_basis(sa, k)
        for k in range(max(2 * ell - 1, 0)):
            O1 += q[k + 1] * cone.hankel_basis(sb, k)
    else:
        for k in range(2 * ell + 1):
            O0 += q[k + 1] * cone.hankel_basis(sa, k)
            O1 += q[k] * cone.hankel_basis(sb, k)
    return O0, O1


class TestOmegaOperator:
    @pytest.mark.parametrize("m", range(13))
    def test_equals_hankel_sums(self, m):
        W = cone.omega_operator(m)
        assert np.array_equal(W, hankel_sum_operator(m))

    def test_cached_and_read_only(self):
        W = cone.omega_operator(5)
        assert cone.omega_operator(5) is W
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            cone.omega_operator(-1)

    @pytest.mark.parametrize("m", range(13))
    def test_maps_match_loop_formulas(self, m):
        rng = np.random.default_rng(100 + m)
        sa, sb = cone._block_sizes(m)
        for _ in range(3):
            A = rng.standard_normal((sa, sa))
            A = A + A.T
            B = rng.standard_normal((sb, sb))
            B = B + B.T
            q = rng.standard_normal(m + 1)
            adj = cone.omega_adjoint(cone.ConePoint(m=m, A=A, B=B))
            assert np.allclose(adj, loop_adjoint(m, A, B), rtol=0, atol=1e-13)
            for got, want in zip(cone.omega_forward(m, q), loop_forward(m, q)):
                assert np.allclose(got, want, rtol=0, atol=1e-14)


def de_casteljau(coeffs, x):
    """Exact value of a Bernstein polynomial at a rational point."""
    b = list(coeffs)
    while len(b) > 1:
        b = [(1 - x) * b[i] + x * b[i + 1] for i in range(len(b) - 1)]
    return b[0]


def u_quadratic_form(m, A, B, x):
    """Exact q(x) from the blocks: v^T A v + x(1-x) w^T B w for even m, and
    x v^T A v + (1-x) v^T B v for odd m, with v = u^l, w = u^(l-1)."""
    ell = m // 2

    def form(X, k):
        u = [x**i * (1 - x) ** (k - i) for i in range(k + 1)]
        return sum(X[i][j] * u[i] * u[j] for i in range(k + 1) for j in range(k + 1))

    if m % 2 == 0:
        return form(A, ell) + (x * (1 - x) * form(B, ell - 1) if ell else 0)
    return x * form(A, ell) + (1 - x) * form(B, ell)


class TestExactBernsteinForm:
    @pytest.mark.parametrize("m", range(13))
    def test_scaled_adjoint_is_the_quadratic_form(self, m):
        rng = np.random.default_rng(200 + m)
        sa, sb = cone._block_sizes(m)
        A = rng.integers(-9, 10, (sa, sa))
        A = A + A.T
        B = rng.integers(-9, 10, (sb, sb))
        B = B + B.T
        # integer blocks: the float adjoint sums small integers exactly
        adj = cone.omega_adjoint(cone.ConePoint(m=m, A=A, B=B))
        coeffs = [Fraction(int(adj[k])) / math.comb(m, k) for k in range(m + 1)]
        A, B = A.tolist(), B.tolist()
        for j in range(m + 1):
            x = Fraction(j, m + 1)
            assert de_casteljau(coeffs, x) == u_quadratic_form(m, A, B, x)


class TestCertificateSoundness:
    def test_random_psd_points_are_nonnegative(self):
        rng = np.random.default_rng(2)
        for m in range(0, 8):
            sa, sb = cone._block_sizes(m)
            R0 = rng.standard_normal((sa, sa))
            R1 = rng.standard_normal((sb, sb))
            pt = cone.ConePoint(m=m, A=R0 @ R0.T, B=R1 @ R1.T)
            q = bn.poly(bernstein_coeffs(pt))
            assert cone.grid_min(q) >= -1e-9


class TestSolveCone:
    def test_interior_target_recovered(self):
        p = bn.poly([0.5, 1.0, 0.75])
        res = cone.solve_cone(p)
        assert np.max(np.abs(res.q.coeffs - p.coeffs)) < 1e-6
        assert res.objective < 1e-12

    def test_linear_matches_active_set_solution(self):
        p = bn.poly([-1.0, 1.0])
        res = cone.solve_cone(p)
        sol = kkt.solve(kkt.KktProblem(dim=1, m=1, n=1, target=p.coeffs))
        assert np.max(np.abs(res.q.coeffs - sol.q.coeffs)) < 1e-5
        d_cone = kkt.objective(kkt.KktProblem(dim=1, m=1, n=1, target=p.coeffs), res.q.coeffs)
        d_kkt = kkt.objective(kkt.KktProblem(dim=1, m=1, n=1, target=p.coeffs), sol.q.coeffs)
        assert d_cone <= d_kkt + 1e-6

    def test_perfect_square_is_in_the_cone(self):
        p = bn.poly([0.25, -0.25, 0.25])
        res = cone.solve_cone(p)
        assert np.max(np.abs(res.q.coeffs - p.coeffs)) < 1e-6

    def test_completeness_at_small_degree(self):
        # nonnegative targets are their own constrained optimum
        rng = np.random.default_rng(4)
        for m in (1, 2, 3):
            for _ in range(7):
                c = rng.uniform(-1, 1, m + 1)
                shift = cone.grid_min(bn.poly(c), 4001)
                p = bn.poly(c - shift)  # now min over [0,1] is ~0
                res = cone.solve_cone(p)
                assert res.objective <= 1e-6

    def test_certificate_psd(self):
        res = cone.solve_cone(bn.poly([-0.5, 0.3, 0.8, -0.1]))
        for block in (res.point.A, res.point.B):
            if block.size:
                assert np.max(np.abs(block - block.T)) < 1e-12
                assert np.linalg.eigvalsh(block).min() >= -1e-10

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 4, 5):
            p = bn.poly(rng.uniform(-1, 1, m + 1))
            res = cone.solve_cone(p)
            assert cone.grid_min(res.q) >= -1e-7

    def test_determinism(self):
        p = bn.poly([-0.5, 0.3, 0.8, -0.1])
        a = cone.solve_cone(p)
        b = cone.solve_cone(p)
        assert np.array_equal(a.q.coeffs, b.q.coeffs)
        assert (a.iterations, a.evaluations) == (b.iterations, b.evaluations)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            cone.solve_cone(bn.poly(np.zeros(14)))


    @pytest.mark.parametrize("m", range(1, 8))
    def test_f2_within_kkt_cost(self, m):
        # the n = m KKT feasible set lies inside the cone
        from bernfit import approx

        p = approx.project(approx.get_function("f2"), m, approx.default_rule(1))
        res = cone.solve_cone(p)
        # the optimizer runs exactly when a coefficient is negative
        assert res.converged and (res.evaluations > 0) == (p.coeffs.min() < 0)
        prob = kkt.KktProblem(dim=1, m=m, n=m, target=p.coeffs)
        bound = kkt.objective(prob, kkt.solve(prob).q.coeffs)
        scale = kkt.objective(prob, np.zeros(m + 1))
        assert cone.cone_objective(p, res.q) <= bound + 1e-6 * (bound + scale) + 1e-14

    @pytest.mark.parametrize("ident", ["f0", "f1", "f2", "f3", "f2alt"])
    def test_converges_up_to_the_degree_limit(self, ident):
        # every corpus target converges within the step cap.  The degree
        # m-1 cone lies inside the degree m cone, so the squared L2 distance
        # to f, cost + ||p - f||^2, is nonincreasing in m
        from bernfit import approx

        f = approx.get_function(ident)
        quad = approx.default_rule(1)
        previous = np.inf
        for m in range(cone.CONE_DEGREE_LIMIT + 1):
            p = approx.project(f, m, quad)
            res = cone.solve_cone(p)
            assert res.converged, (m, res.grad_norm, res.dual_min)
            assert res.iterations < cone.MAX_ITERATIONS, (m, res.iterations)
            prob = kkt.KktProblem(dim=1, m=m, n=m, target=p.coeffs)
            bound = kkt.objective(prob, kkt.solve(prob).q.coeffs)
            scale = kkt.objective(prob, np.zeros(m + 1))
            cost = cone.cone_objective(p, res.q)
            assert cost <= bound + 1e-6 * (bound + scale) + 1e-14, (m, cost, bound)
            dist = approx.l2_error(f, res.q, quad) ** 2
            assert dist <= previous + 1e-6 * scale, (m, dist, previous)
            previous = dist

    @pytest.mark.parametrize("ident, m", [("f0", 11), ("f0", 12), ("f3", 11), ("f3", 12)])
    def test_nonnegative_projection_reaches_zero_cost(self, ident, m):
        # these projections are nonnegative on [0, 1] (adaptive de Casteljau
        # subdivision proves it) but have negative Bernstein coefficients, so
        # the Newton run must find p itself: cost 0 up to rounding
        from bernfit import approx

        p = approx.project(approx.get_function(ident), m)
        assert p.coeffs.min() < 0.0
        res = cone.solve_cone(p)
        assert res.converged
        assert res.objective < 1e-15
        assert cone.cone_objective(p, res.q) < 1e-15

    def test_saddle_point_is_not_converged(self, monkeypatch):
        # R = 0 is stationary for the factored cost, but the cost gradient
        # in the blocks is not PSD there: the dual check rejects it.  f2's
        # projection at m = 2 has a negative coefficient, so the Newton loop
        # runs, from R = 0
        from bernfit import approx

        start_point = cone._start_point
        monkeypatch.setattr(cone, "_start_point", lambda sa, sb: 0.0 * start_point(sa, sb))
        res = cone.solve_cone(approx.project(approx.get_function("f2"), 2))
        assert res.grad_norm == 0.0
        assert res.dual_min < -0.1
        assert not res.converged


class TestNonnegativeTarget:
    @pytest.mark.parametrize("m", range(cone.CONE_DEGREE_LIMIT + 1))
    def test_is_its_own_optimum(self, m, monkeypatch):
        # nonnegative Bernstein coefficients: q = p with a diagonal
        # certificate, and the optimizer is never called
        def no_optimizer(*args, **kwargs):
            raise AssertionError("optimizer called on a nonnegative target")

        monkeypatch.setattr(cone, "_newton", no_optimizer)
        rng = np.random.default_rng(m)
        c = rng.uniform(0.0, 1.0, m + 1)
        c[rng.integers(m + 1)] = 0.0
        p = bn.poly(c)
        res = cone.solve_cone(p)
        assert res.q is p
        assert (res.iterations, res.evaluations) == (0, 0)
        assert res.converged
        assert res.objective <= 1e-30
        for block in (res.point.A, res.point.B):
            assert np.array_equal(block, np.diag(np.diag(block)))
            assert np.all(np.diag(block) >= 0.0)
        # the certificate is the target: u^m coefficients C(m, k) p_k
        comb = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
        assert np.array_equal(cone.omega_adjoint(res.point), c * comb)

    def test_f1_projection_is_the_cone_optimum(self):
        from bernfit import approx

        f = approx.get_function("f1")
        for m in range(cone.CONE_DEGREE_LIMIT + 1):
            p = approx.project(f, m, approx.default_rule(1))
            res = cone.solve_cone(p)
            assert res.q is p and res.converged and res.evaluations == 0

    def test_a_negative_coefficient_runs_the_optimizer(self):
        p = bn.poly([0.5, -1e-12, 0.5])
        res = cone.solve_cone(p)
        assert res.evaluations > 0 and res.q is not p


class TestCompositeGradient:
    def test_against_finite_differences(self):
        from bernfit.oracles import finite_diff_gradient

        rng = np.random.default_rng(6)
        m = 4
        sa, sb = cone._block_sizes(m)
        scale = 1.0 / np.array([math.comb(m, k) for k in range(m + 1)])
        M = sx.simplex_mass_matrix(1, m)
        target = rng.uniform(-1, 1, m + 1)
        z = rng.standard_normal(sa * sa + sb * sb)
        val, grad = cone._composite(z, m, scale, M, target, sa, sb)
        fd = finite_diff_gradient(
            lambda zz: cone._composite(zz, m, scale, M, target, sa, sb)[0], z, h=1e-5
        )
        assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-5

    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_against_finite_differences_at_degree(self, m):
        from bernfit.oracles import finite_diff_gradient

        rng = np.random.default_rng(60 + m)
        sa, sb = cone._block_sizes(m)
        scale = 1.0 / np.array([math.comb(m, k) for k in range(m + 1)])
        M = sx.simplex_mass_matrix(1, m)
        target = rng.uniform(-1, 1, m + 1)
        z = rng.standard_normal(sa * sa + sb * sb)
        val, grad = cone._composite(z, m, scale, M, target, sa, sb)
        fd = finite_diff_gradient(
            lambda zz: cone._composite(zz, m, scale, M, target, sa, sb)[0], z, h=1e-5
        )
        assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-5


class TestHessian:
    @pytest.mark.parametrize("m", [0, 1, 4, 7, 12])
    def test_against_finite_differences_of_the_gradient(self, m):
        rng = np.random.default_rng(70 + m)
        sa, sb = cone._block_sizes(m)
        scale = 1.0 / np.array([math.comb(m, k) for k in range(m + 1)])
        M = sx.simplex_mass_matrix(1, m)
        target = rng.uniform(-1, 1, m + 1)
        z = rng.standard_normal(sa * sa + sb * sb)
        args = (m, scale, M, target, sa, sb)
        H = cone._hessian(z, *args)
        h = 1e-5
        fd = np.column_stack([
            (cone._composite(z + e, *args)[1] - cone._composite(z - e, *args)[1]) / (2 * h)
            for e in h * np.eye(z.size)
        ])
        assert np.max(np.abs(H - H.T)) <= 1e-14 * max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(H - fd)) <= 1e-8 * max(1.0, np.max(np.abs(H)))
