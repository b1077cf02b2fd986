import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
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
            assert exact.grid_min(q) >= -1e-9


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
                shift = exact.grid_min(bn.poly(c), 4001)
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
            assert exact.grid_min(res.q) >= -1e-7

    def test_determinism(self):
        p = bn.poly([-0.5, 0.3, 0.8, -0.1])
        a = cone.solve_cone(p)
        b = cone.solve_cone(p)
        assert np.array_equal(a.q.coeffs, b.q.coeffs)
        assert (a.iterations, a.evaluations) == (b.iterations, b.evaluations)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            cone.solve_cone(bn.poly(np.zeros(14)))

    def test_univariate_only(self):
        # a degree-2 polynomial on the triangle has 6 coefficients
        for coeffs in (np.linspace(-1.0, 1.0, 6), np.ones(6)):
            with pytest.raises(ValueError, match="univariate"):
                cone.solve_cone(sx.PolyCoeffs(2, coeffs, dim=2))

    def test_objective_reads_the_mass_matrix_alone(self):
        p = bn.poly([-0.5, 0.3, 0.8, -0.1])
        q = cone.solve_cone(p).q
        unread = (sx.orthogonal_complement_basis, sx.simplex_spectral_factors, sx.simplex_elevation)
        for cache in unread:
            cache.cache_clear()
        cost = cone.cone_objective(p, q)
        assert [c.cache_info().misses for c in unread] == [0, 0, 0]
        prob = kkt.KktProblem(dim=1, m=3, n=3, target=p.coeffs)
        assert cost == kkt.objective(prob, q.coeffs)


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
        monkeypatch.setattr(cone, "_start_point", lambda u, m: 0.0 * start_point(u, m))
        res = cone.solve_cone(approx.project(approx.get_function("f2"), 2))
        assert res.grad_norm == 0.0
        assert res.dual_min < -0.1
        assert not res.converged


SCALED_DEGREES = [
    (m, scale) for scale in (1.0, 1e4, 1e6, 1e8) for m in range(cone.CONE_DEGREE_LIMIT + 1)
]


class TestNonnegativeTarget:
    @pytest.mark.parametrize(
        "m, scale",
        SCALED_DEGREES,
        ids=[f"{m}" if scale == 1.0 else f"{m}-scale{scale:.0e}" for m, scale in SCALED_DEGREES],
    )
    def test_is_its_own_optimum(self, m, scale, monkeypatch):
        # nonnegative Bernstein coefficients: q = p with a diagonal
        # certificate, the optimizer is never called, and at q = p the cost
        # and both gradients are exactly 0 at any scale
        def no_optimizer(*args, **kwargs):
            raise AssertionError("optimizer called on a nonnegative target")

        monkeypatch.setattr(cone, "_newton", no_optimizer)
        rng = np.random.default_rng(m)
        c = scale * rng.uniform(0.0, 1.0, m + 1)
        c[rng.integers(m + 1)] = 0.0
        p = bn.poly(c)
        res = cone.solve_cone(p)
        assert res.q is p
        assert (res.iterations, res.evaluations) == (0, 0)
        assert res.converged
        assert (res.objective, res.grad_norm, res.dual_min) == (0.0, 0.0, 0.0)
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


CORPUS = ["f0", "f1", "f2", "f3", "f2alt"]


class TestScaling:
    @pytest.mark.parametrize("ident", CORPUS)
    @pytest.mark.parametrize("i", [-2, -1, 1, 2])
    def test_powers_of_256_scale_every_output_exactly(self, ident, i):
        # 256^i p is solved on p's own bits: q, A and B come back times
        # 256^i and the objective times 256^(2i), with the same steps
        from bernfit import approx

        f = approx.get_function(ident)
        k = 256.0**i
        for m in range(1, cone.CONE_DEGREE_LIMIT + 1):
            p = approx.project(f, m, approx.default_rule(1))
            base = cone.solve_cone(p)
            res = cone.solve_cone(bn.poly(k * p.coeffs))
            assert np.array_equal(res.q.coeffs, k * base.q.coeffs), m
            assert np.array_equal(res.point.A, k * base.point.A), m
            assert np.array_equal(res.point.B, k * base.point.B), m
            assert res.objective == k * k * base.objective, m
            assert res.grad_norm == k**1.5 * base.grad_norm, m
            assert res.dual_min == k * base.dual_min, m
            assert (res.iterations, res.converged) == (base.iterations, base.converged), m

    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 8.0, 1e4, 1e6])
    def test_random_targets_converge_at_any_scale(self, scale):
        rng = np.random.default_rng(0)
        failed = []
        for m in range(1, cone.CONE_DEGREE_LIMIT + 1):
            for draw in range(20):
                res = cone.solve_cone(bn.poly(scale * rng.uniform(-1, 1, m + 1)))
                if not res.converged:
                    failed.append((m, draw, res.grad_norm, res.dual_min))
        assert not failed

    def test_unit_scale_stall_converges(self):
        # draw 41 of 80 at m = 12, times 8, inside the corpus's size range
        # (sqrt(p^T M p) = 2.98): from a random start Newton can run out of
        # steps here, at grad 2.4e-5
        rng = np.random.default_rng(0)
        draws = {m: [rng.uniform(-1, 1, m + 1) for _ in range(80)] for m in range(1, 13)}
        res = cone.solve_cone(bn.poly(8.0 * draws[12][41]))
        assert res.converged and res.iterations < cone.MAX_ITERATIONS
        assert res.grad_norm <= 8.0**1.5 * cone.GRAD_TOL

    @pytest.mark.parametrize("top", [1e-300, 1e-30, 1.0, 1e30, 1e300])
    def test_exponent_follows_the_size_of_the_target(self, top):
        # j(256 t) = j(t) + 1, with no under- or overflow in t^T M t
        M = sx.simplex_mass_matrix(1, 4)
        u = np.array([1.0, -0.5, 0.25, 0.0, -1.0])
        j = cone._scale_exponent(top * u, M)
        assert cone._scale_exponent(256.0 * top * u, M) == j + 1
        assert cone._scale_exponent(top * u / 256.0, M) == j - 1
        # log_256 sqrt(t^T M t), taken apart so that nothing overflows
        assert abs(j - (np.log2(top) + 0.5 * np.log2(u @ M @ u)) / 8) <= 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_is_not_converged(self, bad):
        with np.errstate(all="ignore"):
            res = cone.solve_cone(bn.poly([bad, -1.0, 1.0]))
        assert not res.converged and res.iterations == 0

    @pytest.mark.parametrize("ident", CORPUS)
    def test_corpus_targets_are_solved_unscaled(self, ident):
        from bernfit import approx

        f = approx.get_function(ident)
        for m in range(cone.CONE_DEGREE_LIMIT + 1):
            p = approx.project(f, m, approx.default_rule(1))
            assert cone._scale_exponent(p.coeffs, sx.simplex_mass_matrix(1, m)) == 0


class TestNewton:
    @pytest.mark.parametrize("m", [0, 1, 4, 7, 12])
    def test_starts_from_the_clipped_diagonal_certificate(self, m):
        # the squares of the start's diagonal factors are the target's u^m
        # coefficients, each raised to START_FLOOR times the largest
        rng = np.random.default_rng(110 + m)
        u = rng.uniform(-1, 1, m + 1)
        R0, R1 = cone._unpack(cone._start_point(u, m), *cone._block_sizes(m))
        for R in (R0, R1):
            assert np.array_equal(R, np.diag(np.diag(R)))
        point = cone.ConePoint(m, R0 @ R0.T, R1 @ R1.T)
        floor = cone.START_FLOOR * np.abs(u).max()
        assert np.allclose(cone.omega_adjoint(point), np.maximum(u, floor), rtol=1e-15, atol=0)
        # a power-of-4 scaling of u scales the factors exactly
        assert np.array_equal(cone._start_point(16.0 * u, m), 4.0 * cone._start_point(u, m))

    @pytest.mark.parametrize("m", [1, 4, 8, 12])
    def test_returns_the_state_of_its_last_iterate(self, m):
        # solve_cone reads the answer from the returned state, so it must be
        # _state at the returned z, bit for bit, not that of an earlier iterate
        rng = np.random.default_rng(80 + m)
        sa, sb = cone._block_sizes(m)
        comb = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
        scale = 1.0 / comb
        M = sx.simplex_mass_matrix(1, m)
        target = rng.uniform(-1, 1, m + 1)
        args = (m, scale, M, target, sa, sb)
        z, state, steps, evaluations = cone._newton(cone._start_point(target * comb, m), args)
        assert steps > 0 and evaluations == steps + 1
        r, cost, (GA, GB), grad = cone._state(z, *args)
        assert np.array_equal(state[0], r) and state[1] == cost
        assert np.array_equal(state[2][0], GA) and np.array_equal(state[2][1], GB)
        assert np.array_equal(state[3], grad)


def f2_newton_args(m):
    """_newton's arguments and start for f2's projection at degree m, which
    is solved unscaled."""
    from bernfit import approx

    t = approx.project(approx.get_function("f2"), m, approx.default_rule(1)).coeffs
    comb = sx._binomials(m)[m]
    args = (m, 1.0 / comb, sx.simplex_mass_matrix(1, m), t, *cone._block_sizes(m))
    return cone._start_point(t * comb, m), args


def count_eigvalsh(monkeypatch):
    """Patch np.linalg.eigvalsh to record the size of each matrix it gets."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
    return calls


class TestShift:
    def test_no_eigensolve_on_f2(self, monkeypatch):
        # every Hessian of f2's run at m = 8 has a Cholesky factor once the
        # damping is added, so each step is taken with shift 0 and no
        # eigenvalue is computed
        start, args = f2_newton_args(8)
        calls = count_eigvalsh(monkeypatch)
        z, state, steps, _ = cone._newton(start, args)
        assert steps > 0 and np.abs(state[3]).max() <= cone.GRAD_TOL
        assert calls == []

    def test_an_indefinite_hessian_is_shifted(self, monkeypatch):
        # near the saddle R = 0 the Hessian is about 2 G (x) I, G the cost
        # gradient in the blocks, which is indefinite there: the Cholesky
        # test fails and the shift is read from eigvalsh
        start, args = f2_newton_args(2)
        z = 1e-3 * start
        assert np.abs(cone._state(z, *args)[3]).max() > cone.GRAD_TOL
        calls = count_eigvalsh(monkeypatch)
        cone._newton(z, args)
        assert calls and set(calls) == {z.size}

    def test_corpus_step_count(self):
        # a rule that makes steps cheaper must not take more of them: the
        # corpus takes 589 steps with the eigvalsh shift on every Hessian
        # and 590 with the Cholesky test
        from bernfit import approx

        quad = approx.default_rule(1)
        steps = sum(
            cone.solve_cone(approx.project(approx.get_function(ident), m, quad)).iterations
            for ident in CORPUS
            for m in range(1, cone.CONE_DEGREE_LIMIT + 1)
        )
        assert steps <= 600


class TestCompositeGradient:
    def test_against_finite_differences(self):
        from oracles import finite_diff_gradient

        rng = np.random.default_rng(6)
        m = 4
        sa, sb = cone._block_sizes(m)
        scale = 1.0 / np.array([math.comb(m, k) for k in range(m + 1)])
        M = sx.simplex_mass_matrix(1, m)
        target = rng.uniform(-1, 1, m + 1)
        z = rng.standard_normal(sa * sa + sb * sb)
        grad = cone._state(z, m, scale, M, target, sa, sb)[3]
        fd = finite_diff_gradient(
            lambda zz: cone._state(zz, m, scale, M, target, sa, sb)[1], z, h=1e-5
        )
        assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-5

    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_against_finite_differences_at_degree(self, m):
        from oracles import finite_diff_gradient

        rng = np.random.default_rng(60 + m)
        sa, sb = cone._block_sizes(m)
        scale = 1.0 / np.array([math.comb(m, k) for k in range(m + 1)])
        M = sx.simplex_mass_matrix(1, m)
        target = rng.uniform(-1, 1, m + 1)
        z = rng.standard_normal(sa * sa + sb * sb)
        grad = cone._state(z, m, scale, M, target, sa, sb)[3]
        fd = finite_diff_gradient(
            lambda zz: cone._state(zz, m, scale, M, target, sa, sb)[1], z, h=1e-5
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
        H, _ = cone._hessian(z, cone._state(z, *args)[2], m, scale, M, sa, sb)
        h = 1e-5
        fd = np.column_stack([
            (cone._state(z + e, *args)[3] - cone._state(z - e, *args)[3]) / (2 * h)
            for e in h * np.eye(z.size)
        ])
        assert np.max(np.abs(H - H.T)) <= 1e-14 * max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(H - fd)) <= 1e-8 * max(1.0, np.max(np.abs(H)))

    @pytest.mark.parametrize("m", [0, 1, 4, 7, 12])
    def test_jacobian_against_central_differences_of_the_residual(self, m):
        # r is quadratic in z, so the central difference is exact but for
        # rounding
        rng = np.random.default_rng(100 + m)
        sa, sb = cone._block_sizes(m)
        scale = 1.0 / sx._binomials(m)[m]
        M = sx.simplex_mass_matrix(1, m)
        target = rng.uniform(-1, 1, m + 1)
        z = rng.standard_normal(sa * sa + sb * sb)
        args = (m, scale, M, target, sa, sb)
        _, J = cone._hessian(z, cone._state(z, *args)[2], m, scale, M, sa, sb)
        h = 1e-5
        fd = np.column_stack([
            (cone._state(z + e, *args)[0] - cone._state(z - e, *args)[0]) / (2 * h)
            for e in h * np.eye(z.size)
        ])
        assert J.shape == (m + 1, z.size)
        assert np.max(np.abs(J - fd)) <= 1e-8 * max(1.0, np.max(np.abs(J)))

    @pytest.mark.parametrize("size", [1.0, 1e-8])
    @pytest.mark.parametrize("m", [0, 1, 4, 7, 12])
    def test_step_residual_change(self, m, size):
        # Newton's trial step d changes the residual by J d + scale W vec(D D^T):
        # (R + D)(R + D)^T - R R^T = D R^T + R D^T + D D^T, and J d is the
        # first two terms.  Against the change formed directly in exact
        # arithmetic it keeps its digits when |d| = 1e-8 |z|, where the
        # difference of the two float residuals loses about half of them
        rng = np.random.default_rng(110 + m)
        sa, sb = cone._block_sizes(m)
        scale = 1.0 / sx._binomials(m)[m]
        M = sx.simplex_mass_matrix(1, m)
        target = rng.uniform(-1, 1, m + 1)
        z = rng.standard_normal(sa * sa + sb * sb)
        u = rng.standard_normal(z.size)
        d = size * np.linalg.norm(z) / np.linalg.norm(u) * u
        args = (m, scale, M, target, sa, sb)
        _, J = cone._hessian(z, cone._state(z, *args)[2], m, scale, M, sa, sb)
        D0, D1 = cone._unpack(d, sa, sb)
        dr = J @ d + scale * (cone.omega_operator(m) @ cone._pack(D0 @ D0.T, D1 @ D1.T))

        def exact_residual(z):
            R0, R1 = cone._unpack(z, sa, sb)
            AB = cone.omega_operator(m).astype(int).astype(object) @ cone._pack(R0 @ R0.T, R1 @ R1.T)
            return [Fraction(k) * v - Fraction(t) for k, v, t in zip(scale, AB, target)]

        zf = np.array([Fraction(v) for v in z], dtype=object)
        df = np.array([Fraction(v) for v in d], dtype=object)
        want = np.array([float(b - a) for a, b in zip(exact_residual(zf), exact_residual(zf + df))])
        size_dr = np.abs(want).max()
        assert np.abs(dr - want).max() <= 1e-14 * size_dr
        if size < 1e-4:
            naive = cone._state(z + d, *args)[0] - cone._state(z, *args)[0]
            assert np.abs(naive - want).max() > 1e-10 * size_dr

    @pytest.mark.parametrize("m", range(13))
    def test_equals_the_kron_form(self, m):
        # the 4-index view adds 2 G (x) I on its pattern alone, leaving out
        # only the kron form's exact zeros, and J is the batched product
        rng = np.random.default_rng(90 + m)
        sa, sb = cone._block_sizes(m)
        scale = 1.0 / sx._binomials(m)[m]
        M = sx.simplex_mass_matrix(1, m)
        W = cone.omega_operator(m)
        WA = W[:, : sa * sa].reshape(m + 1, sa, sa)
        WB = W[:, sa * sa :].reshape(m + 1, sb, sb)
        for _ in range(3):
            target = rng.uniform(-1, 1, m + 1)
            z = rng.standard_normal(sa * sa + sb * sb)
            blocks = cone._state(z, m, scale, M, target, sa, sb)[2]
            R0, R1 = cone._unpack(z, sa, sb)
            J = np.hstack([(WA @ R0).reshape(m + 1, -1), (WB @ R1).reshape(m + 1, -1)])
            J *= (2.0 * scale)[:, None]
            ref = 2.0 * (J.T @ M @ J)
            for G, k, s in ((blocks[0], 0, sa), (blocks[1], sa * sa, sb)):
                ref[k : k + s * s, k : k + s * s] += np.kron(2.0 * G, np.eye(s))
            H, got = cone._hessian(z, blocks, m, scale, M, sa, sb)
            assert np.array_equal(H, ref) and np.array_equal(got, J)


def test_imports_nothing_from_kkt():
    # the cone solver stands on the basis layer alone
    for node in ast.walk(ast.parse(Path(cone.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert "kkt" not in names, ast.unparse(node)
