import numpy as np
import pytest

from bernfit import kkt, oracles


class TestPenaltySolve:
    def test_matches_closed_form(self):
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]))
        q = oracles.penalty_solve(p)
        assert np.max(np.abs(q - [0.0, 0.5])) < 1e-5

    def test_feasible_target(self):
        t = np.array([0.25, 0.1, 0.6])
        p = kkt.KktProblem(dim=1, m=2, n=4, target=t)
        assert np.max(np.abs(oracles.penalty_solve(p) - t)) < 1e-8

    def test_mass_preserving_fixture(self):
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]), delta=1)
        assert np.max(np.abs(oracles.penalty_solve(p) - [0.0, 0.0])) < 1e-5

    def test_upper_bound_support(self):
        p = kkt.KktProblem(dim=1, m=1, n=3, target=np.array([2.0, 2.0]))
        q = oracles.penalty_solve(p, upper=1.0)
        from bernfit import bernstein as bn

        elev = bn.elevation_matrix(1, 3).entries @ q
        assert elev.max() <= 1.0 + 1e-6
        assert elev.min() >= -1e-6
        # the constant 1 is the closest upper-bounded polynomial to 2
        assert np.max(np.abs(q - [1.0, 1.0])) < 1e-5

    def test_self_consistency_under_final_rho_doubling(self):
        rng = np.random.default_rng(77)
        base = oracles.PenaltyConfig()
        doubled = oracles.PenaltyConfig(rhos=base.rhos + (2 * base.rhos[-1],))
        import math

        for _ in range(6):
            d = int(rng.integers(1, 3))
            m = int(rng.integers(0, 5))
            n = (
                int(rng.integers(m, m + 4))
                if d == 1
                else int(rng.integers(m, min(m + 3, 5) + 1))
            )
            t = rng.uniform(-1, 1, math.comb(d + m, d))
            prob = kkt.KktProblem(dim=d, m=m, n=n, target=t)
            a = oracles.penalty_solve(prob, base)
            b = oracles.penalty_solve(prob, doubled)
            assert np.max(np.abs(a - b)) <= 1e-6

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            oracles.PenaltyConfig(rhos=(10.0, 10.0))

    def test_size_guard(self):
        # C(12, 2) = 66 constraints exceeds the oracle's 64-constraint cap
        p = kkt.KktProblem(dim=2, m=4, n=10, target=np.zeros(15))
        with pytest.raises(ValueError):
            oracles.penalty_solve(p)


class TestFiniteDifferences:
    def test_projection_cost_gradient(self):
        rng = np.random.default_rng(5)
        prob = kkt.KktProblem(dim=1, m=3, n=3, target=rng.uniform(-1, 1, 4))
        data = kkt._problem_data(1, 3, 3)
        x = rng.uniform(-1, 1, 4)
        g_fd = oracles.finite_diff_gradient(lambda q: kkt.objective(prob, q), x)
        g_an = 2.0 * data.M @ (x - prob.target)
        assert np.max(np.abs(g_fd - g_an)) / np.max(np.abs(g_an)) < 1e-6

    def test_constant(self):
        g = oracles.finite_diff_gradient(lambda q: 3.0, np.zeros(4))
        assert np.allclose(g, 0.0)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            oracles.finite_diff_gradient(lambda q: 0.0, np.zeros(2), h=1e-2)
