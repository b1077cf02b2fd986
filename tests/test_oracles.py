import math

import numpy as np
import pytest

import oracles
from bernfit import kkt
from bernfit import simplex as sx


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
        elev = sx.simplex_elevation(1, 1, 3) @ q
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


def _pinned_target(d, m, delta):
    t = np.cos(2.3 * np.arange(math.comb(d + m, d)) + 1.1 * m + 0.7 * d)
    if delta and t.mean() < 0.05:
        t = t + (0.05 - t.mean())
    return t


# (dim, m, n, delta, active_set, subsets_examined, systems_solved,
#  candidates_reconstructed, rank_skips) of the exhaustive search on
# _pinned_target; the rank guard trips on several delta = 1, n > m cases
ENUMERATOR_PINS = [
    (1, 0, 0, 0, (), 2, 2, 1, 0),
    (1, 0, 0, 1, (), 1, 1, 1, 0),
    (1, 0, 1, 0, (), 3, 3, 1, 0),
    (1, 0, 1, 1, (), 1, 1, 1, 0),
    (1, 0, 2, 0, (), 4, 4, 1, 0),
    (1, 0, 2, 1, (), 1, 1, 1, 0),
    (1, 0, 3, 0, (), 5, 5, 1, 0),
    (1, 0, 3, 1, (), 1, 1, 1, 0),
    (1, 0, 4, 0, (), 6, 6, 1, 0),
    (1, 0, 4, 1, (), 1, 1, 1, 0),
    (1, 1, 1, 0, (0, 1), 4, 4, 4, 0),
    (1, 1, 1, 1, (1,), 3, 3, 2, 0),
    (1, 1, 2, 0, (0, 2), 7, 7, 6, 0),
    (1, 1, 2, 1, (2,), 4, 3, 2, 1),
    (1, 1, 3, 0, (0, 2), 11, 11, 9, 0),
    (1, 1, 3, 1, (3,), 5, 5, 3, 0),
    (1, 1, 4, 0, (0, 3), 16, 16, 12, 0),
    (1, 1, 4, 1, (4,), 6, 5, 3, 1),
    (1, 1, 5, 0, (0, 3), 22, 22, 16, 0),
    (1, 1, 5, 1, (5,), 7, 7, 3, 0),
    (1, 2, 2, 0, (0, 1), 8, 8, 3, 0),
    (1, 2, 2, 1, (0, 1), 7, 7, 3, 0),
    (1, 2, 3, 0, (0, 1), 15, 15, 5, 0),
    (1, 2, 3, 1, (0, 1), 11, 11, 4, 0),
    (1, 2, 4, 0, (0, 1), 26, 26, 5, 0),
    (1, 2, 4, 1, (0, 1), 16, 14, 5, 2),
    (1, 2, 5, 0, (0, 1), 42, 42, 6, 0),
    (1, 2, 5, 1, (0, 1), 22, 22, 7, 0),
    (1, 2, 6, 0, (0, 1), 64, 64, 7, 0),
    (1, 2, 6, 1, (0, 1), 29, 28, 9, 1),
    (1, 3, 3, 0, (0, 1, 2, 3), 16, 16, 9, 0),
    (1, 3, 3, 1, (0, 2, 3), 15, 15, 7, 0),
    (1, 3, 4, 0, (0, 1, 3, 4), 31, 31, 13, 0),
    (1, 3, 4, 1, (0, 3, 4), 26, 24, 7, 2),
    (1, 3, 5, 0, (0, 1, 4, 5), 57, 57, 20, 0),
    (1, 3, 5, 1, (0, 4, 5), 42, 42, 7, 0),
    (1, 3, 6, 0, (0, 1, 4, 6), 99, 99, 26, 0),
    (1, 3, 6, 1, (0, 5, 6), 64, 56, 10, 8),
    (1, 3, 7, 0, (0, 1, 5, 7), 163, 163, 36, 0),
    (1, 3, 7, 1, (0, 6, 7), 93, 91, 10, 2),
    (2, 0, 0, 0, (), 2, 2, 1, 0),
    (2, 0, 0, 1, (), 1, 1, 1, 0),
    (2, 0, 1, 0, (), 4, 4, 1, 0),
    (2, 0, 1, 1, (), 1, 1, 1, 0),
    (2, 0, 2, 0, (), 7, 7, 1, 0),
    (2, 0, 2, 1, (), 1, 1, 1, 0),
    (2, 0, 3, 0, (), 11, 11, 1, 0),
    (2, 0, 3, 1, (), 1, 1, 1, 0),
    (2, 1, 1, 0, (0, 1), 8, 8, 3, 0),
    (2, 1, 1, 1, (0, 1), 7, 7, 3, 0),
    (2, 1, 2, 0, (0, 1), 42, 39, 7, 3),
    (2, 1, 2, 1, (0, 1), 22, 19, 6, 3),
    (2, 1, 3, 0, (0, 1), 176, 161, 11, 15),
    (2, 1, 3, 1, (0, 1), 56, 44, 13, 12),
    (2, 2, 2, 0, (0, 1, 2, 4, 5), 64, 64, 22, 0),
    (2, 2, 2, 1, (0, 1, 2, 5), 63, 63, 16, 0),
    (2, 2, 3, 0, (0, 1, 2, 4, 9), 848, 766, 57, 82),
    (2, 2, 3, 1, (0, 1, 2, 9), 638, 578, 27, 60),
    (2, 3, 3, 0, (0, 1, 2, 4, 5, 7, 8), 1024, 1024, 51, 0),
    (2, 3, 3, 1, (0, 1, 2, 4, 5, 7, 8, 9), 1023, 1023, 54, 0),
]


class TestEnumerateSolve:
    @pytest.mark.parametrize(
        "pin", ENUMERATOR_PINS, ids=lambda p: "d{}-m{}-n{}-delta{}".format(*p[:4])
    )
    def test_exhaustive_counters_pinned(self, pin):
        d, m, n, delta, active_set, *counters = pin
        prob = kkt.KktProblem(dim=d, m=m, n=n, target=_pinned_target(d, m, delta), delta=delta)
        sol = oracles.enumerate_solve(prob, exhaustive=True)
        assert sol.active_set == active_set
        assert [
            sol.subsets_examined,
            sol.systems_solved,
            sol.candidates_reconstructed,
            sol.rank_skips,
        ] == counters


class TestFiniteDifferences:
    def test_projection_cost_gradient(self):
        rng = np.random.default_rng(5)
        prob = kkt.KktProblem(dim=1, m=3, n=3, target=rng.uniform(-1, 1, 4))
        x = rng.uniform(-1, 1, 4)
        g_fd = oracles.finite_diff_gradient(lambda q: kkt.objective(prob, q), x)
        g_an = 2.0 * sx.simplex_mass_matrix(1, 3) @ (x - prob.target)
        assert np.max(np.abs(g_fd - g_an)) / np.max(np.abs(g_an)) < 1e-6

    def test_constant(self):
        g = oracles.finite_diff_gradient(lambda q: 3.0, np.zeros(4))
        assert np.allclose(g, 0.0)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            oracles.finite_diff_gradient(lambda q: 0.0, np.zeros(2), h=1e-2)
