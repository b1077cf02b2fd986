import math
import time
import types

import numpy as np
import pytest

import exact
import oracles
from bernfit import bernstein as bn
from bernfit import approx, kkt
from bernfit import simplex as sx
from oracles import penalty_solve


def random_instance(rng, delta=None):
    """Instance generator used across the suite.

    Degrees follow m <= 4, n <= m+3; for the simplex the constraint count
    must respect the enumeration guard, which caps n at 5 when dim = 2.
    Mass-preserving instances get a positive mean, since a negative target
    integral makes the constraint set empty.
    """
    d = int(rng.integers(1, 3))
    m = int(rng.integers(0, 5))
    n = int(rng.integers(m, m + 4)) if d == 1 else int(rng.integers(m, min(m + 3, 5) + 1))
    if delta is None:
        delta = int(rng.integers(0, 2))
    t = rng.uniform(-1, 1, math.comb(d + m, d))
    if delta and t.mean() < 0.05:
        t = t + (0.05 - t.mean())
    return kkt.KktProblem(dim=d, m=m, n=n, target=t, delta=delta)


class TestClosedFormFixture:
    def test_inequality_only(self):
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]))
        s = kkt.solve(p)
        assert np.allclose(s.q.coeffs, [0.0, 0.5], atol=1e-12)
        assert np.allclose(s.mu, [0.5, 0.0], atol=1e-12)
        assert s.active_set == (0,)
        assert s.nu == 0.0

    def test_mass_preserving(self):
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]), delta=1)
        s = kkt.solve(p)
        assert np.allclose(s.q.coeffs, [0.0, 0.0], atol=1e-12)
        target = bn.PolyCoeffs(p.m, p.target, p.dim)
        assert abs(exact.integral(s.q) - exact.integral(target)) < 1e-12

    def test_feasible_target_returned_unchanged(self, monkeypatch):
        t = np.array([0.4, 0.05, 0.7])
        E = sx.simplex_elevation(1, 2, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("a feasible target needs no NNLS call")

        monkeypatch.setattr(kkt.optimize, "nnls", refuse)
        for delta in (0, 1):
            p = kkt.KktProblem(dim=1, m=2, n=5, target=t, delta=delta)
            s = kkt.solve(p)
            assert s.active_set == ()
            assert np.array_equal(s.q.coeffs, t)
            assert s.mu.shape == (p.num_constraints,) and not s.mu.any()
            # the empty set's nu is -d! * 0.0 with the integral pinned
            assert s.nu == 0.0 and math.copysign(1.0, s.nu) == (-1.0 if delta else 1.0)
            assert np.array_equal(s.elevated, E @ t)
            counts = (s.subsets_examined, s.systems_solved, s.candidates_reconstructed, s.rank_skips)
            assert counts == (1, 1, 1, 0)

    def test_simplex_symmetry(self):
        p = kkt.KktProblem(dim=2, m=1, n=1, target=np.array([-1.0, 1.0, 1.0]))
        s = kkt.solve(p)
        assert abs(s.q.coeffs[0]) < 1e-12
        assert s.q.coeffs[1] == pytest.approx(s.q.coeffs[2], abs=1e-12)
        oracle = penalty_solve(p)
        assert np.max(np.abs(s.q.coeffs - oracle)) < 1e-5


class TestVerify:
    def test_fixture_residuals(self):
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]))
        s = kkt.solve(p)
        d = kkt.verify_kkt(p, s, 1e-12)
        assert d.passed
        assert d.stationarity_inf <= 1e-12
        assert d.max_slack <= 1e-12

    def test_perturbation_is_detected(self):
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]))
        s = kkt.solve(p)
        bad_q = bn.poly(np.asarray(s.q.coeffs) + 1e-3)
        bad = kkt.KktSolution(
            q=bad_q,
            mu=s.mu,
            nu=s.nu,
            active_set=s.active_set,
            elevated=s.elevated,
            subsets_examined=0,
            systems_solved=0,
            candidates_reconstructed=0,
            rank_skips=0,
        )
        d = kkt.verify_kkt(p, bad, 1e-9)
        assert not d.passed
        assert d.stationarity_inf > 1e-4

    def test_negative_multiplier_flagged(self):
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]))
        s = kkt.solve(p)
        bad = kkt.KktSolution(
            q=s.q,
            mu=np.array([-1e-3, 0.0]),
            nu=s.nu,
            active_set=s.active_set,
            elevated=s.elevated,
            subsets_examined=0,
            systems_solved=0,
            candidates_reconstructed=0,
            rank_skips=0,
        )
        d = kkt.verify_kkt(p, bad, 1e-9)
        assert d.min_mu == -1e-3
        assert not d.passed


class TestSubsetIterator:
    def test_two(self):
        assert list(oracles.subset_iterator(2)) == [(), (0,), (1,), (0, 1)]

    def test_three_counts(self):
        subs = list(oracles.subset_iterator(3))
        assert len(subs) == 8
        assert subs[0] == ()

    def test_ten_unique(self):
        subs = list(oracles.subset_iterator(10))
        assert len(subs) == 1024
        assert len(set(subs)) == 1024
        sizes = [len(s) for s in subs]
        assert sizes == sorted(sizes)

    def test_guard(self):
        with pytest.raises(oracles.IntractableProblemError):
            next(oracles.subset_iterator(23))


class TestGuards:
    def test_past_the_enumeration_budget(self):
        # m = 12, n = 22: 23 constraints, one over the enumerator's budget
        for ident in ("f0", "f1", "f2", "f2alt", "f3"):
            target = approx.project(approx.get_function(ident), 12).coeffs
            for delta in (0, 1):
                p = kkt.KktProblem(dim=1, m=12, n=22, target=target, delta=delta)
                assert kkt.verify_kkt(p, kkt.solve(p), 1e-9).passed, (ident, delta)
                assert p.num_constraints == oracles.MAX_SUBSET_BITS + 1

    def test_infeasible_mass_constraint(self):
        # negative target integral with delta=1 has no feasible point
        p = kkt.KktProblem(dim=1, m=0, n=2, target=np.array([-1.0]), delta=1)
        with pytest.raises(kkt.NoFeasibleSubsetError):
            kkt.solve(p)


def slow_nnls_instance():
    """d = 1, m = n = 10: NNLS needs 34 iterations, one over scipy's 3 per
    constraint.  The target is the 11th uniform(-1, 1, m+1) draw of
    default_rng(7) over m = 0..10."""
    rng = np.random.default_rng(7)
    for m in range(11):
        target = rng.uniform(-1, 1, m + 1)
    return kkt.KktProblem(dim=1, m=10, n=10, target=target)


class TestNnlsIterationLimit:
    def test_slow_instance_matches_enumerator(self):
        prob = slow_nnls_instance()
        assert prob.target[:2] == pytest.approx([-0.69960054, 0.63267621], abs=1e-8)
        sol = kkt.solve(prob)
        assert sol.active_set == (0, 1, 2, 5, 6, 7, 8, 9, 10)
        assert sol.active_set == oracles.enumerate_solve(prob).active_set
        assert kkt.verify_kkt(prob, sol, 1e-9).passed

    def test_active_set_is_sorted_python_ints(self):
        # the support of NNLS's u, in increasing order, as plain ints, and
        # the support of mu; v and mu satisfy the stationarity 2 v = G^T mu
        # bit for bit
        problems = [slow_nnls_instance()]
        for dim, m, n in [(1, 8, 8), (1, 8, 18), (2, 4, 4), (2, 4, 6)]:
            f = approx.get_function("f2" if dim == 1 else "g2")
            target = approx.project(f, m).coeffs - 0.1
            problems += [kkt.KktProblem(dim=dim, m=m, n=n, target=target, delta=d) for d in (0, 1)]
        for prob in problems:
            G = sx.simplex_spectral_factors(prob.dim, prob.m, prob.n)[:, prob.delta :]
            ep = sx.simplex_elevation(prob.dim, prob.m, prob.n) @ prob.target
            J, v, mu = kkt._least_distance(prob, G, ep)
            assert type(J) is tuple and J
            assert all(type(j) is int for j in J)
            assert list(J) == sorted(set(J))
            assert J == tuple(mu.nonzero()[0]) == kkt.solve(prob).active_set
            assert mu.shape == (prob.num_constraints,) and mu.min() >= 0.0
            assert np.array_equal(2.0 * v, G.T @ mu)

    def test_limit_reached_is_typed(self, monkeypatch):
        monkeypatch.setattr(kkt, "NNLS_ITERATIONS", 3)
        with pytest.raises(kkt.NoFeasibleSubsetError, match="NNLS stopped"):
            kkt.solve(slow_nnls_instance())


class TestAgainstOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            prob = random_instance(rng)
            sol = kkt.solve(prob)
            oracle = penalty_solve(prob)
            assert np.max(np.abs(sol.q.coeffs - oracle)) < 1e-5
            assert kkt.verify_kkt(prob, sol, 1e-9).passed


class TestOptimalityProperties:
    def test_objective_dominance(self):
        rng = np.random.default_rng(7)
        prob = kkt.KktProblem(dim=1, m=3, n=6, target=rng.uniform(-1, 1, 4))
        sol = kkt.solve(prob)
        best = kkt.objective(prob, sol.q.coeffs)
        E = sx.simplex_elevation(1, 3, 6)
        tried = 0
        while tried < 100:
            z = rng.uniform(0, 1, 7)
            q = np.linalg.lstsq(E, z, rcond=None)[0]
            if (E @ q).min() >= 0:
                tried += 1
                assert best <= kkt.objective(prob, q) + 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            prob = random_instance(rng, delta=0)
            sol = kkt.solve(prob)
            again = kkt.solve(
                kkt.KktProblem(
                    dim=prob.dim, m=prob.m, n=prob.n, target=sol.q.coeffs, delta=0
                )
            )
            assert again.active_set == ()
            assert np.max(np.abs(again.q.coeffs - sol.q.coeffs)) < 1e-10

    def test_monotone_in_elevation(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            t = rng.uniform(-1, 1, 4)
            costs = []
            for n in (3, 4, 5, 6):
                prob = kkt.KktProblem(dim=1, m=3, n=n, target=t)
                sol = kkt.solve(prob)
                costs.append(kkt.objective(prob, sol.q.coeffs))
            for lo, hi in zip(costs[1:], costs[:-1]):
                assert lo <= hi + 1e-12

    def test_early_termination_soundness(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            m = int(rng.integers(0, 3))
            n = int(rng.integers(m, 5))
            prob = kkt.KktProblem(dim=1, m=m, n=n, target=rng.uniform(-1, 1, m + 1))
            first = oracles.enumerate_solve(prob)
            accepted = oracles.accepted_subsets(prob)
            assert accepted[0][0] == first.active_set
            E = sx.simplex_elevation(1, m, n)
            for J, y in accepted:
                q = np.linalg.lstsq(E, y, rcond=None)[0]
                assert np.max(np.abs(q - first.q.coeffs)) < 1e-9

    def test_rank_guard_never_trips_without_duplicates(self):
        # at n = m every principal submatrix of W is positive definite
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = int(rng.integers(1, 5))
            prob = kkt.KktProblem(dim=1, m=m, n=m, target=rng.uniform(-1, 1, m + 1))
            sol = oracles.enumerate_solve(prob, exhaustive=True)
            assert sol.rank_skips == 0

    def test_zero_block_is_rank_deficient(self):
        # W_jj - d!/2 == 0: the enumerator's rank guard skips the block
        # rather than solving a system with no pivot
        prob = kkt.KktProblem(dim=1, m=0, n=0, target=np.array([1.0]), delta=1)
        system = types.SimpleNamespace(W=np.full((1, 1), 0.5), c_delta=0.5)
        counters = oracles._counters()
        chunk = np.array([[0]], dtype=np.intp)
        assert list(oracles._accepted(system, prob, np.array([-1.0]), chunk, counters)) == []
        assert counters == dict(subsets=1, solved=0, reconstructed=0, rank_skips=1)

    def test_subset_counters_reported(self):
        # an infeasible target: the empty set, then the NNLS set
        prob = kkt.KktProblem(dim=1, m=1, n=2, target=np.array([-1.0, 1.0]))
        sol = kkt.solve(prob)
        assert sol.active_set != ()
        counts = (sol.subsets_examined, sol.systems_solved, sol.candidates_reconstructed, sol.rank_skips)
        assert counts == (2, 2, 2, 0)


class TestRefusals:
    """solve refuses a wrong NNLS solution u, naming the check it fails."""

    # the true set is (0, 2); NNLS's u is positive at both ends alone
    TARGET = np.array([-1.0, 2.0, -1.0])

    def refusal(self, monkeypatch, prob, wrong):
        """solve's refusal when NNLS returns wrong(u) in place of its u."""
        nnls = kkt.optimize.nnls

        def call(*args, **kwargs):
            u, rnorm = nnls(*args, **kwargs)
            assert u.nonzero()[0].tolist() == [0, 2]
            return wrong(u.copy()), rnorm

        monkeypatch.setattr(kkt.optimize, "nnls", call)
        with pytest.raises(kkt.NoFeasibleSubsetError) as err:
            kkt.solve(prob)
        return str(err.value)

    @staticmethod
    def entry(i, value):
        """u with entry i replaced by value."""

        def wrong(u):
            u[i] = value
            return u

        return wrong

    @pytest.mark.parametrize("delta", [0, 1])
    def test_dual_check(self, monkeypatch, delta):
        # a negative weight on the middle constraint, which NNLS never gives:
        # mu_1 < 0
        prob = kkt.KktProblem(dim=1, m=2, n=2, target=self.TARGET, delta=delta)
        assert kkt.solve(prob).active_set == (0, 2)
        refused = self.refusal(monkeypatch, prob, self.entry(1, -0.01))
        assert "dual check" in refused and "(0, 1, 2)" in refused

    @pytest.mark.parametrize("delta", [0, 1])
    def test_primal_check(self, monkeypatch, delta):
        # half the true set leaves the other end's elevated value negative
        prob = kkt.KktProblem(dim=1, m=2, n=2, target=self.TARGET, delta=delta)
        refused = self.refusal(monkeypatch, prob, self.entry(2, 0.0))
        assert "primal check" in refused and "(0,)" in refused

    @pytest.mark.parametrize("delta", [0, 1])
    @pytest.mark.parametrize("stage,check", [("solve", "dual check")])
    def test_nan_is_refused(self, monkeypatch, delta, stage, check):
        # a NaN in the NNLS solve's u passes the infeasibility test and fails
        # the dual check, though NaN compares false both ways
        prob = kkt.KktProblem(dim=1, m=2, n=2, target=self.TARGET, delta=delta)
        assert check in self.refusal(monkeypatch, prob, self.entry(0, np.nan))


class TestIdentityElevation:
    """At n = m, E is the identity: solve and verify_kkt never build it."""

    @pytest.fixture
    def elevations(self, monkeypatch):
        """The arguments of every simplex_elevation call."""
        calls = []
        build = sx.simplex_elevation

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(sx, "simplex_elevation", counted)
        return calls

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0, 1])
    @pytest.mark.parametrize("low", [0.1, -0.5], ids=["feasible", "nnls"])
    def test_no_elevation_is_built(self, elevations, dim, delta, low):
        m = 3
        prob = kkt.KktProblem(dim=dim, m=m, n=m, target=np.linspace(low, 1.0, math.comb(dim + m, dim)), delta=delta)
        sol = kkt.solve(prob)
        diag = kkt.verify_kkt(prob, sol, 1e-9)
        assert elevations == []
        assert (sol.active_set == ()) == (low > 0)
        assert diag.passed
        # the residuals of the explicit identity, bit for bit
        E = np.eye(prob.num_constraints)
        M = sx.simplex_mass_matrix(dim, m)
        stat = 2.0 * M @ (sol.q.coeffs - prob.target) - E.T @ sol.mu
        if delta:
            stat -= sol.nu * math.factorial(m) / math.factorial(m + dim)
        assert diag.stationarity_inf == np.abs(stat).max()
        assert diag.min_elevated == (E @ sol.q.coeffs).min()

    @pytest.mark.parametrize("delta", [0, 1])
    def test_refusals_name_their_check(self, elevations, monkeypatch, delta):
        refusals = TestRefusals()
        prob = kkt.KktProblem(dim=1, m=2, n=2, target=refusals.TARGET, delta=delta)
        with monkeypatch.context() as patch:
            assert "dual check" in refusals.refusal(patch, prob, refusals.entry(1, -0.01))
        with monkeypatch.context() as patch:
            assert "primal check" in refusals.refusal(patch, prob, refusals.entry(2, 0.0))
        assert elevations == []


def reference_solution(prob, J):
    """q solving the KKT system of the active set J in 60-digit arithmetic:
    2 M (q - p) = E_J^T mu_J + nu 1, (E q)_J = 0 and, with delta = 1,
    sum(q) = sum(p), from the exact interval mass and elevation matrices."""
    import mpmath

    with mpmath.workdps(60):
        def mp(entries):
            return mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in entries])

        M = mp(exact.mass(prob.m))
        E = mp(exact.elevation(prob.m, prob.n))
        p = mpmath.matrix([mpmath.mpf(float(x)) for x in prob.target])
        N, k = prob.m + 1, len(J)
        size = N + k + prob.delta
        A = mpmath.zeros(size, size)
        rhs = mpmath.zeros(size, 1)
        A[:N, :N] = 2 * M
        rhs[:N, 0] = 2 * M * p
        for r, j in enumerate(J):
            for i in range(N):
                A[i, N + r] = -E[j, i]
                A[N + r, i] = E[j, i]
        if prob.delta:
            for i in range(N):
                A[i, N + k] = -1
                A[N + k, i] = 1
            rhs[N + k] = sum(p)
        x = mpmath.lu_solve(A, rhs)
        return np.array([float(x[i]) for i in range(N)])


class TestAccuracy:
    @pytest.mark.parametrize("ident", ["f0", "f1", "f2", "f2alt", "f3"])
    def test_against_60_digits_on_the_same_set(self, ident):
        # the answer read off NNLS stays within 4.1e-11 of the exact KKT
        # solution of its own active set at the top of the 1-D range, at
        # n = m and on the elevated path n = m + 10
        f = approx.get_function(ident)
        for m in (11, 12):
            p = approx.project(f, m).coeffs
            for n in (m, m + 10):
                for delta in (0, 1):
                    prob = kkt.KktProblem(dim=1, m=m, n=n, target=p, delta=delta)
                    sol = kkt.solve(prob)
                    ref = reference_solution(prob, sol.active_set)
                    assert np.max(np.abs(sol.q.coeffs - ref)) <= 4.1e-11, (m, n, delta)


# every property below runs on the same instances, drawn from fixed seeds so
# they do not depend on which other tests are collected
PROPERTY_SEEDS = range(60)


def instances(nonnegative=False):
    """Instances small enough for the enumerator, with n > m allowed.

    About one target coefficient in ten is exactly zero, so elevated values
    on the constraint boundary come up.  Mass-preserving targets get a
    positive mean, since a negative target integral makes the constraint
    set empty.
    """
    out = []
    for seed in PROPERTY_SEEDS:
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 3))
        m = int(rng.integers(0, 7 if d == 1 else 4))
        n = int(rng.integers(m, m + 7 if d == 1 else 5))
        delta = int(rng.integers(0, 2))
        t = rng.uniform(0.0 if nonnegative else -1.0, 1.0, math.comb(d + m, d))
        t[rng.random(t.shape) < 0.1] = 0.0
        if delta and t.mean() < 0.05:
            t = t + (0.05 - t.mean())
        out.append(kkt.KktProblem(dim=d, m=m, n=n, target=t, delta=delta))
    return out


class TestAgainstEnumerator:
    def test_same_polynomial_and_kkt_residuals(self):
        for prob in instances():
            sol = kkt.solve(prob)
            ref = oracles.enumerate_solve(prob)
            assert np.max(np.abs(sol.q.coeffs - ref.q.coeffs)) <= 1e-9
            assert kkt.verify_kkt(prob, sol, 1e-9).passed

    def test_positive_scaling(self):
        rng = np.random.default_rng(0)
        for prob in instances():
            c = 10.0 ** rng.uniform(-3.0, 3.0)
            scaled = kkt.KktProblem(
                dim=prob.dim, m=prob.m, n=prob.n, target=c * prob.target, delta=prob.delta
            )
            got = kkt.solve(scaled).q.coeffs
            want = c * kkt.solve(prob).q.coeffs
            # feasibility is tested against the absolute PRIMAL_TOL, so an
            # elevated value inside that band at one scale and outside it at
            # the other moves the answer by about PRIMAL_TOL
            assert np.max(np.abs(got - want)) <= 1e-9 * c + 10 * kkt.PRIMAL_TOL

    def test_feasible_target_returns_itself(self):
        for prob in instances(nonnegative=True):
            sol = kkt.solve(prob)
            assert sol.active_set == ()
            assert np.array_equal(sol.q.coeffs, prob.target)
            assert not sol.mu.any()

    def test_cost_nonincreasing_in_n(self):
        for prob in instances():
            top = prob.n + (4 if prob.dim == 1 else 1)
            costs = []
            for n in range(prob.m, top + 1):
                p = kkt.KktProblem(
                    dim=prob.dim, m=prob.m, n=n, target=prob.target, delta=prob.delta
                )
                costs.append(kkt.objective(p, kkt.solve(p).q.coeffs))
            for lo, hi in zip(costs[1:], costs[:-1]):
                assert lo <= hi + 1e-12

    def test_budget_edge_is_fast(self):
        # 22 constraints: the enumerator needs about 16 s here
        rng = np.random.default_rng(12)
        prob = kkt.KktProblem(dim=1, m=12, n=21, target=rng.uniform(-1, 1, 13))
        assert prob.num_constraints == oracles.MAX_SUBSET_BITS
        start = time.perf_counter()
        sol = kkt.solve(prob)
        assert time.perf_counter() - start < 1.0
        assert kkt.verify_kkt(prob, sol, 1e-9).passed
        assert sol.subsets_examined == 2


class TestInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(ValueError):
            kkt.KktProblem(dim=1, m=1, n=1, target=np.array([bad, 1.0]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cached_basis_matrices_are_read_only(self, dim):
        # the four basis caches kkt reads: one array per call, never writable
        for cached, args in (
            (sx.simplex_elevation, (dim, 2, 3)),
            (sx.simplex_mass_matrix, (dim, 2)),
            (sx.orthogonal_complement_basis, (dim, 2)),
            (sx.simplex_spectral_factors, (dim, 2, 3)),
        ):
            a = cached(*args)
            assert a is cached(*args)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0


class TestBasisReads:
    """Each function reads only the basis matrices it uses."""

    UNREAD = (sx.orthogonal_complement_basis, sx.simplex_spectral_factors, sx.simplex_elevation)

    def _misses(self, call, caches):
        for cache in caches:
            cache.cache_clear()
        call()
        return {c.__name__: c.cache_info().misses for c in caches}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_objective_reads_the_mass_matrix_alone(self, dim):
        prob = kkt.KktProblem(dim=dim, m=2, n=4, target=np.linspace(-1.0, 1.0, 3 * dim))
        q = np.ones(3 * dim)
        misses = self._misses(lambda: kkt.objective(prob, q), self.UNREAD)
        assert misses == dict.fromkeys(misses, 0)

    def test_verify_kkt_reads_no_orthonormal_basis(self):
        prob = kkt.KktProblem(dim=2, m=2, n=3, target=np.linspace(-1.0, 1.0, 6), delta=1)
        sol = kkt.solve(prob)
        misses = self._misses(lambda: kkt.verify_kkt(prob, sol, 1e-9), self.UNREAD)
        assert misses == dict(
            orthogonal_complement_basis=0, simplex_spectral_factors=0, simplex_elevation=1
        )

