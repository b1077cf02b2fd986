"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion together with its wall time.
"""

import math
import time

import numpy as np

import exact
from bernfit import approx, cone, kkt, oracles
from bernfit import simplex as sx
from bernfit.cli import main as cli_main


def report(num, desc, fn, budget=None):
    t0 = time.perf_counter()
    try:
        fn()
    except Exception:
        print(f"ACCEPTANCE {num:>2} [{desc}]: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:>2} [{desc}]: PASS ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_structural_identities():
    def check():
        # the interval as the d = 1 simplex, against exact integer references
        assert np.allclose(
            sx.simplex_mass_matrix(1, 1), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15
        )
        for n in range(0, 11):
            Mn = sx.simplex_mass_matrix(1, n)
            assert np.max(np.abs(Mn - exact.to_float(exact.mass(n)))) < 1e-15
            U = sx.simplex_spectral_factors(1, n, n)
            lam, _ = exact.mass_eigenvalues(1, n)
            assert np.max(np.abs(lam - exact.to_float(exact.eigenvalues(n)))) < 1e-15
            Q = U * np.sqrt(lam)
            assert np.max(np.abs(Q @ np.diag(lam) @ Q.T - Mn)) < 1e-10
            lam_n = exact.eigenvalues(n)
            for m in range(0, n + 1):
                E = sx.simplex_elevation(1, m, n)
                assert np.array_equal(E, exact.to_float(exact.elevation(m, n)))
                assert np.max(np.abs(E.T @ Mn @ E - exact.to_float(exact.mass(m)))) < 1e-12
                lam_m = exact.eigenvalues(m)
                for j in range(m + 1):
                    v = exact.to_float(exact.elevate(exact.legendre(j), m))
                    resid = E.T @ (E @ v) - float(lam_m[j] / lam_n[j]) * v
                    assert np.max(np.abs(resid)) < 1e-10

    report(1, "structural identities", check, budget=5.0)


def test_criterion_02_w_spectrum():
    def check():
        for n in range(0, 11):
            for m in range(0, n + 1):
                # W = U U^T / 2 has rank m + 1 and the nonzero spectrum of
                # U^T U / 2, which is diag(1 / (2 lam^n)) exactly
                U = sx.simplex_spectral_factors(1, m, n)
                expected = 1.0 / exact.to_float(exact.eigenvalues(n)[: m + 1])
                # 1e-9 read as a relative tolerance: the largest of these
                # entries is ~4e6, far beyond absolute 1e-9 resolution
                scale = np.maximum(1.0, np.sqrt(np.outer(expected, expected)))
                assert np.max(np.abs(U.T @ U - np.diag(expected)) / scale) < 1e-9

    report(2, "W spectrum", check, budget=5.0)


def test_criterion_03_kkt_versus_oracle():
    def check():
        # m <= 4, n <= m+3, d in {1,2}, delta in {0,1}; the simplex draws
        # respect the enumeration guard (n <= 5 at d=2), and mass-preserving
        # targets are shifted to a nonnegative mean so the constraint set is
        # nonempty.
        rng = np.random.default_rng(20240801)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            m = int(rng.integers(0, 5))
            n = (
                int(rng.integers(m, m + 4))
                if d == 1
                else int(rng.integers(m, min(m + 3, 5) + 1))
            )
            delta = int(rng.integers(0, 2))
            t = rng.uniform(-1, 1, math.comb(d + m, d))
            if delta and t.mean() < 0.05:
                t = t + (0.05 - t.mean())
            prob = kkt.KktProblem(dim=d, m=m, n=n, target=t, delta=delta)
            sol = kkt.solve(prob)
            oracle = oracles.penalty_solve(prob)
            gap = np.max(np.abs(np.asarray(sol.q.coeffs) - oracle))
            assert gap <= 1e-5, (d, m, n, delta, gap)
            diag = kkt.verify_kkt(prob, sol, 1e-9)
            assert diag.passed, (d, m, n, delta, diag)

    report(3, "KKT vs penalty oracle, 50 instances", check, budget=120.0)


def test_criterion_04_closed_form_fixture():
    def check():
        p = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]))
        s = kkt.solve(p)
        assert np.max(np.abs(s.q.coeffs - [0.0, 0.5])) <= 1e-12
        assert np.max(np.abs(s.mu - [0.5, 0.0])) <= 1e-12
        peq = kkt.KktProblem(dim=1, m=1, n=1, target=np.array([-1.0, 1.0]), delta=1)
        seq = kkt.solve(peq)
        assert np.max(np.abs(seq.q.coeffs)) <= 1e-12
        target = sx.PolyCoeffs(peq.m, peq.target, peq.dim)
        assert abs(exact.integral(seq.q) - exact.integral(target)) <= 1e-12

    report(4, "closed-form fixture", check)


def test_criterion_05_simplex_eigenstructure():
    def check():
        for d in (1, 2, 3):
            for n in range(0, 5):
                M = sx.simplex_mass_matrix(d, n)
                lam, mult = exact.mass_eigenvalues(d, n)
                expected = np.sort(np.repeat(lam, mult))
                got = np.sort(np.linalg.eigvalsh(M))
                assert np.max(np.abs(expected - got)) < 1e-10
        lam21, mult21 = exact.mass_eigenvalues(2, 1)
        assert np.allclose(lam21, [1 / 6, 1 / 24]) and mult21.tolist() == [1, 2]

    report(5, "simplex mass eigenstructure", check, budget=30.0)


def test_criterion_06_f1_coincidence():
    def check():
        f = approx.get_function("f1")
        for m in range(2, 9):
            pr = approx.project(f, m)
            e_proj = approx.l2_error(f, pr)
            for n in (m, m + 10):
                sol = kkt.solve(kkt.KktProblem(dim=1, m=m, n=n, target=pr.coeffs))
                e_kkt = approx.l2_error(f, sol.q)
                assert abs(e_kkt - e_proj) <= 1e-9, (m, n, e_kkt, e_proj)

    report(6, "f1 constrained/unconstrained coincidence", check)


def test_criterion_07_cone_low_degree():
    def check():
        for ident in ("f1", "f2"):
            f = approx.get_function(ident)
            for m in range(0, 6):
                pr = approx.project(f, m)
                res = cone.solve_cone(pr)
                ref = kkt.solve(kkt.KktProblem(dim=1, m=m, n=m + 10, target=pr.coeffs))
                d_cone = kkt.objective(
                    kkt.KktProblem(dim=1, m=m, n=m, target=pr.coeffs), res.q.coeffs
                )
                d_kkt = kkt.objective(
                    kkt.KktProblem(dim=1, m=m, n=m + 10, target=pr.coeffs),
                    ref.q.coeffs,
                )
                # absolute 1e-18 slack covers the cases where both costs sit
                # at the floating-point floor (~1e-22)
                assert d_cone <= 1.05 * d_kkt + 1e-18, (ident, m, d_cone, d_kkt)
                assert exact.grid_min(res.q, 10_001) >= -1e-7, (ident, m)

    report(7, "cone tracks elevated active-set solve for m <= 5", check, budget=300.0)


def test_criterion_08_gradient_checks():
    def check():
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(0, 7))
            prob = kkt.KktProblem(dim=1, m=m, n=m, target=rng.uniform(-1, 1, m + 1))
            x = rng.uniform(-1, 1, m + 1)
            g_fd = oracles.finite_diff_gradient(lambda q: kkt.objective(prob, q), x)
            g_an = 2.0 * sx.simplex_mass_matrix(1, m) @ (x - prob.target)
            scale = max(np.max(np.abs(g_an)), 1e-12)
            assert np.max(np.abs(g_fd - g_an)) / scale < 1e-6
        m = 4
        sa, sb = cone._block_sizes(m)
        to_bernstein = 1.0 / np.array([math.comb(m, k) for k in range(m + 1)])
        M = sx.simplex_mass_matrix(1, m)
        target = rng.uniform(-1, 1, m + 1)
        z = rng.standard_normal(sa * sa + sb * sb)
        grad = cone._state(z, m, to_bernstein, M, target, sa, sb)[3]
        fd = oracles.finite_diff_gradient(
            lambda zz: cone._state(zz, m, to_bernstein, M, target, sa, sb)[1], z, h=1e-5
        )
        assert np.max(np.abs(fd - grad)) / max(np.max(np.abs(grad)), 1e-12) < 1e-5

    report(8, "analytic gradients match finite differences", check)


def test_criterion_09_elevation_nesting():
    def check():
        f = approx.get_function("f0")
        pr = approx.project(f, 4)
        previous = None
        for n in (4, 6, 8, 10, 14):
            prob = kkt.KktProblem(dim=1, m=4, n=n, target=pr.coeffs)
            cost = kkt.objective(prob, kkt.solve(prob).q.coeffs)
            if previous is not None:
                assert cost <= previous + 1e-12, (n, cost, previous)
            previous = cost

    report(9, "cost nonincreasing in elevation degree", check)


def test_criterion_10_cli_determinism_and_partial_failure(tmp_path):
    def check():
        args = [
            "--func", "f1",
            "--mmin", "0",
            "--mmax", "8",
            "--elevate", "0",
            "--elevate", "10",
            "--methods", "project,kkt",
            "--samples-degree", "5",
            "--out", None,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args[-1] = str(a)
        assert cli_main(list(args)) == 0
        args[-1] = str(b)
        assert cli_main(list(args)) == 0
        assert a.read_bytes() == b.read_bytes()
        sa = a.with_name("a_samples.csv").read_bytes()
        sb = b.with_name("b_samples.csv").read_bytes()
        assert sa == sb
        # bernstein is undefined at m = 0: it must yield a NaN cell and the
        # partial-failure exit code
        out = tmp_path / "bernstein.csv"
        rc = cli_main(["--func", "f2", "--mmin", "0", "--mmax", "1",
                       "--methods", "bernstein", "--out", str(out)])
        assert rc == 2
        first = out.read_text().strip().splitlines()[1]
        assert first.split(",")[1] == "nan"

    report(10, "CLI determinism and partial failure", check)
