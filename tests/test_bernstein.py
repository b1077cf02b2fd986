import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernfit import bernstein as bn
from bernfit import simplex as sx


def gauss_integral(fn, npts=60):
    """Independent quadrature oracle on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    xs = 0.5 * (x + 1.0)
    return float(0.5 * w @ fn(xs))


def bernstein_direct(i, n, x):
    return math.comb(n, i) * x**i * (1.0 - x) ** (n - i)


class TestEvaluate:
    def test_partition_of_unity(self):
        assert bn.evaluate(bn.poly([1, 1, 1]), 0.37) == pytest.approx(1.0, abs=1e-15)

    def test_linear(self):
        assert bn.evaluate(bn.poly([0, 1]), 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_legendre_normalized_at_one(self):
        assert bn.evaluate(bn.poly([1, -2, 1]), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for m in (0, 1, 4, 9):
            c = rng.uniform(-2, 2, m + 1)
            xs = rng.uniform(-0.5, 1.5, 20)
            direct = sum(c[i] * bernstein_direct(i, m, xs) for i in range(m + 1))
            assert np.allclose(bn.evaluate(bn.poly(c), xs), direct, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=9),
        st.floats(0.0, 1.0),
    )
    def test_convex_hull_property(self, coeffs, x):
        val = bn.evaluate(bn.poly(coeffs), x)
        assert min(coeffs) - 1e-12 <= val <= max(coeffs) + 1e-12

    def test_chebyshev_roundtrip(self):
        # fit at m+1 Chebyshev points and recover the coefficients
        rng = np.random.default_rng(1)
        for m in (3, 10, 20):
            c = rng.uniform(-1, 1, m + 1)
            xs = 0.5 * (1 + np.cos(np.pi * (np.arange(m + 1) + 0.5) / (m + 1)))
            V = np.array(
                [[bernstein_direct(i, m, x) for i in range(m + 1)] for x in xs]
            )
            vals = bn.evaluate(bn.poly(c), xs)
            refit = np.linalg.solve(V, vals)
            assert np.max(np.abs(refit - c)) < 1e-10


class TestElevation:
    def test_one_to_two(self):
        E = bn.elevation_matrix(1, 2)
        assert np.allclose(E, [[1, 0], [0.5, 0.5], [0, 1]], atol=1e-15)

    def test_identity(self):
        assert np.allclose(bn.elevation_matrix(4, 4), np.eye(5), atol=1e-15)

    def test_constant_column(self):
        E = bn.elevation_matrix(0, 3)
        assert np.allclose(E, np.ones((4, 1)), atol=1e-15)

    def test_rejects_downgrade(self):
        with pytest.raises(ValueError):
            bn.elevation_matrix(3, 2)

    @pytest.mark.parametrize("m,n", [(0, 4), (2, 3), (3, 8), (5, 5)])
    def test_structure(self, m, n):
        E = bn.elevation_matrix(m, n)
        assert np.all(E >= 0)
        assert np.allclose(E.sum(axis=1), 1.0, atol=1e-14)
        for i in range(n + 1):
            for j in range(m + 1):
                if j > i or i - j > n - m:
                    assert E[i, j] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_elevation_preserves_values(self, data):
        m = data.draw(st.integers(0, 10))
        n = data.draw(st.integers(m, 12))
        coeffs = data.draw(
            st.lists(st.floats(-3, 3), min_size=m + 1, max_size=m + 1)
        )
        x = data.draw(st.floats(0, 1))
        p = bn.poly(coeffs)
        elevated = bn.PolyCoeffs(n, bn.elevation_matrix(m, n) @ p.coeffs)
        assert bn.evaluate(elevated, x) == pytest.approx(
            bn.evaluate(p, x), abs=1e-12
        )


class TestMassMatrix:
    def test_matrices_are_read_only(self):
        for M in (bn.mass_matrix(3), bn.elevation_matrix(2, 4)):
            with pytest.raises(ValueError):
                M[0, 0] = 5.0

    def test_degree_one(self):
        M = bn.mass_matrix(1)
        assert np.allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-16)

    def test_degree_zero(self):
        assert np.allclose(bn.mass_matrix(0), [[1.0]])

    def test_corner_entry_against_quadrature(self):
        # int B^2_0 B^2_2 = int x^2 (1-x)^2
        oracle = gauss_integral(lambda x: x**2 * (1 - x) ** 2)
        assert bn.mass_matrix(2)[0, 2] == pytest.approx(oracle, abs=1e-15)
        assert oracle == pytest.approx(1 / 30, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_row_sums_and_symmetry(self, n):
        M = bn.mass_matrix(n)
        assert np.allclose(M, M.T, atol=1e-16)
        assert np.all(M > 0)
        assert np.allclose(M.sum(axis=1), 1.0 / (n + 1), atol=1e-14)

    def test_log_space_path(self):
        # n = 35 forces the log-gamma branch; compare a few entries against
        # the quadrature oracle
        n = 35
        M = bn.mass_matrix(n)
        for i, j in [(0, 0), (3, 17), (20, 35)]:
            oracle = gauss_integral(
                lambda x: bernstein_direct(i, n, x) * bernstein_direct(j, n, x),
                npts=80,
            )
            assert M[i, j] == pytest.approx(oracle, rel=1e-10)

    def test_mass_reduction_identity(self):
        for n in range(0, 11):
            Mn = bn.mass_matrix(n)
            for m in range(0, n + 1):
                E = bn.elevation_matrix(m, n)
                assert (
                    np.max(np.abs(E.T @ Mn @ E - bn.mass_matrix(m))) < 1e-12
                )


class TestLegendre:
    def test_constant(self):
        assert np.allclose(bn.legendre_bernstein_coeffs(0).coeffs, [1.0])

    def test_degree_two(self):
        assert np.allclose(bn.legendre_bernstein_coeffs(2).coeffs, [1, -2, 1])

    def test_degree_three_orthogonality(self):
        assert np.allclose(bn.legendre_bernstein_coeffs(3).coeffs, [-1, 3, -3, 1])
        p = bn.legendre_bernstein_coeffs(3)
        for k in range(3):
            val = gauss_integral(lambda x: bn.evaluate(p, x) * x**k)
            assert abs(val) < 1e-14

    def test_norm(self):
        for j in (0, 1, 2, 5):
            p = bn.legendre_bernstein_coeffs(j)
            norm2 = p.coeffs @ bn.mass_matrix(j) @ p.coeffs
            assert norm2 == pytest.approx(1 / (2 * j + 1), abs=1e-13)


class TestSpectralFactors:
    def test_eigenvalues_1_1(self):
        # oracle: symmetric eigensolve of the 2x2 mass matrix
        oracle = np.sort(np.linalg.eigvalsh(bn.mass_matrix(1)))[::-1]
        S = bn.spectral_factors(1, 1)
        assert np.allclose(S.eigenvalues, oracle, atol=1e-15)
        assert np.allclose(S.eigenvalues, [0.5, 1 / 6], atol=1e-15)

    def test_trivial(self):
        S = bn.spectral_factors(0, 0)
        assert np.allclose(S.U, [[1.0]])
        assert np.allclose(S.W, [[0.5]])

    def test_u_columns_1_2(self):
        S = bn.spectral_factors(1, 2)
        assert np.allclose(S.U[:, 0], [1, 1, 1], atol=1e-15)
        assert np.allclose(S.U[:, 1], math.sqrt(3) * np.array([-1, 0, 1]), atol=1e-14)

    def test_eigenvalue_formula(self):
        lam = bn.mass_eigenvalues(6)
        for j in range(7):
            direct = (
                math.factorial(6) ** 2
                / math.factorial(6 + j + 1)
                / math.factorial(6 - j)
            )
            assert lam[j] == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_reconstruction_and_orthogonality(self, n):
        S = bn.spectral_factors(n, n)
        M = bn.mass_matrix(n)
        Q = S.Q
        assert np.max(np.abs(Q @ np.diag(S.eigenvalues) @ Q.T - M)) < 1e-10
        assert np.max(np.abs(Q.T @ Q - np.eye(n + 1))) < 1e-10

    def test_u_matches_dense_elevation(self):
        for m, n in [(0, 3), (2, 6), (4, 9)]:
            S = bn.spectral_factors(m, n)
            for j in range(m + 1):
                col = (
                    math.sqrt(2 * j + 1)
                    * bn.elevation_matrix(j, n)
                    @ bn.legendre_bernstein_coeffs(j).coeffs
                )
                assert np.max(np.abs(S.U[:, j] - col)) < 1e-12

    def test_w_spectrum(self):
        for m in range(0, 11):
            for n in range(m, 11):
                S = bn.spectral_factors(m, n)
                ev = np.sort(np.linalg.eigvalsh(S.W))
                zeros, nonzeros = ev[: n - m], ev[n - m :]
                expected = np.sort(1.0 / (2.0 * S.eigenvalues))
                rel = np.abs(nonzeros - expected) / np.maximum(1.0, expected)
                assert np.max(rel) < 1e-9
                if len(zeros):
                    assert np.max(np.abs(zeros)) < 1e-9 * max(1.0, expected.max())

    def test_elevated_inverse_identity(self):
        for n in range(0, 11):
            for m in range(0, n + 1):
                E = bn.elevation_matrix(m, n)
                Smm = bn.spectral_factors(m, m)
                Minv = Smm.U @ Smm.U.T  # inverse via the factors themselves
                S = bn.spectral_factors(m, n)
                assert np.max(np.abs(E @ Minv @ E.T - S.U @ S.U.T)) < 1e-9

    def test_ete_eigenrelation(self):
        for n in range(0, 11):
            lam_n = bn.mass_eigenvalues(n)
            for m in range(0, n + 1):
                E = bn.elevation_matrix(m, n)
                lam_m = bn.mass_eigenvalues(m)
                for j in range(m + 1):
                    v = bn.elevation_matrix(j, m) @ bn.legendre_bernstein_coeffs(j).coeffs
                    resid = E.T @ (E @ v) - (lam_m[j] / lam_n[j]) * v
                    assert np.max(np.abs(resid)) < 1e-10


class TestDowngrade:
    def test_invert_elevation(self):
        q = sx.simplex_downgrade(1, 1, 2, [0, 0.5, 1]).coeffs
        assert np.allclose(q, [0, 1], atol=1e-12)

    def test_identity_when_equal(self):
        y = np.array([0.3, -1.2, 0.5])
        assert np.allclose(sx.simplex_downgrade(1, 2, 2, y).coeffs, y, atol=1e-13)

    def test_normal_equations_oracle(self):
        q = sx.simplex_downgrade(1, 0, 1, [0, 1]).coeffs
        assert np.allclose(q, [0.5], atol=1e-15)
        rng = np.random.default_rng(3)
        for m, n in [(0, 1), (2, 5), (4, 9)]:
            y = rng.uniform(-1, 1, n + 1)
            E = bn.elevation_matrix(m, n)
            oracle = np.linalg.lstsq(E, y, rcond=None)[0]
            q = sx.simplex_downgrade(1, m, n, y).coeffs
            assert np.max(np.abs(q - oracle)) < 1e-10

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        for m, n in [(0, 6), (3, 5), (5, 12)]:
            c = rng.uniform(-1, 1, m + 1)
            y = bn.elevation_matrix(m, n) @ c
            back = sx.simplex_downgrade(1, m, n, y).coeffs
            assert np.max(np.abs(bn.elevation_matrix(m, n) @ back - y)) < 1e-10


class TestPolyCoeffs:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            bn.PolyCoeffs(degree=2, coeffs=np.zeros(2))

    def test_immutable(self):
        p = bn.poly([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0
