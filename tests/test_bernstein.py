"""The interval as the d = 1 simplex, checked against exact integer references.

The basis layer has one implementation, in simplex.py; bernstein.py only
re-exports its names.  The references here come from exact.py, built from
fractions and binomials, never from the package.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from bernfit import bernstein as bn
from bernfit import simplex as sx


def gauss_integral(fn, npts=60):
    """Independent quadrature oracle on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    xs = 0.5 * (x + 1.0)
    return float(0.5 * w @ fn(xs))


def bernstein_direct(i, n, x):
    return math.comb(n, i) * x**i * (1.0 - x) ** (n - i)


def legendre_column(j, n=None):
    """(-1)^j sqrt(2j+1) times the shifted Legendre polynomial, elevated to
    degree n: the d = 1 complement block's convention."""
    coeffs = exact.legendre(j) if n is None else exact.elevate(exact.legendre(j), n)
    return (-1) ** j * math.sqrt(2 * j + 1) * exact.to_float(coeffs)


def de_casteljau(coeffs, x):
    """The univariate recurrence beta_i (1 - x) + beta_{i+1} x, written out."""
    beta = np.broadcast_to(coeffs, x.shape + (len(coeffs),)).copy()
    t = x[..., None]
    for _ in range(len(coeffs) - 1):
        beta = beta[..., :-1] * (1.0 - t) + beta[..., 1:] * t
    return beta[..., 0]


class TestEvaluate:
    def test_partition_of_unity(self):
        assert sx.simplex_evaluate(sx.poly([1, 1, 1]), 0.37) == pytest.approx(1.0, abs=1e-15)

    def test_linear(self):
        assert sx.simplex_evaluate(sx.poly([0, 1]), 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_legendre_normalized_at_one(self):
        p = sx.poly(exact.to_float(exact.legendre(2)))
        assert sx.simplex_evaluate(p, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for m in (0, 1, 4, 9):
            c = rng.uniform(-2, 2, m + 1)
            xs = rng.uniform(-0.5, 1.5, 20)
            direct = sum(c[i] * bernstein_direct(i, m, xs) for i in range(m + 1))
            assert np.allclose(sx.simplex_evaluate(sx.poly(c), xs), direct, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=9),
        st.floats(0.0, 1.0),
    )
    def test_convex_hull_property(self, coeffs, x):
        val = sx.simplex_evaluate(sx.poly(coeffs), x)
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
            vals = sx.simplex_evaluate(sx.poly(c), xs)
            refit = np.linalg.solve(V, vals)
            assert np.max(np.abs(refit - c)) < 1e-10

    def test_bits_of_the_univariate_recurrence(self):
        # the CLI's sample grid: every written digit, and the sign of every
        # zero, is the univariate recurrence's
        xs = np.linspace(0.0, 1.0, 512)
        rng = np.random.default_rng(6)
        for m in range(13):
            for c in (rng.uniform(-1, 1, m + 1), np.full(m + 1, -0.0)):
                got = bn.evaluate(bn.poly(c), xs)
                ref = de_casteljau(c, xs)
                assert got.shape == xs.shape
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert np.all(np.signbit(bn.evaluate(bn.poly([-0.0, -0.0]), xs)))
        assert math.copysign(1.0, bn.evaluate(bn.poly([-0.0]), 0.5)) == -1.0


class TestElevation:
    def test_one_to_two(self):
        E = sx.simplex_elevation(1, 1, 2)
        assert np.allclose(E, [[1, 0], [0.5, 0.5], [0, 1]], atol=1e-15)

    def test_identity(self):
        assert np.allclose(sx.simplex_elevation(1, 4, 4), np.eye(5), atol=1e-15)

    def test_constant_column(self):
        E = sx.simplex_elevation(1, 0, 3)
        assert np.allclose(E, np.ones((4, 1)), atol=1e-15)

    def test_rejects_downgrade(self):
        with pytest.raises(ValueError):
            sx.simplex_elevation(1, 3, 2)

    @pytest.mark.parametrize("m,n", [(0, 4), (2, 3), (3, 8), (5, 5)])
    def test_structure(self, m, n):
        E = sx.simplex_elevation(1, m, n)
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
        p = sx.poly(coeffs)
        elevated = sx.PolyCoeffs(n, sx.simplex_elevation(1, m, n) @ p.coeffs)
        assert sx.simplex_evaluate(elevated, x) == pytest.approx(
            sx.simplex_evaluate(p, x), abs=1e-12
        )


class TestMassMatrix:
    def test_matrices_are_read_only(self):
        for M in (sx.simplex_mass_matrix(1, 3), sx.simplex_elevation(1, 2, 4)):
            with pytest.raises(ValueError):
                M[0, 0] = 5.0

    def test_degree_one(self):
        M = sx.simplex_mass_matrix(1, 1)
        assert np.allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-16)

    def test_degree_zero(self):
        assert np.allclose(sx.simplex_mass_matrix(1, 0), [[1.0]])

    def test_corner_entry_against_quadrature(self):
        # int B^2_0 B^2_2 = int x^2 (1-x)^2
        oracle = gauss_integral(lambda x: x**2 * (1 - x) ** 2)
        assert sx.simplex_mass_matrix(1, 2)[0, 2] == pytest.approx(oracle, abs=1e-15)
        assert oracle == pytest.approx(1 / 30, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_row_sums_and_symmetry(self, n):
        M = sx.simplex_mass_matrix(1, n)
        assert np.allclose(M, M.T, atol=1e-16)
        assert np.all(M > 0)
        assert np.allclose(M.sum(axis=1), 1.0 / (n + 1), atol=1e-14)

    def test_log_space_path(self):
        # at n = 35 the scale (2n)!/(2n+1)! divides integers past 1e100;
        # the ratio is still the correctly rounded 1/71, and the entries
        # match the exact formula and the quadrature oracle
        n = 35
        assert sx._factorial_ratio((2 * n,), (2 * n + 1,)) == 1 / 71
        M = sx.simplex_mass_matrix(1, n)
        ref = exact.to_float(exact.mass(n))
        assert np.max(np.abs(M - ref) / ref) < 1e-12
        for i, j in [(0, 0), (3, 17), (20, 35)]:
            oracle = gauss_integral(
                lambda x: bernstein_direct(i, n, x) * bernstein_direct(j, n, x),
                npts=80,
            )
            assert M[i, j] == pytest.approx(oracle, rel=1e-10)

    def test_mass_reduction_identity(self):
        for n in range(0, 11):
            Mn = sx.simplex_mass_matrix(1, n)
            for m in range(0, n + 1):
                E = sx.simplex_elevation(1, m, n)
                ref = exact.to_float(exact.mass(m))
                assert np.max(np.abs(E.T @ Mn @ E - ref)) < 1e-12


class TestLegendre:
    # the d = 1 complement block of degree j, the last column of U^{j,j}, is
    # (-1)^j sqrt(2j+1) times the shifted Legendre polynomial
    def test_constant(self):
        assert np.array_equal(sx.orthogonal_complement_basis(1, 0), [[1.0]])

    def test_degree_two(self):
        L = sx.orthogonal_complement_basis(1, 2)[:, -1] / math.sqrt(5)
        assert np.allclose(L, [1, -2, 1])

    def test_degree_three_orthogonality(self):
        L = -sx.orthogonal_complement_basis(1, 3)[:, -1] / math.sqrt(7)
        assert np.allclose(L, exact.to_float(exact.legendre(3)))
        assert np.allclose(L, [-1, 3, -3, 1])
        p = sx.poly(L)
        for k in range(3):
            val = gauss_integral(lambda x: sx.simplex_evaluate(p, x) * x**k)
            assert abs(val) < 1e-14

    def test_norm(self):
        for j in (0, 1, 2, 5):
            L = sx.orthogonal_complement_basis(1, j)[:, -1]
            assert np.allclose(L, legendre_column(j), rtol=1e-13, atol=0)
            norm2 = L @ exact.to_float(exact.mass(j)) @ L
            assert norm2 == pytest.approx(1.0, abs=1e-13)


class TestSpectralFactors:
    def test_eigenvalues_1_1(self):
        # oracle: symmetric eigensolve of the 2x2 mass matrix
        oracle = np.sort(np.linalg.eigvalsh(exact.to_float(exact.mass(1))))[::-1]
        lam, _ = exact.mass_eigenvalues(1, 1)
        assert np.allclose(lam, oracle, atol=1e-15)
        assert np.allclose(lam, [0.5, 1 / 6], atol=1e-15)
        # each column of U^{1,1} is an eigenvector of M for its eigenvalue
        U = sx.simplex_spectral_factors(1, 1, 1)
        assert np.allclose(exact.to_float(exact.mass(1)) @ U, U * lam, atol=1e-15)

    def test_trivial(self):
        U = sx.simplex_spectral_factors(1, 0, 0)
        assert np.allclose(U, [[1.0]])
        # W = U U^T / 2
        assert np.allclose(0.5 * U @ U.T, [[0.5]])

    def test_u_columns_1_2(self):
        U = sx.simplex_spectral_factors(1, 1, 2)
        assert np.allclose(U[:, 0], [1, 1, 1], atol=1e-15)
        assert np.allclose(U[:, 1], math.sqrt(3) * np.array([1, 0, -1]), atol=1e-14)

    def test_eigenvalue_formula(self):
        lam, mult = exact.mass_eigenvalues(1, 6)
        assert mult.tolist() == [1] * 7
        assert np.allclose(lam, exact.to_float(exact.eigenvalues(6)), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_reconstruction_and_orthogonality(self, n):
        U = sx.simplex_spectral_factors(1, n, n)
        lam, _ = exact.mass_eigenvalues(1, n)
        M = exact.to_float(exact.mass(n))
        # the orthonormal eigenvectors: column j of U times sqrt(lam_j)
        Q = U * np.sqrt(lam)
        assert np.max(np.abs(Q @ np.diag(lam) @ Q.T - M)) < 1e-10
        assert np.max(np.abs(Q.T @ Q - np.eye(n + 1))) < 1e-10

    def test_u_matches_dense_elevation(self):
        for m, n in [(0, 3), (2, 6), (4, 9)]:
            U = sx.simplex_spectral_factors(1, m, n)
            for j in range(m + 1):
                assert np.max(np.abs(U[:, j] - legendre_column(j, n))) < 1e-12

    def test_w_spectrum(self):
        for m in range(0, 11):
            for n in range(m, 11):
                # W = U U^T / 2 has rank m + 1 and the nonzero spectrum of
                # U^T U / 2, which is diag(1 / (2 lam^n)) exactly
                U = sx.simplex_spectral_factors(1, m, n)
                expected = 1.0 / exact.to_float(exact.eigenvalues(n)[: m + 1])
                scale = np.maximum(1.0, np.sqrt(np.outer(expected, expected)))
                assert np.max(np.abs(U.T @ U - np.diag(expected)) / scale) < 1e-9

    def test_elevated_inverse_identity(self):
        for n in range(0, 11):
            for m in range(0, n + 1):
                E = exact.to_float(exact.elevation(m, n))
                Umm = sx.simplex_spectral_factors(1, m, m)
                Minv = Umm @ Umm.T  # inverse via the factors themselves
                U = sx.simplex_spectral_factors(1, m, n)
                assert np.max(np.abs(E @ Minv @ E.T - U @ U.T)) < 1e-9

    def test_ete_eigenrelation(self):
        for n in range(0, 11):
            lam_n = exact.eigenvalues(n)
            for m in range(0, n + 1):
                E = sx.simplex_elevation(1, m, n)
                lam_m = exact.eigenvalues(m)
                for j in range(m + 1):
                    v = legendre_column(j, m)
                    resid = E.T @ (E @ v) - float(lam_m[j] / lam_n[j]) * v
                    assert np.max(np.abs(resid)) < 1e-10


class TestPolyCoeffs:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            sx.PolyCoeffs(degree=2, coeffs=np.zeros(2))

    def test_immutable(self):
        p = sx.poly([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0


class TestViews:
    def test_views_match_exact(self):
        # the univariate names the benchmark's tracer wraps
        assert np.array_equal(bn.elevation_matrix(2, 5), exact.to_float(exact.elevation(2, 5)))
        ref = exact.to_float(exact.mass(4))
        assert np.max(np.abs(bn.mass_matrix(4) - ref) / ref) <= 1e-15
        U = bn.spectral_factors(2, 4)
        for j in range(3):
            assert np.max(np.abs(U[:, j] - legendre_column(j, 4))) < 1e-12
