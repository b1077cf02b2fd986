import ast
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from bernfit import simplex as sx


def triangle_quadrature(fn, npts=40):
    """Independent oracle: collapsed tensor Gauss rule on the unit triangle."""
    x, w = np.polynomial.legendre.leggauss(npts)
    u = 0.5 * (x + 1)
    wu = 0.5 * w
    total = 0.0
    for ui, wi in zip(u, wu):
        for vj, wj in zip(u, wu):
            total += wi * wj * (1 - ui) * fn(ui, vj * (1 - ui))
    return total


def complement_block(d, j):
    """Block j at degree j: the last C(d+j-1, d-1) columns of U^{j,j}."""
    return sx.orthogonal_complement_basis(d, j)[:, -math.comb(d + j - 1, d - 1) :]


def product_formula(alpha, point):
    """Direct evaluation oracle for one basis polynomial."""
    d = len(alpha) - 1
    b = [1.0 - sum(point)] + list(point)
    n = sum(alpha)
    val = math.factorial(n)
    for ai in alpha:
        val /= math.factorial(ai)
    for bi, ai in zip(b, alpha):
        val *= bi**ai
    return val


class TestMultiindices:
    def test_univariate_order(self):
        assert sx.multiindices(1, 2) == ((2, 0), (1, 1), (0, 2))

    def test_bivariate_linear(self):
        assert sx.multiindices(2, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_count(self):
        assert len(sx.multiindices(2, 3)) == 10
        for d in (1, 2, 3):
            for n in range(5):
                assert len(sx.multiindices(d, n)) == math.comb(d + n, d)

    def test_descending_lexicographic(self):
        idx = sx.multiindices(2, 4)
        assert list(idx) == sorted(idx, reverse=True)

    def test_orders_sum_to_n(self):
        assert all(sum(a) == 3 for a in sx.multiindices(3, 3))

    def test_enumeration_matches_recursion(self):
        # the stars-and-bars enumeration gives the recursive order: a_0 from
        # n down to 0, then the multiindices of n - a_0 in d coordinates
        @functools.lru_cache(maxsize=None)
        def recursive(d, n):
            if d == 0:
                return ((n,),)
            return tuple((a0,) + rest for a0 in range(n, -1, -1) for rest in recursive(d - 1, n - a0))

        for d in range(5):
            for n in range(25):
                ref = recursive(d, n)
                assert sx.multiindices(d, n) == ref
                idx = sx._multiindex_array(d, n)
                assert idx.shape == (len(ref), d + 1) and idx.tolist() == [list(a) for a in ref]


class TestEvaluate:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_partition_of_unity(self, a, b):
        # map the square into the triangle
        x, y = a, b * (1 - a)
        p = sx.PolyCoeffs(3, np.ones(10), dim=2)
        assert sx.simplex_evaluate(p, [x, y]) == pytest.approx(1.0, abs=1e-12)

    def test_vertex_values(self):
        p = sx.PolyCoeffs(1, [1, 0, 0], dim=2)
        assert sx.simplex_evaluate(p, [0.0, 0.0]) == pytest.approx(1.0)
        assert sx.simplex_evaluate(p, [1.0, 0.0]) == pytest.approx(0.0)
        assert sx.simplex_evaluate(p, [0.0, 1.0]) == pytest.approx(0.0)

    def test_product_formula_oracle(self):
        # basis (0,1,1) of degree 2: n!/alpha! b1 b2 = 2 * (1/4) * (1/4)
        c = np.zeros(6)
        c[sx.multiindices(2, 2).index((0, 1, 1))] = 1.0
        p = sx.PolyCoeffs(2, c, dim=2)
        val = sx.simplex_evaluate(p, [0.25, 0.25])
        assert val == pytest.approx(product_formula((0, 1, 1), (0.25, 0.25)))
        assert val == pytest.approx(1 / 8)
        # the same basis function vanishes when b1 = 0
        assert sx.simplex_evaluate(p, [0.0, 0.5]) == pytest.approx(0.0)

    def test_every_basis_function_against_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 0.45, (5, 2))
        for d, n in [(1, 4), (2, 3), (3, 2)]:
            idx = sx.multiindices(d, n)
            P = rng.uniform(0, 1.0 / (d + 1), (4, d))
            for k, alpha in enumerate(idx):
                c = np.zeros(len(idx))
                c[k] = 1.0
                poly = sx.PolyCoeffs(n, c, dim=d)
                for point in P:
                    assert sx.simplex_evaluate(poly, point) == pytest.approx(
                        product_formula(alpha, point), abs=1e-13
                    )

    def test_univariate_consistency(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(-1, 1, 5)
        p1 = sx.PolyCoeffs(4, c, dim=1)
        for x in rng.uniform(0, 1, 8):
            direct = sum(c[i] * math.comb(4, i) * x**i * (1 - x) ** (4 - i) for i in range(5))
            assert sx.simplex_evaluate(p1, x) == pytest.approx(direct, abs=1e-13)
            assert sx.simplex_evaluate(p1, [[x]]) == pytest.approx([direct], abs=1e-13)

    def test_point_shapes(self):
        # at d = 1 a vector is a stack of points, as on the interval
        p1 = sx.poly([0.0, 1.0])
        assert isinstance(sx.simplex_evaluate(p1, 0.25), float)
        assert sx.simplex_evaluate(p1, [0.25]).shape == (1,)
        assert sx.simplex_evaluate(p1, [0.25, 0.5]).shape == (2,)
        assert sx.simplex_evaluate(p1, [[0.25], [0.5]]).shape == (2,)
        p2 = sx.PolyCoeffs(1, [1.0, 0.0, 0.0], dim=2)
        assert isinstance(sx.simplex_evaluate(p2, [0.25, 0.5]), float)
        assert sx.simplex_evaluate(p2, [[0.25, 0.5]]).shape == (1,)

    @pytest.mark.parametrize("d,n", [(1, 0), (1, 12), (2, 5), (3, 4)])
    def test_agrees_with_basis_values(self, d, n):
        rng = np.random.default_rng(7)
        pts = rng.dirichlet(np.ones(d + 1), size=25)[:, 1:]
        B = sx.simplex_basis_values(d, n, pts)
        for _ in range(3):
            c = rng.uniform(-1, 1, B.shape[1])
            got = sx.simplex_evaluate(sx.PolyCoeffs(n, c, dim=d), pts)
            assert np.max(np.abs(got - B @ c)) <= 1e-14 * max(1.0, np.abs(c).sum())
        # one basis function at a time pins the multiindex order
        for k in range(B.shape[1]):
            e = np.zeros(B.shape[1])
            e[k] = 1.0
            got = sx.simplex_evaluate(sx.PolyCoeffs(n, e, dim=d), pts)
            assert np.max(np.abs(got - B[:, k])) <= 1e-14


class TestBasisValues:
    @pytest.mark.parametrize("d,n", [(1, 0), (1, 12), (2, 4), (2, 10), (3, 5)])
    def test_matches_columnwise_product(self, d, n):
        # column by column: n!/a! times b_i^{a_i}, each power by repeated
        # multiplication, for each nonzero a_i in coordinate order; the
        # array kernel must give the same bits
        def power(x, e):
            out = np.ones_like(x)
            for _ in range(e):
                out = out * x
            return out

        rng = np.random.default_rng(5)
        pts = rng.dirichlet(np.ones(d + 1), size=30)[:, 1:]
        b = sx.barycentric(d, pts)
        ref = np.empty((len(pts), math.comb(d + n, d)))
        for k, alpha in enumerate(sx.multiindices(d, n)):
            col = np.full(len(pts), math.factorial(n) / math.prod(map(math.factorial, alpha)))
            for i, e in enumerate(alpha):
                if e:
                    col = col * power(b[:, i], e)
            ref[:, k] = col
        got = sx.simplex_basis_values(d, n, pts)
        assert np.array_equal(got, ref)
        assert got.flags.c_contiguous

    def test_against_product_formula(self):
        pts = np.array([[0.1, 0.3], [0.25, 0.25], [0.0, 1.0]])
        got = sx.simplex_basis_values(2, 3, pts)
        for k, alpha in enumerate(sx.multiindices(2, 3)):
            for p, point in enumerate(pts):
                assert got[p, k] == pytest.approx(product_formula(alpha, point), abs=1e-15)


class TestElevation:
    def test_matches_univariate(self):
        # the CLI's whole 1-D range: m <= 12, n <= m + 10; each entry is one
        # correctly rounded quotient of exact integers
        for m in range(13):
            for n in range(m, m + 11):
                E = sx.simplex_elevation(1, m, n)
                assert np.array_equal(E, exact.to_float(exact.elevation(m, n)))

    def test_constant_column(self):
        assert np.allclose(sx.simplex_elevation(2, 0, 1), np.ones((3, 1)))

    def test_barycentric_expansion(self):
        # b0 * (b0+b1+b2) = b0^2 + b0 b1 + b0 b2
        E = sx.simplex_elevation(2, 1, 2)
        assert np.allclose(E @ [1, 0, 0], [1, 0.5, 0.5, 0, 0, 0], atol=1e-15)

    @pytest.mark.parametrize("d,m,n", [(2, 0, 3), (2, 2, 4), (3, 1, 3)])
    def test_rows_sum_to_one(self, d, m, n):
        E = sx.simplex_elevation(d, m, n)
        assert np.allclose(E.sum(axis=1), 1.0, atol=1e-13)
        assert np.all(E >= 0)

    def test_rejects_downgrade(self):
        with pytest.raises(ValueError):
            sx.simplex_elevation(2, 3, 2)

    @pytest.mark.parametrize("d,m,n", [(1, 3, 13), (2, 2, 4), (2, 0, 6), (3, 2, 5), (2, 3, 3)])
    def test_one_gather_per_coordinate(self, d, m, n):
        # the three-index gather of every prod_i C(a_i, b_i) at once is the
        # reference: the entries are the same integers, divided once
        upper = np.array(sx.multiindices(d, n))
        lower = np.array(sx.multiindices(d, m))
        binom = sx._binomials(n)[upper[:, None, :], lower[None, :, :]].prod(axis=2)
        E = sx.simplex_elevation(d, m, n)
        assert np.array_equal(E, binom / math.comb(n, m))
        # the layout fixes BLAS's summation order in E @ x, so the bits of
        # every elevated vector
        assert E.flags.c_contiguous

    def test_identity_at_equal_degrees(self):
        # n = m: bitwise the identity, laid out and cached like every E
        for d in (1, 2, 3):
            for m in range(13):
                E = sx.simplex_elevation(d, m, m)
                eye = np.eye(math.comb(d + m, d))
                assert E.dtype == eye.dtype and E.shape == eye.shape
                assert E.tobytes() == eye.tobytes()
                assert E.flags.c_contiguous and not E.flags.writeable
                assert sx.simplex_elevation(d, m, m) is E
        # past the exact binomial table it is refused like every other E
        with pytest.raises(ValueError):
            sx.simplex_elevation(1, 58, 58)

    def test_binomials_exact_through_row_57(self):
        C = sx._binomials(57)
        assert C.shape == (58, 58)
        want = [[math.comb(a, b) for b in range(58)] for a in range(58)]
        assert all(C[a, b] == want[a][b] for a in range(58) for b in range(58))
        # every smaller table is a corner of the same integers
        assert np.array_equal(sx._binomials(12), C[:13, :13])
        # row 58 of Pascal's rule in float64 holds rounded entries
        with pytest.raises(ValueError):
            sx._binomials(58)

    def test_binomials_are_one_table(self):
        # every corner is a view of one read-only table, built at import,
        # which clearing every functools cache in the package leaves in place
        table = sx._binomials(57).base
        assert table is not None and not table.flags.writeable
        assert all(sx._binomials(n).base is table for n in range(58))
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bernfit":
                for obj in vars(module).values():
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()
        assert all(sx._binomials(n).base is table for n in range(58))

    def test_pointwise_preservation(self):
        rng = np.random.default_rng(2)
        for d, m, n in [(2, 1, 4), (3, 2, 4)]:
            c = rng.uniform(-1, 1, math.comb(d + m, d))
            ce = sx.simplex_elevation(d, m, n) @ c
            pts = rng.dirichlet(np.ones(d + 1), size=10)[:, 1:]
            lo = sx.simplex_evaluate(sx.PolyCoeffs(m, c, dim=d), pts)
            hi = sx.simplex_evaluate(sx.PolyCoeffs(n, ce, dim=d), pts)
            assert np.max(np.abs(lo - hi)) < 1e-12


class TestMassMatrix:
    def test_bivariate_linear(self):
        M = sx.simplex_mass_matrix(2, 1)
        assert np.allclose(M, np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0)

    def test_matches_univariate(self):
        for n in range(0, 6):
            assert np.allclose(
                sx.simplex_mass_matrix(1, n), exact.to_float(exact.mass(n)), atol=1e-15
            )

    def test_quadrature_oracle(self):
        # int b0^2 over the triangle
        oracle = triangle_quadrature(lambda x, y: (1 - x - y) ** 2)
        assert sx.simplex_mass_matrix(2, 1)[0, 0] == pytest.approx(oracle, abs=1e-14)
        assert oracle == pytest.approx(1 / 12, abs=1e-14)

    def test_entries_against_quadrature(self):
        idx = sx.multiindices(2, 2)
        M = sx.simplex_mass_matrix(2, 2)
        for p, alpha in enumerate(idx):
            for q, beta in enumerate(idx):
                oracle = triangle_quadrature(
                    lambda x, y, a=alpha, b=beta: product_formula(a, (x, y))
                    * product_formula(b, (x, y))
                )
                assert M[p, q] == pytest.approx(oracle, abs=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_exact_formula(self, d):
        # the entrywise exact-integer formula (n!)^2 (a+b)! / (a! b! (2n+d)!)
        worst = 0.0
        for n in range(13):
            idx = sx.multiindices(d, n)
            oracle = np.array(
                [
                    [
                        sx._factorial_ratio(
                            (n, n) + tuple(ai + bi for ai, bi in zip(a, b)),
                            tuple(a) + tuple(b) + (2 * n + d,),
                        )
                        for b in idx
                    ]
                    for a in idx
                ]
            )
            M = sx.simplex_mass_matrix(d, n)
            worst = max(worst, np.max(np.abs(M - oracle) / oracle))
        assert worst <= 1e-15

    def test_eigenvalue_fixture(self):
        lam, mult = exact.mass_eigenvalues(2, 1)
        assert np.allclose(lam, [1 / 6, 1 / 24])
        assert mult.tolist() == [1, 2]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", range(0, 5))
    def test_eigenvalue_multiset(self, d, n):
        M = sx.simplex_mass_matrix(d, n)
        lam, mult = exact.mass_eigenvalues(d, n)
        expected = np.sort(np.repeat(lam, mult))
        got = np.sort(np.linalg.eigvalsh(M))
        assert np.max(np.abs(expected - got)) < 1e-10

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
    def test_row_sums_equal_smallest_index_eigenvalue(self, d, n):
        M = sx.simplex_mass_matrix(d, n)
        lam0 = math.factorial(n) / math.factorial(n + d)
        assert np.allclose(M.sum(axis=1), lam0, atol=1e-14)

    def test_eigenvector_relation(self):
        for d, n in [(2, 3), (3, 2)]:
            M = sx.simplex_mass_matrix(d, n)
            lam, _ = exact.mass_eigenvalues(d, n)
            for j in range(n + 1):
                V = sx.simplex_elevation(d, j, n) @ complement_block(d, j)
                assert np.max(np.abs(M @ V - lam[j] * V)) < 1e-10


class TestComplementBasis:
    def test_univariate_legendre_direction(self):
        L = complement_block(1, 2)
        assert L.shape == (3, 1)
        assert np.allclose(L[:, 0] / L[0, 0], [1, -2, 1], atol=1e-12)
        # the whole block: (-1)^j sqrt(2j+1) times the shifted Legendre column
        for j in range(13):
            L = complement_block(1, j)
            ref = (-1) ** j * math.sqrt(2 * j + 1) * exact.to_float(exact.legendre(j))
            assert L.shape == (j + 1, 1)
            assert np.max(np.abs(L[:, 0] - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d,j", [(1, j) for j in range(25)] + [(2, 0), (3, 0)])
    def test_one_by_one_block_has_the_eigh_bits(self, d, j):
        # the same block through LAPACK's eigendecomposition of the 1 x 1
        # Gram matrix, as every larger block is scaled
        rows = sx._multiindex_array(d, j)
        cols = sx._multiindex_array(d - 1, j)
        binom = sx._binomials(2 * j)
        sign = np.where((j - rows[:, 0]) % 2, -1.0, 1.0)
        R = sign[:, None] * binom[cols[None, :, :], rows[:, None, 1:]].prod(axis=2)
        G = binom[cols[:, None, :] + cols[None, :, :], cols[:, None, :]].prod(axis=2)
        assert G.shape == (1, 1)
        w, V = np.linalg.eigh(G * sx._factorial_ratio((j, j), (2 * j + d,)))
        assert np.array_equal(complement_block(d, j), R @ (V / np.sqrt(w)))

    def test_constant_block(self):
        # the constant 1 has M-norm 1/sqrt(d!) on the d-simplex
        L = sx.orthogonal_complement_basis(2, 0)
        assert L.shape == (1, 1)
        assert L[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_orthogonality(self):
        L = complement_block(2, 1)
        assert L.shape == (3, 2)
        M = sx.simplex_mass_matrix(2, 1)
        assert np.max(np.abs(np.ones(3) @ M @ L)) < 1e-12
        off = L[:, 0] @ M @ L[:, 1]
        assert abs(off) < 1e-12

    @pytest.mark.parametrize("d,j", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_counts_and_full_orthogonality(self, d, j):
        L = complement_block(d, j)
        assert L.shape == (math.comb(d + j, d), math.comb(d + j - 1, d - 1))
        M = sx.simplex_mass_matrix(d, j)
        E = sx.simplex_elevation(d, j - 1, j)
        assert np.max(np.abs(E.T @ M @ L)) < 1e-12
        G = L.T @ M @ L
        assert np.max(np.abs(G - np.diag(np.diag(G)))) < 1e-12


class TestSpectralFactors:
    def test_reduces_to_univariate(self):
        # column j is (-1)^j sqrt(2j+1) times the shifted Legendre polynomial
        # elevated to degree n, from exact integers
        def legendre_column(j, n):
            coeffs = exact.elevate(exact.legendre(j), n)
            return (-1) ** j * math.sqrt(2 * j + 1) * exact.to_float(coeffs)

        U1 = sx.simplex_spectral_factors(1, 2, 4)
        for j in range(3):
            assert np.max(np.abs(U1[:, j] - legendre_column(j, 4))) < 1e-10
        lam, _ = exact.mass_eigenvalues(1, 4)
        assert np.allclose(lam[:3], exact.to_float(exact.eigenvalues(4)[:3]), atol=1e-14)
        # the CLI's whole 1-D range: m <= 12, n <= m + 10
        for m in range(13):
            for n in range(m, m + 11):
                U1 = sx.simplex_spectral_factors(1, m, n)
                for j in range(m + 1):
                    ref = legendre_column(j, n)
                    scale = np.max(np.abs(ref))
                    assert np.max(np.abs(U1[:, j] - ref)) <= 1e-13 * scale
                lam, _ = exact.mass_eigenvalues(1, n)
                ref = exact.to_float(exact.eigenvalues(n))
                assert np.max(np.abs(lam - ref) / ref) <= 1e-13

    def test_reconstruction(self):
        U = sx.simplex_spectral_factors(2, 1, 1)
        lam, mult = exact.mass_eigenvalues(2, 1)
        lam = np.repeat(lam, mult)
        Q = U * np.sqrt(lam)
        M = sx.simplex_mass_matrix(2, 1)
        assert np.max(np.abs(Q @ np.diag(lam) @ Q.T - M)) < 1e-10

    def test_w_rank(self):
        # W = U U^T / 2 has rank 3: the spectrum of U^T U / 2, which is
        # diag(1 / (2 lam^2)) with lam^{2,2} = (1/12, 1/30, 1/30)
        U = sx.simplex_spectral_factors(2, 1, 2)
        assert U.shape == (6, 3)
        lam, mult = exact.mass_eigenvalues(2, 2)
        expected = 1.0 / np.repeat(lam, mult)[:3]
        assert np.max(np.abs(U.T @ U - np.diag(expected))) < 1e-10 * expected.max()
        assert np.min(np.linalg.eigvalsh(0.5 * U.T @ U)) > 0.1

    @pytest.mark.parametrize("d,m,n", [(1, 2, 4), (2, 1, 2), (2, 2, 4), (3, 1, 3)])
    def test_elevated_inverse_identity(self, d, m, n):
        U = sx.simplex_spectral_factors(d, m, n)
        E = sx.simplex_elevation(d, m, n)
        Minv = np.linalg.inv(sx.simplex_mass_matrix(d, m))
        assert np.max(np.abs(E @ Minv @ E.T - U @ U.T)) < 1e-9

    @pytest.mark.parametrize(
        "d,n,tol",
        [
            pytest.param(2, 6, 1e-10, id="6"),
            pytest.param(2, 8, 1e-10, id="8"),
            pytest.param(2, 10, 1e-10, id="10"),
            pytest.param(1, 12, 1e-14, id="d1-12"),
            pytest.param(3, 5, 1e-13, id="d3-5"),
        ],
    )
    def test_inverse_against_high_precision(self, d, n, tol):
        # U U^T = (M^{d,n})^{-1}; reference: 50-digit inverse of the exact M
        import mpmath

        mpmath.mp.dps = 50
        f = math.factorial
        idx = sx.multiindices(d, n)

        def entry(a, b):
            num = f(n) ** 2 * math.prod(f(x + y) for x, y in zip(a, b))
            den = math.prod(map(f, a)) * math.prod(map(f, b)) * f(2 * n + d)
            return mpmath.mpf(num) / den

        exact = mpmath.matrix([[entry(a, b) for b in idx] for a in idx])
        ref = np.array(mpmath.inverse(exact).tolist(), dtype=float)
        U = sx.simplex_spectral_factors(d, n, n)
        assert np.max(np.abs(U @ U.T - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_orthonormal_in_degree_n_mass(self, n):
        M = sx.simplex_mass_matrix(2, n)
        for m in range(n):
            U = sx.simplex_spectral_factors(2, m, n)
            assert np.max(np.abs(U.T @ M @ U - np.eye(U.shape[1]))) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unelevated_factors_are_the_stack(self, d):
        # E^{m->m} is the identity, so U^{m,m} is the stack of complement
        # blocks itself; its leading blocks are the stack one degree down,
        # elevated, up to roundoff
        for m in range(7):
            U = sx.simplex_spectral_factors(d, m, m)
            assert U is sx.orthogonal_complement_basis(d, m)
            if m:
                lower = sx.simplex_spectral_factors(d, m - 1, m)
                gap = np.max(np.abs(U[:, : lower.shape[1]] - lower))
                assert gap <= 1e-13 * np.max(np.abs(lower))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_elevated_factors_are_one_product(self, d):
        # U^{m,n} = E^{m->n} U^{m,m} bit for bit, over the one-shot cases
        for m in [m for dim, m in ONE_SHOT_CASES if dim == d]:
            Umm = sx.orthogonal_complement_basis(d, m)
            for n in range(m, m + (11 if d == 1 else 3)):
                U = sx.simplex_spectral_factors(d, m, n)
                assert np.array_equal(U, sx.simplex_elevation(d, m, n) @ Umm)

    def test_cached_arrays_are_read_only(self):
        for a in (
            sx.simplex_spectral_factors(2, 3, 5),
            sx.simplex_spectral_factors(2, 3, 3),
            sx.orthogonal_complement_basis(2, 3),
            sx._multiindex_array(2, 3),
            sx._binomials(6),
            sx.simplex_mass_matrix(2, 3),
            sx.simplex_elevation(2, 3, 5),
        ):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_mass_and_elevation_are_built_once(self):
        assert sx.simplex_mass_matrix(2, 4) is sx.simplex_mass_matrix(2, 4)
        assert sx.simplex_elevation(1, 3, 13) is sx.simplex_elevation(1, 3, 13)


ONE_SHOT_CASES = (
    [(1, m) for m in range(13)] + [(2, m) for m in range(11)] + [(3, m) for m in range(6)]
)


def as_integers(U):
    """Python integers Ui and an exponent e with U = Ui * 2**e exactly."""
    parts = [math.frexp(x) for x in U.ravel().tolist()]
    e = min((k for frac, k in parts if frac), default=53) - 53
    Ui = [int(frac * 2**53) << (k - 53 - e) if frac else 0 for frac, k in parts]
    return np.array(Ui, dtype=object).reshape(U.shape), e


def exact_orthonormality_gap(d, m):
    """max |U^T M U - I| for U = U^{m,m}, in exact integer arithmetic.

    M = Mi / (2m+d)! with the integers Mi[a, b] = C(m; a) C(m; b) (a+b)!.
    """
    f = math.factorial
    idx = sx.multiindices(d, m)
    multi = [f(m) // math.prod(map(f, a)) for a in idx]
    Mi = np.array(
        [
            [multi[r] * multi[c] * math.prod(f(x + y) for x, y in zip(a, b)) for c, b in enumerate(idx)]
            for r, a in enumerate(idx)
        ],
        dtype=object,
    )
    Ui, e = as_integers(sx.orthogonal_complement_basis(d, m))
    G = Ui.T.dot(Mi.dot(Ui))
    den = f(2 * m + d) * 2 ** (-2 * e)
    return max(abs(g - (den if i == j else 0)) / den for (i, j), g in np.ndenumerate(G))


class TestOneShotBasis:
    @pytest.mark.parametrize("d,m", ONE_SHOT_CASES)
    def test_blocks_are_mass_eigenvectors(self, d, m):
        # block j of U^{m,m} lies in the lam_j eigenspace of M^{d,m}
        U = sx.orthogonal_complement_basis(d, m)
        M = sx.simplex_mass_matrix(d, m)
        lam, mult = exact.mass_eigenvalues(d, m)
        assert U.shape == M.shape and U.flags.c_contiguous
        start = 0
        for j in range(m + 1):
            block = U[:, start : start + mult[j]]
            assert block.shape[1] == math.comb(d + j - 1, d - 1)
            gap = np.max(np.abs(M @ block - lam[j] * block))
            assert gap <= 1e-14 * lam[0] * np.max(np.abs(block))
            start += mult[j]

    @pytest.mark.parametrize("d,m", ONE_SHOT_CASES)
    def test_mass_orthonormal(self, d, m):
        U = sx.orthogonal_complement_basis(d, m)
        M = sx.simplex_mass_matrix(d, m)
        assert np.max(np.abs(U.T @ M @ U - np.eye(U.shape[1]))) < 1e-10

    def test_univariate_basis_is_the_rounded_legendre_basis(self):
        # at d = 1 and m = 20 every column is (-1)^j sqrt(2j+1) times the
        # shifted Legendre polynomial to a few ulps of the column's largest entry
        m = 20
        U = sx.orthogonal_complement_basis(1, m)
        for j in range(m + 1):
            ref = (-1) ** j * math.sqrt(2 * j + 1) * exact.to_float(exact.elevate(exact.legendre(j), m))
            assert np.max(np.abs(U[:, j] - ref)) <= 4e-16 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d,m,bound", [(1, 20, 1e-11), (2, 14, 5e-13)])
    def test_exactly_orthonormal_past_the_caps(self, d, m, bound):
        # in exact arithmetic U^T M U - I stays small where the float check
        # U.T @ M @ U reads 1e-5 (1, 20) and 3e-9 (2, 14) from cancellation alone;
        # both bounds are those of the correctly rounded exact basis
        assert exact_orthonormality_gap(d, m) <= bound

    @pytest.mark.parametrize("d,m", ONE_SHOT_CASES)
    def test_columns_are_the_rounded_dubiner_basis(self, d, m):
        # every column is within a few ulps of its largest entry of the
        # correctly rounded M-normalized Dubiner polynomial
        columns, norms = exact.dubiner_columns(d, m)
        ref = np.array([[exact.scaled_to_float(q, k) for q, k in zip(r, norms)] for r in columns])
        U = sx.orthogonal_complement_basis(d, m)
        assert np.all(np.abs(U - ref) <= 4 * np.spacing(np.max(np.abs(ref), axis=0)))

    @pytest.mark.parametrize("d,m", [(1, 6), (2, 4), (3, 3)])
    def test_exact_dubiner_columns_are_orthogonal(self, d, m):
        # the reference itself: c^T M c' = 0 and c^T M c = 1 / norm, exactly
        columns, norms = exact.dubiner_columns(d, m)
        cols = list(zip(*columns))
        M = exact.simplex_mass(d, m)
        Mc = [[sum(x * y for x, y in zip(row, col)) for row in M] for col in cols]
        for c, norm in enumerate(norms):
            for c2, col in enumerate(cols):
                inner = sum(x * y for x, y in zip(col, Mc[c]))
                assert inner == (Fraction(1, norm) if c == c2 else 0)

    def test_builds_without_linear_algebra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the basis build calls np.linalg")

        for name in ("cholesky", "inv", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        sx.orthogonal_complement_basis.cache_clear()
        for d in (1, 2, 3):
            assert sx.orthogonal_complement_basis(d, 5).shape == (math.comb(d + 5, d),) * 2

    @pytest.mark.parametrize("d,m", [(1, 29), (2, 29), (3, 28)])
    def test_refused_past_the_binomial_table(self, d, m):
        with pytest.raises(ValueError, match="exact in float64 through row 57"):
            sx.orthogonal_complement_basis(d, m)

    @pytest.mark.parametrize("d", [1, 2])
    def test_top_of_the_binomial_table(self, d):
        U = sx.orthogonal_complement_basis(d, 28)
        assert U.shape == (math.comb(d + 28, d),) * 2 and np.all(np.isfinite(U))

    def test_project_never_forms_w(self):
        from bernfit import approx

        sx.simplex_spectral_factors.cache_clear()
        p = approx.project(approx.get_function("g0"), 5, approx.default_rule(2))
        assert p.coeffs.shape == (21,)
        assert sx.simplex_spectral_factors.cache_info().currsize == 0


class TestIntegral:
    def test_constant(self):
        p = sx.PolyCoeffs(2, np.ones(6), dim=2)
        assert exact.integral(p) == pytest.approx(0.5)

    def test_against_quadrature(self):
        rng = np.random.default_rng(4)
        c = rng.uniform(-1, 1, 10)
        p = sx.PolyCoeffs(3, c, dim=2)
        oracle = triangle_quadrature(lambda x, y: sx.simplex_evaluate(p, [x, y]))
        assert exact.integral(p) == pytest.approx(oracle, abs=1e-13)


class TestScaleExponent:
    def test_one_rule(self):
        # the power-of-256 rule is the cone's alone: defined in cone.py and
        # named nowhere else in the package, the basis layer and the CLI
        # included
        from bernfit import cone

        assert not hasattr(sx, "_scale_exponent")
        assert cone._scale_exponent.__module__ == cone.__name__
        users = set()
        for path in sorted(Path(sx.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if "_scale_exponent" in (getattr(node, "id", None), getattr(node, "attr", None),
                                         getattr(node, "name", None)):
                    users.add(path.name)
        assert users == {"cone.py"}

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_target(self, d):
        from bernfit import cone

        M = sx.simplex_mass_matrix(d, 3)
        assert cone._scale_exponent(np.zeros(M.shape[0]), M) == 0

    @pytest.mark.parametrize("ident", ["g0", "g1", "g2"])
    def test_triangle_corpus_is_solved_unscaled(self, ident):
        from bernfit import approx, cone

        f = approx.get_function(ident)
        for m in range(5):
            p = approx.project(f, m, approx.default_rule(2))
            assert cone._scale_exponent(p.coeffs, sx.simplex_mass_matrix(2, m)) == 0


def test_imports_nothing_from_scipy():
    # the package is numpy only but for kkt's one NNLS call
    paths = sorted(Path(sx.__file__).parent.rglob("*.py"))
    assert Path(sx.__file__) in paths
    for path in paths:
        if path.name == "kkt.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), (
                f"{path.name}: {ast.unparse(node)}"
            )


def test_imports_nothing_from_bernstein():
    # the basis layer is the package's root: the interval's module re-exports
    # it, never the other way round
    path = Path(sx.__file__)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("bernstein" in name for name in names), ast.unparse(node)
