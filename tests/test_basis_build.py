"""The per-degree basis tables: their bits, and where they are kept.

Each builder must return the bits of the direct construction kept in
exact.py, at every degree the binomial table allows in one and two
dimensions.  A table built for one degree lives only in a functools cache,
so clearing those caches (as the benchmark does before every row) leaves
nothing of one row's degrees behind.
"""

import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

import exact
from bernfit import approx, cli, cone
from bernfit import simplex as sx

# the highest degree of U^{m,m} the binomial table allows: Pascal row 2m + d - 1
TOP = {1: 28, 2: 28, 3: 27}


def same_bytes(got, want):
    want = np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def digest(a):
    return a.dtype, a.shape, hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestBits:
    @pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 3) for m in range(TOP[d] + 1)])
    def test_complement_basis(self, d, m):
        # digests, so that the d = 3 tables near the top are not held twice
        got = digest(sx.orthogonal_complement_basis(d, m))
        sx.orthogonal_complement_basis.cache_clear()
        assert got == digest(exact.float_complement_basis(d, m))

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_multiindices_and_multinomials(self, d):
        # through Pascal row 57, and past it, where n!/a! is divided in integers
        for n in range(70 if d < 2 else 58 if d == 2 else TOP[3] + 1):
            assert same_bytes(sx._multiindex_array(d, n), exact.float_multiindices(d, n))
            assert same_bytes(sx._multinomials(d, n), exact.float_multinomials(d, n)), (d, n)
        sx._multiindex_array.cache_clear()
        sx._multinomials.cache_clear()

    @pytest.mark.parametrize("d,top", [(1, 85), (2, TOP[2]), (3, 12)])
    def test_mass(self, d, top):
        # d = 1 through n = 85, the last n whose (2n)! is a finite double
        for n in range(top + 1):
            assert same_bytes(sx.simplex_mass_matrix(d, n), exact.float_mass(d, n)), (d, n)
        sx.simplex_mass_matrix.cache_clear()

    def test_mass_refused_past_the_factorials(self):
        with pytest.raises(ValueError, match="overflows float64"):
            sx.simplex_mass_matrix(1, 86)

    @pytest.mark.parametrize("d,top", [(1, 57), (2, TOP[2]), (3, 12)])
    def test_elevation(self, d, top):
        for n in range(top + 1):
            for m in range(n + 1):
                assert same_bytes(sx.simplex_elevation(d, m, n), exact.float_elevation(d, m, n))
        sx.simplex_elevation.cache_clear()

    @pytest.mark.parametrize("d,top", [(1, 57), (2, 57), (3, 20)])
    def test_elevation_at_equal_degrees(self, d, top):
        # n = m has no branch of its own: the gathers build the identity
        for n in range(top + 1):
            assert same_bytes(sx.simplex_elevation(d, n, n), exact.float_elevation(d, n, n)), (d, n)
            sx.simplex_elevation.cache_clear()

    @pytest.mark.parametrize(
        "rule",
        [approx.interval_rule, approx.simplex_rule, lambda: approx.interval_rule(5), lambda: approx.simplex_rule(5)],
    )
    def test_node_factors(self, rule):
        quad = rule()
        for n in range(sx._BINOMIAL_EXACT_ROWS + 1):
            got, want = approx._node_factors(quad, n), exact.float_node_factors(quad, n)
            assert len(got) == len(want) == quad.dim
            assert all(same_bytes(g, w) for g, w in zip(got, want)), n
            assert all(g.flags.c_contiguous for g in got)
        approx._node_factors.cache_clear()

    def test_rule_powers_are_read_only(self):
        quad = approx.interval_rule()
        assert quad.powers.shape == (sx._BINOMIAL_EXACT_ROWS + 1, 2, quad.axis.shape[0])
        assert not quad.powers.flags.writeable


class TestComplementBuild:
    def test_axis1_table(self):
        # every entry a degree reads, c + k <= 28, is its exact integer sum,
        # and every entry at c < 0 is zero
        A, top = sx._AXIS1, sx._TOP_DEGREE
        assert not A.flags.writeable and A.shape == ((2 * top + 1) * (top + 1), top + 1)
        assert not A[: top * (top + 1)].any()
        for c in range(top + 1):
            for a in range(top + 1):
                row = A[(c + top) * (top + 1) + a]
                for k in range(top + 1 - c):
                    want = sum((-1) ** s * math.comb(k, s) ** 2 * math.comb(c, a - s) for s in range(min(a, k) + 1))
                    assert row[k] == want, (c, a, k)

    def test_peak_memory(self):
        # each axis's factor is gathered a block of rows at a time into the
        # running product, so the build holds little beyond its result
        sx.orthogonal_complement_basis.cache_clear()
        sx._multiindex_array.cache_clear()
        tracemalloc.start()
        try:
            U = sx.orthogonal_complement_basis(3, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sx.orthogonal_complement_basis.cache_clear()
        assert U.nbytes == 1771**2 * 8
        assert peak <= 1.5 * U.nbytes


# every builder whose result depends on a degree, and so must be dropped
# when the caches are cleared
PER_DEGREE = (
    sx._multiindex_array,
    sx.multiindices,
    sx._multinomials,
    sx.simplex_mass_matrix,
    sx.simplex_elevation,
    sx.orthogonal_complement_basis,
    sx.simplex_spectral_factors,
    approx._node_factors,
    cone.omega_operator,
)


def package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "bernfit"]


def container_sizes():
    """len of every dict, list and set bound at module level in the package."""
    return {
        (module.__name__, name): len(obj)
        for module in package_modules()
        for name, obj in vars(module).items()
        if isinstance(obj, (dict, list, set))
    }


def clear_caches():
    for module in package_modules():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


class TestNoHiddenCaches:
    def test_cold_rows_leave_only_functools_caches(self, tmp_path):
        clear_caches()
        before = container_sizes()
        one = ["--func", "f2", "--mmin", "6", "--mmax", "6", "--elevate", "0", "--elevate", "10"]
        one += ["--methods", "project,kkt,kkt-mass,cone", "--out", str(tmp_path / "one.csv")]
        two = ["--func", "g2", "--dim", "2", "--mmin", "4", "--mmax", "4"]
        two += ["--methods", "project,kkt", "--out", str(tmp_path / "two.csv")]
        assert cli.main(one) == 0
        assert cli.main(two) == 0
        after = container_sizes()
        grown = {key: (before.get(key, 0), size) for key, size in after.items() if size > before.get(key, 0)}
        assert not grown
        # the rows' tables went to the builders' caches, and clearing them
        # drops every one
        assert all(b.cache_info().currsize for b in PER_DEGREE if b is not sx.multiindices)
        clear_caches()
        assert all(b.cache_info().currsize == 0 for b in PER_DEGREE)

    def test_every_per_degree_builder_can_be_cleared(self):
        for builder in PER_DEGREE:
            assert callable(getattr(builder, "cache_clear", None)), builder.__name__

    def test_import_time_tables_are_read_only(self):
        for table in (sx._PASCAL, sx._SIGNED_PASCAL, sx._SHIFTED_PASCAL, sx._BLOCK_GRAM, sx._FACTORIALS):
            assert not table.flags.writeable
        # the shifted table is a view: C(c, a - s), zero off the triangle
        r = sx._BINOMIAL_EXACT_ROWS
        for c, a, s in [(5, 3, 1), (5, 7, 1), (5, 1, 3), (-2, 1, 0), (57, 57, 29), (0, 0, 0)]:
            want = math.comb(c, a - s) if c >= 0 and a >= s else 0
            assert sx._SHIFTED_PASCAL[c + r, a, s] == want
