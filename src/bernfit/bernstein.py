"""The interval [0, 1], as the d = 1 simplex.

The basis layer lives in simplex.py, which runs the interval through the
same functions as every other dimension.  This module re-exports the
polynomial type and de Casteljau evaluation under their univariate names.
The three d = 1 views below compute nothing of their own (spectral_factors
returns the array U^{m,n}); they stay only because the benchmark's tracer
wraps them by name (bench/tracing.py, pinned by tests/test_names.py), and
go with the next change to the benchmark.
"""

from __future__ import annotations

from .simplex import PolyCoeffs, poly
from .simplex import simplex_elevation, simplex_mass_matrix, simplex_spectral_factors
from .simplex import simplex_evaluate as evaluate

__all__ = ["PolyCoeffs", "evaluate", "poly"]


def mass_matrix(n: int):
    return simplex_mass_matrix(1, n)


def elevation_matrix(m: int, n: int):
    return simplex_elevation(1, m, n)


def spectral_factors(m: int, n: int):
    return simplex_spectral_factors(1, m, n)
