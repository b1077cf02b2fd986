"""Bounds-constrained L2 polynomial approximation in the Bernstein basis."""

from .bernstein import (
    PolyCoeffs,
    elevation_matrix,
    evaluate,
    legendre_bernstein_coeffs,
    mass_eigenvalues,
    mass_matrix,
    poly,
    spectral_factors,
)

__all__ = [
    "PolyCoeffs",
    "elevation_matrix",
    "evaluate",
    "legendre_bernstein_coeffs",
    "mass_eigenvalues",
    "mass_matrix",
    "poly",
    "spectral_factors",
]
