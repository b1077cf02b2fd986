"""Bounds-constrained L2 polynomial approximation in the Bernstein basis."""

from .bernstein import (
    PolyCoeffs,
    binomial,
    binomial_float,
    elevate,
    elevation_matrix,
    evaluate,
    l2_inner,
    l2_norm,
    legendre_bernstein_coeffs,
    mass_eigenvalues,
    mass_matrix,
    poly,
    spectral_factors,
)

__all__ = [
    "PolyCoeffs",
    "binomial",
    "binomial_float",
    "elevate",
    "elevation_matrix",
    "evaluate",
    "l2_inner",
    "l2_norm",
    "legendre_bernstein_coeffs",
    "mass_eigenvalues",
    "mass_matrix",
    "poly",
    "spectral_factors",
]
