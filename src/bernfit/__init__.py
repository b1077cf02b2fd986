"""Bounds-constrained L2 polynomial approximation in the Bernstein basis."""

from .bernstein import PolyCoeffs, evaluate, poly

__all__ = ["PolyCoeffs", "evaluate", "poly"]
