"""Numerical laboratory for a mean-field model of self-organized criticality."""

from .measure import (
    DensityComponent,
    Measure1D,
    MeasureError,
    MomentSummary,
    gaussian,
    rademacher,
    rho_zero,
    sample,
    three_point,
)

__all__ = [
    "DensityComponent",
    "Measure1D",
    "MeasureError",
    "MomentSummary",
    "gaussian",
    "rademacher",
    "rho_zero",
    "sample",
    "three_point",
]

__version__ = "0.1.0"
