"""Threshold rates for list-recovery of uniformly random codes.

The central quantity is the rate R* = 1 - beta(p, ell, L) / L at which a
uniformly random q-ary code stops being (p, ell, L)-list-recoverable.
This package computes it three ways: exactly through a one-dimensional
convex dual, in closed form for the special cases that admit one, and
empirically by Monte Carlo simulation of small random codes.
"""

from .errors import BudgetError, DomainError, ValidationError
from .levels import LevelSetParams, level_profile
from .rlc import implied_type_scan, rlc_list_of_two_threshold
from .simulate import (
    RandomCodeSpec,
    contains_bad_matrix,
    empirical_threshold_sweep,
    is_bad_tuple,
    sample_random_code,
)
from .solver import (
    ThresholdQuery,
    kl_estimate,
    list_of_two_rc_threshold,
    perfect_hashing_threshold,
    threshold_rate,
    toy_property_rates,
    zero_error_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "DomainError",
    "LevelSetParams",
    "RandomCodeSpec",
    "ThresholdQuery",
    "ValidationError",
    "contains_bad_matrix",
    "empirical_threshold_sweep",
    "implied_type_scan",
    "is_bad_tuple",
    "kl_estimate",
    "level_profile",
    "list_of_two_rc_threshold",
    "perfect_hashing_threshold",
    "rlc_list_of_two_threshold",
    "sample_random_code",
    "threshold_rate",
    "toy_property_rates",
    "zero_error_threshold",
    "__version__",
]
