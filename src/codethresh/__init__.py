"""Threshold rates for list-recovery of uniformly random codes.

The central quantity is the rate R* = 1 - beta(p, ell, L) / L at which a
uniformly random q-ary code stops being (p, ell, L)-list-recoverable.
This package computes it three ways: exactly through a one-dimensional
convex dual, in closed form for the special cases that admit one, and
empirically by Monte Carlo simulation of small random codes.
"""

from .errors import BudgetError, DomainError, ValidationError
from .levels import LevelProfile, LevelSetParams, level_profile, p_ell, t_star
from .qmath import (
    EntropyValue,
    entropy_q,
    kl_q,
    multinomial_exact,
    q_ary_entropy,
)
from .rlc import (
    BinaryDistribution3,
    ImpliedTypeEntry,
    ImpliedTypeScan,
    implied_distribution,
    implied_type_scan,
    rlc_list_of_two_threshold,
)
from .simulate import (
    BadnessCertificate,
    RandomCodeSpec,
    SweepReport,
    SweepRow,
    contains_bad_matrix,
    empirical_threshold_sweep,
    is_bad_tuple,
    sample_random_code,
)
from .solver import (
    ThresholdQuery,
    ThresholdResult,
    ToyRates,
    beta,
    kl_estimate,
    list_of_two_rc_threshold,
    perfect_hashing_threshold,
    threshold_rate,
    threshold_rates,
    toy_property_rates,
    zero_error_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BadnessCertificate",
    "BinaryDistribution3",
    "BudgetError",
    "DomainError",
    "EntropyValue",
    "ImpliedTypeEntry",
    "ImpliedTypeScan",
    "LevelProfile",
    "LevelSetParams",
    "RandomCodeSpec",
    "SweepReport",
    "SweepRow",
    "ThresholdQuery",
    "ThresholdResult",
    "ToyRates",
    "ValidationError",
    "beta",
    "contains_bad_matrix",
    "empirical_threshold_sweep",
    "entropy_q",
    "implied_distribution",
    "implied_type_scan",
    "is_bad_tuple",
    "kl_estimate",
    "kl_q",
    "level_profile",
    "list_of_two_rc_threshold",
    "multinomial_exact",
    "p_ell",
    "perfect_hashing_threshold",
    "q_ary_entropy",
    "rlc_list_of_two_threshold",
    "sample_random_code",
    "t_star",
    "threshold_rate",
    "threshold_rates",
    "toy_property_rates",
    "zero_error_threshold",
    "__version__",
]
