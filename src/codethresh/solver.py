"""Threshold rates for list-recovery of uniformly random codes.

A uniformly random code (each word of Sigma^n kept independently with
probability q^{-n(1-R)}) transitions sharply, as n grows, from satisfying
(p, ell, L)-list-recovery to violating it at the rate

    R* = 1 - beta(p, ell, L) / L,

where beta is the largest base-q entropy of a histogram type subject to
an expected-penalty constraint.  Over level sets this collapses to a
one-dimensional convex dual

    g(alpha) = log_q( sum_d |D_d| q^{alpha d} ) - alpha p L,

whose infimum over alpha <= 0 equals beta whenever 0 < pL < t*.  The
derivative g'(alpha) is the mean level of the exponential-family weights
minus pL, so the minimizer is located by bisecting the sign of g' over
the bracket [-(L + log_q(1/p)), 0].  The remaining regimes are closed
form: pL >= t* forces beta = L (threshold 0), and p = 0 gives
beta = log_q |D_0|.

Special slices with named closed forms (list-of-two over F_2, perfect
hashing, the zero-error case, the KL approximation, and a two-property
toy comparison) are exposed alongside the general solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, ValidationError
from .levels import LevelProfile, LevelSetParams, level_profile
from .qmath import kl_q, q_ary_entropy

__all__ = [
    "ThresholdQuery",
    "ThresholdResult",
    "DualObjective",
    "beta",
    "threshold_rate",
    "zero_error_threshold",
    "perfect_hashing_threshold",
    "list_of_two_rc_threshold",
    "kl_estimate",
    "ToyRates",
    "toy_property_rates",
]

_MAX_BISECT_STEPS = 500


@dataclass(frozen=True)
class ThresholdQuery:
    """A (p, ell, L, q) instance plus the additive tolerance on R*."""

    p: float
    ell: int
    L: int
    q: int
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValidationError(f"q must be >= 2, got {self.q}")
        if not 1 <= self.ell <= self.q:
            raise ValidationError(
                f"ell must satisfy 1 <= ell <= q, got ell={self.ell}, q={self.q}"
            )
        if self.L < 2:
            raise ValidationError(f"L must be >= 2, got {self.L}")
        if not 0.0 <= self.p < 1.0:
            raise DomainError(f"p must lie in [0, 1), got {self.p}")
        if not self.epsilon > 0.0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")

    def level_params(self) -> LevelSetParams:
        return LevelSetParams(self.q, self.ell, self.L)


@dataclass(frozen=True)
class ThresholdResult:
    """R* together with beta, the dual minimizer, and how it was obtained."""

    r_star: float
    beta: float
    alpha_star: Optional[float]
    method: str
    error_bound: float


class DualObjective:
    """g(alpha) = log_q(sum_d |D_d| q^{alpha d}) - alpha p L and g'(alpha).

    Evaluation factors the max term out of the exponential sum; the
    q^{alpha d} weights span hundreds of orders of magnitude near the left
    end of the bracket.
    """

    def __init__(self, profile: LevelProfile, p: float):
        self.profile = profile
        self.p = float(p)
        q, L = profile.params.q, profile.params.L
        self.q, self.L = q, L
        levels = [d for d, lc in enumerate(profile.log_counts) if lc != -math.inf]
        self._d = np.array(levels, dtype=float)
        self._lc = np.array([profile.log_counts[d] for d in levels], dtype=float)

    def _weights(self, alpha: float) -> tuple[np.ndarray, float]:
        w = self._lc + alpha * self._d
        hi = float(w.max())
        return np.power(float(self.q), w - hi), hi

    def value(self, alpha: float) -> float:
        z, hi = self._weights(alpha)
        total = hi + math.log(float(z.sum())) / math.log(self.q)
        return total - alpha * self.p * self.L

    def derivative(self, alpha: float) -> float:
        z, _ = self._weights(alpha)
        mean = float((self._d * z).sum() / z.sum())
        return mean - self.p * self.L

    def bracket(self) -> tuple[float, float]:
        """Interval guaranteed to contain the minimizer when 0 < pL < t*."""
        if not self.p > 0.0:
            raise DomainError("the dual bracket requires p > 0")
        lo = -(self.L + math.log(1.0 / self.p) / math.log(self.q))
        return lo, 0.0


def _zero_rate(profile: LevelProfile, p: float) -> bool:
    """pL >= t*, decided exactly: p = num/den and t* = penalty_sum / q^L."""
    num, den = float(p).as_integer_ratio()
    q, L = profile.params.q, profile.params.L
    return num * L * q**L >= profile.penalty_sum * den


def beta(
    query: ThresholdQuery, profile: Optional[LevelProfile] = None
) -> tuple[float, Optional[float]]:
    """The maximal bad-type entropy beta(p, ell, L), with the dual minimizer.

    Returns (L, None) in the zero-rate regime pL >= t* (decided in exact
    arithmetic, ties included), (log_q |D_0|, None) at p = 0, (L, 0.0)
    when pL is below t* by less than g'(0) resolves in floats, and
    otherwise the bisection minimum of the dual, accurate to epsilon * L.
    """
    params = query.level_params()
    if profile is None:
        profile = level_profile(params)
    if profile.params != params:
        raise ValidationError(
            f"profile is for {profile.params}, query needs {params}"
        )
    if query.p >= 1.0:
        raise DomainError(f"p must be below 1, got {query.p}")
    L = query.L
    if _zero_rate(profile, query.p):
        return float(L), None
    if query.p == 0.0:
        # Constant vectors always lie in D_0, so the level is nonempty.
        assert profile.log_counts[0] != -math.inf
        return profile.log_counts[0], None

    dual = DualObjective(profile, query.p)
    lo, hi = dual.bracket()
    if not dual.derivative(hi) > 0.0:
        # pL < t* exactly, yet g'(0) = t* - pL rounds to <= 0: the minimizer
        # is at the continuity limit alpha = 0, where g(0) = L.
        return float(L), 0.0
    if not dual.derivative(lo) < 0.0:
        raise RuntimeError(
            f"dual bracket [{lo}, {hi}] does not straddle the minimizer "
            f"for {params} at p={query.p}"
        )
    eps = query.epsilon
    alpha = 0.5 * (lo + hi)
    g_now = dual.value(alpha)
    g_prev = math.inf
    for _ in range(_MAX_BISECT_STEPS):
        alpha = 0.5 * (lo + hi)
        g_now = dual.value(alpha)
        if (hi - lo) <= 0.5 * eps and abs(g_now - g_prev) < 0.5 * eps * L:
            break
        g_prev = g_now
        if dual.derivative(alpha) < 0.0:
            lo = alpha
        else:
            hi = alpha
    return min(max(g_now, 0.0), float(L)), alpha


def threshold_rate(query: ThresholdQuery, use_closed_forms: bool = False) -> ThresholdResult:
    """R* = 1 - beta/L for the query, tagged with the computation path.

    The default always runs the general machinery (zero-rate test, p = 0
    closed form, or dual bisection).  With ``use_closed_forms`` the two
    named special slices short-circuit to their formulas: q=2, ell=1, L=3
    with p in (0, 1/4), and the perfect-hashing slice p=0, ell=q-1, L=q.
    """
    params = query.level_params()
    if use_closed_forms:
        if query.q == 2 and query.ell == 1 and query.L == 3 and 0.0 < query.p < 0.25:
            r = list_of_two_rc_threshold(query.p)
            return ThresholdResult(r, 3.0 * (1.0 - r), None, "list_of_two_rc", 0.0)
        if query.p == 0.0 and query.ell == query.q - 1 and query.L == query.q:
            r = perfect_hashing_threshold(query.q)
            return ThresholdResult(
                r, query.L * (1.0 - r), None, "perfect_hashing", 0.0
            )
    profile = level_profile(params)
    if _zero_rate(profile, query.p):
        return ThresholdResult(0.0, float(query.L), None, "zero_rate", 0.0)
    b, alpha = beta(query, profile)
    r_star = 1.0 - b / query.L
    if query.p == 0.0:
        return ThresholdResult(r_star, b, None, "closed_form_zero_error", 0.0)
    return ThresholdResult(r_star, b, alpha, "bisection", query.epsilon)


def zero_error_threshold(params: LevelSetParams) -> float:
    """R* at p = 0: with p* = |D_0| / q^L, returns -log_q(p*) / L."""
    profile = level_profile(params)
    return (params.L - profile.log_counts[0]) / params.L


def perfect_hashing_threshold(q: int) -> float:
    """Threshold for (0, q-1, q)-list-recovery: (1/q) log_q(1/(1 - q!/q^q)).

    A code with this property maps any q codewords to distinct symbols at
    some coordinate; the count behind the formula is |D_0| = q^q - q!.
    """
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    ratio = math.factorial(q) / q**q
    return -math.log1p(-ratio) / (q * math.log(q))


def list_of_two_rc_threshold(p: float) -> float:
    """Random-code list-of-two threshold 1 - (1 + h_2(3p) + 3p log_2 3)/3.

    Fixed to q = 2; valid for p in the open interval (0, 1/4), which is
    exactly where the threshold is positive.
    """
    if not 0.0 < p < 0.25:
        raise DomainError(f"p must lie in (0, 1/4), got {p}")
    return 1.0 - (1.0 + q_ary_entropy(3.0 * p, 2) + 3.0 * p * math.log2(3.0)) / 3.0


def kl_estimate(query: ThresholdQuery) -> tuple[float, float]:
    """The large-L approximation D_q(p || 1 - ell/q) with its error scale.

    Returns 0 when p >= 1 - ell/q.  The band q * ln(L) / L is the shape of
    the approximation error; its constant is not pinned down, so the band
    is reported as an uncalibrated scale (natural logarithm).
    """
    band = query.q * math.log(query.L) / query.L
    r = 1.0 - query.ell / query.q
    if r <= 0.0 or query.p >= r:
        return 0.0, band
    return kl_q(query.p, r, query.q), band


class ToyRates(NamedTuple):
    r_theorem: float
    r_dagger: float


def toy_property_rates(p: float) -> ToyRates:
    """Rates for the three-word toy property (binary, n even, p in (0, 1/2)).

    r_theorem is what a first-moment recipe built on full types yields;
    r_dagger is the actual threshold once structured triples are counted
    directly.  r_dagger exceeds r_theorem for p up to 0.3.
    """
    if not 0.0 < p < 0.5:
        raise DomainError(f"p must lie in (0, 1/2), got {p}")
    r_theorem = 1.0 - (
        p * math.log2(2.0 / p**2) + (1.0 - 2.0 * p) * math.log2(1.0 / (1.0 - 2.0 * p))
    ) / 3.0
    r_dagger = 1.0 - (
        p * math.log2(2.0 / p) + (1.0 - p) * math.log2(1.0 / (1.0 - p))
    ) / 2.0
    return ToyRates(r_theorem, r_dagger)
