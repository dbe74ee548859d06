"""Base-q entropies, KL divergence, and exact multinomials.

Everything downstream measures information in base-q units:

    H_q(tau) = -sum_x tau(x) log_q tau(x)
    h_q(x)   = x log_q(q-1) - x log_q x - (1-x) log_q(1-x)
    D_q(s||r) = s log_q(s/r) + (1-s) log_q((1-s)/(1-r))

with the convention 0 log 0 = 0 throughout, and KL extended continuously
at s = 0 and s = 1.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError, ValidationError, integer

__all__ = [
    "entropy_q",
    "q_ary_entropy",
    "kl_q",
    "multinomial_exact",
]

#: Distributions must sum to 1 within this absolute slack.
NORMALIZATION_TOL = 1e-9


def check_alphabet(q: int, ell: int = 1) -> None:
    """Refuse q and ell unless they are Python ints with q >= 2 and 1 <= ell <= q."""
    integer(q, "alphabet size q", 2)
    integer(ell, "ell", 1, q, "an integer in 1..q")


def entropy_q(dist: Sequence[float], q: int) -> float:
    """Base-q entropy -sum tau(x) log_q tau(x) of a probability vector, >= 0."""
    check_alphabet(q)
    if not all(x >= 0 for x in dist):
        raise ValidationError("probabilities must be nonnegative numbers, not NaN")
    total = math.fsum(dist)
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise ValidationError(
            f"probabilities sum to {total!r}, deviating from 1 by {total - 1.0!r}"
        )
    lq = math.log(q)
    value = -math.fsum(x * math.log(x) for x in dist if x > 0.0) / lq
    return max(value, 0.0)


def q_ary_entropy(x: float, q: int) -> float:
    """h_q(x) = x log_q(q-1) - x log_q x - (1-x) log_q(1-x) on [0, 1]."""
    check_alphabet(q)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"q_ary_entropy requires x in [0,1], got {x}")
    lq = math.log(q)
    out = 0.0
    if x > 0.0:
        out += x * (math.log(q - 1) - math.log(x)) / lq
    if x < 1.0:
        out -= (1.0 - x) * math.log(1.0 - x) / lq
    return out


def kl_q(s: float, r: float, q: int) -> float:
    """Base-q KL divergence D_q(s||r) between Bernoulli(s) and Bernoulli(r).

    Extended continuously at s = 0 (giving log_q(1/(1-r))) and s = 1
    (giving log_q(1/r)); r must lie strictly inside (0, 1).
    """
    check_alphabet(q)
    return _kl_q(s, r, q)


def _kl_q(s: float, r: float, q: int) -> float:
    """kl_q for an alphabet size q the caller has already checked."""
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"kl_q requires s in [0,1], got {s}")
    if not 0.0 < r < 1.0:
        raise DomainError(f"kl_q requires r strictly inside (0,1), got {r}")
    lq = math.log(q)
    out = 0.0
    if s > 0.0:
        out += s * math.log(s / r) / lq
    if s < 1.0:
        out += (1.0 - s) * math.log((1.0 - s) / (1.0 - r)) / lq
    return out


def multinomial_exact(L: int, parts: Sequence[int]) -> int:
    """L! / prod(parts_i!) as an exact integer."""
    for x in (L, *parts):
        integer(x, "multinomial arguments", 0, span="nonnegative integers")
    if sum(parts) != L:
        raise ValidationError(
            f"multinomial parts sum to {sum(parts)}, expected {L}"
        )
    out = math.factorial(L)
    for x in parts:
        out //= math.factorial(x)
    return out
