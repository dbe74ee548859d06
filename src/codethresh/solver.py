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
minus pL and g''(alpha) is ln q times their variance, so the minimizer is
found by safeguarded Newton on g' inside the bracket
[-(L + log_q(1/p)), 0], with a whole grid of p solved as one array.  Each
iterate bounds beta from above (g itself) and from below (the entropy of
a feasible primal law), and the reported error bound is the final gap.
The remaining regimes are closed form: pL >= t* forces beta = L
(threshold 0), and p = 0 gives beta = log_q |D_0|.

Special slices with named closed forms (list-of-two over F_2, perfect
hashing, the zero-error case, the KL approximation, and a two-property
toy comparison) are exposed alongside the general solver.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError, integer, real
from .levels import LevelProfile, LevelSetParams, level_profile
from .qmath import _kl_q, check_alphabet, q_ary_entropy

__all__ = [
    "ThresholdQuery",
    "ThresholdResult",
    "threshold_rate",
    "zero_error_threshold",
    "perfect_hashing_threshold",
    "list_of_two_rc_threshold",
    "kl_estimate",
    "ToyRates",
    "toy_property_rates",
]


@dataclass(frozen=True)
class ThresholdQuery:
    """A (p, ell, L, q) instance plus the additive tolerance on R*."""

    p: float
    ell: int
    L: int
    q: int
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        check_alphabet(self.q, self.ell)
        integer(self.L, "L", 2)
        for name in ("p", "epsilon"):  # stored as the float the rule returns
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not 0.0 <= self.p < 1.0:
            raise DomainError(f"p must lie in [0, 1), got {self.p}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValidationError(f"epsilon must be positive and finite, got {self.epsilon}")


@dataclass(frozen=True)
class ThresholdResult:
    """R* together with beta, the dual minimizer, and how it was obtained."""

    r_star: float
    beta: float
    alpha_star: Optional[float]
    method: str
    error_bound: float


def _zero_rate(profile: LevelProfile, p: float) -> bool:
    """pL >= t*, decided exactly: p = num/den and t* = penalty_sum / q^L."""
    num, den = float(p).as_integer_ratio()
    q, L = profile.params.q, profile.params.L
    return num * L * q**L >= profile.penalty_sum * den


def _dual(profile: LevelProfile, p: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The bracket's left end lo for each p > 0, and an evaluator of the dual.

    ``evaluate(alpha, p_l)`` gives per row g, g', g'' at alpha and the lower
    bound on beta that alpha certifies, at pL = ``p_l``.  Each row's largest
    term is factored out of the sum Z of |D_d| q^{alpha d}: the weights span
    hundreds of orders of magnitude near lo.

    For alpha <= 0, g(alpha) >= beta by weak duality.  The tilted law
    mu_alpha (mass q^{alpha d(v)} / Z on each vector v) has entropy
    H = g - alpha g'.  If its mean is at most pL (g' <= 0) it is feasible
    and beta >= H.  Otherwise mixing it with the uniform law on D_0 (mean 0,
    entropy log_q |D_0|) at weight t = g' / mean brings the mean down to pL,
    and by concavity of entropy beta >= (1 - t) H + t log_q |D_0|.

    The minimizer lies in [lo, 0] when 0 < pL < t*: at lo = -(L + log_q(1/p))
    every level d >= 1 weighs at most |D_d| (p q^{-L})^d <= q^L (p q^{-L})^d
    against |D_0| >= q, so the mean is below 2p/q < pL and g'(lo) < 0.
    log_q(1/p) is taken as -ln(p)/ln(q), which stays finite for subnormal p.
    """
    ln_q, L = math.log(profile.params.q), profile.params.L
    levels = [d for d, lc in enumerate(profile.log_counts) if lc != -math.inf]
    # Two contiguous arrays, built once per solve: (2,1,2000) has 2,001 levels.
    d = np.array(levels, dtype=float)
    lc = np.array([profile.log_counts[k] for k in levels], dtype=float)
    log_d0 = profile.log_counts[0]

    def evaluate(alpha: np.ndarray, p_l: np.ndarray) -> tuple[np.ndarray, ...]:
        w = lc + alpha[..., None] * d
        top = w.max(axis=-1, keepdims=True)
        z = np.exp((w - top) * ln_q)
        total = z.sum(axis=-1, keepdims=True)
        mean = (z * d).sum(axis=-1, keepdims=True) / total
        var = (z * (d - mean) ** 2).sum(axis=-1, keepdims=True) / total
        g = (top + np.log(total) / ln_q)[..., 0] - alpha * p_l
        mean = mean[..., 0]
        grad = mean - p_l
        entropy = g - alpha * grad
        over = np.divide(grad, mean, out=np.zeros_like(grad), where=grad > 0.0)
        return g, grad, ln_q * var[..., 0], entropy - over * (entropy - log_d0)

    return -(L - np.log(p) / ln_q), evaluate


def _solve_dual(
    profile: LevelProfile, p: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize g for every p at once; needs 0 < pL < t* per row.

    Safeguarded Newton on g' (rtsafe, Numerical Recipes 9.4) from alpha = 0
    inside the bracket [lo, 0]: a Newton step that leaves the bracket, or
    that is more than half the step before it, is replaced by bisection.
    Each row keeps the least g and the largest certified lower bound over
    its iterates, and stops once their gap is at most eps * L or its next
    iterate equals the current one.  Returns (beta, alpha, gap / L), beta
    being the least g and alpha where it was attained.  A row whose g'(0)
    is <= 0 in floats although pL < t* exactly returns the continuity
    limit (L, 0, 0): the minimizer lies within rounding of alpha = 0.
    """
    L = profile.params.L
    p_l = p * L
    lo, evaluate = _dual(profile, p)
    alpha = np.zeros_like(p_l)
    g, grad, curv, lower = evaluate(alpha, p_l)
    limit = grad <= 0.0
    upper = np.where(limit, float(L), g)
    lower = np.where(limit, float(L), lower)
    best = alpha.copy()
    hi = np.zeros_like(lo)
    step_old = hi - lo
    live = upper - lower > eps * L
    while live.any():
        rows = np.flatnonzero(live)
        a, f, df = alpha[rows], grad[rows], curv[rows]
        left, right = lo[rows], hi[rows]
        # rtsafe's test: take Newton only if its step is at most half the last
        # one, checked before dividing so that a tiny g'' cannot overflow.
        fast = (df > 0.0) & (np.abs(f) <= 0.5 * step_old[rows] * df)
        step = np.divide(f, df, out=np.zeros_like(f), where=fast)
        newton = a - step
        take = fast & (newton > left) & (newton < right)
        half = 0.5 * (right - left)
        nxt = np.where(take, newton, left + half)
        step_old[rows] = np.where(take, np.abs(step), half)
        moved = nxt != a
        live[rows[~moved]] = False
        rows, nxt = rows[moved], nxt[moved]
        g, f, df, low = evaluate(nxt, p_l[rows])
        alpha[rows], grad[rows], curv[rows] = nxt, f, df
        lo[rows] = np.where(f < 0.0, nxt, lo[rows])
        hi[rows] = np.where(f < 0.0, hi[rows], nxt)
        best[rows] = np.where(g < upper[rows], nxt, best[rows])
        upper[rows] = np.minimum(upper[rows], g)
        lower[rows] = np.maximum(lower[rows], low)
        live[rows] = upper[rows] - lower[rows] > eps * L
    return np.clip(upper, 0.0, float(L)), best, np.maximum(upper - lower, 0.0) / L


def _threshold_columns(
    profile: LevelProfile, ps: Sequence[float], eps: float
) -> tuple[list[float], list[float], list[Optional[float]], list[str], list[float]]:
    """R* for each p in [0, 1), in any order, as ThresholdResult's five columns.

    The zero-rate test pL >= t* is monotone in p, so its rows are a tail of
    the p-sorted order, found by bisecting the exact test.  The p = 0 rows
    below it take the closed form, and the rest are one dual solve.
    """
    L, n = profile.params.L, len(ps)
    order = sorted(range(n), key=ps.__getitem__)
    cut = bisect.bisect_left(order, True, key=lambda i: _zero_rate(profile, ps[i]))
    zeros = bisect.bisect_right(order, 0.0, hi=cut, key=ps.__getitem__)
    r_star, beta, alpha = [0.0] * n, [float(L)] * n, [None] * n
    method, bound = ["zero_rate"] * n, [0.0] * n
    # Constant vectors always lie in D_0, so the level is nonempty.
    b0 = profile.log_counts[0]
    for i in order[:zeros]:
        r_star[i], beta[i], method[i] = 1.0 - b0 / L, b0, "closed_form_zero_error"
    if rows := order[zeros:cut]:
        betas, alphas, bounds = _solve_dual(profile, np.array([ps[i] for i in rows]), eps)
        for i, r, b, a, e in zip(rows, (1.0 - betas / L).tolist(), betas.tolist(),
                                 alphas.tolist(), bounds.tolist()):
            r_star[i], beta[i], alpha[i], method[i], bound[i] = r, b, a, "bisection", e
    return r_star, beta, alpha, method, bound


def threshold_rate(query: ThresholdQuery) -> ThresholdResult:
    """R* = 1 - beta/L for the query: its row of ``_threshold_columns``.

    ``method`` is "zero_rate" (pL >= t*), "closed_form_zero_error" (p = 0) or
    "bisection" (the dual solve: beta within epsilon * L, error_bound the gap / L).
    """
    profile = level_profile(LevelSetParams(query.q, query.ell, query.L))
    columns = _threshold_columns(profile, [query.p], query.epsilon)
    return ThresholdResult(*(column[0] for column in columns))


def zero_error_threshold(params: LevelSetParams) -> float:
    """R* at p = 0 as ``threshold_rate`` gives it: 1 - log_q|D_0| / L, and 0 if t* = 0."""
    return _threshold_columns(level_profile(params), [0.0], 1.0)[0][0]  # no solve at p = 0


def perfect_hashing_threshold(q: int) -> float:
    """Threshold for (0, q-1, q)-list-recovery: (1/q) log_q(1/(1 - q!/q^q)).

    A code with this property maps any q codewords to distinct symbols at
    some coordinate; the count behind the formula is |D_0| = q^q - q!.
    """
    check_alphabet(q)
    if q >= 800:  # q!/q^q <= e sqrt(q) e^-q < 2**-1075: 0.0, as the formula gives from q = 741
        return 0.0
    ratio = math.factorial(q) / q**q
    return -math.log1p(-ratio) / (q * math.log(q))


def list_of_two_rc_threshold(p: float) -> float:
    """Random-code list-of-two threshold 1 - (1 + h_2(3p) + 3p log_2 3)/3.

    Fixed to q = 2; valid for p in the open interval (0, 1/4), which is
    exactly where the threshold is positive.
    """
    if not 0.0 < (p := real(p, "p")) < 0.25:
        raise DomainError(f"p must lie in (0, 1/4), got {p}")
    return 1.0 - (1.0 + q_ary_entropy(3.0 * p, 2) + 3.0 * p * math.log2(3.0)) / 3.0


def _kl_estimates(ps: Sequence[float], ell: int, L: int, q: int) -> tuple[list[float], float]:
    """kl_estimate for each p of one checked (ell, L, q): the estimates, and their common band."""
    band = q * math.log(L) / L
    r = 1.0 - ell / q
    return [0.0 if r <= 0.0 or p >= r else _kl_q(p, r, q) for p in ps], band


def kl_estimate(query: ThresholdQuery) -> tuple[float, float]:
    """The large-L approximation D_q(p || 1 - ell/q) with its error scale.

    Returns 0 when p >= 1 - ell/q.  The band q * ln(L) / L is the shape of
    the approximation error; its constant is not pinned down, so the band
    is reported as an uncalibrated scale (natural logarithm).
    """
    (estimate,), band = _kl_estimates([query.p], query.ell, query.L, query.q)
    return estimate, band


class ToyRates(NamedTuple):
    r_theorem: float
    r_dagger: float


def toy_property_rates(p: float) -> ToyRates:
    """Rates for the three-word toy property (binary, n even, p in (0, 1/2)).

    r_theorem is what a first-moment recipe built on full types yields;
    r_dagger is the actual threshold once structured triples are counted
    directly.  r_dagger exceeds r_theorem for p up to 0.3.
    """
    if not 0.0 < (p := real(p, "p")) < 0.5:
        raise DomainError(f"p must lie in (0, 1/2), got {p}")
    r_theorem = 1.0 - (
        p * math.log2(2.0 / p**2) + (1.0 - 2.0 * p) * math.log2(1.0 / (1.0 - 2.0 * p))
    ) / 3.0
    r_dagger = 1.0 - (
        p * math.log2(2.0 / p) + (1.0 - p) * math.log2(1.0 / (1.0 - p))
    ) / 2.0
    return ToyRates(r_theorem, r_dagger)
