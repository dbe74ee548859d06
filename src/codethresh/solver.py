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

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
    "threshold_rates",
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
    """g(alpha) = log_q(sum_d |D_d| q^{alpha d}) - alpha p L and its derivatives.

    ``p`` may be one number or an array; ``alpha`` broadcasts against it.
    Evaluation factors each row's max term out of the exponential sum; the
    q^{alpha d} weights span hundreds of orders of magnitude near the left
    end of the bracket.
    """

    def __init__(self, profile: LevelProfile, p: float | Sequence[float]):
        self.profile = profile
        self.p = np.asarray(p, dtype=float)
        q, L = profile.params.q, profile.params.L
        self.q, self.L = q, L
        self.ln_q = math.log(q)
        levels = [d for d, lc in enumerate(profile.log_counts) if lc != -math.inf]
        self._d = np.array(levels, dtype=float)
        self._lc = np.array([profile.log_counts[d] for d in levels], dtype=float)

    def moments(self, alpha: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log_q Z, mean and variance of the level law weighted |D_d| q^{alpha d}.

        g = log_q Z - alpha p L, g' = mean - p L and g'' = ln q * variance.
        """
        alpha = np.asarray(alpha, dtype=float)
        w = self._lc + alpha[..., None] * self._d
        top = w.max(axis=-1, keepdims=True)
        z = np.exp((w - top) * self.ln_q)
        total = z.sum(axis=-1, keepdims=True)
        mean = (z * self._d).sum(axis=-1, keepdims=True) / total
        var = (z * (self._d - mean) ** 2).sum(axis=-1, keepdims=True) / total
        log_z = top + np.log(total) / self.ln_q
        return log_z[..., 0], mean[..., 0], var[..., 0]

    def value(self, alpha: float | np.ndarray) -> np.ndarray:
        log_z, _, _ = self.moments(alpha)
        return log_z - alpha * self.p * self.L

    def derivative(self, alpha: float | np.ndarray) -> np.ndarray:
        _, mean, _ = self.moments(alpha)
        return mean - self.p * self.L

    def bracket(self) -> tuple[np.ndarray, float]:
        """Interval containing the minimizer when 0 < pL < t*.

        At the left end lo = -(L + log_q(1/p)) every level d >= 1 weighs
        at most |D_d| (p q^{-L})^d <= q^L (p q^{-L})^d against |D_0| >= q,
        so the mean is below 2p/q < pL and g'(lo) < 0.  log_q(1/p) is
        taken as -ln(p)/ln(q), which stays finite for subnormal p.
        """
        if not np.all(self.p > 0.0):
            raise DomainError("the dual bracket requires p > 0")
        return -(self.L - np.log(self.p) / self.ln_q), 0.0


def _zero_rate(profile: LevelProfile, p: float) -> bool:
    """pL >= t*, decided exactly: p = num/den and t* = penalty_sum / q^L."""
    num, den = float(p).as_integer_ratio()
    q, L = profile.params.q, profile.params.L
    return num * L * q**L >= profile.penalty_sum * den


def _certified_bounds(
    dual: DualObjective, alpha: np.ndarray, p_l: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g, g', g'' at alpha, with a lower bound on beta that alpha certifies.

    For alpha <= 0, g(alpha) >= beta by weak duality.  The tilted law mu_alpha
    (mass q^{alpha d(v)} / Z on each vector v) has entropy
    H = g - alpha g'.  If its mean is at most pL (g' <= 0) it is feasible
    and beta >= H.  Otherwise mixing it with the uniform law on D_0 (mean 0,
    entropy log_q |D_0|) at weight t = g' / mean brings the mean down to pL,
    and by concavity of entropy beta >= (1 - t) H + t log_q |D_0|.
    """
    log_z, mean, var = dual.moments(alpha)
    g = log_z - alpha * p_l
    grad = mean - p_l
    entropy = g - alpha * grad
    over = np.divide(grad, mean, out=np.zeros_like(grad), where=grad > 0.0)
    lower = entropy - over * (entropy - dual.profile.log_counts[0])
    return g, grad, dual.ln_q * var, lower


def _solve_dual(
    dual: DualObjective, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize g for every p of ``dual`` at once; needs 0 < pL < t* per row.

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
    L = dual.L
    p_l = dual.p * L
    alpha = np.zeros_like(p_l)
    g, grad, curv, lower = _certified_bounds(dual, alpha, p_l)
    limit = grad <= 0.0
    upper = np.where(limit, float(L), g)
    lower = np.where(limit, float(L), lower)
    best = alpha.copy()
    lo = dual.bracket()[0]
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
        g, f, df, low = _certified_bounds(dual, nxt, p_l[rows])
        alpha[rows], grad[rows], curv[rows] = nxt, f, df
        lo[rows] = np.where(f < 0.0, nxt, lo[rows])
        hi[rows] = np.where(f < 0.0, hi[rows], nxt)
        best[rows] = np.where(g < upper[rows], nxt, best[rows])
        upper[rows] = np.minimum(upper[rows], g)
        lower[rows] = np.maximum(lower[rows], low)
        live[rows] = upper[rows] - lower[rows] > eps * L
    return np.clip(upper, 0.0, float(L)), best, np.maximum(upper - lower, 0.0) / L


def _threshold_results(
    profile: LevelProfile, ps: Sequence[float], eps: float
) -> list[ThresholdResult]:
    """R* for each p on one profile: regime tests per p, one dual solve for the rest."""
    L = profile.params.L
    out: list[Optional[ThresholdResult]] = [None] * len(ps)
    dual_rows = []
    for i, p in enumerate(ps):
        if _zero_rate(profile, p):
            out[i] = ThresholdResult(0.0, float(L), None, "zero_rate", 0.0)
        elif p == 0.0:
            # Constant vectors always lie in D_0, so the level is nonempty.
            b = profile.log_counts[0]
            out[i] = ThresholdResult(1.0 - b / L, b, None, "closed_form_zero_error", 0.0)
        else:
            dual_rows.append(i)
    if dual_rows:
        dual = DualObjective(profile, [ps[i] for i in dual_rows])
        betas, alphas, bounds = _solve_dual(dual, eps)
        for i, b, a, e in zip(dual_rows, betas.tolist(), alphas.tolist(), bounds.tolist()):
            out[i] = ThresholdResult(1.0 - b / L, b, a, "bisection", e)
    return out


def beta(
    query: ThresholdQuery, profile: Optional[LevelProfile] = None
) -> tuple[float, Optional[float]]:
    """The maximal bad-type entropy beta(p, ell, L), with the dual minimizer.

    Returns (L, None) in the zero-rate regime pL >= t* (decided in exact
    arithmetic, ties included), (log_q |D_0|, None) at p = 0, (L, 0.0)
    when pL is below t* by less than g'(0) resolves in floats, and
    otherwise the least dual value found, within epsilon * L of beta.
    """
    params = query.level_params()
    if profile is None:
        profile = level_profile(params)
    if profile.params != params:
        raise ValidationError(
            f"profile is for {profile.params}, query needs {params}"
        )
    res = _threshold_results(profile, [query.p], query.epsilon)[0]
    return res.beta, res.alpha_star


def threshold_rates(queries: Sequence[ThresholdQuery]) -> list[ThresholdResult]:
    """R* for queries that differ only in p, with one dual solve for all of them.

    Each result is what ``threshold_rate`` gives for its query; the
    ``error_bound`` of a dual result is the certified gap divided by L.
    """
    if not queries:
        return []
    first = queries[0]
    if any(
        (x.ell, x.L, x.q, x.epsilon) != (first.ell, first.L, first.q, first.epsilon)
        for x in queries
    ):
        raise ValidationError("queries must share ell, L, q and epsilon")
    profile = level_profile(first.level_params())
    return _threshold_results(profile, [x.p for x in queries], first.epsilon)


def threshold_rate(query: ThresholdQuery, use_closed_forms: bool = False) -> ThresholdResult:
    """R* = 1 - beta/L for the query, tagged with the computation path.

    The default always runs the general machinery (zero-rate test, p = 0
    closed form, or the dual solve, tagged "bisection").  With
    ``use_closed_forms`` the two named special slices short-circuit to their
    formulas: q=2, ell=1, L=3 with p in (0, 1/4), and the perfect-hashing
    slice p=0, ell=q-1, L=q.
    """
    if use_closed_forms:
        if query.q == 2 and query.ell == 1 and query.L == 3 and 0.0 < query.p < 0.25:
            r = list_of_two_rc_threshold(query.p)
            return ThresholdResult(r, 3.0 * (1.0 - r), None, "list_of_two_rc", 0.0)
        if query.p == 0.0 and query.ell == query.q - 1 and query.L == query.q:
            r = perfect_hashing_threshold(query.q)
            return ThresholdResult(
                r, query.L * (1.0 - r), None, "perfect_hashing", 0.0
            )
    return threshold_rates([query])[0]


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
