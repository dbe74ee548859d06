"""Independent brute-force references for the solver and the simulator.

Used by tests and the `verify` CLI subcommand only; nothing here is on a
performance path, and nothing here shares optimization code with the
solver.  Four references are provided:

* beta as a constrained maximization over level-space distributions mu
  (mass on penalty levels d), maximizing
      F(mu) = H_q(mu) + sum_d mu[d] log_q |D_d|
  subject to sum_d d mu[d] <= pL, either enclosed from the exact counts in
  a proven decimal interval or, fully shape-agnostic, by projected
  pairwise coordinate ascent from random simplex starts;
* level-set counts by direct bucketing of all q^L vectors, and by
  weighting every composition of L into q parts with its multinomial;
* badness of a column tuple by exhausting every K-set assignment;
* the pushforward of a distribution tau over F_2^3 under one full-rank
  binary map, the map-level reference for the random linear code scan.
"""

from __future__ import annotations

import itertools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetError, ValidationError
from .levels import LevelProfile, LevelSetParams
from .qmath import multinomial_exact

__all__ = [
    "beta_enclosure",
    "beta_ascent_oracle",
    "brute_force_badness",
    "brute_force_level_counts",
    "composition_level_counts",
    "implied_distribution",
]


def _finite_levels(profile: LevelProfile) -> tuple[np.ndarray, np.ndarray]:
    levels = [d for d, lc in enumerate(profile.log_counts) if lc != -math.inf]
    lcs = [profile.log_counts[d] for d in levels]
    return np.array(levels, dtype=float), np.array(lcs, dtype=float)


def _objective(mu: np.ndarray, d: np.ndarray, lc: np.ndarray, q: int) -> float:
    ent = -float(np.sum(np.where(mu > 0.0, mu * np.log(np.maximum(mu, 1e-300)), 0.0)))
    return ent / math.log(q) + float(mu @ lc)


def beta_enclosure(p: float, profile: LevelProfile) -> tuple[Decimal, Decimal]:
    """[lo, hi] proven to contain beta, from the exact counts in 60-digit decimals.

    hi = g(alpha) = log_q sum_d |D_d| q^(alpha d) - alpha pL, an upper bound by
    weak duality at alpha <= 0, the left end of [-(L + log_q(1/p)), 0] after
    halving it against the tilted mean.  lo = F(mu) for the tilted law at
    alpha, normalized exactly in integers and mixed with the point mass on
    level 0 down to mean pL if above it, so mu is exactly feasible.  Decimal
    operations err by about a unit in the 60th digit; 1e-45 of widening covers it.
    pL >= t*, decided exactly, gives [L, L]; p = 0 gives log_q |D_0|.
    """
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"p must lie in [0, 1), got {p}")
    q, L, counts = profile.params.q, profile.params.L, profile.counts
    p_l = Fraction(p) * L
    if p_l * q**L >= profile.penalty_sum:
        return Decimal(L), Decimal(L)
    with localcontext(Context(prec=60)):
        ln_q, slack = Decimal(q).ln(), Decimal("1e-45")
        if p == 0.0:
            beta = Decimal(counts[0]).ln() / ln_q
            return beta - slack, beta + slack

        def tilt(alpha: Decimal) -> list[Decimal]:
            x = (alpha * ln_q).exp()
            return [c * x**d for d, c in enumerate(counts)]

        target, left, right = Decimal(p) * L, Decimal(p).ln() / ln_q - L, Decimal(0)
        for _ in range(200):  # the bracket is below 2e4 wide; it ends below 1e-55
            mid = (left + right) / 2
            below = sum((d - target) * w for d, w in enumerate(tilt(mid))) < 0
            left, right = (mid, right) if below else (left, mid)
        z = tilt(left)
        hi = sum(z).ln() / ln_q - left * target
        ints = [int(w.scaleb(70)) for w in z]  # ints[0] >= 2e70, as |D_0| >= 2
        moment, total = sum(d * w for d, w in enumerate(ints)), sum(ints)
        keep = min(Fraction(1), p_l * total / moment) if moment else Fraction(1)
        mu = [keep * Fraction(w, total) for w in ints]
        mu[0] += 1 - keep
        lo = sum(m * (Decimal(c).ln() - m.ln()) for c, m in zip(
            counts, (Decimal(f.numerator) / f.denominator for f in mu)) if m)
        return lo / ln_q - slack, hi + slack


def beta_ascent_oracle(p: float, profile: LevelProfile) -> float:
    """Maximize F(mu) by projected pairwise coordinate ascent.

    Makes no use of the exponential-family shape: 5 random feasible simplex
    points (seed 0) are improved by exact line searches along mass transfers
    between level pairs, plus mean-preserving transfers among level
    triples (needed once the mean constraint binds, where no pair move
    can slide along the constraint), for at most 500 sweeps each.  Intended
    for the smallest profiles (L <= 3), where the landscape is low-dimensional.
    """
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"p must lie in [0, 1), got {p}")
    q, L = profile.params.q, profile.params.L
    d, lc = _finite_levels(profile)
    pL = p * L
    k = d.size
    if k == 1:
        return float(lc[0])
    weights = np.power(float(q), lc - lc.max())  # relative |D_d|, overflow-safe
    rng = np.random.default_rng(0)

    best = float(lc[0])
    for _ in range(5):
        mu = rng.dirichlet(np.ones(k))
        mean = float(d @ mu)
        if mean > pL:
            # Mix toward the point mass on level 0 until the constraint binds.
            lam = pL / mean
            mu = lam * mu
            mu[0] += 1.0 - lam
            mean = float(d @ mu)
        value = _objective(mu, d, lc, q)
        for _ in range(500):
            improved = 0.0
            for i in range(k):
                for j in range(i + 1, k):
                    # Transfer t from level j to level i; the objective along
                    # the segment is strictly concave with interior optimum at
                    # (mu_i + t)/(mu_j - t) = |D_i|/|D_j|.
                    wi, wj = weights[i], weights[j]
                    t = (wi * mu[j] - wj * mu[i]) / (wi + wj)
                    t_lo, t_hi = -mu[i], mu[j]
                    if d[i] != d[j]:
                        slack = (pL - mean) / (d[i] - d[j])
                        if d[i] > d[j]:
                            t_hi = min(t_hi, slack)
                        else:
                            t_lo = max(t_lo, slack)
                    t = min(max(t, t_lo), t_hi)
                    if t == 0.0:
                        continue
                    mu[i] += t
                    mu[j] -= t
                    mean += t * (d[i] - d[j])
                    new_value = _objective(mu, d, lc, q)
                    improved += max(0.0, new_value - value)
                    value = new_value
            for trip in itertools.combinations(range(k), 3):
                t = _triple_transfer(mu, trip, d, lc, q)
                if t == 0.0:
                    continue
                new_value = _objective(mu, d, lc, q)
                improved += max(0.0, new_value - value)
                value = new_value
            if improved < 1e-13:
                break
        best = max(best, value)
    return best


def _triple_transfer(
    mu: np.ndarray, trip: tuple[int, int, int], d: np.ndarray, lc: np.ndarray, q: int
) -> float:
    """Best mean-preserving move among three levels, applied in place.

    The direction v = (d_k - d_j, d_i - d_k, d_j - d_i) on (i, j, k) has
    sum 0 and d @ v = 0, so it keeps both constraints; the objective is
    strictly concave along it and the optimum is found by bisecting the
    derivative.  Returns the step taken (0.0 when no move is possible).
    """
    i, j, k = trip
    v = np.array([d[k] - d[j], d[i] - d[k], d[j] - d[i]])
    if not v.any():
        return 0.0
    part = np.array([mu[i], mu[j], mu[k]])
    t_lo, t_hi = -math.inf, math.inf
    for m in range(3):
        if v[m] > 0:
            t_lo = max(t_lo, -part[m] / v[m])
        elif v[m] < 0:
            t_hi = min(t_hi, part[m] / -v[m])
    if not t_lo < t_hi:
        return 0.0
    lcs = np.array([lc[i], lc[j], lc[k]])

    def slope(t: float) -> float:
        x = np.maximum(part + t * v, 1e-300)
        return float(v @ lcs - (v @ np.log(x)) / math.log(q))

    if slope(t_lo) <= 0.0:
        t = t_lo
    elif slope(t_hi) >= 0.0:
        t = t_hi
    else:
        lo, hi = t_lo, t_hi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
    if t == 0.0:
        return 0.0
    before = _objective(mu, d, lc, q)
    moved = np.maximum(part + t * v, 0.0)
    mu[i], mu[j], mu[k] = moved
    if _objective(mu, d, lc, q) <= before:
        mu[i], mu[j], mu[k] = part
        return 0.0
    return t


def brute_force_badness(
    columns: Sequence[Sequence[int]], p: float, ell: int, q: int
) -> bool:
    """Exhaust every assignment of size-ell sets across coordinates."""
    L = len(columns)
    cols = [tuple(c) for c in columns]
    n = len(cols[0])
    choices = list(itertools.combinations(range(q), ell))
    total = len(choices) ** n
    if total > 10**6:
        raise BudgetError(
            f"{len(choices)}^{n} = {total} assignments exceed the brute-force budget"
        )
    budget = math.floor(p * n)
    for assignment in itertools.product(choices, repeat=n):
        ok = True
        for col in cols:
            violations = sum(1 for i in range(n) if col[i] not in assignment[i])
            if violations > budget:
                ok = False
                break
        if ok:
            return True
    return False


def brute_force_level_counts(params: LevelSetParams) -> tuple[int, ...]:
    """Level-set counts by bucketing every vector of Sigma^L directly."""
    q, ell, L = params.q, params.ell, params.L
    space = q**L
    if space > 10**7:
        raise BudgetError(f"q^L = {space} is too large to enumerate directly")
    idx = np.arange(space)
    digits = np.empty((space, L), dtype=np.int16)
    for pos in range(L - 1, -1, -1):
        idx, digits[:, pos] = np.divmod(idx, q)
    freq = np.zeros((space, q), dtype=np.int16)
    for s in range(q):
        freq[:, s] = (digits == s).sum(axis=1)
    freq.sort(axis=1)
    top = freq[:, q - ell :].sum(axis=1)
    d = L - top
    hist = np.bincount(d, minlength=L + 1)
    return tuple(int(x) for x in hist)


def composition_level_counts(params: LevelSetParams) -> tuple[int, ...]:
    """Level-set counts from every histogram: the compositions of L into q parts.

    Each histogram eta contributes multinomial(L; eta) vectors to level
    L - (sum of the ell largest entries of eta).  Compositions are read off
    the q - 1 bar positions among L + q - 1 slots (stars and bars).
    """
    q, ell, L = params.q, params.ell, params.L
    counts = [0] * (L + 1)
    for bars in itertools.combinations(range(L + q - 1), q - 1):
        edges = (-1, *bars, L + q - 1)
        eta = [b - a - 1 for a, b in zip(edges, edges[1:])]
        counts[L - sum(sorted(eta, reverse=True)[:ell])] += multinomial_exact(L, eta)
    return tuple(counts)


def _rank_gf2(vectors: Sequence[int]) -> int:
    """Rank over F_2 of bitmask vectors, by leading-bit elimination."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def _matrix_rows(a_matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Validate an m x 3 binary matrix and pack its rows into bitmasks."""
    m = len(a_matrix)
    if not 1 <= m <= 3:
        raise ValidationError(f"matrix must have 1 to 3 rows, got {m}")
    rows = []
    for row in a_matrix:
        if len(row) != 3 or any(x not in (0, 1) for x in row):
            raise ValidationError(f"matrix rows must be binary triples, got {row!r}")
        rows.append(row[0] << 2 | row[1] << 1 | row[2])
    if _rank_gf2(rows) != m:
        raise ValidationError("matrix must have full rank over F_2")
    return tuple(rows)


def implied_distribution(
    tau: Sequence[float], a_matrix: Sequence[Sequence[int]]
) -> tuple[float, ...]:
    """Pushforward of tau under u -> Au, as probabilities over F_2^m.

    tau holds the probabilities of the 8 vectors of F_2^3, indexed with the
    first coordinate as the most significant bit (6 = 110); A is a full-rank
    m x 3 binary matrix, m = 1, 2 or 3.
    """
    if len(tau) != 8 or not all(x >= 0.0 for x in tau) or not abs(math.fsum(tau) - 1) <= 1e-12:
        raise ValidationError(f"tau must be 8 nonnegative numbers summing to 1, got {tau!r}")
    rows = _matrix_rows(a_matrix)
    out = [0.0] * (1 << len(rows))
    for u in range(8):
        image = 0
        for row in rows:
            image = image << 1 | bin(row & u).count("1") & 1  # bit <row, u> of A u
        out[image] += tau[u]
    return tuple(out)
