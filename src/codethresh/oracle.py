"""Independent brute-force references for the solver and the simulator.

Used by tests and the `verify` CLI subcommand only; nothing here is on a
performance path, and nothing here shares optimization code with the
solver.  Four references are provided:

* beta as a constrained maximization over level-space distributions mu
  (mass on penalty levels d), maximizing
      F(mu) = H_q(mu) + sum_d mu[d] log_q |D_d|
  subject to sum_d d mu[d] <= pL, enclosed from the exact counts in a
  proven decimal interval;
* level-set counts by direct bucketing of all q^L vectors, and by
  weighting every composition of L into q parts with its multinomial;
* badness of a column tuple by exhausting every K-set assignment;
* the pushforward of a distribution tau over F_2^3 under one full-rank
  binary map, the map-level reference for the random linear code scan.
"""

from __future__ import annotations

import functools
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
    "brute_force_badness",
    "brute_force_level_counts",
    "composition_level_counts",
    "implied_distribution",
]


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


@functools.lru_cache(maxsize=1)
def _sorted_histograms(q: int, L: int) -> np.ndarray:
    """Symbol histograms of every vector of Sigma^L, each sorted ascending.

    Shared by every ell at one (q, L), so the table is read-only.
    """
    space = q**L
    idx = np.arange(space)
    digits = np.empty((space, L), dtype=np.int16)
    for pos in range(L - 1, -1, -1):
        idx, digits[:, pos] = np.divmod(idx, q)
    freq = np.zeros((space, q), dtype=np.int16)
    for s in range(q):
        freq[:, s] = (digits == s).sum(axis=1)
    freq.sort(axis=1)
    freq.flags.writeable = False
    return freq


def brute_force_level_counts(params: LevelSetParams) -> tuple[int, ...]:
    """Level-set counts by bucketing every vector of Sigma^L directly."""
    q, ell, L = params.q, params.ell, params.L
    space = q**L
    if space > 10**7:
        raise BudgetError(f"q^L = {space} is too large to enumerate directly")
    top = _sorted_histograms(q, L)[:, q - ell :].sum(axis=1)
    d = L - top
    hist = np.bincount(d, minlength=L + 1)
    return tuple(int(x) for x in hist)


def composition_level_counts(params: LevelSetParams) -> tuple[int, ...]:
    """Level-set counts from every histogram: the compositions of L into q parts.

    Each histogram eta contributes multinomial(L; eta) vectors to level
    L - (sum of the ell largest entries of eta).  Compositions are read off
    the q - 1 bar positions among L + q - 1 slots (stars and bars).
    """
    return _composition_levels(params.q, params.L)[params.ell - 1]


@functools.lru_cache(maxsize=1)
def _composition_levels(q: int, L: int) -> tuple[tuple[int, ...], ...]:
    """composition_level_counts for ell = 1..q, from one walk over the compositions."""
    counts = [[0] * (L + 1) for _ in range(q)]
    weights: dict[tuple[int, ...], int] = {}  # multinomials by sorted histogram
    for bars in itertools.combinations(range(L + q - 1), q - 1):
        edges = (-1, *bars, L + q - 1)
        eta = tuple(sorted((b - a - 1 for a, b in zip(edges, edges[1:])), reverse=True))
        if (weight := weights.get(eta)) is None:
            weight = weights[eta] = multinomial_exact(L, eta)
        for level, top in zip(counts, itertools.accumulate(eta)):
            level[L - top] += weight
    return tuple(map(tuple, counts))


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
