"""Level sets of the list-recovery penalty P_ell.

For v in Sigma^L, P_ell(v) is the smallest number of entries of v left
uncovered by any set of ell symbols; equivalently L minus the sum of the
ell largest histogram frequencies of v.  The level set D_{d} collects the
vectors with P_ell(v) = d, and

    t* = q^{-L} * sum_d d * |D_d|

is the expected penalty of a uniform vector.  Everything later (the dual
solver, the zero-rate regime test, the oracle) consumes these counts.

The level of v depends only on its sorted histogram, a partition of L into
at most q parts, so counts are exact integers accumulated over partitions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import BudgetError, integer
from .qmath import check_alphabet

__all__ = ["LevelSetParams", "LevelProfile", "p_ell", "level_profile"]

#: Refuse profiles that need more than this many partitions.
PARTITION_BUDGET = 20_000_000

#: Refuse profiles whose counts could take more than this many bits; each of
#: the L + 1 counts is at most q^L, so (L + 1) * L * log2(q) bits bound them.
COUNT_BITS_BUDGET = 2**28


@dataclass(frozen=True)
class LevelSetParams:
    """Alphabet size q, list size ell, and tuple size L."""

    q: int
    ell: int
    L: int

    def __post_init__(self) -> None:
        check_alphabet(self.q, self.ell)
        integer(self.L, "L", 1)


@dataclass(frozen=True)
class LevelProfile:
    """Cardinalities |D_d| for d = 0..L plus the uniform expectation t*.

    ``counts`` holds the exact integers; ``log_counts`` holds their base-q
    logarithms (-inf marking empty levels) for the floating-point solver.
    ``penalty_sum`` is the exact sum_d d * |D_d|, so t* = penalty_sum / q^L.
    """

    params: LevelSetParams
    counts: tuple[int, ...]
    log_counts: tuple[float, ...]
    t_star: float
    penalty_sum: int


def p_ell(v: Sequence[int], ell: int, q: int) -> int:
    """Minimum number of entries of v outside any ell-symbol set.

    The minimizing set is always the ell most frequent symbols, so this
    sorts the histogram of v descending and subtracts the top-ell mass.
    """
    check_alphabet(q, ell)
    span = f"ints in 0..{q - 1}"
    freq = Counter(integer(s, "symbols", 0, q - 1, span) for s in v)
    covered = sum(sorted(freq.values(), reverse=True)[:ell])
    return len(v) - covered


def _partition_count(L: int, q: int) -> int:
    """Number of partitions of L into at most q parts.

    By conjugation these are the partitions into parts of size at most q,
    counted by the usual coin-change recurrence in O(L * q).
    """
    ways = [1] + [0] * L
    for part in range(1, min(q, L) + 1):
        for n in range(part, L + 1):
            ways[n] += ways[n - part]
    return ways[L]


@lru_cache(maxsize=128)
def level_profile(params: LevelSetParams) -> LevelProfile:
    """Count each level set by partition enumeration.

    A partition lambda of L with k <= q nonzero parts, m_j of them equal
    to j, is the sorted histogram of

        multinomial(L; lambda) * q! / ((q - k)! * prod_j m_j!)

    vectors, all at level L - (lambda_1 + ... + lambda_ell).  Partitions
    are walked depth first with parts in nonincreasing order, which visits
    them in reverse lexicographic order as Knuth's Algorithm P does (TAOCP
    4A, 7.2.1.4).  Part i contributes the factor C(rest, lambda_i) to the
    multinomial, and stepping lambda_i down by one updates it in place
    with C(n, f-1) = C(n, f) * f / (n - f + 1).  With two slots left the
    last part is forced, so its leaf is added in the loop, not by a call.
    """
    q, ell, L = params.q, params.ell, params.L
    bits = (L + 1) * L * math.log2(q)
    if bits > COUNT_BITS_BUDGET:
        raise BudgetError(
            f"profile for q={q}, L={L} may hold {bits:.3g} bits of counts, "
            f"over the budget of {COUNT_BITS_BUDGET}"
        )
    n_parts = _partition_count(L, q)
    if n_parts > PARTITION_BUDGET:
        raise BudgetError(
            f"profile for q={q}, L={L} needs {n_parts} partitions, "
            f"over the budget of {PARTITION_BUDGET}"
        )
    counts = [0] * (L + 1)

    def walk(depth: int, rest: int, cap: int, run: int, weight: int, covered: int) -> None:
        # ``depth`` parts are placed, the last equal to ``cap`` and ending a
        # run of ``run`` equal parts; ``weight`` is their multinomial prefix
        # times their arrangements over q symbols; ``rest`` is still to place.
        slots = q - depth
        top = min(cap, rest)
        binom = math.comb(rest, top) if top < rest else 1
        for f in range(top, -(-rest // slots) - 1, -1):
            r = run + 1 if f == cap else 1
            w = weight * binom * slots // r
            c = covered + f if depth < ell else covered
            if f == rest:
                counts[L - c] += w
            elif slots == 2:  # the last part g = rest - f is forced, and g <= f
                g = rest - f
                counts[L - (c + g if depth + 1 < ell else c)] += w // (r + 1 if g == f else 1)
            else:
                walk(depth + 1, rest - f, f, r, w, c)
            binom = binom * f // (rest - f + 1)

    walk(0, L, L, 0, 1, 0)
    log_q = math.log(q)
    log_counts = tuple(math.log(c) / log_q if c else -math.inf for c in counts)
    total = sum(d * c for d, c in enumerate(counts))
    t_mean = float(Fraction(total, q**L))
    return LevelProfile(params, tuple(counts), log_counts, t_mean, total)
