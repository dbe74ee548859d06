"""List-of-two thresholds for random linear codes over F_2.

For random linear codes the three codewords of a potential violation are
not independent: any full-rank linear map A : F_2^3 -> F_2^m yields
further rare events through the pushforward (the "implied" distribution)
of the row type tau of the bad matrix.  The threshold is governed by the
worst ratio H(tau') / dim(tau') over all implied types tau', where the
relevant tau in the list-of-two problem is the limit distribution

    tau(000) = tau(111) = (1 - 3p)/2,      tau(u) = p/2 otherwise.

A full-rank map sends each coset u + K of its kernel K to one point, so
the pushforward is tau summed over the cosets of K, in dimension 3 - dim K;
the scan walks the 15 subspaces K of F_2^3 directly, building no map.  The
minimum is attained at K = {000, 111} (a rank-2 map), giving the closed form

    R*_RLC = 1 - (h_2(3p) + 3p log_2 3) / 2,

strictly above the plain random-code value for every p in (0, 1/4).

Vectors of F_2^3 are indexed 0..7 with the first coordinate as the most
significant bit, so 6 = 110 means (1, 1, 0).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DomainError, ValidationError
from .qmath import entropy_q, q_ary_entropy

__all__ = [
    "BinaryDistribution3",
    "ImpliedTypeEntry",
    "implied_distribution",
    "ImpliedTypeScan",
    "implied_type_scan",
    "rlc_list_of_two_threshold",
]


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


def _dot_gf2(row: int, u: int) -> int:
    return bin(row & u).count("1") & 1


@dataclass(frozen=True)
class BinaryDistribution3:
    """A probability distribution over the 8 vectors of F_2^3."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) != 8:
            raise ValidationError(
                f"need 8 probabilities over F_2^3, got {len(self.probs)}"
            )
        if not all(x >= 0.0 for x in self.probs):
            raise ValidationError("probabilities must be nonnegative numbers, not NaN")
        total = math.fsum(self.probs)
        if not abs(total - 1.0) <= 1e-12:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def limit_for_noise(cls, p: float) -> "BinaryDistribution3":
        """Mass (1-3p)/2 on 000 and 111, p/2 on the six mixed vectors."""
        if not 0.0 < p < 1.0 / 3.0:
            raise DomainError(f"the limit distribution needs p in (0, 1/3), got {p}")
        probs = [p / 2.0] * 8
        probs[0] = probs[7] = (1.0 - 3.0 * p) / 2.0
        return cls(tuple(probs))


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
    tau: BinaryDistribution3, a_matrix: Sequence[Sequence[int]]
) -> tuple[float, ...]:
    """Pushforward of tau under u -> Au, as probabilities over F_2^m."""
    rows = _matrix_rows(a_matrix)
    m = len(rows)
    out = [0.0] * (1 << m)
    for u in range(8):
        image = 0
        for row in rows:
            image = (image << 1) | _dot_gf2(row, u)
        out[image] += tau.probs[u]
    return tuple(out)


@dataclass(frozen=True)
class ImpliedTypeEntry:
    """One kernel class of full-rank maps: its pushforward entropy and ratio."""

    map_label: str
    entropy: float
    dimension: int
    ratio: float


class ImpliedTypeScan(NamedTuple):
    entries: tuple[ImpliedTypeEntry, ...]
    min_ratio: float


def implied_type_scan(p: float) -> ImpliedTypeScan:
    """Entropy/dimension ratios of every implied type of the limit tau.

    One entry per kernel K = {0, a, b, a^b}, smallest first: tau summed
    over the cosets u ^ K, each coset's members added in ascending u as
    ``implied_distribution`` adds them, so the masses match it bit for bit.
    For p in (0, 1/4) tau weighs all 8 vectors, so the support spans the
    whole image, of dimension 3 - log2 |K|.  The returned minimum
    determines the random linear code threshold as 1 - min_ratio.
    """
    if not 0.0 < p < 0.25:
        raise DomainError(f"p must lie in (0, 1/4), got {p}")
    tau = BinaryDistribution3.limit_for_noise(p).probs
    kernels = {frozenset((0, a, b, a ^ b)) for a in range(8) for b in range(a, 8)}
    entries = []
    for ker in sorted(kernels, key=lambda k: (len(k), sorted(k))):
        cosets = sorted({tuple(sorted(u ^ k for k in ker)) for u in range(8)})
        push = [functools.reduce(operator.add, (tau[u] for u in c)) for c in cosets]
        entropy = entropy_q(push, 2)
        dimension = 3 - (len(ker).bit_length() - 1)
        label = "ker{" + ",".join(format(u, "03b") for u in sorted(ker)) + "}"
        entries.append(ImpliedTypeEntry(label, entropy, dimension, entropy / dimension))
    return ImpliedTypeScan(tuple(entries), min(e.ratio for e in entries))


def rlc_list_of_two_threshold(p: float) -> float:
    """Random linear code list-of-two threshold 1 - (h_2(3p) + 3p log_2 3)/2."""
    if not 0.0 < p < 0.25:
        raise DomainError(f"p must lie in (0, 1/4), got {p}")
    return 1.0 - (q_ary_entropy(3.0 * p, 2) + 3.0 * p * math.log2(3.0)) / 2.0
