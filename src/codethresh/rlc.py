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
from typing import NamedTuple

from .errors import DomainError, real
from .qmath import entropy_q, q_ary_entropy

__all__ = [
    "ImpliedTypeEntry",
    "ImpliedTypeScan",
    "implied_type_scan",
    "rlc_list_of_two_threshold",
]


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
    ``oracle.implied_distribution`` adds them, so the masses match it bit for bit.
    For p in (0, 1/4) tau weighs all 8 vectors, so the support spans the
    whole image, of dimension 3 - log2 |K|.  The returned minimum
    determines the random linear code threshold as 1 - min_ratio.
    """
    if not 0.0 < (p := real(p, "p")) < 0.25:
        raise DomainError(f"p must lie in (0, 1/4), got {p}")
    tau = [p / 2.0] * 8
    tau[0] = tau[7] = (1.0 - 3.0 * p) / 2.0
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
    if not 0.0 < (p := real(p, "p")) < 0.25:
        raise DomainError(f"p must lie in (0, 1/4), got {p}")
    return 1.0 - (q_ary_entropy(3.0 * p, 2) + 3.0 * p * math.log2(3.0)) / 2.0
