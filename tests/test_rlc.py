"""Implied types under full-rank maps and the linear-code list-of-two rate."""

from __future__ import annotations

import functools
import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codethresh.errors import DomainError, ValidationError
from codethresh.oracle import implied_distribution
from codethresh.qmath import entropy_q
from codethresh.rlc import implied_type_scan, rlc_list_of_two_threshold
from codethresh.solver import list_of_two_rc_threshold

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _limit_tau(p):
    """Mass (1-3p)/2 on 000 and 111, p/2 on the six mixed vectors."""
    tau = [p / 2.0] * 8
    tau[0] = tau[7] = (1.0 - 3.0 * p) / 2.0
    return tuple(tau)


def test_distribution_validation():
    for tau in ((0.5,) * 8, (1.5, -0.5) + (0.0,) * 6, (0.125,) * 7):  # mass 4, negative, 7 entries
        with pytest.raises(ValidationError):
            implied_distribution(tau, IDENTITY)
    ok = implied_distribution((0.125,) * 8, IDENTITY)
    assert sum(ok) == pytest.approx(1.0, abs=1e-12)


def test_distribution_rejects_nan():
    with pytest.raises(ValidationError):
        implied_distribution((math.nan,) * 8, IDENTITY)


def test_limit_distribution_shape():
    # The scan's trivial kernel keeps tau itself: 0.35 on 000 and 111, 0.05 elsewhere.
    by_label = {e.map_label: e for e in implied_type_scan(0.1).entries}
    assert by_label["ker{000}"].entropy == pytest.approx(
        entropy_q([0.35, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.35], 2), abs=1e-15
    )
    for bad in (0.0, 0.25, 0.4):
        with pytest.raises(DomainError):
            implied_type_scan(bad)


def test_pushforward_preserves_mass_and_identity():
    rho = _limit_tau(0.1)
    dist = implied_distribution(rho, IDENTITY)
    assert sum(dist) == pytest.approx(1.0, abs=1e-12)
    assert list(dist) == pytest.approx(list(rho), abs=1e-15)


def test_pushforward_merges_kernel_cosets():
    rho = _limit_tau(0.1)
    # rows (1,0,0), (0,1,0): kernel {000, 001}; images collapse bit pairs
    dist = implied_distribution(rho, ((1, 0, 0), (0, 1, 0)))
    assert len(dist) == 4
    assert dist[0] == pytest.approx(0.35 + 0.05, abs=1e-15)  # {000, 001}
    assert dist[3] == pytest.approx(0.35 + 0.05, abs=1e-15)  # {110, 111}
    assert dist[1] == pytest.approx(0.10, abs=1e-15)
    assert dist[2] == pytest.approx(0.10, abs=1e-15)


def test_pushforward_rejects_rank_deficient_maps():
    with pytest.raises(ValidationError):
        implied_distribution(_limit_tau(0.1), ((1, 0, 0), (1, 0, 0)))
    with pytest.raises(ValidationError):
        implied_distribution(
            _limit_tau(0.1),
            ((1, 1, 0), (0, 1, 1), (1, 0, 1)),  # rows sum to zero
        )
    # 1 to 3 rows, each a binary triple.
    for rows in ((), ((1, 0, 0),) * 4, ((0, 2, 1),), ((1, 0),)):
        with pytest.raises(ValidationError):
            implied_distribution(_limit_tau(0.1), rows)


@given(st.floats(min_value=0.01, max_value=0.24))
@settings(max_examples=100, deadline=None)
def test_pushforward_is_linear_in_the_distribution(p):
    rho = _limit_tau(p)
    uniform = (0.125,) * 8
    mixed = tuple(0.5 * a + 0.5 * b for a, b in zip(rho, uniform))
    rows = ((1, 0, 0), (0, 1, 1))
    lhs = implied_distribution(mixed, rows)
    a = implied_distribution(rho, rows)
    b = implied_distribution(uniform, rows)
    for x, y, z in zip(lhs, a, b):
        assert x == pytest.approx(0.5 * y + 0.5 * z, abs=1e-12)


def test_scan_covers_all_fifteen_kernel_classes():
    scan = implied_type_scan(0.1)
    assert len(scan.entries) == 15
    labels = [e.map_label for e in scan.entries]
    assert len(set(labels)) == 15
    dims = sorted(e.dimension for e in scan.entries)
    assert dims == [1] * 7 + [2] * 7 + [3]


def test_scan_frozen_ratios_at_p_01():
    scan = implied_type_scan(0.1)
    by_label = {e.map_label: e for e in scan.entries}
    assert by_label["ker{000}"].ratio == pytest.approx(0.7855932164823465, abs=1e-12)
    assert by_label["ker{000,111}"].ratio == pytest.approx(0.6783898247235197, abs=1e-12)
    assert by_label["ker{000,001}"].ratio == pytest.approx(0.8609640474436812, abs=1e-12)
    assert by_label["ker{000,001,110,111}"].ratio == pytest.approx(
        0.7219280948873623, abs=1e-12
    )
    # rank-1 maps whose kernel misses 111 see an unbiased coin
    assert by_label["ker{000,001,010,011}"].ratio == pytest.approx(1.0, abs=1e-15)
    assert by_label["ker{000,011,101,110}"].ratio == pytest.approx(1.0, abs=1e-15)
    assert scan.min_ratio == pytest.approx(0.6783898247235197, abs=1e-12)


def test_min_ratio_entry_is_the_two_one_one_kernel():
    for p in (0.02, 0.1, 0.2, 0.24):
        scan = implied_type_scan(p)
        best = min(scan.entries, key=lambda e: e.ratio)
        assert best.map_label == "ker{000,111}"
        others = [e.ratio for e in scan.entries if e.map_label != "ker{000,111}"]
        assert min(others) > best.ratio


def test_scan_min_ratio_gives_rlc_threshold():
    for p in (0.05, 0.1, 0.15, 0.2):
        scan = implied_type_scan(p)
        assert 1.0 - scan.min_ratio == pytest.approx(
            rlc_list_of_two_threshold(p), abs=1e-12
        )


def test_rlc_frozen_value_and_domain():
    assert rlc_list_of_two_threshold(0.1) == pytest.approx(0.3216101752764803, abs=1e-12)
    for bad in (0.0, 0.25, 0.4):
        with pytest.raises(DomainError):
            rlc_list_of_two_threshold(bad)


def test_linear_beats_plain_random():
    for k in range(1, 49):
        p = 0.005 * k
        assert rlc_list_of_two_threshold(p) > list_of_two_rc_threshold(p), p


def test_entropy_depends_only_on_kernel():
    # Every full-rank map F_2^3 -> F_2^m, m = 1, 2, 3 (7 + 42 + 168 maps), pushes tau
    # forward to the entropy, ratio and dimension of its kernel's scan entry, exactly.
    rows = range(1, 8)
    maps = [a for m in (1, 2, 3) for a in itertools.permutations(rows, m)
            if len({0, *(functools.reduce(operator.xor, s) for k in range(1, m + 1)
                         for s in itertools.combinations(a, k))}) == 1 << m]
    assert len(maps) == 217
    for p in (0.01, 0.05, 0.1, 0.17, 0.2, 0.249):
        scan = {e.map_label: e for e in implied_type_scan(p).entries}
        for a in maps:
            bits = tuple(tuple((r >> (2 - j)) & 1 for j in range(3)) for r in a)
            kernel = [u for u in range(8) if all(bin(r & u).count("1") % 2 == 0 for r in a)]
            entry = scan["ker{" + ",".join(format(u, "03b") for u in kernel) + "}"]
            entropy = entropy_q(implied_distribution(_limit_tau(p), bits), 2)
            assert (entropy, entropy / len(a), len(a)) == (
                entry.entropy, entry.ratio, entry.dimension), (p, a)
