"""Implied types under full-rank maps and the linear-code list-of-two rate."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codethresh.errors import DomainError, ValidationError
from codethresh.rlc import (
    BinaryDistribution3,
    implied_distribution,
    implied_type_scan,
    rlc_list_of_two_threshold,
)
from codethresh.solver import list_of_two_rc_threshold

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_distribution_validation():
    with pytest.raises(ValidationError):
        BinaryDistribution3((0.5,) * 8)  # mass 4
    with pytest.raises(ValidationError):
        BinaryDistribution3((1.5, -0.5) + (0.0,) * 6)
    ok = BinaryDistribution3((0.125,) * 8)
    assert sum(ok.probs) == pytest.approx(1.0, abs=1e-12)


def test_distribution_rejects_nan():
    with pytest.raises(ValidationError):
        BinaryDistribution3((math.nan,) * 8)


def test_limit_distribution_shape():
    rho = BinaryDistribution3.limit_for_noise(0.1)
    assert rho.probs[0b000] == pytest.approx(0.35, abs=1e-15)
    assert rho.probs[0b111] == pytest.approx(0.35, abs=1e-15)
    for u in (0b001, 0b010, 0b011, 0b100, 0b101, 0b110):
        assert rho.probs[u] == pytest.approx(0.05, abs=1e-15)
    for bad in (0.0, 1 / 3, 0.4):
        with pytest.raises(DomainError):
            BinaryDistribution3.limit_for_noise(bad)


def test_pushforward_preserves_mass_and_identity():
    rho = BinaryDistribution3.limit_for_noise(0.1)
    dist = implied_distribution(rho, IDENTITY)
    assert sum(dist) == pytest.approx(1.0, abs=1e-12)
    assert list(dist) == pytest.approx(list(rho.probs), abs=1e-15)


def test_pushforward_merges_kernel_cosets():
    rho = BinaryDistribution3.limit_for_noise(0.1)
    # rows (1,0,0), (0,1,0): kernel {000, 001}; images collapse bit pairs
    dist = implied_distribution(rho, ((1, 0, 0), (0, 1, 0)))
    assert len(dist) == 4
    assert dist[0] == pytest.approx(0.35 + 0.05, abs=1e-15)  # {000, 001}
    assert dist[3] == pytest.approx(0.35 + 0.05, abs=1e-15)  # {110, 111}
    assert dist[1] == pytest.approx(0.10, abs=1e-15)
    assert dist[2] == pytest.approx(0.10, abs=1e-15)


def test_pushforward_rejects_rank_deficient_maps():
    with pytest.raises(ValidationError):
        implied_distribution(
            BinaryDistribution3.limit_for_noise(0.1),
            ((1, 0, 0), (1, 0, 0)),
        )
    with pytest.raises(ValidationError):
        implied_distribution(
            BinaryDistribution3.limit_for_noise(0.1),
            ((1, 1, 0), (0, 1, 1), (1, 0, 1)),  # rows sum to zero
        )


@given(st.floats(min_value=0.01, max_value=0.24))
@settings(max_examples=100, deadline=None)
def test_pushforward_is_linear_in_the_distribution(p):
    rho = BinaryDistribution3.limit_for_noise(p)
    uniform = BinaryDistribution3((0.125,) * 8)
    mixed = BinaryDistribution3(
        tuple(0.5 * a + 0.5 * b for a, b in zip(rho.probs, uniform.probs))
    )
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
    rho = BinaryDistribution3.limit_for_noise(0.17)
    results = {}
    for rows in itertools.product(range(1, 8), repeat=2):
        if len({rows[0], rows[1], rows[0] ^ rows[1]}) != 3 or rows[0] == rows[1]:
            continue
        bits = tuple(tuple((r >> (2 - j)) & 1 for j in range(3)) for r in rows)
        try:
            dist = implied_distribution(rho, bits)
        except ValidationError:
            continue
        kernel = frozenset(
            u for u in range(8)
            if all(bin(r & u).count("1") % 2 == 0 for r in rows)
        )
        ent = -sum(x * math.log2(x) for x in dist if x > 0.0)
        results.setdefault(kernel, ent)
        assert ent == pytest.approx(results[kernel], abs=1e-12)
