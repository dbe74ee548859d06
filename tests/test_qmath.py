"""Entropies, divergences, exact multinomials."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codethresh.errors import DomainError, ValidationError
from codethresh.qmath import entropy_q, kl_q, multinomial_exact, q_ary_entropy


def test_entropy_uniform_and_point_mass():
    assert entropy_q([0.25] * 4, 2) == pytest.approx(2.0, abs=1e-12)
    assert entropy_q([0.25] * 4, 4) == pytest.approx(1.0, abs=1e-12)
    assert entropy_q([1.0, 0.0, 0.0], 3) == 0.0


def test_entropy_rejects_bad_vectors():
    with pytest.raises(ValidationError):
        entropy_q([0.5, 0.6], 2)
    with pytest.raises(ValidationError):
        entropy_q([-0.1, 1.1], 2)


def test_q_ary_entropy_frozen_values():
    assert q_ary_entropy(0.3, 2) == pytest.approx(0.8812908992306926, abs=1e-14)
    assert q_ary_entropy(0.0, 2) == 0.0
    assert q_ary_entropy(1.0, 2) == 0.0
    # maximum at x = 1 - 1/q
    assert q_ary_entropy(0.5, 2) == pytest.approx(1.0, abs=1e-14)
    assert q_ary_entropy(2 / 3, 3) == pytest.approx(1.0, abs=1e-14)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6), st.integers(min_value=2, max_value=8))
@settings(max_examples=200, deadline=None)
def test_q_ary_entropy_matches_two_point_entropy(x, q):
    # h_q(x) = H_q(1-x, x/(q-1), ..., x/(q-1)) with q-1 equal parts
    dist = [1.0 - x] + [x / (q - 1)] * (q - 1)
    assert q_ary_entropy(x, q) == pytest.approx(entropy_q(dist, q), abs=1e-12)


def test_kl_frozen_values_and_edges():
    assert kl_q(0.1, 0.5, 2) == pytest.approx(0.5310044064107188, abs=1e-14)
    assert kl_q(0.0, 0.5, 2) == pytest.approx(1.0, abs=1e-14)
    assert kl_q(1.0, 0.5, 2) == pytest.approx(1.0, abs=1e-14)
    assert kl_q(0.3, 0.3, 2) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DomainError):
        kl_q(0.5, 0.0, 2)
    with pytest.raises(DomainError):
        kl_q(0.5, 1.0, 2)


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=6))
@settings(max_examples=300, deadline=None)
def test_kl_against_capacity_identity(s, q):
    # D_q(s || 1 - 1/q) = 1 - h_q(s), the list-decoding capacity identity
    assert kl_q(s, 1.0 - 1.0 / q, q) == pytest.approx(
        1.0 - q_ary_entropy(s, q), abs=1e-12
    )


def test_multinomial_exact_small_cases():
    assert multinomial_exact(5, (2, 2, 1)) == 30
    assert multinomial_exact(3, (3,)) == 1
    assert multinomial_exact(4, (1, 1, 1, 1)) == 24
    with pytest.raises(ValidationError):
        multinomial_exact(4, (3, 2))
