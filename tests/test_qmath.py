"""Entropies, divergences, exact multinomials."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codethresh.errors import DomainError, ValidationError
from codethresh.levels import LevelSetParams, p_ell
from codethresh.qmath import entropy_q, kl_q, multinomial_exact, q_ary_entropy
from codethresh.simulate import (
    RandomCodeSpec,
    contains_bad_matrix,
    empirical_threshold_sweep,
    is_bad_tuple,
)
from codethresh.solver import ThresholdQuery, perfect_hashing_threshold, threshold_rate


def test_entropy_uniform_and_point_mass():
    assert entropy_q([0.25] * 4, 2) == pytest.approx(2.0, abs=1e-12)
    assert entropy_q([0.25] * 4, 4) == pytest.approx(1.0, abs=1e-12)
    assert entropy_q([1.0, 0.0, 0.0], 3) == 0.0


def test_entropy_rejects_bad_vectors():
    with pytest.raises(ValidationError):
        entropy_q([0.5, 0.6], 2)
    with pytest.raises(ValidationError):
        entropy_q([-0.1, 1.1], 2)
    with pytest.raises(ValidationError):
        entropy_q([math.nan, 1.0], 2)


# Each entry point with the integer arguments it takes; the other arguments
# are valid, and every bad value below lies in range, so only its type is wrong.
_ENTRY_POINTS = {
    "LevelSetParams": ("q ell L", lambda q, ell, L, n: LevelSetParams(q, ell, L)),
    "ThresholdQuery": ("q ell L", lambda q, ell, L, n: ThresholdQuery(0.1, ell, L, q)),
    "p_ell": ("q ell", lambda q, ell, L, n: p_ell([0, 1, 2], ell, q)),
    "perfect_hashing_threshold": ("q", lambda q, ell, L, n: perfect_hashing_threshold(q)),
    "RandomCodeSpec": ("q n", lambda q, ell, L, n: RandomCodeSpec(n, 0.5, q, 1)),
    "is_bad_tuple": ("q ell", lambda q, ell, L, n: is_bad_tuple([(0, 1), (1, 2)], 0.5, ell, q)),
    "contains_bad_matrix": (
        "q ell L",
        lambda q, ell, L, n: contains_bad_matrix([(0, 1), (1, 2), (2, 0)], 0.5, ell, L, q),
    ),
    "empirical_threshold_sweep": (
        "q ell L n",
        lambda q, ell, L, n: empirical_threshold_sweep([n], [0.5], 1, 0.1, ell, L, q, 0),
    ),
    "entropy_q": ("q", lambda q, ell, L, n: entropy_q([0.5, 0.5], q)),
}


@pytest.mark.parametrize("bad", [2.0, 2.5, np.int64(2)], ids=["2.0", "2.5", "np.int64"])
@pytest.mark.parametrize(
    "entry, arg",
    [(entry, arg) for entry, (args, _) in _ENTRY_POINTS.items() for arg in args.split()],
)
def test_non_int_alphabet_arguments_are_refused(monkeypatch, entry, arg, bad):
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")  # the valid sweep runs in process
    call = _ENTRY_POINTS[entry][1]
    call(q=3, ell=1, L=3, n=4)  # the valid call goes through
    with pytest.raises(ValidationError):
        call(**dict(dict(q=3, ell=1, L=3, n=4), **{arg: bad}))


def test_numpy_tuple_size_is_refused_before_it_overflows():
    with pytest.raises(ValidationError):
        threshold_rate(ThresholdQuery(0.1, 1, np.int64(70), 2))


def test_q_ary_entropy_frozen_values():
    assert q_ary_entropy(0.3, 2) == pytest.approx(0.8812908992306926, abs=1e-14)
    assert q_ary_entropy(0.0, 2) == 0.0
    assert q_ary_entropy(1.0, 2) == 0.0
    # maximum at x = 1 - 1/q
    assert q_ary_entropy(0.5, 2) == pytest.approx(1.0, abs=1e-14)
    assert q_ary_entropy(2 / 3, 3) == pytest.approx(1.0, abs=1e-14)
    for x in (-0.1, 1.1):
        with pytest.raises(DomainError):
            q_ary_entropy(x, 2)


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
    for s in (-0.1, 1.1):
        with pytest.raises(DomainError):
            kl_q(s, 0.5, 2)


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


def test_multinomial_exact_refuses_non_integers():
    with pytest.raises(ValidationError):
        multinomial_exact(2.0, [1, 1])
    with pytest.raises(ValidationError):
        multinomial_exact(2, [1.0, 1])
