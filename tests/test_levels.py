"""Level-set profiles: P_ell, partition enumeration, t*."""

from __future__ import annotations

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codethresh.errors import BudgetError, ValidationError
from codethresh.levels import LevelSetParams, LevelProfile, level_profile, p_ell
from codethresh.oracle import composition_level_counts

# (q, ell, L) -> (counts, t_star); counts enumerated independently
FROZEN_PROFILES = {
    (2, 1, 2): ((2, 2, 0), 0.5),
    (2, 2, 2): ((4, 0, 0), 0.0),
    (2, 1, 3): ((2, 6, 0, 0), 0.75),
    (2, 1, 4): ((2, 8, 6, 0, 0), 1.25),
    (3, 1, 2): ((3, 6, 0), 2 / 3),
    (3, 1, 3): ((3, 18, 6, 0), 10 / 9),
    (3, 2, 3): ((21, 6, 0, 0), 2 / 9),
    (4, 2, 3): ((40, 24, 0, 0), 0.375),
    (5, 2, 4): ((145, 360, 120, 0, 0), 0.96),
}


def test_p_ell_small_cases():
    assert p_ell((0, 1, 1), 1, 2) == 1
    assert p_ell((0, 0, 0), 1, 2) == 0
    assert p_ell((0, 1, 2), 1, 3) == 2
    assert p_ell((0, 1, 2), 2, 3) == 1
    assert p_ell((0, 1, 2), 3, 3) == 0
    assert p_ell((2, 2, 0, 1, 2), 1, 3) == 2


def test_p_ell_names_the_symbol_rule():
    # np.int64(0) lies in 0..1; what it breaks is the type, and the message says so.
    with pytest.raises(ValidationError, match=r"must be ints in 0\.\.1, got np\.int64\(0\)"):
        p_ell([np.int64(0)], 1, 2)
    # q past the interpreter's int-to-str digit limit: the range names q - 1 by its bit count.
    assert p_ell([0, 1], 1, 10**5000) == 1
    with pytest.raises(ValidationError, match=r"ints in 0\.\.<16610-bit int>, got -1"):
        p_ell([-1], 1, 10**5000)


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.integers(min_value=1, max_value=q),
            st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, max_size=8),
        )
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_p_ell_is_permutation_invariant(case, rng):
    q, ell, v = case
    shuffled = list(v)
    rng.shuffle(shuffled)
    assert p_ell(tuple(v), ell, q) == p_ell(tuple(shuffled), ell, q)


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.integers(min_value=1, max_value=q),
            st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, max_size=8),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_p_ell_matches_direct_minimum(case):
    import itertools

    q, ell, v = case
    direct = min(
        sum(1 for x in v if x not in a)
        for a in itertools.combinations(range(q), ell)
    )
    assert p_ell(tuple(v), ell, q) == direct


def test_frozen_profiles():
    for (q, ell, L), (counts, ts) in FROZEN_PROFILES.items():
        profile = level_profile(LevelSetParams(q, ell, L))
        assert profile.counts == counts
        assert profile.t_star == pytest.approx(ts, abs=1e-15)


def test_counts_partition_the_whole_space():
    for q in range(2, 6):
        for L in range(2, 6):
            for ell in range(1, q):
                profile = level_profile(LevelSetParams(q, ell, L))
                assert sum(profile.counts) == q**L, (q, ell, L)


def test_log_counts_consistent_with_counts():
    profile = level_profile(LevelSetParams(3, 1, 3))
    for count, lc in zip(profile.counts, profile.log_counts):
        if count == 0:
            assert lc == -math.inf
        else:
            assert lc == pytest.approx(math.log(count) / math.log(3), abs=1e-12)


def test_t_star_recompute_matches_profile():
    profile = level_profile(LevelSetParams(3, 2, 3))
    # exact rational: ((21*0) + (6*1)) / 27 = 2/9
    assert profile.t_star == pytest.approx(float(Fraction(2, 9)), abs=1e-15)


def test_level_zero_never_empty():
    # constant vectors always fit inside one ell-set
    for q in range(2, 6):
        for L in range(2, 7):
            profile = level_profile(LevelSetParams(q, 1, L))
            assert profile.counts[0] >= q


def test_large_L_counts_stay_exact():
    profile = level_profile(LevelSetParams(2, 1, 300))
    # D_0 = {two constant vectors}: log_2 2 = 1
    assert profile.counts[0] == 2
    assert profile.log_counts[0] == 1.0
    assert sum(profile.counts) == 2**300
    assert len(profile.counts) == len(profile.log_counts) == 301
    assert 0.0 < profile.t_star < 150.0
    total = sum(d * c for d, c in enumerate(profile.counts))
    assert profile.t_star == float(Fraction(total, 2**300))


def test_counts_match_composition_oracle():
    # every profile with at most 1e4 compositions for q <= 8, L <= 400,
    # plus two large-L profiles
    points = [(3, 1, 300), (2, 1, 2000)]
    for q in range(2, 9):
        for L in range(2, 401):
            if math.comb(L + q - 1, q - 1) <= 10**4:
                points.extend((q, ell, L) for ell in range(1, q))
    assert len(points) == 1020
    for q, ell, L in points:
        params = LevelSetParams(q, ell, L)
        assert level_profile(params).counts == composition_level_counts(params), (q, ell, L)


# SHA-256 of ",".join(map(str, counts)) at the levelsets-large benchmark points
# too big for the composition oracle (C(L + q - 1, q - 1) compositions each),
# computed at commit 7afd8ed, before the walk placed the forced last part inline.
LARGE_PROFILE_DIGESTS = {
    (6, 2, 40): "117e26a21ed58b1fd7b1e2c1d26bf140ab28862be96d4d07b148ebb6eca4b1a6",
    (12, 2, 12): "c424943078417f4e0a3663547a6aff9bbaa1f6ed12dda51d1d6d62047fb11c00",
    (10, 3, 12): "1c17b934d41534e4126706942eb2d04528e3b12a02610c07f26e313b58939af1",
    (8, 3, 16): "0829e1cc8e5f51f36606f2fb86f1e7dc5e6279feff13d401ba50df9500edd2b7",
}


def test_large_profiles_match_pinned_digests():
    for (q, ell, L), digest in LARGE_PROFILE_DIGESTS.items():
        assert math.comb(L + q - 1, q - 1) > 10**5
        counts = level_profile(LevelSetParams(q, ell, L)).counts
        assert hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest() == digest, (q, ell, L)


def test_composition_budget_error():
    with pytest.raises(BudgetError):
        level_profile(LevelSetParams(6, 2, 300))


def test_count_bits_budget_error():
    # (L + 1) * L bits of counts at q = 2, L = 30000 exceeds the budget; the
    # check comes before any partition is walked.  At L = 10**400, (L + 1) * L
    # passes the floats.
    for L in (30000, 10**400):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            level_profile(LevelSetParams(2, 1, L))
        assert time.perf_counter() - start < 0.5


def test_count_bits_budget_admits_large_profiles():
    points = [(2, 1, 2000), (3, 1, 300)] + [(8, 1, L) for L in (8, 16, 32, 64)]
    points += [(q, 1, L) for q in (2, 4) for L in (64, 128)]
    for q, ell, L in points:
        assert sum(level_profile(LevelSetParams(q, ell, L)).counts) == q**L


def test_params_validation():
    with pytest.raises(ValidationError):
        LevelSetParams(1, 1, 3)
    with pytest.raises(ValidationError):
        LevelSetParams(2, 0, 3)
    with pytest.raises(ValidationError):
        LevelSetParams(2, 3, 3)  # ell > q
    with pytest.raises(ValidationError):
        LevelSetParams(2, 1, 0)


def test_profile_is_hashable_and_cached():
    a = level_profile(LevelSetParams(2, 1, 3))
    b = level_profile(LevelSetParams(2, 1, 3))
    assert a is b
    assert isinstance(a, LevelProfile)
