"""Random-code sampling, exact badness decisions, Monte Carlo sweeps."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codethresh.errors import BudgetError, ValidationError
from codethresh.oracle import brute_force_badness
from codethresh.simulate import (
    RandomCodeSpec,
    _bit_planes,
    _differ,
    _popcount,
    _unique_rows,
    contains_bad_matrix,
    empirical_threshold_sweep,
    is_bad_tuple,
    resolve_workers,
    sample_random_code,
    trial_seed,
)
from codethresh.solver import ThresholdQuery, threshold_rate


def test_spec_validation():
    with pytest.raises(ValidationError):
        RandomCodeSpec(0, 0.5, 2, 1)
    with pytest.raises(ValidationError):
        RandomCodeSpec(5, 1.5, 2, 1)
    with pytest.raises(ValidationError):
        RandomCodeSpec(5, 0.5, 1, 1)
    with pytest.raises(ValidationError):
        RandomCodeSpec(5, 0.5, 2, -1)


@pytest.mark.parametrize(
    "seed", [-1, 2**64, 1.0, np.uint64(1)], ids=["-1", "2**64", "1.0", "np.uint64"]
)
def test_sweep_refuses_seeds_outside_64_bits(seed):
    with pytest.raises(ValidationError, match="seed"):
        empirical_threshold_sweep([10], [0.2], 2, 0.1, 1, 3, 2, seed)


def test_trial_seed_is_deterministic_and_spread():
    a = trial_seed(7, 10, 0.25, 3)
    assert a == trial_seed(7, 10, 0.25, 3)
    # Recorded before trial_seed took the argument rule, which changed no valid seed.
    assert [a, trial_seed(0, 1, 0, 0), trial_seed(2**64 - 1, 30, 1, 10**6)] == [
        6914894377180939836, 5836529245451711556, 8297203781949033792]
    seeds = {trial_seed(7, n, r, t) for n in (5, 10) for r in (0.1, 0.2) for t in range(50)}
    assert len(seeds) == 200


@pytest.mark.parametrize("args", [
    (-1, 10, 0.2, 0), (2**64, 10, 0.2, 0), (True, 10, 0.2, 0), (np.uint64(1), 10, 0.2, 0),
    (1.0, 10, 0.2, 0), (0, -3, 0.2, 0), (0, 0, 0.2, 0), (0, True, 0.2, 0), (0, 10.0, 0.2, 0),
    (0, 10, -0.1, 0), (0, 10, 1.5, 0), (0, 10, math.nan, 0), (0, 10, True, 0), (0, 10, "0.2", 0),
    (0, 10, None, 0), (0, 10, 0.2, -1), (0, 10, 0.2, 1.0), (0, 10, 0.2, False),
])
def test_trial_seed_refuses_what_the_argument_rule_refuses(args):
    # -1 would alias 2**64 - 1 under a 64-bit mask, and True would alias 1.
    with pytest.raises(ValidationError):
        trial_seed(*args)


def test_sampling_is_deterministic_and_sorted():
    spec = RandomCodeSpec(n=12, rate=0.4, q=3, seed=99)
    code = sample_random_code(spec).tolist()
    assert code == sample_random_code(spec).tolist()
    assert code == sorted(code)
    assert len(set(map(tuple, code))) == len(code)
    assert all(len(w) == 12 and all(0 <= s < 3 for s in w) for w in code)


def test_sampling_past_one_byte_symbols_stays_sorted():
    # q = 300 takes the rejection path with symbols wider than a byte.
    code = sample_random_code(RandomCodeSpec(n=3, rate=0.5, q=300, seed=1)).tolist()
    assert len(code) > 1000 and code == sorted(code)
    assert len(set(map(tuple, code))) == len(code)
    assert all(0 <= s < 300 for w in code for s in w)
    found, cert = contains_bad_matrix(code, p=0.4, ell=1, L=3, q=300)
    assert found and cert.recheck()


def test_rate_one_returns_the_full_space():
    code = sample_random_code(RandomCodeSpec(n=4, rate=1.0, q=2, seed=5))
    assert np.array_equal(code, sorted(itertools.product(range(2), repeat=4)))


# SHA-256 of the sampled words as (M, n) uint8 bytes, recorded when codes
# were still built as sorted lists of tuples: the choice path at q = 2 and
# q = 3, and the rejection path at q = 2 and q = 4, at (23, 0.6) with a
# collision in the first batch and so a second batch.
FROZEN_CODES = {
    (20, 0.5, 2, 11): (1003, "0646729448ef83003985e23764516f7657bb6fecb8d4fd4d36bde503738c77a8"),
    (30, 0.4, 2, 12): (4013, "fcff93607053b8d3b70fdcc9945eb737625399c32c1ecb494e3a2339bb18b5f3"),
    (16, 0.3, 4, 13): (767, "3fa936a9b2ed7edc279bf19b9ef821106cf593938ddb0c5b4c1c5b9d3700cac4"),
    (12, 0.5, 3, 14): (736, "f7924712bdc272d0f7c25eaf26183ed357febd2f771496cf125c743325403923"),
    (23, 0.6, 2, 15): (14290, "f2adbda8f2fbce6d7251634daa712645bed233b1e371d5572419395d4dda92b7"),
}


@pytest.mark.parametrize("key", sorted(FROZEN_CODES))
def test_sampled_codes_match_frozen_digests(key):
    code = sample_random_code(RandomCodeSpec(*key))
    size, digest = FROZEN_CODES[key]
    assert code.dtype == np.uint8 and code.shape == (size, key[0])
    assert hashlib.sha256(code.tobytes()).hexdigest() == digest


# Each case sits on one side of the length where q^n passes 2^64.  The last
# id field, 64-bit words per row in base q, keeps the test ids stable for
# tools that track results by id.
UNIQUE_ROWS_CASES = {
    (2, 5): 1, (2, 64): 1, (2, 65): 2, (3, 40): 1, (3, 41): 2, (4, 32): 1, (4, 33): 2,
    (7, 23): 2, (256, 8): 1, (256, 9): 2, (300, 7): 1, (300, 15): 3,
}


@pytest.mark.parametrize(
    "q, n", list(UNIQUE_ROWS_CASES), ids=[f"{q}-{n}-{k}" for (q, n), k in UNIQUE_ROWS_CASES.items()]
)
def test_unique_rows_matches_a_set_of_tuples(q, n):
    dtype = np.dtype(np.uint8 if q <= 256 else ">u8")
    rng = np.random.default_rng(1000 * q + n)
    assert _unique_rows(np.empty((0, n), dtype)).shape == (0, n)
    for m in (1, 5, 60):
        rows = rng.integers(0, q, size=(m, n))
        rows[0, 0] = q - 1
        last = rows[:3].copy()  # equal to rows 0-2 up to the last symbol
        last[:, -1] = (last[:, -1] + 1) % q
        rows = np.concatenate([rows, rows[::-2], last, np.zeros((2, n), int)]).astype(dtype)
        rows = rows[rng.permutation(len(rows))]
        out = _unique_rows(rows)
        assert out.dtype == dtype
        assert list(map(tuple, out.tolist())) == sorted(set(map(tuple, rows.tolist())))


@pytest.mark.parametrize("dtype, q", [(np.uint8, 256), (">u8", 70_000)])
def test_unique_rows_on_sorted_and_repeated_input(dtype, q):
    # The sampler's codes arrive sorted; the stable sort must still drop every repeat.
    rows = np.unique(np.random.default_rng(q).integers(0, q, size=(40, 6)), axis=0)
    for case in (rows, rows[::-1], np.repeat(rows, 3, axis=0), np.repeat(rows[:1], 7, axis=0),
                 rows[:1], rows[:0]):
        case = case.astype(dtype)
        out = _unique_rows(case)
        assert out.dtype == case.dtype and out.shape[1] == 6
        assert list(map(tuple, out.tolist())) == sorted(set(map(tuple, case.tolist())))


def test_unique_rows_on_rows_wider_than_a_void_sort_takes():
    # np.sort of a 100,000-byte void view raised MemoryError; argsort does not.
    rows = np.random.default_rng(5).integers(0, 2, size=(3, 100_000)).astype(np.uint8)
    rows[0, -1], rows[1, -1] = 1, 0
    out = _unique_rows(rows[[2, 0, 1, 0]])
    assert list(map(tuple, out.tolist())) == sorted(set(map(tuple, rows.tolist())))


# Each case sits on one side of q^n = 2^63, where one int64 key per row stops
# fitting; rows hold the symbol q - 1, so the key's base is q.
KEY_EDGE_CASES = [(2, 62), (2, 63), (3, 39), (3, 40), (4, 31), (4, 32), (256, 7), (256, 8),
                  (300, 7), (300, 8)]


@pytest.mark.parametrize("q, n", KEY_EDGE_CASES, ids=[f"{q}-{n}" for q, n in KEY_EDGE_CASES])
def test_unique_rows_sorts_by_integer_key_below_2_63(monkeypatch, q, n):
    # 128 rows or more sort by key below 2^63 and by their bytes beyond it, fewer
    # always by their bytes.  Every order is lexicographic for the sampler's dtype
    # (uint8 or >u8); the byte order of int64 rows is not, so only their set is
    # checked there.
    sampled, keyed = np.dtype(np.uint8 if q <= 256 else ">u8"), q**n < 2**63
    rows = np.random.default_rng(7 * q + n).integers(0, q, size=(150, n))
    rows[0, 0], rows[1] = q - 1, rows[2]
    rows[3:6] = rows[:3]
    rows[6, -1] = (rows[5, -1] + 1) % q  # rows 5 and 6 differ in the last symbol only
    ordered = np.unique(rows, axis=0)
    sorted_kinds, kinds, real_argsort = [], [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, **kw: sorted_kinds.append(a.dtype.kind)
                        or real_argsort(a, **kw))
    for case in (rows, ordered, ordered[::-1], np.repeat(ordered, 2, axis=0), rows[:127]):
        want = sorted(set(map(tuple, case.tolist())))
        by_key = keyed and len(case) >= 128
        for dtype in (sampled, np.dtype(np.int64)):
            out = _unique_rows(case.astype(dtype))
            got = list(map(tuple, out.tolist()))
            assert out.dtype == dtype
            assert got == want if by_key or dtype == sampled else sorted(got) == want
            kinds.append("i" if by_key else "V")
    assert sorted_kinds == kinds  # one argsort per call: of int64 keys or of the byte view


def _byte_view_sample(spec):
    # sample_random_code's draws, repeated from its seed, deduplicated by np.unique.
    n, q, rate = spec.n, spec.q, spec.rate
    rng = np.random.default_rng(spec.seed)
    m = int(rng.binomial(q**n, float(q) ** -(n * (1.0 - rate))))
    words, batches = np.empty((0, n), np.uint8), 0
    while len(words) < m:
        batch = rng.integers(0, q, size=(m - len(words), n)).astype(np.uint8)
        words, batches = np.unique(np.concatenate([words, batch]), axis=0), batches + 1
    return words, batches


# q^n just below 2^63 at q = 2 and q = 3, and a q = 3 spec whose seed was picked
# so that the first batch has a collision and a second batch is drawn.
@pytest.mark.parametrize("key, batches", [((62, 0.15, 2, 1), 1), ((39, 0.15, 3, 2), 1),
                                          ((14, 0.5, 3, 0), 2)])
def test_sampler_key_path_matches_a_byte_view_reference(key, batches):
    spec = RandomCodeSpec(*key)
    expected, drawn = _byte_view_sample(spec)
    code = sample_random_code(spec)
    assert drawn == batches and len(code) > 500
    assert code.dtype == np.uint8 and np.array_equal(code, expected)


def test_sample_mean_size_matches_binomial():
    # inclusion probability q^{-n(1-R)}: mean size q^{nR}
    spec_mean = 2 ** (10 * 0.5)
    sizes = [
        len(sample_random_code(RandomCodeSpec(n=10, rate=0.5, q=2, seed=s)))
        for s in range(300)
    ]
    observed = float(np.mean(sizes))
    se = math.sqrt(spec_mean * (1 - spec_mean / 2**10) / 300)
    assert abs(observed - spec_mean) < 5 * se


def test_poisson_branch_past_64_bit_spaces():
    # 2^64 words exceed the exact Binomial's range: the size is Poisson(2^6.4).
    spec = RandomCodeSpec(n=64, rate=0.1, q=2, seed=21)
    code = sample_random_code(spec)
    assert code.dtype == np.uint8 and code.shape == (93, 64)
    assert list(map(tuple, code.tolist())) == sorted(set(map(tuple, code.tolist())))
    assert np.array_equal(code, sample_random_code(spec))
    assert hashlib.sha256(code.tobytes()).hexdigest() == (
        "0868c46c2b2d447b550222fcf4d2e6840f697c568cce9ed20825b0485cba8f7a"
    )
    mean = 2**6.4
    sizes = [len(sample_random_code(RandomCodeSpec(64, 0.1, 2, s))) for s in range(200)]
    assert abs(np.mean(sizes) - mean) < 4 * math.sqrt(mean / 200)


def test_sample_budget_error():
    with pytest.raises(BudgetError):
        sample_random_code(RandomCodeSpec(n=64, rate=0.9, q=2, seed=0))


def test_sample_refuses_code_sizes_past_a_float():
    # 2^(0.3 * 10^20) overflows a float; it is refused as an infinite size.
    with pytest.raises(BudgetError, match="expected code size inf exceeds"):
        sample_random_code(RandomCodeSpec(10**20, 0.3, 2, 0))


def test_sampled_alphabets_end_at_2_63():
    # rng.integers draws below 2**63 and no higher.
    code = sample_random_code(RandomCodeSpec(1, 0.1, 2**63, 3))
    assert code.dtype == np.dtype(">u8") and len(code) > 1
    assert np.all(code[1:, 0] > code[:-1, 0])
    assert contains_bad_matrix(code, 0.0, 1, 2, 2**63) == (False, None)
    with pytest.raises(ValidationError, match=r"2\*\*63"):
        RandomCodeSpec(1, 0.1, 2**63 + 1, 3)


def test_is_bad_tuple_examples():
    tup = ((0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1))
    # radius 0: distinct columns can never share every coordinate
    assert is_bad_tuple(tup, p=0.0, ell=1, q=2) is None
    # radius 1: (0,0,0,1) and (1,1,1,1) are 3 apart, no common center
    assert is_bad_tuple(tup, p=0.25, ell=1, q=2) is None
    cert = is_bad_tuple(tup, p=0.5, ell=1, q=2)
    assert cert is not None
    assert cert.budget == 2
    assert max(cert.violation_counts) <= 2
    assert cert.recheck()


def test_is_bad_tuple_ell_two_covers_pairs():
    tup = ((0, 0), (1, 1), (2, 2))
    # each coordinate shows three symbols; any 2-set misses one column
    assert is_bad_tuple(tup, p=0.0, ell=2, q=3) is None
    cert = is_bad_tuple(tup, p=0.5, ell=2, q=3)
    assert cert is not None and cert.recheck()


def test_is_bad_tuple_validation():
    with pytest.raises(ValidationError):
        is_bad_tuple(((0, 0), (0, 0), (1, 1)), p=0.1, ell=1, q=2)  # duplicate
    with pytest.raises(ValidationError):
        is_bad_tuple(((0, 0), (0, 1, 1)), p=0.1, ell=1, q=2)  # ragged
    with pytest.raises(ValidationError):
        is_bad_tuple(((0, 2), (0, 1)), p=0.1, ell=1, q=2)  # symbol out of range


@pytest.mark.parametrize(
    "words", [[(0.5, 1), (1, 0)], [(True, False), (False, True)], [(0, 1), (1, True)]]
)
def test_is_bad_tuple_takes_only_integer_symbols(words):
    # The DP and the whole-code search share one word rule.
    with pytest.raises(ValidationError):
        is_bad_tuple(words, p=0.5, ell=1, q=2)
    with pytest.raises(ValidationError):
        contains_bad_matrix(words, p=0.5, ell=1, L=2, q=2)


def test_is_bad_tuple_certificates_hold_python_ints():
    words = [[0, 0, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]]
    certs = [is_bad_tuple(w, p=0.5, ell=2, q=3)
             for w in (words, np.array(words, np.uint8), np.array(words, ">u8"))]
    assert certs[0] is not None and certs[0].recheck()
    assert certs[1] == certs[0] and certs[2] == certs[0]
    for cert in certs:
        symbols = [*itertools.chain(*cert.column_codewords), *itertools.chain(*cert.k_sets)]
        assert {type(s) for s in symbols} == {int}
        assert all(k <= {0, 1, 2} and len(k) == 2 for k in cert.k_sets)


def test_recheck_refuses_k_sets_of_the_wrong_length():
    cert = is_bad_tuple(((0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1)), p=0.5, ell=1, q=2)
    assert cert.recheck()
    assert not dataclasses.replace(cert, k_sets=cert.k_sets[:-1]).recheck()


@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.lists(
            st.tuples(*([st.integers(min_value=0, max_value=1)] * n)),
            min_size=3, max_size=3, unique=True,
        )
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_certificates_always_revalidate(words, p):
    cert = is_bad_tuple(tuple(words), p=p, ell=1, q=2)
    if cert is not None:
        assert cert.recheck()
        assert len(cert.k_sets) == len(words[0])
        assert all(len(k) == 1 for k in cert.k_sets)


@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.lists(
            st.tuples(*([st.integers(min_value=0, max_value=1)] * n)),
            min_size=3, max_size=3, unique=True,
        )
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_badness_invariant_under_coordinate_permutation(words, p):
    base = is_bad_tuple(tuple(words), p=p, ell=1, q=2) is not None
    n = len(words[0])
    perm = list(reversed(range(n)))
    permuted = tuple(tuple(w[i] for i in perm) for w in words)
    assert (is_bad_tuple(permuted, p=p, ell=1, q=2) is not None) == base


def test_contains_bad_matrix_small_codes():
    # three words inside a radius-1 ball around 0000
    code = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 1, 1)]
    found, cert = contains_bad_matrix(code, p=0.25, ell=1, L=3, q=2)
    assert found and cert is not None and cert.recheck()
    # spread code: no such triple at radius 0
    found, cert = contains_bad_matrix(code, p=0.0, ell=1, L=3, q=2)
    assert not found and cert is None


def test_contains_bad_matrix_needs_L_words():
    found, cert = contains_bad_matrix([(0, 0), (1, 1)], p=0.5, ell=1, L=3, q=2)
    assert not found and cert is None


def test_contains_bad_matrix_generic_path_agrees_with_subset_scan():
    rng = np.random.default_rng(404)
    for _ in range(25):
        n = int(rng.integers(4, 7))
        m = int(rng.integers(3, 7))
        words = {tuple(int(x) for x in rng.integers(0, 3, size=n)) for _ in range(m)}
        code = sorted(words)
        if len(code) < 3:
            continue
        for p, ell in ((0.2, 1), (0.2, 2), (0.4, 2)):
            found, _ = contains_bad_matrix(code, p=p, ell=ell, L=3, q=3)
            direct = any(
                is_bad_tuple(sub, p=p, ell=ell, q=3) is not None
                for sub in itertools.combinations(code, 3)
            )
            assert found == direct, (code, p, ell)


def _first_bad_by_subset_scan(words, p, ell, L, q):
    for combo in itertools.combinations(words, L):
        cert = is_bad_tuple(combo, p=p, ell=ell, q=q)
        if cert is not None:
            return cert
    return None


def test_contains_bad_matrix_returns_first_bad_tuple_in_subset_order():
    cases = 0
    for seed in range(8):
        for n, rate, q, L in ((9, 0.45, 2, 3), (5, 0.6, 3, 3), (8, 0.5, 2, 4)):
            code = sample_random_code(RandomCodeSpec(n, rate, q, seed))
            words = [tuple(w) for w in code.tolist()]
            for p in (0.1, 0.2, 0.3):
                for given_code, order in ((code, words), (words[::-1], words[::-1])):
                    found, cert = contains_bad_matrix(given_code, p=p, ell=1, L=L, q=q)
                    assert cert == _first_bad_by_subset_scan(order, p, 1, L, q)
                    assert found == (cert is not None)
                    cases += found
    assert 20 < cases < 144


def test_contains_bad_matrix_first_bad_tuple_for_larger_ell():
    cases = found_cases = 0
    for seed in range(6):
        for n, rate, q, ell in ((10, 0.18, 4, 2), (10, 0.16, 5, 2), (16, 0.085, 6, 3)):
            code = sample_random_code(RandomCodeSpec(n, rate, q, seed))
            words = [tuple(w) for w in code.tolist()]
            for L in (ell + 1, ell + 2):
                for p in (0.0, 0.1):
                    for given_code, order in ((code, words), (words[::-1], words[::-1])):
                        found, cert = contains_bad_matrix(given_code, p=p, ell=ell, L=L, q=q)
                        assert cert == _first_bad_by_subset_scan(order, p, ell, L, q)
                        assert found == (cert is not None)
                        cases += 1
                        found_cases += found
    assert 0.2 * cases < found_cases < 0.8 * cases


def test_packed_words_end_at_64_binary_symbols(monkeypatch):
    # Binary words fill one 64-bit word up to n = 64 and two at n = 65; the
    # search counts differing symbols by popcounts at every n.
    popcounts = []
    real = np.bitwise_count
    monkeypatch.setattr(np, "bitwise_count", lambda *a: popcounts.append(1) or real(*a))
    found = 0
    for n in (63, 64, 65):
        rng = np.random.default_rng(n)
        popcounts.clear()
        for _ in range(6):
            center = rng.integers(0, 2, size=n)
            near = [center ^ (rng.permutation(n) < rng.integers(3, 6)) for _ in range(5)]
            code = np.unique(np.vstack([*near, rng.integers(0, 2, size=(4, n))]), axis=0)
            code = code[rng.permutation(len(code))].astype(np.uint8)
            words = [tuple(w) for w in code.tolist()]
            cert = contains_bad_matrix(code, p=0.05, ell=1, L=3, q=2)[1]
            assert cert == _first_bad_by_subset_scan(words, 0.05, 1, 3, 2)
            found += cert is not None
        assert popcounts
    assert 2 < found < 16


def test_bit_plane_search_across_word_and_plane_boundaries(monkeypatch):
    # q = 3, 4, 5 and 300 take 2, 2, 3 and 9 bit planes (300 as >u8 symbols);
    # n = 64, 65 and 129 take one, two and three 64-bit words per plane.  Words
    # near a center make close pairs, more noise for ell = 2 makes close triples.
    from codethresh import simulate

    tuples = []
    real = simulate.is_bad_tuple
    monkeypatch.setattr(simulate, "is_bad_tuple", lambda *a: tuples.append(a[0]) or real(*a))
    found = {}
    for q, n in itertools.product((3, 4, 5, 300), (64, 65, 129)):
        rng = np.random.default_rng(q * 1000 + n)
        for ell in (1, 2):
            for L in (ell + 1, ell + 2):
                center = rng.integers(0, q, size=n)
                near = [
                    np.where(rng.random(n) < (0.03 if ell == 1 else 0.2),
                             (center + rng.integers(1, q, size=n)) % q, center)
                    for _ in range(5)
                ]
                code = np.unique(np.vstack([*near, rng.integers(0, q, size=(4, n))]), axis=0)
                code = code[rng.permutation(len(code))].astype(np.uint8 if q <= 256 else ">u8")
                words = [tuple(w) for w in code.tolist()]
                tuples.clear()
                cert = contains_bad_matrix(code, p=0.02, ell=ell, L=L, q=q)[1]
                assert cert == _first_bad_by_subset_scan(words, 0.02, ell, L, q)
                # The count test is exact on ell + 1 columns, so the DP sees
                # only tuples whose (ell + 1)-subsets are all bad.
                for cols in tuples:
                    for sub in itertools.combinations(cols.tolist(), ell + 1):
                        assert is_bad_tuple(sub, p=0.02, ell=ell, q=q) is not None
                found.setdefault((ell, L), []).append(cert is not None)
    assert all(0 < sum(bad) < len(bad) for bad in found.values())
    # Past 255 coordinates the counts leave uint8.
    assert _popcount(np.full((5, 1), 2**64 - 1, np.uint64), 320).tolist() == [320]


def _capped(monkeypatch, budget, *args, **kwargs):
    """contains_bad_matrix with SUBSET_BUDGET set to ``budget`` for this call only."""
    with monkeypatch.context() as patch:
        patch.setattr("codethresh.simulate.SUBSET_BUDGET", budget)
        return contains_bad_matrix(*args, **kwargs)


def test_tested_tuples_include_rows_without_candidates(monkeypatch):
    # Codes with no bad triple whose rows mostly have fewer than two close later
    # rows: the walk skips those, and still counts C(|N(a)|, 2) tuples per row a.
    for seed in (12, 13):
        code = sample_random_code(RandomCodeSpec(16, 0.35, 2, seed))
        close = (code[:, None, :] != code[None, :, :]).sum(2) <= 2 * math.floor(0.15 * 16)
        later = [int(close[a, a + 1 :].sum()) for a in range(len(code))]
        assert sum(k < 2 for k in later) > len(code) / 2
        total = sum(math.comb(k, 2) for k in later)
        assert total > 0
        assert _capped(monkeypatch, total, code, 0.15, 1, 3, 2) == (False, None)
        with pytest.raises(BudgetError):
            _capped(monkeypatch, total - 1, code, 0.15, 1, 3, 2)


def _certificate_digest():
    rng = np.random.default_rng(200904553)
    digest = hashlib.sha256()
    for q, ell, L, p in itertools.product((2, 3, 4), (1, 2), (3, 4), (0.0, 0.1, 0.2)):
        for _ in range(6):
            n = int(rng.integers(4, 12))
            center = rng.integers(0, q, size=n)
            words = set()
            while len(words) < L:
                noisy = np.where(rng.random(n) < 0.3, rng.integers(0, q, size=n), center)
                words.add(tuple(noisy.tolist()))
            cert = is_bad_tuple(sorted(words), p=p, ell=ell, q=q)
            if cert is not None:
                ksets = tuple(tuple(sorted(k)) for k in cert.k_sets)
                cert = (cert.column_codewords, ksets, cert.violation_counts, cert.budget)
            digest.update(repr(cert).encode())
    return digest.hexdigest()


def test_certificates_match_frozen_digest():
    # 216 seeded tuples, 95 of them bad; the digest was recorded before the DP
    # shared coverage patterns between coordinates.
    digest = "61ba02311f2a6b2a88cba46381199797979097fcbeddcae3fccab7ac9616e9bd"
    assert _certificate_digest() == digest


def test_count_test_is_exact_for_ell_plus_one_columns():
    # L = ell + 1: a tuple is bad exactly when at most (ell + 1) * floor(p * n)
    # coordinates carry ell + 1 distinct symbols.
    rng = np.random.default_rng(515)
    bad = total = 0
    for ell in (1, 2, 3):
        for q in range(max(2, ell), 6):
            for _ in range(6):
                n = int(rng.integers(2, 9))
                code = _unique_rows(rng.integers(0, q, size=(8, n)).astype(np.uint8))
                for p in (0.0, 0.1, 0.2, 0.35, 0.5):
                    limit = (ell + 1) * math.floor(p * n)
                    for combo in itertools.combinations(range(len(code)), ell + 1):
                        rows = code[list(combo)]
                        planes = _bit_planes(rows, q)
                        apart = np.bitwise_and.reduce([
                            _differ(planes[:, :, a], planes[:, :, b])
                            for a, b in itertools.combinations(range(ell + 1), 2)
                        ])
                        passes = int(_popcount(apart, n)) <= limit
                        cert = is_bad_tuple(rows.tolist(), p=p, ell=ell, q=q)
                        assert passes == (cert is not None), (rows.tolist(), p)
                        bad += passes
                        total += 1
    assert 0.1 * total < bad < 0.9 * total


def test_is_bad_tuple_matches_brute_force_for_ell_two():
    rng = np.random.default_rng(20261018)
    bad = 0
    for i in range(300):
        q = 3 + i % 2
        n = int(rng.integers(2, 8 if q == 3 else 6))
        L = int(rng.integers(3, 5))
        words = set()
        while len(words) < L:
            words.add(tuple(int(x) for x in rng.integers(0, q, size=n)))
        tup = tuple(sorted(words))
        p = float(rng.uniform(0.0, 0.6))
        cert = is_bad_tuple(tup, p=p, ell=2, q=q)
        assert (cert is not None) == brute_force_badness(tup, p=p, ell=2, q=q), (tup, p)
        assert cert is None or cert.recheck()
        bad += cert is not None
    assert 30 < bad < 270


def test_contains_bad_matrix_validates_ell_and_p():
    code = [(0, 1), (1, 0), (1, 1)]
    for ell, p in ((0, 0.1), (3, 0.1), (1, -0.1), (1, 1.5)):
        with pytest.raises(ValidationError):
            contains_bad_matrix(code, p=p, ell=ell, L=3, q=2)


def test_contains_bad_matrix_validates_array_input():
    code = sample_random_code(RandomCodeSpec(10, 0.5, 2, 1))
    with pytest.raises(ValidationError):
        contains_bad_matrix(np.vstack([code, code[:1]]), p=0.1, ell=1, L=3, q=2)
    with pytest.raises(ValidationError):
        contains_bad_matrix(code + 1, p=0.1, ell=1, L=3, q=2)
    with pytest.raises(ValidationError):
        contains_bad_matrix([(0, 1), (1,)], p=0.1, ell=1, L=3, q=2)
    # 70 binary symbols are too many to pack; rows 0 and 1 share the first 64.
    rows = np.random.default_rng(70).integers(0, 2, size=(4, 70)).astype(np.uint8)
    rows[1, :64] = rows[0, :64]
    rows[1, -1] = 1 - rows[0, -1]
    assert contains_bad_matrix(rows, p=0.0, ell=1, L=3, q=2) == (False, None)
    with pytest.raises(ValidationError):
        contains_bad_matrix(rows[[0, 1, 0]], p=0.0, ell=1, L=3, q=2)
    with pytest.raises(ValidationError):  # an unsorted duplicate
        contains_bad_matrix(np.vstack([code[::-1], code[3:4]]), p=0.1, ell=1, L=3, q=2)
    # Duplicates hidden in Fortran order, in a column-strided view and in Python ints.
    wide = np.repeat(code, 2, axis=1)
    wide[:, 1::2] = 1 - code
    for dup, ok in [
        (np.asfortranarray(np.vstack([code, code[5:6]])), np.asfortranarray(code)),
        (np.vstack([wide, wide[5:6]])[:, ::2], wide[:, ::2]),
        (np.vstack([code, code[5:6]]).tolist(), code.tolist()),
    ]:
        with pytest.raises(ValidationError):
            contains_bad_matrix(dup, p=0.1, ell=1, L=3, q=2)
        assert contains_bad_matrix(ok, p=0.1, ell=1, L=3, q=2) == contains_bad_matrix(
            code, p=0.1, ell=1, L=3, q=2
        )


def test_contains_bad_matrix_budget_error(monkeypatch):
    # The ternary tetracode: every triple of its 9 words has a coordinate with
    # three distinct symbols, so at p = 0 no triple is bad (ell = 2) and the
    # count test checks all C(9, 3) = 84 of them.
    code = [(a, b, (a + b) % 3, (a + 2 * b) % 3) for a in range(3) for b in range(3)]
    assert _first_bad_by_subset_scan(code, 0.0, 2, 3, 3) is None
    assert _capped(monkeypatch, 84, code, p=0.0, ell=2, L=3, q=3) == (False, None)
    with pytest.raises(BudgetError, match="more than 83 candidate 3-tuples tested"):
        _capped(monkeypatch, 83, code, p=0.0, ell=2, L=3, q=3)


def test_contains_bad_matrix_caps_tuples_tested_at_runtime(monkeypatch):
    # (i, i) for five symbols: every pair is 2 apart, within 2 * floor(0.5 * 2),
    # but no center meets three of them, so all C(5, 3) = 10 cliques are tested.
    code = [(i, i) for i in range(5)]
    assert _capped(monkeypatch, 10, code, p=0.5, ell=1, L=3, q=5) == (False, None)
    with pytest.raises(BudgetError):
        _capped(monkeypatch, 9, code, p=0.5, ell=1, L=3, q=5)
    # A bad first tuple returns before the cap is reached.
    code = [(0, 0), (0, 1), (1, 0)]
    assert _capped(monkeypatch, 1, code, p=0.5, ell=1, L=3, q=2)[0]


def test_resolve_workers_env_override(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("CODE_THRESH_THREADS", "2")
    assert resolve_workers() == 2
    monkeypatch.setenv("CODE_THRESH_THREADS", "zero?")
    with pytest.raises(ValidationError):
        resolve_workers()
    for count in ("0", "-3"):
        monkeypatch.setenv("CODE_THRESH_THREADS", count)
        with pytest.raises(ValidationError):
            resolve_workers()
    monkeypatch.delenv("CODE_THRESH_THREADS")
    assert resolve_workers() == 4


def test_sweep_is_reproducible_and_worker_independent(monkeypatch):
    kwargs = dict(
        n_list=[10], rate_grid=[0.2, 0.5], trials=16,
        p=0.1, ell=1, L=3, q=2, base_seed=77,
    )
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")
    serial = empirical_threshold_sweep(**kwargs)
    again = empirical_threshold_sweep(**kwargs)
    monkeypatch.setenv("CODE_THRESH_THREADS", "2")
    pooled = empirical_threshold_sweep(**kwargs)
    strip = lambda rep: [(r.n, r.rate, r.trials, r.satisfied) for r in rep.rows]
    assert strip(serial) == strip(again) == strip(pooled)
    assert serial.crossings == pooled.crossings


def test_sweep_starts_one_worker_pool(monkeypatch):
    from codethresh import simulate

    started, forks = [], []
    real_run, real_fork = simulate._run_shares, os.fork
    monkeypatch.setattr(simulate, "_run_shares",
                        lambda share, stride: started.append(stride) or real_run(share, stride))
    # Forked helpers append to their own copies of ``forks``: only the parent's forks count.
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("CODE_THRESH_THREADS", "2")
    rep = empirical_threshold_sweep(
        n_list=[8, 10], rate_grid=[0.2, 0.5], trials=4,
        p=0.1, ell=1, L=3, q=2, base_seed=5,
    )
    assert started == [2] and len(forks) == 2
    assert len(rep.rows) == 4


@pytest.mark.parametrize("trials", [4, 400])
def test_sweep_runs_one_share_per_helper_and_seeds_it_in_the_helpers(monkeypatch, trials):
    from codethresh import simulate

    strides, seeded = [], []
    real_run, real = simulate._run_shares, simulate.trial_seed
    monkeypatch.setattr(simulate, "_run_shares",
                        lambda share, stride: strides.append(stride) or real_run(share, stride))
    # Forked helpers append to their own copies of ``seeded``: only the parent's calls count.
    monkeypatch.setattr(simulate, "trial_seed", lambda *a: seeded.append(a) or real(*a))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("CODE_THRESH_THREADS", "2")
    rep = empirical_threshold_sweep(
        n_list=[8, 10], rate_grid=[0.2, 0.5], trials=trials,
        p=0.1, ell=1, L=3, q=2, base_seed=5,
    )
    assert strides == [2]
    assert seeded == []
    assert [r.trials for r in rep.rows] == [trials] * 4


def _crossing_by_hand(rates, fractions):
    for i, f in enumerate(fractions):
        if f > 0.5:
            if i == 0:
                return rates[0]
            f0 = fractions[i - 1]
            return rates[i - 1] + (0.5 - f0) * (rates[i] - rates[i - 1]) / (f - f0)
    return None


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_matches_a_per_trial_loop(monkeypatch, workers):
    # Each helper runs its equal run of the 11 trials of each point: 5 and 6 for
    # 2 workers, 3, 4 and 4 for 3 (where there are 3 CPUs).
    # Rates near both crossings, so most counts lie strictly between 0 and 11.
    n_list, rates, trials, seed = [12, 16], [0.4, 0.45, 0.5], 11, 1
    search = dict(p=0.1, ell=1, L=3, q=2)
    expected, crossings = [], {}
    for n in n_list:
        fractions = []
        for rate in rates:
            found = sum(
                contains_bad_matrix(
                    sample_random_code(RandomCodeSpec(n, rate, 2, trial_seed(seed, n, rate, t))),
                    **search,
                )[0]
                for t in range(trials)
            )
            expected.append((n, rate, trials, found, found / trials))
            fractions.append(found / trials)
        crossings[n] = _crossing_by_hand(rates, fractions)
    monkeypatch.setenv("CODE_THRESH_THREADS", str(workers))
    rep = empirical_threshold_sweep(n_list, rates, trials, base_seed=seed, **search)
    assert [tuple(r) for r in rep.rows] == expected
    assert rep.crossings == crossings
    assert any(c is not None for c in crossings.values())
    assert len({r.satisfied for r in rep.rows}) > 2


def test_a_sweep_checks_no_word_twice(monkeypatch):
    # The word rule is checked where a caller's words enter the API.  A sweep
    # hands the search its sampled codes, and the search hands the DP row
    # subsets of its code, with no range check or distinctness sort again.
    from codethresh import simulate

    sampling, resorted, validated, dp_calls, results = [], [], [], [], []
    real_sample, real_unique = simulate.sample_random_code, simulate._unique_rows
    real_check, real_search = simulate._code_array, simulate.contains_bad_matrix
    real_dp = simulate.is_bad_tuple

    def sample(spec):
        sampling.append(spec)
        try:
            return real_sample(spec)
        finally:
            sampling.pop()

    def unique_rows(rows):
        resorted.append(len(sampling) == 0)  # True outside the sampler's deduplication
        return real_unique(rows)

    def code_array(code, q):
        validated.append(type(code) is not simulate._Checked)
        return real_check(code, q)

    monkeypatch.setattr(simulate, "sample_random_code", sample)
    monkeypatch.setattr(simulate, "_unique_rows", unique_rows)
    monkeypatch.setattr(simulate, "_code_array", code_array)
    monkeypatch.setattr(simulate, "contains_bad_matrix",
                        lambda *a: results.append(real_search(*a)) or results[-1])
    monkeypatch.setattr(simulate, "is_bad_tuple", lambda *a: dp_calls.append(1) or real_dp(*a))
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")
    # n = 8 samples by index (2**8 words); n = 23 by rejection, which deduplicates.
    empirical_threshold_sweep([8, 23], [0.3, 0.5], 2, 0.25, 1, 3, 2, 1)
    assert dp_calls and validated and resorted  # the DP ran; the sampler deduplicated
    assert not any(validated) and not any(resorted)

    certs = [cert for found, cert in results if found]
    assert certs
    for cert in certs:
        assert cert.recheck()
        values = [*itertools.chain(*cert.column_codewords, *cert.k_sets),
                  *cert.violation_counts, cert.budget]
        assert {type(v) for v in values} == {int}

    # Every public entry point still checks the words a caller passes.
    monkeypatch.undo()
    for n in (8, 23):
        assert type(sample_random_code(RandomCodeSpec(n, 0.3, 2, 1))) is np.ndarray
    bad = {"duplicate": [[0, 1], [1, 0], [0, 1]], "out of range": [[0, 1], [1, 0], [2, 0]],
           "bool": [[False, True], [True, False], [True, True]]}
    for words in bad.values():
        for given in (words, np.array(words)):
            with pytest.raises(ValidationError):
                contains_bad_matrix(given, p=0.5, ell=1, L=3, q=2)
            with pytest.raises(ValidationError):
                is_bad_tuple(given, p=0.5, ell=1, q=2)


@pytest.mark.parametrize("rate", [math.nan, -0.1, 1.5])
def test_sweep_rejects_rates_outside_unit_interval(rate):
    # n = 64 would exceed the size budget at rate 1.5; the rate is refused first.
    with pytest.raises(ValidationError, match="rate"):
        empirical_threshold_sweep(
            n_list=[64], rate_grid=[0.2, rate], trials=2,
            p=0.1, ell=1, L=3, q=2, base_seed=1,
        )


def test_sweep_budget_checked_before_sampling():
    with pytest.raises(BudgetError):
        empirical_threshold_sweep(
            n_list=[64], rate_grid=[0.9], trials=2,
            p=0.1, ell=1, L=3, q=2, base_seed=1,
        )
    with pytest.raises(ValidationError):
        empirical_threshold_sweep(
            n_list=[8], rate_grid=[0.5], trials=0,
            p=0.1, ell=1, L=3, q=2, base_seed=1,
        )


def test_sweep_budget_leaves_search_work_to_the_runtime_cap(monkeypatch):
    # Codes of about 16,000 (ell = 1) and 780 (ell = 2) words hold far more
    # pairs or triples than the tuple cap, but the search stops at the first
    # bad tuple.
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")
    rep = empirical_threshold_sweep(
        n_list=[40], rate_grid=[0.35], trials=2,
        p=0.1, ell=1, L=3, q=2, base_seed=9,
    )
    assert rep.rows[0].satisfied == 2
    rep = empirical_threshold_sweep(
        n_list=[24], rate_grid=[0.2], trials=2,
        p=0.0, ell=2, L=3, q=4, base_seed=9,
    )
    assert rep.rows[0].satisfied == 2


# 200 trials put the standard error of each crossing near 0.002, against a
# move of about 0.013 between n = 12 and n = 16 (seeds 11-15 all show it).
TREND_RATES = [0.075, 0.1, 0.125, 0.15, 0.175, 0.2]
TREND_TRIALS = 200
TREND_SEED = 11


def test_list_recovery_crossing_moves_toward_r_star(monkeypatch):
    # (q, ell, L, p) = (4, 2, 3, 0): exact R* = 0.1130; the empirical
    # 1/2-crossing approaches it from above as n grows from 12 to 16.
    r_star = threshold_rate(ThresholdQuery(0.0, 2, 3, 4)).r_star
    assert abs(r_star - 0.1130) < 1e-4
    monkeypatch.setenv("CODE_THRESH_THREADS", "2")
    rep = empirical_threshold_sweep(
        n_list=[12, 16], rate_grid=TREND_RATES, trials=TREND_TRIALS,
        p=0.0, ell=2, L=3, q=4, base_seed=TREND_SEED,
    )
    cross12, cross16 = rep.crossings[12], rep.crossings[16]
    assert cross12 is not None and cross16 is not None
    assert abs(cross16 - r_star) < abs(cross12 - r_star)


def test_sweep_fraction_bounds_and_rows(monkeypatch):
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")
    rep = empirical_threshold_sweep(
        n_list=[10], rate_grid=[0.1, 0.6], trials=12,
        p=0.1, ell=1, L=3, q=2, base_seed=3,
    )
    assert [r.rate for r in rep.rows] == [0.1, 0.6]
    for r in rep.rows:
        assert 0.0 <= r.fraction <= 1.0
        assert r.satisfied == round(r.fraction * r.trials)


def _tetracode():
    return [(a, b, (a + b) % 3, (a + 2 * b) % 3) for a in range(3) for b in range(3)]


def test_search_answers_do_not_depend_on_the_table_chunk_size(monkeypatch):
    cases = []
    for seed in range(8):
        for n, rate, q, L in ((9, 0.45, 2, 3), (5, 0.6, 3, 3), (8, 0.5, 2, 4)):
            cases += [(RandomCodeSpec(n, rate, q, seed), 1, L, p) for p in (0.1, 0.2, 0.3)]
    for seed in range(6):
        for n, rate, q, ell in ((10, 0.18, 4, 2), (10, 0.16, 5, 2), (16, 0.085, 6, 3)):
            cases += [
                (RandomCodeSpec(n, rate, q, seed), ell, L, p)
                for L in (ell + 1, ell + 2) for p in (0.0, 0.1)
            ]
    expected = []
    for spec, ell, L, p in cases:
        words = [tuple(w) for w in sample_random_code(spec).tolist()]
        expected.append(_first_bad_by_subset_scan(words, p, ell, L, spec.q))
    big = sample_random_code(RandomCodeSpec(20, 0.25, 4, trial_seed(0, 20, 0.25, 2)))
    big_cert = contains_bad_matrix(big, p=0.0, ell=2, L=4, q=4)[1]
    assert len(big) > 1000 and big_cert is not None

    # 1 byte: one row per block; 2**40: one block per prefix.
    for table_bytes in (1, 2**40):
        monkeypatch.setattr("codethresh.simulate._TABLE_BYTES", table_bytes)
        for (spec, ell, L, p), cert in zip(cases, expected):
            code = sample_random_code(spec)
            assert contains_bad_matrix(code, p=p, ell=ell, L=L, q=spec.q)[1] == cert
        assert contains_bad_matrix(big, p=0.0, ell=2, L=4, q=4)[1] == big_cert
        code = _tetracode()
        assert _capped(monkeypatch, 84, code, p=0.0, ell=2, L=3, q=3) == (False, None)
        with pytest.raises(BudgetError):
            _capped(monkeypatch, 83, code, p=0.0, ell=2, L=3, q=3)
        code = [(i, i) for i in range(5)]
        assert _capped(monkeypatch, 10, code, p=0.5, ell=1, L=3, q=5) == (False, None)
        with pytest.raises(BudgetError):
            _capped(monkeypatch, 9, code, p=0.5, ell=1, L=3, q=5)


def test_search_runs_one_count_test_per_first_row(monkeypatch):
    # One pair table per first row of the tetracode, not one test per (row, row).
    from codethresh import simulate

    calls = []
    real = simulate._popcount
    monkeypatch.setattr(simulate, "_popcount", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert contains_bad_matrix(_tetracode(), p=0.0, ell=2, L=3, q=3) == (False, None)
    assert 0 < len(calls) <= 9


def test_tetracode_fills_its_first_table_level_in_one_block(monkeypatch):
    # Its 7 sibling tables, one per first row, share one pass of the count test.
    from codethresh import simulate

    calls = []
    real = simulate._popcount
    monkeypatch.setattr(simulate, "_popcount", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert contains_bad_matrix(_tetracode(), p=0.0, ell=2, L=3, q=3) == (False, None)
    assert len(calls) == 1


def _tested_by_count_test(words, p, ell, L):
    """Tuples a search counts as tested, from the count test alone.

    Per ascending (L-2)-prefix whose (ell+1)-subsets all pass, C(c, 2) for the
    c later rows x with which every (ell+1)-subset holding x passes.
    """
    limit = (ell + 1) * math.floor(p * len(words[0]))

    def passes(rows, last):
        return all(
            sum(len(set(col)) == ell + 1 for col in zip(*(words[i] for i in (*sub, last)))) <= limit
            for sub in itertools.combinations(rows, ell)
        )

    total = 0
    for prefix in itertools.combinations(range(len(words)), L - 2):
        if all(passes(prefix[:i], prefix[i]) for i in range(len(prefix))):
            later = sum(passes(prefix, x) for x in range(prefix[-1] + 1, len(words)))
            total += math.comb(later, 2)
    return total


def test_sibling_blocks_give_the_subset_scan_answers(monkeypatch):
    # A table size that puts 2 sibling tables in the first block of each code
    # (later, smaller tables fit more); answers and tuple counts are unchanged.
    from codethresh import simulate

    widths = []
    real = simulate._popcount
    monkeypatch.setattr(simulate, "_popcount",
                        lambda m, n: widths.append(m.shape[1] if m.ndim == 4 else 1) or real(m, n))
    totals = found = 0
    for seed in range(6):
        for n, rate, q, ell in ((10, 0.18, 4, 2), (10, 0.16, 5, 2), (16, 0.085, 6, 3)):
            code = sample_random_code(RandomCodeSpec(n, rate, q, seed))
            words = [tuple(w) for w in code.tolist()]
            cand = len(words) - ell + 2  # rows after the first sibling level's prefix
            whole = (cand - 1) * (cand - 2) * 8 * (q - 1).bit_length() * -(-n // 64)
            monkeypatch.setattr(simulate, "_TABLE_BYTES", 5 * whole // 2)
            for L in (ell + 1, ell + 2):
                for p in (0.0, 0.1):
                    widths.clear()
                    cert = contains_bad_matrix(code, p=p, ell=ell, L=L, q=q)[1]
                    assert cert == _first_bad_by_subset_scan(words, p, ell, L, q)
                    assert widths and max(widths) >= 2
                    found += cert is not None
                    total = _tested_by_count_test(words, p, ell, L)
                    if cert is None and total > 0:
                        assert _capped(monkeypatch, total, code, p, ell, L, q) == (False, None)
                        with pytest.raises(BudgetError):
                            _capped(monkeypatch, total - 1, code, p, ell, L, q)
                        totals += 1
    assert found > 10 and totals > 10


def test_ell_one_search_runs_as_many_count_tests_as_before(monkeypatch):
    # ell = 1 has no prefix of ell - 2 rows, so no sibling pass: one table per
    # prefix, and these codes of 259 and 541 words fill their root tables in chunks.
    from codethresh import simulate

    calls = []
    real = simulate._popcount
    monkeypatch.setattr(simulate, "_popcount", lambda *a, **k: calls.append(1) or real(*a, **k))
    for spec, p, L, count in ((RandomCodeSpec(20, 0.4, 2, 2), 0.1, 4, 21),
                              (RandomCodeSpec(30, 0.3, 2, 0), 0.1, 3, 16)):
        calls.clear()
        assert contains_bad_matrix(sample_random_code(spec), p, 1, L, 2) == (False, None)
        assert len(calls) == count


def test_codes_shorter_than_L_build_no_bit_planes(monkeypatch):
    from codethresh import simulate

    monkeypatch.setattr(simulate, "_bit_planes", lambda *a: pytest.fail("planes built"))
    for words in ([[0, 1, 1]], [[0, 1, 1], [1, 0, 0]]):
        assert _capped(monkeypatch, 0, words, p=1.0, ell=1, L=3, q=2) == (False, None)


def test_pair_budget_charges_the_pair_tests_run(monkeypatch):
    from codethresh import simulate

    # The whole binary space at n = 16 stays within the budget, n = 17 does not ...
    assert 2**16 * (2**16 - 1) // 2 <= simulate.PAIR_BUDGET < 2**17 * (2**17 - 1) // 2
    space = np.array(list(itertools.product((0, 1), repeat=17)), dtype=np.uint8)
    # ... but at p = 1 its first tuple is bad, and found after one row of pairs.
    found, cert = contains_bad_matrix(space, p=1.0, ell=1, L=3, q=2)
    assert found and cert.column_codewords == tuple(map(tuple, space[:3].tolist()))
    # Four 2-bit words make 6 pairs of 2 tests; a fifth word makes 10 pairs.
    words = [[a, b, c] for a in range(4) for b in (0, 1) for c in (0, 1)]
    monkeypatch.setattr(simulate, "PAIR_BUDGET", 12)
    assert contains_bad_matrix(words[:4], p=0.0, ell=1, L=2, q=4) == (False, None)
    with pytest.raises(BudgetError, match="more than 12 pair tests"):
        contains_bad_matrix(words[:5], p=0.0, ell=1, L=2, q=4)
    monkeypatch.setattr(simulate, "PAIR_BUDGET", 11)
    with pytest.raises(BudgetError, match="more than 11 pair tests"):
        contains_bad_matrix(words[:4], p=0.0, ell=1, L=2, q=4)


def test_badness_dp_charges_the_states_it_keeps(monkeypatch):
    from codethresh import simulate

    # Two columns apart at both coordinates keep {01, 10}, then {02, 11, 20}:
    # 2 + 3 states of L = 2 entries.
    cols = ((0, 0), (1, 1))
    monkeypatch.setattr(simulate, "STATE_BUDGET", 10)
    assert is_bad_tuple(cols, p=1.0, ell=1, q=2).violation_counts == (0, 2)
    monkeypatch.setattr(simulate, "STATE_BUDGET", 9)
    with pytest.raises(BudgetError, match="more than 9 badness DP state entries"):
        is_bad_tuple(cols, p=1.0, ell=1, q=2)


@pytest.mark.parametrize("q, ell", [(2, 1), (4, 2)])
def test_badness_dp_carries_states_over_covered_coordinates(monkeypatch, q, ell):
    # Where at most ell symbols are present, one pattern misses no column: the DP
    # carries its states over, and the certificate's K is that coordinate's
    # symbols, padded with the smallest absent ones.
    from codethresh import simulate

    rng = np.random.default_rng(40 + q)
    n, L, p = 40, 3, 0.1
    cols = np.repeat(rng.integers(0, q, size=(1, n)), L, axis=0)
    spread = rng.choice(n, size=8, replace=False)  # the other 32 coordinates are covered
    cols[:, spread] = rng.integers(0, q, size=(L, 8))
    cols = tuple(map(tuple, cols.tolist()))
    cert = is_bad_tuple(cols, p=p, ell=ell, q=q)
    assert cert is not None and cert.recheck()
    covered = 0
    for syms, k_set in zip(zip(*cols), cert.k_sets):
        present = set(syms)
        if len(present) <= ell:
            pad = [s for s in range(q) if s not in present][: ell - len(present)]
            assert k_set == present | set(pad)
            covered += 1
    assert 32 <= covered < n

    # The charge: L entries per state kept, recounted over every choice of K
    # among the present symbols, as in test_badness_dp_charges_the_states_it_keeps.
    budget, states, kept = math.floor(p * n), {(0,) * L}, 0
    for syms in zip(*cols):
        present = sorted(set(syms))
        cores = list(itertools.combinations(present, min(ell, len(present))))
        states = {nxt for st in states for core in cores
                  if max(nxt := tuple(c + (s not in core) for c, s in zip(st, syms))) <= budget}
        kept += L * len(states)
    monkeypatch.setattr(simulate, "STATE_BUDGET", kept)
    assert is_bad_tuple(cols, p=p, ell=ell, q=q) == cert
    monkeypatch.setattr(simulate, "STATE_BUDGET", kept - 1)
    with pytest.raises(BudgetError, match=f"more than {kept - 1} badness DP state entries"):
        is_bad_tuple(cols, p=p, ell=ell, q=q)


@pytest.mark.parametrize("key, p, ell, found", [((30, 0.3, 2, 1), 0.1, 1, True),
                                               ((30, 0.3, 2, 1), 0.0, 1, False),
                                               ((12, 0.15, 4, 1), 0.0, 2, True)],
                         ids=["ell1-found", "ell1-none", "ell2-found"])
def test_a_search_leaves_no_cyclic_garbage(key, p, ell, found):
    # The walk's recursive closure would keep each search's bit planes and
    # tables alive until the cycle collector ran, raising a sweep helper's peak.
    code = sample_random_code(RandomCodeSpec(*key))
    gc.disable()
    try:
        gc.collect()
        assert contains_bad_matrix(code, p, ell, 3, key[2])[0] == found
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_depth_budget_charges_the_tuples_the_search_builds(monkeypatch):
    from codethresh import simulate

    words = [[a, b] for a in (0, 1) for b in (0, 1)]
    monkeypatch.setattr(simulate, "DEPTH_BUDGET", 2)
    assert contains_bad_matrix(words, p=1.0, ell=1, L=2, q=2)[0]
    # At p = 0 no pair passes, so the search never builds a tuple of 3 rows.
    assert contains_bad_matrix(words, p=0.0, ell=1, L=3, q=2) == (False, None)
    with pytest.raises(BudgetError, match="more than 2 rows in a search tuple"):
        contains_bad_matrix(words, p=1.0, ell=1, L=3, q=2)
    monkeypatch.setattr(simulate, "DEPTH_BUDGET", 3)
    assert contains_bad_matrix(words, p=1.0, ell=1, L=3, q=2)[0]


def test_bit_planes_stage_one_plane_at_a_time():
    # q = 300 takes 9 planes of >u8 symbols; a byte-per-bit staging array of all
    # planes at once would need more than 4x the planes and the input together.
    arr = np.random.default_rng(3).integers(0, 300, size=(20_000, 8)).astype(">u8")
    tracemalloc.start()
    try:
        planes = _bit_planes(arr, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (planes.nbytes + arr.nbytes)
    assert planes.shape == (9, 1, 20_000) and planes.flags.c_contiguous
    for k, plane in enumerate(planes):
        bits = np.unpackbits(plane[0].astype("<u8").view(np.uint8).reshape(-1, 8),
                             axis=-1, bitorder="little")
        assert (bits[:, 8:] == 0).all() and (bits[:, :8] == arr >> k & 1).all()


def test_sweep_clamps_the_worker_count_to_the_cpus(monkeypatch):
    # The runner would fork one helper per share.  This stand-in records the
    # count and runs the shares in process, so nothing forks.
    from codethresh import simulate

    started = []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    kwargs = dict(n_list=[8, 10], rate_grid=[0.2, 0.5], trials=4,
                  p=0.1, ell=1, L=3, q=2, base_seed=5)
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")
    serial = empirical_threshold_sweep(**kwargs)
    monkeypatch.setattr(simulate, "_run_shares", lambda share, stride: started.append(stride)
                        or list(map(sum, zip(*(share(w, stride) for w in range(stride))))))
    monkeypatch.setenv("CODE_THRESH_THREADS", str(10**6))
    assert empirical_threshold_sweep(**kwargs).rows == serial.rows
    assert started == [2]


def test_a_helper_error_reaches_the_caller_typed_and_leaves_no_helper(monkeypatch, capsys):
    from codethresh import cli, simulate

    monkeypatch.setattr(simulate, "SUBSET_BUDGET", 200)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    call = ([12, 16], [0.05, 0.15], 4, 0, 2, 3, 4, 0)
    messages = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CODE_THRESH_THREADS", threads)
        with pytest.raises(BudgetError, match="more than 200 candidate 3-tuples tested") as err:
            empirical_threshold_sweep(*call)
        messages.append(str(err.value))
        with pytest.raises(ChildProcessError):  # every helper was reaped
            os.waitpid(-1, os.WNOHANG)
    assert messages[0] == messages[1]
    code = cli.run(["simulate", "--n", "12", "16", "--rates", "0.05", "0.15", "--trials", "4",
                    "--p", "0", "--ell", "2", "--L", "3", "--q", "4", "--seed", "0"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith("budget exceeded:") and out.err.count("\n") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_helper_error_stops_the_helpers_still_running(monkeypatch):
    # Helper 0 would sleep through its share; helper 1 fails at once.  The parent
    # raises the first error it reads and kills helper 0 rather than wait for it.
    from codethresh import simulate

    def share(w, stride):
        time.sleep(30 if w == 0 else 0)
        raise BudgetError(f"share {w} of {stride}")

    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match="share 1 of 2"):
        simulate._run_shares(share, 2)
    assert time.perf_counter() - t0 < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure", ["killed", "fork refused"])
def test_a_helper_with_no_result_raises_budget_error_and_leaves_no_helper(monkeypatch, failure):
    # Helper 1 is SIGKILLed (as by the OOM killer) before it sends anything, or the
    # second fork fails; helper 0 sends its counts.  The parent raises BudgetError,
    # not EOFError or the OSError, and closes every pipe and reaps every helper.
    from codethresh import simulate

    def share(w, stride):
        if w == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return [w]

    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("fork refused")
        return real_fork()

    if failure == "fork refused":
        monkeypatch.setattr(os, "fork", fork)
        message = r"sweep helper 1 could not start: fork refused"
    else:
        message = rf"sweep helper 1 sent no result \(wait status {int(signal.SIGKILL)}\)"
    fds = sorted(os.listdir("/dev/fd"))
    with pytest.raises(BudgetError, match=message):
        simulate._run_shares(share, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/dev/fd")) == fds


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_the_shares_partition_the_trials(monkeypatch, stride):
    # An in-process stand-in runs each share in turn; trial_seed records, per share,
    # the (n, rate, trial) it seeds in call order.
    from codethresh import simulate

    kwargs = dict(n_list=[8, 10], rate_grid=[0.2, 0.5], trials=11,
                  p=0.1, ell=1, L=3, q=2, base_seed=5)
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")
    serial = empirical_threshold_sweep(**kwargs)
    shares, real = [], simulate.trial_seed

    def run(share, count):
        assert count == stride
        counts = []
        for w in range(count):
            shares.append([])
            counts.append(share(w, count))
        return list(map(sum, zip(*counts)))

    monkeypatch.setattr(simulate, "_run_shares", run)
    monkeypatch.setattr(simulate, "trial_seed", lambda *a: shares[-1].append(a[1:]) or real(*a))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("CODE_THRESH_THREADS", str(stride))
    assert empirical_threshold_sweep(**kwargs).rows == serial.rows
    points = [(n, rate) for n in (8, 10) for rate in (0.2, 0.5)]
    seeded = sorted(itertools.chain(*shares))
    assert seeded == sorted((n, rate, t) for n, rate in points for t in range(11))
    for w, calls in enumerate(shares):
        runs = [(point, [t for *_, t in group])
                for point, group in itertools.groupby(calls, key=lambda call: call[:2])]
        # Each point once, largest n*rate first, as one run of this share's trials.
        assert sorted(point for point, _ in runs) == sorted(points)
        assert [n * rate for (n, rate), _ in runs] == sorted((n * r for n, r in points), reverse=True)
        for _, ts in runs:
            assert ts == list(range(11 * w // stride, 11 * (w + 1) // stride))
            assert len(ts) in (11 // stride, -(-11 // stride))


def test_resolve_workers_is_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")  # any fork the sweep tried would raise AttributeError
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("CODE_THRESH_THREADS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("CODE_THRESH_THREADS", "2")
    assert resolve_workers() == 1
    rep = empirical_threshold_sweep([8, 10], [0.2, 0.5], 4, 0.1, 1, 3, 2, 5)
    assert [r.trials for r in rep.rows] == [4] * 4
    monkeypatch.setenv("CODE_THRESH_THREADS", "0")
    with pytest.raises(ValidationError):
        resolve_workers()


def _fresh_two_worker_run(script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter with stdout on a pipe and two workers.

    The child counts its own forks and prints the count last, on stderr.
    """
    import codethresh

    src = os.path.dirname(os.path.dirname(codethresh.__file__))
    env = dict(os.environ, CODE_THRESH_THREADS="2", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    prologue = ("import os, sys\nos.cpu_count = lambda: 2\nforks, fork = [], os.fork\n"
                "os.fork = lambda: forks.append(1) or fork()\n")
    epilogue = "\nprint(len(forks), file=sys.stderr)\n"
    return subprocess.run([sys.executable, "-c", prologue + script + epilogue],
                          capture_output=True, text=True, timeout=60, env=env)


def test_a_forking_sweep_imports_no_process_pool():
    proc = _fresh_two_worker_run(
        "from codethresh.simulate import empirical_threshold_sweep\n"
        "empirical_threshold_sweep([8, 10], [0.2, 0.5], 4, 0.1, 1, 3, 2, 5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    assert proc.returncode == 0 and proc.stderr == "2\n", proc.stderr
    assert proc.stdout == "[]\n"


def test_helpers_flush_no_output_they_inherit():
    # The marker sits unflushed in the buffer every helper inherits.
    proc = _fresh_two_worker_run(
        "from codethresh import cli\n"
        "print('marker', end='')\n"
        "code = cli.run(['simulate', '--p', '0.1', '--ell', '1', '--L', '3', '--q', '2', '--n', "
        "'8', '10', '--rates', '0.2', '0.5', '--trials', '4', '--seed', '5'])\n"
        "assert code == 0"
    )
    assert proc.returncode == 0 and proc.stderr == "2\n", proc.stderr
    assert proc.stdout.count("marker") == 1 and proc.stdout.startswith("marker")
    assert json.loads(proc.stdout.removeprefix("marker"))["command"] == "simulate"  # one envelope


@pytest.mark.parametrize(
    "change",
    [
        dict(n_list=[10, -5]), dict(n_list=[0]), dict(L=0), dict(q=1, ell=1), dict(ell=0),
        dict(ell=3), dict(p=-0.1), dict(p=1.5), dict(p=math.nan),
        dict(n_list=[10, 10]), dict(rate_grid=[0.4, 0.3]), dict(rate_grid=[0.2, 0.2]),
        dict(trials=2.5), dict(n_list=[]), dict(rate_grid=[]),
        dict(threads="2.5"), dict(threads="0"), dict(threads="-3"),
    ],
)
def test_sweep_validates_inputs_before_seeding(monkeypatch, change):
    def no_seeding(*args):
        raise AssertionError("seeded before validating")

    monkeypatch.setattr("codethresh.simulate.trial_seed", no_seeding)
    kwargs = dict(n_list=[10], rate_grid=[0.2, 0.3], trials=2, p=0.1, ell=1, L=3, q=2,
                  base_seed=1, threads="2")
    kwargs.update(change)
    monkeypatch.setenv("CODE_THRESH_THREADS", kwargs.pop("threads"))
    with pytest.raises(ValidationError):
        empirical_threshold_sweep(**kwargs)
