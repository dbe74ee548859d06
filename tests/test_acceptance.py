"""Acceptance gate: eleven pinned criteria, one printed line each.

Each test computes its criterion end to end, prints a single
"criterion NN PASS/FAIL" line outside the capture (so the line shows up
in plain pytest output), then asserts.  Frozen reference numbers were
derived with an independent 40-digit evaluation; tolerances are pinned
in the assertions.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest

from codethresh.levels import LevelSetParams, level_profile
from codethresh.oracle import beta_enclosure, brute_force_badness, brute_force_level_counts
from codethresh.rlc import implied_type_scan, rlc_list_of_two_threshold
from codethresh.simulate import empirical_threshold_sweep, is_bad_tuple
from codethresh.solver import (
    ThresholdQuery,
    kl_estimate,
    list_of_two_rc_threshold,
    perfect_hashing_threshold,
    threshold_rate,
    toy_property_rates,
    zero_error_threshold,
)

R_STAR_213 = 0.2144067835176535  # threshold at p=0.1, ell=1, L=3, q=2

MC_PARAMS = dict(p=0.1, ell=1, L=3, q=2)
MC_RATES = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40]
MC_SEED = 1009


def _report(capfd, num: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_closed_form_regression(capfd):
    worst = 0.0
    for p in (0.01, 0.05, 0.10, 0.15, 0.20, 0.24):
        res = threshold_rate(ThresholdQuery(p, 1, 3, 2))
        assert res.method == "bisection"
        worst = max(worst, abs(res.r_star - list_of_two_rc_threshold(p)))
    ok = worst <= 1e-6
    _report(capfd, 1, ok, f"max |bisection - closed form| = {worst:.3g} (tol 1e-6)")
    assert ok


def test_criterion_02_perfect_hashing_consistency(capfd):
    worst = 0.0
    for q in range(2, 7):
        closed = perfect_hashing_threshold(q)
        via_zero = zero_error_threshold(LevelSetParams(q, q - 1, q))
        via_solver = threshold_rate(ThresholdQuery(0.0, q - 1, q, q)).r_star
        worst = max(worst, abs(closed - via_zero), abs(closed - via_solver))
    drift = abs(perfect_hashing_threshold(3) - 0.07625208361285925)
    ok = worst <= 1e-12 and drift <= 1e-12
    _report(capfd, 2, ok, f"max path disagreement = {worst:.3g} (tol 1e-12), "
                          f"q=3 value drift = {drift:.3g}")
    assert ok


def test_criterion_03_zero_rate_boundary(capfd):
    at_boundary = threshold_rate(ThresholdQuery(0.25, 1, 3, 2))
    above = [threshold_rate(ThresholdQuery(p, 1, 3, 2)) for p in (0.3, 0.5, 0.9)]
    below = threshold_rate(ThresholdQuery(0.2499, 1, 3, 2))
    ok = (
        at_boundary.r_star == 0.0
        and at_boundary.method == "zero_rate"
        and all(r.r_star == 0.0 for r in above)
        and below.r_star > 0.0
    )
    _report(capfd, 3, ok, "R* = 0 exactly for p >= 1/4, positive at p = 0.2499")
    assert ok


def _criterion_4_grid():
    points = []
    for q in (2, 3, 4):
        for ell in range(1, q):
            for L in range(2, 7):
                profile = level_profile(LevelSetParams(q, ell, L))
                bound = profile.t_star / L
                k = 1
                while 0.02 * k < bound - 1e-9:
                    points.append((0.02 * k, ell, L, q, profile))
                    k += 1
    return points


def test_criterion_04_oracle_equivalence(capfd):
    # The solver's claim against the proven enclosure: lo <= beta and
    # beta - L * error_bound <= hi, each to 1e-12 of rounding, with the
    # bound itself at most 1e-9 and every enclosure at most 1e-40 wide.
    grid = _criterion_4_grid()
    worst_enclosure = worst_bound = 0.0
    widest = Decimal(0)
    for p, ell, L, q, profile in grid:
        res = threshold_rate(ThresholdQuery(p, ell, L, q, epsilon=1e-9))
        lo, hi = beta_enclosure(p, profile)
        beta = Decimal(res.beta)
        worst_enclosure = max(
            worst_enclosure, float(lo - beta), float(beta - L * Decimal(res.error_bound) - hi)
        )
        worst_bound = max(worst_bound, res.error_bound)
        widest = max(widest, hi - lo)
    ok = worst_enclosure <= 1e-12 and worst_bound <= 1e-9 and widest <= Decimal("1e-40")
    _report(capfd, 4, ok, f"{len(grid)} points: bisection outside the proven enclosure by "
                          f"at most {worst_enclosure:.3g} (tol 1e-12, error_bound <= "
                          f"{worst_bound:.3g}, tol 1e-9), widest enclosure "
                          f"{float(widest):.3g} (tol 1e-40)")
    assert ok


def test_criterion_05_level_set_enumeration(capfd):
    checked = 0
    mismatches = 0
    for q in range(2, 17):
        L = 2
        while q**L <= 10**6:
            for ell in range(1, q):
                params = LevelSetParams(q, ell, L)
                if level_profile(params).counts != brute_force_level_counts(params):
                    mismatches += 1
                checked += 1
            L += 1
    ok = mismatches == 0 and checked > 500
    _report(capfd, 5, ok, f"{checked} profiles with q^L <= 1e6 (q <= 16), "
                          f"{mismatches} mismatches")
    assert ok


def test_criterion_06_rlc_separation(capfd):
    min_gap = math.inf
    worst_closed = 0.0
    winner_ok = True
    for k in range(1, 50):
        p = 0.005 * k
        scan = implied_type_scan(p)
        rc = list_of_two_rc_threshold(p)
        rlc = rlc_list_of_two_threshold(p)
        min_gap = min(min_gap, rlc - rc)
        worst_closed = max(worst_closed, abs((1.0 - scan.min_ratio) - rlc))
        best = min(scan.entries, key=lambda e: e.ratio)
        if best.map_label != "ker{000,111}":
            winner_ok = False
    drift = max(
        abs(list_of_two_rc_threshold(0.1) - R_STAR_213),
        abs(rlc_list_of_two_threshold(0.1) - 0.3216101752764803),
    )
    ok = min_gap > 0.0 and worst_closed <= 1e-9 and winner_ok and drift <= 1e-9
    _report(capfd, 6, ok, f"min(RLC - RC) = {min_gap:.3g} > 0, scan vs closed form "
                          f"max diff = {worst_closed:.3g} (tol 1e-9), "
                          f"minimal map = ker{{000,111}} at all 49 grid points")
    assert ok


def test_criterion_07_toy_separation(capfd):
    min_gap = math.inf
    for k in range(1, 61):
        p = 0.005 * k
        rates = toy_property_rates(p)
        min_gap = min(min_gap, rates.r_dagger - rates.r_theorem)
    ok = min_gap > 0.0
    _report(capfd, 7, ok, f"min(r_dagger - r_theorem) = {min_gap:.3g} > 0 on (0, 0.3]")
    assert ok


def test_criterion_08_dp_brute_force_equivalence(capfd):
    rng = np.random.default_rng(20240901)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        words = set()
        while len(words) < 3:
            words.add(tuple(int(x) for x in rng.integers(0, 2, size=n)))
        tup = tuple(sorted(words))
        p = float(rng.uniform(0.0, 1.0))
        cert = is_bad_tuple(tup, p=p, ell=1, q=2)
        if (cert is not None) != brute_force_badness(tup, p=p, ell=1, q=2):
            mismatches += 1
        elif cert is not None and not cert.recheck():
            mismatches += 1
    ok = mismatches == 0
    _report(capfd, 8, ok, f"10000 seeded instances (n <= 8): {mismatches} mismatches")
    assert ok


@pytest.fixture(scope="module")
def sharpness_sweep():
    return empirical_threshold_sweep(
        n_list=[30], rate_grid=MC_RATES, trials=200,
        base_seed=MC_SEED, **MC_PARAMS,
    )


@pytest.fixture(scope="module")
def trend_sweep():
    return empirical_threshold_sweep(
        n_list=[20, 30], rate_grid=MC_RATES, trials=400,
        base_seed=MC_SEED + 1, **MC_PARAMS,
    )


def test_criterion_09_empirical_sharpness(capfd, sharpness_sweep, trend_sweep):
    by_rate = {r.rate: r.fraction for r in sharpness_sweep.rows}
    crossing = sharpness_sweep.crossings[30]
    cross20, cross30 = trend_sweep.crossings[20], trend_sweep.crossings[30]
    ok = (
        by_rate[0.05] <= 0.2
        and by_rate[0.40] >= 0.8
        and crossing is not None
        and abs(crossing - R_STAR_213) <= 0.10
        and cross20 is not None
        and cross30 is not None
        and abs(cross30 - R_STAR_213) <= abs(cross20 - R_STAR_213)
    )
    _report(capfd, 9, ok,
            f"fraction(0.05) = {by_rate[0.05]:.3f} <= 0.2, "
            f"fraction(0.40) = {by_rate[0.40]:.3f} >= 0.8, "
            f"crossing = {crossing:.4f} (R* = {R_STAR_213:.4f} +- 0.10), "
            f"trend n=20 -> 30: {cross20:.4f} -> {cross30:.4f}")
    assert ok


def test_criterion_10_monotone_fraction(capfd, sharpness_sweep):
    rows = sharpness_sweep.rows
    worst_drop_se = 0.0
    for a, b in zip(rows, rows[1:]):
        se = math.sqrt(
            a.fraction * (1 - a.fraction) / a.trials
            + b.fraction * (1 - b.fraction) / b.trials
        )
        if b.fraction < a.fraction:
            drop = (a.fraction - b.fraction) / max(se, 1e-12)
            worst_drop_se = max(worst_drop_se, drop)
    ok = worst_drop_se <= 3.0
    _report(capfd, 10, ok, f"worst adjacent decrease = {worst_drop_se:.2f} "
                           f"binomial SEs (tol 3)")
    assert ok


def test_criterion_11_kl_estimate_consistency(capfd):
    # fitted constant: max over the grid of error / (q ln(L) / L) = 0.2096,
    # attained at q=2, L=8; frozen with headroom as 0.21
    fitted_c = 0.21
    ok = True
    details = []
    for q in (2, 4):
        p = 0.5 * (1.0 - 1.0 / q)
        errors = []
        for L in (8, 16, 32, 64):
            query = ThresholdQuery(p, 1, L, q, epsilon=1e-9)
            exact = threshold_rate(query).r_star
            est, _ = kl_estimate(query)
            err = abs(exact - est)
            errors.append(err)
            if err > fitted_c * q * math.log(L) / L:
                ok = False
        if not all(a > b for a, b in zip(errors, errors[1:])):
            ok = False
        details.append(f"q={q}: " + ", ".join(f"{e:.4f}" for e in errors))
    _report(capfd, 11, ok, f"errors decrease in L and fit 0.21*q*ln(L)/L "
                           f"[{'; '.join(details)}]")
    assert ok
