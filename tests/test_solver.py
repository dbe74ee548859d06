"""Exact threshold computation: the dual solve, closed forms, KL estimate."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codethresh.errors import DomainError, ValidationError
from codethresh.levels import LevelSetParams, level_profile
from codethresh.oracle import composition_level_counts
from codethresh.solver import (
    DualObjective,
    ThresholdQuery,
    beta,
    kl_estimate,
    list_of_two_rc_threshold,
    perfect_hashing_threshold,
    threshold_rate,
    threshold_rates,
    toy_property_rates,
    zero_error_threshold,
)

# beta values computed with a 40-digit independent evaluation of the dual
FROZEN_BETA = {
    (0.10, 1, 3, 2): 2.3567796494470395,
    (0.20, 1, 3, 2): 2.9219280948873623,
    (0.12, 1, 3, 3): 2.1914905964015778,
    (0.10, 2, 3, 4): 2.9910646579340966,
    (0.15, 1, 4, 2): 3.3278172609302451,
}

FROZEN_R_STAR = {
    (0.10, 1, 3, 2): 0.2144067835176535,
    (0.12, 1, 3, 3): 0.2695031345328074,
    (0.10, 2, 3, 4): 0.0029784473553011,
    (0.15, 1, 4, 2): 0.1680456847674387,
}

# beta(p, 1, 3, q=2) for p = 0.02, 0.06, ..., 0.22: strictly increasing in p
FROZEN_BETA_MONOTONE = [
    1.42254266919775,
    1.96537029585809,
    2.35677964944704,
    2.64713814533654,
    2.85125818920965,
    2.97089395544899,
]

PERFECT_HASHING = {
    2: 0.5,
    3: 0.07625208361285925,
    4: 0.01775237560905348,
    5: 0.004865887015420636,
    6: 0.001446661161331853,
}


def test_query_validation():
    with pytest.raises(ValidationError):
        ThresholdQuery(-0.1, 1, 3, 2)
    with pytest.raises(ValidationError):
        ThresholdQuery(1.0, 1, 3, 2)
    with pytest.raises(ValidationError):
        ThresholdQuery(0.1, 3, 3, 2)  # ell > q
    with pytest.raises(ValidationError):
        ThresholdQuery(0.1, 0, 3, 2)
    with pytest.raises(ValidationError):
        ThresholdQuery(0.1, 1, 1, 2)  # L < 2
    with pytest.raises(ValidationError):
        ThresholdQuery(0.1, 1, 3, 2, epsilon=0.0)


def test_beta_frozen_values():
    for (p, ell, L, q), expected in FROZEN_BETA.items():
        value, alpha = beta(ThresholdQuery(p, ell, L, q, epsilon=1e-9))
        assert value == pytest.approx(expected, abs=1e-9), (p, ell, L, q)
        assert alpha is not None and alpha < 0.0


def test_beta_dual_minimizer_frozen():
    _, alpha = beta(ThresholdQuery(0.1, 1, 3, 2, epsilon=1e-9))
    assert alpha == pytest.approx(-2.8073549220576041, abs=1e-6)
    _, alpha = beta(ThresholdQuery(0.2, 1, 3, 2, epsilon=1e-9))
    assert alpha == pytest.approx(-1.0, abs=1e-6)


def test_r_star_frozen_values():
    for (p, ell, L, q), expected in FROZEN_R_STAR.items():
        res = threshold_rate(ThresholdQuery(p, ell, L, q))
        assert res.r_star == pytest.approx(expected, abs=1e-6)
        assert res.method == "bisection"
        assert res.r_star == pytest.approx(1.0 - res.beta / L, abs=1e-15)


def test_beta_monotone_in_p():
    values = [
        beta(ThresholdQuery(0.02 + 0.04 * k, 1, 3, 2, epsilon=1e-9))[0]
        for k in range(6)
    ]
    for got, expected in zip(values, FROZEN_BETA_MONOTONE):
        assert got == pytest.approx(expected, abs=1e-9)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_zero_rate_regime_is_exact():
    # t* = 0.75 for (q=2, ell=1, L=3): zero rate iff 3p >= 0.75
    for p in (0.25, 0.26, 0.5, 0.9):
        res = threshold_rate(ThresholdQuery(p, 1, 3, 2))
        assert res.r_star == 0.0
        assert res.method == "zero_rate"
        assert res.error_bound == 0.0
    res = threshold_rate(ThresholdQuery(0.2499, 1, 3, 2))
    assert res.r_star > 0.0
    # pL = 0.3 >= t* = 2/9 for (q=3, ell=2, L=3)
    assert threshold_rate(ThresholdQuery(0.1, 2, 3, 3)).r_star == 0.0


def test_zero_rate_boundary_probes_are_decided_exactly():
    # p = t*/L and the two floats just below it for q <= 6, ell < q and
    # 2 <= L <= 8, with t* taken exactly from the composition oracle.
    probes = 0
    for q in range(2, 7):
        for ell in range(1, q):
            for L in range(2, 9):
                counts = composition_level_counts(LevelSetParams(q, ell, L))
                t_star = Fraction(sum(d * c for d, c in enumerate(counts)), q**L)
                p = float(t_star) / L
                for _ in range(3):
                    res = threshold_rate(ThresholdQuery(p, ell, L, q))
                    zero = Fraction(p) * L >= t_star
                    assert (res.method == "zero_rate") == zero, (q, ell, L, p)
                    assert 0.0 <= res.r_star <= 1e-9, (q, ell, L, p, res)
                    probes += 1
                    p = math.nextafter(p, 0.0)
    assert probes == 315


def test_p_zero_closed_form():
    res = threshold_rate(ThresholdQuery(0.0, 1, 3, 2))
    # |D_0| = 2, so R* = (3 - 1)/3
    assert res.r_star == pytest.approx(2 / 3, abs=1e-15)
    assert res.method == "closed_form_zero_error"
    assert res.error_bound == 0.0


def test_dual_objective_is_convex_with_monotone_derivative():
    profile = level_profile(LevelSetParams(2, 1, 3))
    dual = DualObjective(profile, 0.1)
    alphas = [-6.0 + 0.5 * k for k in range(12)]
    derivs = [dual.derivative(a) for a in alphas]
    assert all(d1 <= d2 + 1e-12 for d1, d2 in zip(derivs, derivs[1:]))
    # midpoint convexity of the objective itself
    for a, b in zip(alphas, alphas[2:]):
        mid = 0.5 * (a + b)
        assert dual.value(mid) <= 0.5 * (dual.value(a) + dual.value(b)) + 1e-12


def test_dual_bracket_straddles_minimizer():
    for (p, ell, L, q) in FROZEN_BETA:
        profile = level_profile(LevelSetParams(q, ell, L))
        dual = DualObjective(profile, p)
        lo, hi = dual.bracket()
        assert dual.derivative(lo) < 0.0 < dual.derivative(hi)


def test_perfect_hashing_frozen_values():
    for q, expected in PERFECT_HASHING.items():
        assert perfect_hashing_threshold(q) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValidationError):
        perfect_hashing_threshold(1)


def test_perfect_hashing_three_paths_agree():
    for q in range(2, 7):
        closed = perfect_hashing_threshold(q)
        via_zero_error = zero_error_threshold(LevelSetParams(q, q - 1, q))
        via_solver = threshold_rate(ThresholdQuery(0.0, q - 1, q, q)).r_star
        assert closed == pytest.approx(via_zero_error, abs=1e-12)
        assert closed == pytest.approx(via_solver, abs=1e-12)


def test_list_of_two_rc_frozen_value_and_domain():
    assert list_of_two_rc_threshold(0.05) == pytest.approx(0.3841384400584754, abs=1e-12)
    assert list_of_two_rc_threshold(0.1) == pytest.approx(0.2144067835176535, abs=1e-12)
    for bad in (0.0, 0.25, 0.3, -0.1):
        with pytest.raises(DomainError):
            list_of_two_rc_threshold(bad)


def test_closed_form_tags_are_opt_in():
    q = ThresholdQuery(0.05, 1, 3, 2)
    assert threshold_rate(q).method == "bisection"
    tagged = threshold_rate(q, use_closed_forms=True)
    assert tagged.method == "list_of_two_rc"
    assert tagged.r_star == pytest.approx(threshold_rate(q).r_star, abs=1e-6)

    ph = ThresholdQuery(0.0, 2, 3, 3)
    assert threshold_rate(ph).method == "closed_form_zero_error"
    assert threshold_rate(ph, use_closed_forms=True).method == "perfect_hashing"


def test_kl_estimate_frozen_and_degenerate():
    est, band = kl_estimate(ThresholdQuery(0.1, 1, 3, 2))
    assert est == pytest.approx(0.5310044064107188, abs=1e-12)
    assert band == pytest.approx(2 * math.log(3) / 3, abs=1e-12)
    # p at or past the list-recovery radius 1 - ell/q: estimate clamps to 0
    est, _ = kl_estimate(ThresholdQuery(0.5, 1, 3, 2))
    assert est == 0.0
    est, _ = kl_estimate(ThresholdQuery(0.6, 1, 3, 2))
    assert est == 0.0


def test_kl_estimate_tracks_exact_threshold_at_moderate_L():
    # |R* - D_q(p || 1 - ell/q)| <= 0.70 * q * ln(L) / L on a small grid
    for q, ell in ((2, 1), (3, 1), (3, 2), (4, 2)):
        for L in (4, 5, 6):
            profile = level_profile(LevelSetParams(q, ell, L))
            p_hi = profile.t_star / L
            for frac in (0.25, 0.5, 0.75):
                p = frac * p_hi
                if p <= 0.0:
                    continue
                query = ThresholdQuery(p, ell, L, q)
                exact = threshold_rate(query).r_star
                est, band = kl_estimate(query)
                assert abs(exact - est) <= 0.70 * band, (q, ell, L, p)


def test_kl_estimate_converges_at_larger_q_and_L():
    # Criterion 11's rule (errors fall in L and stay within 0.21 q ln(L) / L)
    # at q = 8 and at L = 128; (8, 1, 64) alone has 1.1e9 compositions.
    for q, Ls in ((8, (8, 16, 32, 64)), (2, (64, 128)), (4, (64, 128))):
        p = 0.5 * (1.0 - 1.0 / q)
        errors = []
        for L in Ls:
            query = ThresholdQuery(p, 1, L, q, epsilon=1e-9)
            err = abs(threshold_rate(query).r_star - kl_estimate(query)[0])
            assert err <= 0.21 * q * math.log(L) / L, (q, L, err)
            errors.append(err)
        assert all(a > b for a, b in zip(errors, errors[1:])), (q, errors)


@given(st.floats(min_value=1e-4, max_value=0.2399))
@settings(max_examples=150, deadline=None)
def test_bisection_matches_list_of_two_closed_form(p):
    res = threshold_rate(ThresholdQuery(p, 1, 3, 2))
    assert res.r_star == pytest.approx(list_of_two_rc_threshold(p), abs=1e-6)


def test_toy_rates_frozen_and_ordering():
    r = toy_property_rates(0.1)
    assert r.r_theorem == pytest.approx(0.6593573017042126, abs=1e-12)
    assert r.r_dagger == pytest.approx(0.7155022032053594, abs=1e-12)
    r = toy_property_rates(0.3)
    assert r.r_theorem == pytest.approx(0.3763498018484438, abs=1e-12)
    assert r.r_dagger == pytest.approx(0.4093545503846537, abs=1e-12)
    for bad in (0.0, 0.5, 0.7):
        with pytest.raises(DomainError):
            toy_property_rates(bad)


def test_tighter_epsilon_never_hurts():
    coarse = beta(ThresholdQuery(0.1, 1, 3, 2, epsilon=1e-3))[0]
    fine = beta(ThresholdQuery(0.1, 1, 3, 2, epsilon=1e-12))[0]
    assert abs(fine - 2.3567796494470395) <= abs(coarse - 2.3567796494470395) + 1e-15


def test_error_bound_is_certified():
    # The reported gap bounds the distance to the 40-digit beta and, being
    # computed rather than echoed, falls below eps once the solve stops.
    for eps in (1e-3, 1e-6, 1e-9):
        for (p, ell, L, q), expected in FROZEN_BETA.items():
            res = threshold_rate(ThresholdQuery(p, ell, L, q, epsilon=eps))
            assert 0.0 <= res.error_bound < eps, (eps, p, ell, L, q, res)
            assert abs(res.beta - expected) <= L * res.error_bound + 1e-12, (eps, p, res)
            assert res.beta >= expected - 1e-12  # the least dual value bounds from above


@pytest.mark.parametrize("p", [5e-324, 1e-310, 1e-300])
def test_subnormal_p_gives_the_zero_error_threshold(p):
    for q, ell, L in ((2, 1, 3), (3, 2, 5), (4, 1, 12)):
        params = LevelSetParams(q, ell, L)
        res = threshold_rate(ThresholdQuery(p, ell, L, q))
        assert res.r_star == pytest.approx(zero_error_threshold(params), abs=1e-9)
        assert 0.0 <= res.error_bound <= 1e-6
        dual = DualObjective(level_profile(params), p)
        lo, hi = dual.bracket()
        assert math.isfinite(lo)
        assert dual.derivative(lo) < 0.0 < dual.derivative(hi)


def test_grid_solve_matches_scalar_solves():
    # p from 0 (closed form) across t*/L (zero rate) for each (q, ell, L).
    for q, ell, L in ((2, 1, 3), (3, 2, 5), (4, 1, 12)):
        queries = [ThresholdQuery(0.02 * k, ell, L, q) for k in range(33)]
        methods = set()
        for query, res in zip(queries, threshold_rates(queries)):
            assert res == threshold_rate(query), (q, ell, L, query.p)
            methods.add(res.method)
        assert methods == {"closed_form_zero_error", "bisection", "zero_rate"}


def test_grid_solve_rejects_mixed_queries():
    assert threshold_rates([]) == []
    with pytest.raises(ValidationError):
        threshold_rates([ThresholdQuery(0.1, 1, 3, 2), ThresholdQuery(0.1, 1, 4, 2)])
    with pytest.raises(ValidationError):
        threshold_rates(
            [ThresholdQuery(0.1, 1, 3, 2), ThresholdQuery(0.1, 1, 3, 2, epsilon=1e-9)]
        )
