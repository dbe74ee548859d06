"""Cross-checks between the fast implementations and the slow oracles.

Each check returns a dict row {check, status, observed, bound}; the CLI
renders these and fails with exit code 1 if any status is not PASS.
The solver's claim (eps 1e-9, L <= 6) is checked against the proven beta
enclosure as in acceptance criterion 4.  The grids mirror the acceptance tests
but are trimmed so a full run stays in the one-minute range (quick=True: smoke).
"""

from __future__ import annotations

from decimal import Decimal
from typing import Any

import numpy as np

from .levels import LevelSetParams, level_profile
from .oracle import beta_enclosure, brute_force_badness, brute_force_level_counts
from .simulate import is_bad_tuple
from .solver import ThresholdQuery, threshold_rate

__all__ = ["verification_report"]


def _solver_grid(max_L: int, p_step: float) -> list[tuple[float, int, int, int]]:
    points = []
    for q in (2, 3, 4):
        for ell in range(1, q):
            for L in range(2, max_L + 1):
                profile = level_profile(LevelSetParams(q, ell, L))
                bound = profile.t_star / L
                p = p_step
                while p < bound - 1e-9:
                    points.append((round(p, 10), ell, L, q))
                    p += p_step
    return points


def _check_enclosure(grid: list) -> dict[str, Any]:
    """Worst violation of lo <= beta and beta - L * error_bound <= hi.

    The check also fails if any error_bound exceeds 1e-9 or any enclosure
    is wider than 1e-40, so neither side of the claim can go slack.
    """
    worst, tight = 0.0, True
    for p, ell, L, q in grid:
        res = threshold_rate(ThresholdQuery(p, ell, L, q, epsilon=1e-9))
        lo, hi = beta_enclosure(p, level_profile(LevelSetParams(q, ell, L)))
        beta = Decimal(res.beta)
        worst = max(worst, float(lo - beta), float(beta - L * Decimal(res.error_bound) - hi))
        tight = tight and res.error_bound <= 1e-9 and hi - lo <= Decimal("1e-40")
    status = "PASS" if worst <= 1e-12 and tight else "FAIL"
    return {"check": "solver_vs_enclosure", "status": status,
            "observed": worst, "bound": 1e-12}


def _check_dp_vs_brute(quick: bool) -> dict[str, Any]:
    rng = np.random.default_rng(20240717)
    cases = 300 if quick else 1500
    mismatches = 0
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        L = 3
        p = float(rng.uniform(0.0, 0.45))
        words = rng.integers(0, 2, size=(L, n))
        tup = tuple(tuple(int(v) for v in row) for row in words)
        if len(set(tup)) < L:
            continue
        cert = is_bad_tuple(tup, p=p, ell=1, q=2)
        bf_bad = brute_force_badness(tup, p=p, ell=1, q=2)
        if (cert is not None) != bf_bad:
            mismatches += 1
        elif cert is not None and not cert.recheck():
            mismatches += 1
    status = "PASS" if mismatches == 0 else "FAIL"
    return {"check": "dp_vs_brute_force", "status": status,
            "observed": mismatches, "bound": 0}


def _check_level_counts(quick: bool) -> dict[str, Any]:
    cap = 10_000 if quick else 100_000
    mismatches = 0
    for q in range(2, 7):
        for L in range(2, 17):
            if q**L > cap:
                break
            for ell in range(1, q):
                params = LevelSetParams(q, ell, L)
                if level_profile(params).counts != brute_force_level_counts(params):
                    mismatches += 1
    status = "PASS" if mismatches == 0 else "FAIL"
    return {"check": "level_counts_vs_enumeration", "status": status,
            "observed": mismatches, "bound": 0}


def verification_report(quick: bool = False) -> list[dict[str, Any]]:
    """Run every cross-check and return one row per check."""
    step = 0.04 if quick else 0.02
    return [
        _check_level_counts(quick),
        _check_enclosure(_solver_grid(4 if quick else 6, step)),
        _check_dp_vs_brute(quick),
    ]
