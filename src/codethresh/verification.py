"""Cross-checks between the fast implementations and the slow oracles.

Each check returns a dict row {check, status, observed, bound}; the CLI
renders these and fails with exit code 1 if any status is not PASS.
The solver's beta must lie within 1e-8 of the enclosure's midpoint (eps 1e-9,
L <= 6) and 1e-4 of the ascent oracle.  The grids mirror the acceptance tests
but are trimmed so a full run stays in the one-minute range (quick=True: smoke).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .levels import LevelSetParams, level_profile
from .oracle import (
    beta_ascent_oracle,
    beta_enclosure,
    brute_force_badness,
    brute_force_level_counts,
)
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


def _check_oracle(name: str, oracle: Callable, grid: list, bound: float) -> dict[str, Any]:
    """Worst |beta| gap between the solver and ``oracle(p, profile)``."""
    worst = 0.0
    for p, ell, L, q in grid:
        profile = level_profile(LevelSetParams(q, ell, L))
        exact = threshold_rate(ThresholdQuery(p, ell, L, q, epsilon=1e-9)).beta
        worst = max(worst, abs(exact - oracle(p, profile)))
    status = "PASS" if worst <= bound else "FAIL"
    return {"check": name, "status": status, "observed": worst, "bound": bound}


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
        _check_oracle("solver_vs_enclosure", lambda p, pr: float(sum(beta_enclosure(p, pr)) / 2),
                      _solver_grid(4 if quick else 6, step), 1e-8),
        _check_oracle("solver_vs_ascent_oracle", beta_ascent_oracle,
                      _solver_grid(3 if quick else 6, step), 1e-4),
        _check_dp_vs_brute(quick),
    ]
