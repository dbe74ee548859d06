"""Brute-force references: level-space maximizers, exhaustive badness."""

from __future__ import annotations

import ast
import inspect

import pytest

import codethresh.oracle
from codethresh.errors import BudgetError, ValidationError
from codethresh.levels import LevelSetParams, level_profile
from codethresh.oracle import (
    beta_ascent_oracle,
    beta_levelspace_oracle,
    brute_force_badness,
    brute_force_level_counts,
)
from codethresh.simulate import is_bad_tuple
from codethresh.solver import ThresholdQuery, threshold_rate


def test_grid_oracle_agrees_with_bisection_on_frozen_points():
    for (p, ell, L, q), expected in {
        (0.10, 1, 3, 2): 2.3567796494470395,
        (0.12, 1, 3, 3): 2.1914905964015778,
        (0.15, 1, 4, 2): 3.3278172609302451,
    }.items():
        profile = level_profile(LevelSetParams(q, ell, L))
        approx = beta_levelspace_oracle(p, profile, grid_steps=200_000)
        assert approx == pytest.approx(expected, abs=1e-4)
        assert approx <= expected + 1e-12  # grid candidates are feasible


def test_grid_oracle_refinement_is_monotone():
    profile = level_profile(LevelSetParams(3, 1, 3))
    values = [
        beta_levelspace_oracle(0.12, profile, grid_steps=steps)
        for steps in (500, 5_000, 50_000)
    ]
    assert values[0] <= values[1] + 1e-15
    assert values[1] <= values[2] + 1e-15


def test_grid_oracle_zero_rate_and_p_zero():
    profile = level_profile(LevelSetParams(2, 1, 3))
    # pL >= t*: the unconstrained maximizer is feasible, so beta = L
    assert beta_levelspace_oracle(0.3, profile) == pytest.approx(3.0, abs=1e-9)
    # p = 0: only the level-0 point mass remains
    assert beta_levelspace_oracle(0.0, profile) == pytest.approx(1.0, abs=1e-15)


def test_grid_oracle_validation():
    profile = level_profile(LevelSetParams(2, 1, 3))
    with pytest.raises(ValidationError):
        beta_levelspace_oracle(0.1, profile, grid_steps=10)
    with pytest.raises(ValidationError):
        beta_levelspace_oracle(1.0, profile)


def test_ascent_oracle_matches_bisection():
    for p, ell, L, q in [(0.1, 1, 3, 2), (0.16, 1, 3, 3), (0.05, 2, 3, 4)]:
        profile = level_profile(LevelSetParams(q, ell, L))
        exact = threshold_rate(ThresholdQuery(p, ell, L, q, epsilon=1e-9)).beta
        approx = beta_ascent_oracle(p, profile, starts=5)
        assert approx == pytest.approx(exact, abs=1e-9)


def test_ascent_oracle_handles_binding_constraint():
    # 3 nonempty levels: the optimum sits on the mean constraint and
    # needs mean-preserving moves to be reached
    profile = level_profile(LevelSetParams(3, 1, 3))
    exact = threshold_rate(ThresholdQuery(0.16, 1, 3, 3, epsilon=1e-12)).beta
    assert beta_ascent_oracle(0.16, profile, starts=5) == pytest.approx(exact, abs=1e-10)


def test_brute_force_badness_examples():
    tup = ((0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1))
    assert not brute_force_badness(tup, p=0.25, ell=1, q=2)
    assert brute_force_badness(tup, p=0.5, ell=1, q=2)
    assert brute_force_badness(((0, 0), (1, 1), (2, 2)), p=0.5, ell=2, q=3)


def test_brute_force_badness_budget():
    wide = tuple(tuple((i >> j) & 1 for j in range(40)) for i in range(3))
    with pytest.raises(BudgetError):
        brute_force_badness(wide, p=0.1, ell=1, q=2)


def test_brute_force_matches_dp_on_seeded_corpus():
    import numpy as np

    rng = np.random.default_rng(1234)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        words = set()
        while len(words) < 3:
            words.add(tuple(int(x) for x in rng.integers(0, 2, size=n)))
        tup = tuple(sorted(words))
        p = float(rng.uniform(0.0, 1.0))
        assert brute_force_badness(tup, p=p, ell=1, q=2) == (
            is_bad_tuple(tup, p=p, ell=1, q=2) is not None
        )


def test_level_counts_match_profiles():
    for q, ell, L in [(2, 1, 3), (3, 2, 3), (4, 2, 3), (5, 2, 4), (2, 1, 10)]:
        params = LevelSetParams(q, ell, L)
        assert brute_force_level_counts(params) == level_profile(params).counts


def test_level_counts_budget():
    with pytest.raises(BudgetError):
        brute_force_level_counts(LevelSetParams(10, 1, 8))


def test_oracle_imports_no_fast_path():
    # The oracles check the fast paths, so they may share only errors,
    # level-set parameters and exact multinomials with them.
    imported: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(inspect.getsource(codethresh.oracle))):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.setdefault(node.module or ".", set()).update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert not any(m.split(".")[0] == "codethresh" for m in modules), modules
    assert imported == {
        "errors": {"BudgetError", "ValidationError"},
        "levels": {"LevelProfile", "LevelSetParams"},
        "qmath": {"multinomial_exact"},
    }
