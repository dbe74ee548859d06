"""Brute-force references: the beta enclosure, level counts, exhaustive badness."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import math
import pathlib
from decimal import Decimal

import pytest
from test_solver import FROZEN_BETA

import codethresh.oracle
from codethresh.errors import BudgetError, ValidationError
from codethresh.levels import LevelSetParams, level_profile
from codethresh.oracle import beta_enclosure, brute_force_badness, brute_force_level_counts
from codethresh.simulate import is_bad_tuple
from codethresh.solver import ThresholdQuery, threshold_rate


def test_enclosure_holds_the_frozen_betas():
    for (p, ell, L, q), expected in FROZEN_BETA.items():
        lo, hi = beta_enclosure(p, level_profile(LevelSetParams(q, ell, L)))
        ulp = Decimal(math.ulp(expected))
        assert lo - ulp <= Decimal(expected) <= hi + ulp, (p, ell, L, q)
        assert hi - lo < Decimal("1e-30")


def test_enclosure_zero_rate_and_p_zero():
    profile = level_profile(LevelSetParams(2, 1, 3))
    # pL >= t*: the unconstrained maximizer is feasible, so beta = L exactly
    assert beta_enclosure(0.3, profile) == (3, 3)
    # p = 0: only the level-0 point mass remains, and |D_0| = 2 = q
    lo, hi = beta_enclosure(0.0, profile)
    assert lo <= 1 <= hi and hi - lo < Decimal("1e-30")


def test_enclosure_validation():
    profile = level_profile(LevelSetParams(2, 1, 3))
    for p in (1.0, math.nan):
        with pytest.raises(ValidationError):
            beta_enclosure(p, profile)


def test_enclosure_excludes_beta_of_a_miscounted_profile():
    profile = level_profile(LevelSetParams(2, 1, 3))
    counts = list(profile.counts)
    counts[1] += 1
    lo, hi = beta_enclosure(0.10, dataclasses.replace(profile, counts=tuple(counts)))
    assert not lo <= Decimal(FROZEN_BETA[0.10, 1, 3, 2]) <= hi


def test_enclosure_is_tight_on_a_large_profile():
    # Besides the large profile, two small ones: at (0.16, 1, 3, 3) the mean
    # constraint binds.  There and at the large profile the reported bound
    # does not cover the solver's rounding, so beta sits up to 1.4e-14
    # below lo; hence the 1e-12 slack.
    large = level_profile(LevelSetParams(3, 1, 300))
    for p, ell, L, q, eps in [
        (0.5 * large.t_star / 300, 1, 300, 3, 1e-9),
        (0.16, 1, 3, 3, 1e-12),
        (0.05, 2, 3, 4, 1e-9),
    ]:
        lo, hi = beta_enclosure(p, level_profile(LevelSetParams(q, ell, L)))
        assert 0 < hi - lo < Decimal("1e-30")
        res = threshold_rate(ThresholdQuery(p, ell, L, q, epsilon=eps))
        beta, slack = Decimal(res.beta), Decimal("1e-12")
        assert lo - slack <= beta <= hi + Decimal(eps), (p, ell, L, q)
        assert beta - L * Decimal(res.error_bound) <= hi + slack, (p, ell, L, q)
        assert res.error_bound <= eps


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


def test_only_the_public_entry_points_check_words():
    # The word rule is checked once, where a caller's words enter the API; the
    # sweep and the search pass their checked words on, so no check creeps back
    # into the hot path.
    users = set()
    for path in sorted(pathlib.Path(codethresh.oracle.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if "_code_array" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    users.add((path.name, getattr(top, "name", None)))
    assert users == {("simulate.py", "contains_bad_matrix"), ("simulate.py", "is_bad_tuple")}


def test_no_module_decides_integers_by_isinstance():
    # isinstance(x, int) lets bool through; errors.integer decides integers for every module.
    for path in sorted(pathlib.Path(codethresh.oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
                where = (path.name, node.lineno)
                assert not any(getattr(k, "id", None) == "int" for k in kinds), where
