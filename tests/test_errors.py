"""The integer and real rules of errors.py at every entry point of the package root."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import codethresh
from codethresh import (
    BudgetError,
    LevelSetParams,
    RandomCodeSpec,
    ThresholdQuery,
    ValidationError,
    empirical_threshold_sweep,
    threshold_rate,
)

_WORDS = [(0, 1), (1, 0), (1, 1)]

# Each root name that takes numbers or sequences: a valid call, and per argument its
# kind: an integer, a real, a sequence, or a sequence of integers or of reals.
_CALLS = {
    "LevelSetParams": (dict(q=2, ell=1, L=3), "int int int"),
    "ThresholdQuery": (dict(p=0.1, ell=1, L=3, q=2, epsilon=1e-6), "real int int int real"),
    "RandomCodeSpec": (dict(n=4, rate=0.5, q=2, seed=0), "int real int int"),
    "contains_bad_matrix": (dict(code=_WORDS, p=0.1, ell=1, L=2, q=2), "seq real int int int"),
    "is_bad_tuple": (dict(columns=_WORDS[:2], p=0.1, ell=1, q=2), "seq real int int"),
    "empirical_threshold_sweep": (
        dict(n_list=[4], rate_grid=[0.5], trials=1, p=0.1, ell=1, L=2, q=2, base_seed=0),
        "ints reals int real int int int int",
    ),
    "implied_type_scan": (dict(p=0.1), "real"),
    "rlc_list_of_two_threshold": (dict(p=0.1), "real"),
    "list_of_two_rc_threshold": (dict(p=0.1), "real"),
    "perfect_hashing_threshold": (dict(q=3), "int"),
    "toy_property_rates": (dict(p=0.1), "real"),
}

# Root names outside the table: types, and entry points that take only a params dataclass.
_OTHERS = {"BudgetError", "DomainError", "ValidationError", "__version__", "kl_estimate",
           "level_profile", "sample_random_code", "threshold_rate", "zero_error_threshold"}

# The entry points each params dataclass of the table goes on through when it is accepted.
_TAKERS = {
    "ThresholdQuery": ("threshold_rate", "kl_estimate"),
    "LevelSetParams": ("level_profile", "zero_error_threshold"),
    "RandomCodeSpec": ("sample_random_code",),
}


# The only hostile values the rules accept; _HUGE passes the interpreter's int-to-str digit limit.
_BIG, _HUGE, _FRACTION, _FLOAT32 = 10**400, 10**5000, Fraction(1, 10), np.float32(0.1)


def _hostile(kind: str) -> list:
    ints = [True, 2.0, np.int64(2), "2", None, -1, _BIG, _HUGE, -_HUGE]
    reals = [None, "0.1", Decimal("0.1"), True, math.nan, math.inf, -math.inf, _FRACTION, _FLOAT32]
    seqs = [None, 5, (w for w in _WORDS), "ab", []]
    if kind in ("ints", "reals"):
        return seqs + [[x] for x in (ints if kind == "ints" else reals)]
    return {"int": ints, "real": reals, "seq": seqs}[kind]


def _may_pass(value) -> bool:
    if isinstance(value, list):
        return all(map(_may_pass, value))
    return any(value is x for x in (_BIG, _HUGE, _FRACTION, _FLOAT32))


def test_the_table_covers_every_root_name():
    assert set(_CALLS) | _OTHERS == set(codethresh.__all__)


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_hostile_arguments_get_an_answer_or_a_typed_error(monkeypatch, name):
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")  # an accepted sweep runs in process
    call = getattr(codethresh, name)
    valid, kinds = _CALLS[name]
    call(**valid)
    wrong = []
    for arg, kind in zip(valid, kinds.split()):
        for value in _hostile(kind):
            stage = name
            try:
                made = call(**{**valid, arg: value})
                if not _may_pass(value):
                    wrong.append((arg, repr(value), "accepted"))
                for stage in _TAKERS.get(name, ()):
                    getattr(codethresh, stage)(made)
            except (ValidationError, BudgetError):  # DomainError is a ValidationError
                pass
            except Exception as exc:  # a bare exit, reported below
                wrong.append((arg, repr(value), stage, repr(exc)))
    assert wrong == []


def test_every_real_gives_the_answer_of_its_float(monkeypatch):
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")
    for x in (_FRACTION, np.float64(0.1), _FLOAT32):
        query = ThresholdQuery(x, 1, 3, 2, epsilon=Fraction(1, 10**6))
        assert (type(query.p), type(query.epsilon)) == (float, float)
        exact = threshold_rate(ThresholdQuery(float(x), 1, 3, 2))
        assert repr(threshold_rate(query)) == repr(exact)
        assert type(RandomCodeSpec(8, x, 2, 0).rate) is float
        sweeps = [empirical_threshold_sweep([6], [r], 4, r, 1, 2, 2, 1) for r in (x, float(x))]
        assert sweeps[0].rows == sweeps[1].rows and type(sweeps[0].rows[0].rate) is float
    # No row or dataclass echoes a bool.
    for build in (lambda: empirical_threshold_sweep([True], [0.5], 1, 0.1, 1, 2, 2, 0),
                  lambda: empirical_threshold_sweep([4], [0.5], True, 0.1, 1, 2, 2, 0),
                  lambda: LevelSetParams(2, 1, True),
                  lambda: RandomCodeSpec(8, 0.1, 2, True)):
        with pytest.raises(ValidationError):
            build()
