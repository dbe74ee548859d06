"""Command-line contract: envelopes, formats, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import enum
import gc
import io
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codethresh
import codethresh.solver
from codethresh import cli
from codethresh.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _strip_timing(text: str) -> str:
    return re.sub(r'"elapsed_(ms|s)": [0-9.e+-]+,?\n', "", text)


def _child(args, timeout, space=3 << 30, **kwargs):
    """Run the interpreter on args in a child: one worker and ``space`` bytes of address space."""
    src = os.path.dirname(os.path.dirname(codethresh.__file__))
    env = dict(os.environ, CODE_THRESH_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (space, space)),
        **kwargs,
    )


def test_threshold_json_envelope(capsys):
    code, out, err = _capture(
        capsys, ["threshold", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2"]
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "threshold"
    assert doc["parameters"]["p"] == 0.1
    assert doc["parameters"]["q"] == 2
    assert doc["results"]["r_star"] == pytest.approx(0.2144067835176535, abs=1e-6)
    assert doc["results"]["method"] == "bisection"
    assert set(doc) == {"command", "parameters", "results", "version", "elapsed_ms"}


def test_csv_and_json_carry_identical_numbers(capsys):
    argv = ["sweep", "--ell", "1", "--L", "3", "--q", "2",
            "--p-min", "0.05", "--p-max", "0.2", "--p-step", "0.05"]
    code, json_out, _ = _capture(capsys, argv)
    assert code == 0
    rows_json = json.loads(json_out)["results"]["rows"]

    code, csv_out, _ = _capture(capsys, argv + ["--format", "csv"])
    assert code == 0
    rows_csv = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows_csv) == len(rows_json) == 4
    for jrow, crow in zip(rows_json, rows_csv):
        for key in ("p", "exact", "kl_estimate", "band"):
            assert float(crow[key]) == pytest.approx(jrow[key], abs=1e-12)


def test_format_flag_accepted_before_subcommand(capsys):
    code, out, _ = _capture(
        capsys,
        ["--format", "csv", "threshold", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2"],
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "r_star,beta,alpha_star,method,error_bound"


def test_levelsets_counts_are_decimal_strings(capsys):
    code, out, _ = _capture(capsys, ["levelsets", "--ell", "1", "--L", "3", "--q", "2"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["counts"] == ["2", "6", "0", "0"]
    assert results["t_star"] == pytest.approx(0.75, abs=1e-12)

    code, out, _ = _capture(
        capsys, ["levelsets", "--ell", "1", "--L", "3", "--q", "2", "--format", "csv"]
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["d"] for r in rows] == ["0", "1", "2", "3"]
    assert [r["count"] for r in rows] == ["2", "6", "0", "0"]


def test_simulate_reproducible_output(capsys):
    argv = ["simulate", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2",
            "--n", "10", "--rates", "0.2", "0.5", "--trials", "10", "--seed", "11"]
    code, first, _ = _capture(capsys, argv)
    assert code == 0
    code, second, _ = _capture(capsys, argv)
    assert _strip_timing(first) == _strip_timing(second)
    doc = json.loads(first)
    assert doc["results"]["base_seed"] == 11
    assert "10" in doc["results"]["crossings"]


def test_rlc_and_toy_tables(capsys):
    code, out, _ = _capture(
        capsys,
        ["rlc", "--p-min", "0.1", "--p-max", "0.1", "--p-step", "0.1", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 15
    assert rows[0]["label"] == "ker{000}"
    ratios = [float(r["ratio"]) for r in rows]
    assert min(ratios) == pytest.approx(0.6783898247235197, abs=1e-9)

    code, out, _ = _capture(
        capsys,
        ["toy", "--p-min", "0.1", "--p-max", "0.3", "--p-step", "0.1", "--format", "csv"],
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert all(float(r["r_dagger"]) > float(r["r_theorem"]) for r in rows)


def test_validation_errors_exit_2_with_single_line(capsys):
    code, out, err = _capture(
        capsys, ["threshold", "--p", "0.1", "--ell", "5", "--L", "3", "--q", "2"]
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "ell" in err and "q" in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = _capture(
        capsys, ["threshold", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2", "--zap"]
    )
    assert code == 2


def test_budget_errors_exit_1(capsys):
    code, out, err = _capture(
        capsys,
        ["simulate", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2",
         "--n", "64", "--rates", "0.9", "--trials", "2", "--seed", "1"],
    )
    assert code == 1
    assert out == ""
    assert "budget" in err.lower()


def test_empty_grid_exits_2(capsys):
    code, _, err = _capture(
        capsys, ["toy", "--p-min", "0.3", "--p-max", "0.1", "--p-step", "0.1"]
    )
    assert code == 2
    assert "grid" in err


def test_verify_quick_passes(capsys):
    code, out, _ = _capture(capsys, ["verify", "--quick", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["check"] for r in rows} == {
        "level_counts_vs_enumeration",
        "solver_vs_enclosure",
        "dp_vs_brute_force",
    }
    assert all(r["status"] == "PASS" for r in rows)


def test_verify_fails_on_a_miscounted_solver_profile(capsys, monkeypatch):
    # One log-count off by 1e-3 in the profile the solver reads; the
    # enclosure reads the exact counts, so its row must catch it.
    real = codethresh.solver.level_profile

    def skewed(params):
        profile = real(params)
        logs = list(profile.log_counts)
        logs[1] += 1e-3
        return dataclasses.replace(profile, log_counts=tuple(logs))

    monkeypatch.setattr(codethresh.solver, "level_profile", skewed)
    code, out, _ = _capture(capsys, ["verify", "--quick", "--format", "csv"])
    status = {r["check"]: r["status"] for r in csv.DictReader(io.StringIO(out))}
    assert code == 1
    assert status == {
        "level_counts_vs_enumeration": "PASS",
        "solver_vs_enclosure": "FAIL",
        "dp_vs_brute_force": "PASS",
    }


def test_levelsets_counts_too_long_to_print_exit_1(capsys):
    # |D_d| at q=2, L=15000 reaches 4,516 digits, past the interpreter's
    # default cap of 4,300 on int -> str; the profile itself still serves
    # threshold and sweep.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = _capture(
            capsys, ["levelsets", "--q", "2", "--ell", "1", "--L", "15000"]
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    assert err.startswith("budget exceeded:") and err.count("\n") == 1

    code, out, _ = _capture(
        capsys, ["threshold", "--q", "2", "--ell", "1", "--L", "15000", "--p", "0.1"]
    )
    assert code == 0
    assert json.loads(out)["results"]["r_star"] == pytest.approx(0.530937739744, abs=1e-6)
    code, out, _ = _capture(
        capsys, ["sweep", "--q", "2", "--ell", "1", "--L", "15000",
                 "--p-min", "0.1", "--p-max", "0.2", "--p-step", "0.1"]
    )
    assert code == 0
    assert len(json.loads(out)["results"]["rows"]) == 2


@pytest.mark.parametrize("p", ["5e-324", "1e-310", "1e-300"])
def test_subnormal_p_exits_0(capsys, p):
    code, out, err = _capture(
        capsys, ["threshold", "--q", "2", "--ell", "1", "--L", "3", "--p", p]
    )
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["r_star"] == pytest.approx(2 / 3, abs=1e-9)


def test_sweep_rows_match_threshold(capsys):
    # Grids from p = 0 across the zero-rate boundary t*/L.
    for q, ell, L in ((2, 1, 3), (3, 2, 5), (4, 1, 12)):
        code, out, _ = _capture(
            capsys, ["sweep", "--q", str(q), "--ell", str(ell), "--L", str(L),
                     "--p-min", "0", "--p-max", "0.64", "--p-step", "0.02"]
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert rows[-1]["exact"] == 0.0 < rows[0]["exact"]
        for row in rows:
            code, out, _ = _capture(
                capsys, ["threshold", "--q", str(q), "--ell", str(ell), "--L", str(L),
                         "--p", repr(row["p"])]
            )
            assert code == 0
            scalar = json.loads(out)["results"]["r_star"]
            assert row["exact"] == pytest.approx(scalar, abs=1e-12), (q, ell, L, row)


def test_repeated_runs_print_the_same_envelope(capsys):
    argv = ["sweep", "--ell", "1", "--L", "3", "--q", "2",
            "--p-min", "0.05", "--p-max", "0.3", "--p-step", "0.05"]
    code, first, _ = _capture(capsys, argv)
    assert code == 0
    code, _, err = _capture(capsys, ["sweep", "--ell", "1", "--L", "3", "--q", "2"])
    assert code == 2 and "required" in err
    code, second, _ = _capture(capsys, argv)
    assert code == 0
    assert _strip_timing(first) == _strip_timing(second)


@pytest.mark.parametrize(
    "bounds, code",
    [
        (["toy", "--p-min", "0.1", "--p-max", "0.3", "--p-step", "nan"], 2),
        (["toy", "--p-min", "0.1", "--p-max", "inf", "--p-step", "0.1"], 2),
        (["toy", "--p-min", "nan", "--p-max", "0.3", "--p-step", "0.1"], 2),
        (["toy", "--p-min", "0.1", "--p-max", "0.3", "--p-step", "1e-300"], 1),
        (["simulate", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2", "--n", "10",
          "--rates", "0.2", "--trials", "1000000000", "--seed", "1"], 1),
    ],
)
def test_unbounded_grids_exit_promptly(bounds, code):
    # Each argv (grid bounds, or a sweep's trial count) would run for hours
    # if not refused; a child process with a timeout keeps a regression from
    # hanging the suite.
    src = os.path.dirname(os.path.dirname(codethresh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "codethresh.cli", *bounds],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("budget exceeded:" if code == 1 else "error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--q", "2", "--ell", "1", "--L", "3", "--p-min", "0.9", "--p-max", "1.2",
          "--p-step", "0.1"], "p must lie in [0, 1), got 1.0"),
        # r = 1 - ell/q rounds to 1.0, so the KL estimate has no domain.
        (["--q", "99999999999999999999", "--ell", "1", "--L", "3", "--p-min", "0.05",
          "--p-max", "0.2", "--p-step", "0.05"], "kl_q requires r strictly inside (0,1), got 1.0"),
    ],
)
def test_sweep_errors_keep_their_messages(capsys, argv, message):
    code, out, err = _capture(capsys, ["sweep", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_grids_neither_repeat_points_nor_pass_their_end(capsys):
    # Points are rounded to 12 decimals: a step of 1e-13 printed six rows at
    # p = 0.0 and six at p = 1e-12, above p_max.
    code, out, err = _capture(capsys, ["sweep", "--q", "2", "--ell", "1", "--L", "3",
                                       "--p-min", "0", "--p-max", "1e-13", "--p-step", "1e-13"])
    assert code == 2 and out == "" and err.startswith("error: step must be at least 1e-12")
    assert cli._float_grid(0.0, 3e-12, 1e-12) == [0.0, 1e-12, 2e-12, 3e-12]
    assert cli._float_grid(0.05, 0.15, 0.05) == [0.05, 0.1, 0.15]


@pytest.mark.parametrize("p_min, p_max", [(0.0, 2.6e-12), (0.1, 0.1000000000026)])
def test_steps_off_the_12_decimal_lattice_exit_2(capsys, p_min, p_max):
    # Rounding each point to 12 decimals turned a step of 1.3e-12 into the
    # uneven [0.0, 1e-12, 3e-12], and put the last point above p_max.
    code, out, err = _capture(capsys, ["sweep", "--q", "2", "--ell", "1", "--L", "3",
                                       "--p-min", repr(p_min), "--p-max", repr(p_max),
                                       "--p-step", "1.3e-12"])
    assert (code, out) == (2, "")
    assert err == "error: step must be at least 1e-12 and a multiple of it, got 1.3e-12\n"


def test_nan_rate_exits_2(capsys):
    code, out, err = _capture(
        capsys, ["simulate", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2",
                 "--n", "10", "--rates", "0.2", "nan", "--trials", "2", "--seed", "1"]
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "rate" in err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "36893488147419103231"])
def test_seed_outside_64_bits_exits_2(capsys, seed):
    # Masked to 64 bits, each of these would print the rows of another seed.
    code, out, err = _capture(
        capsys, ["simulate", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2",
                 "--n", "10", "--rates", "0.2", "--trials", "2", "--seed", seed]
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err


def test_code_size_past_a_float_exits_1(capsys):
    # 2^(0.3 n) overflows a float at this n; the size cap still refuses it.
    code, out, err = _capture(
        capsys, ["simulate", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2",
                 "--n", "99999999999999999999", "--rates", "0.3", "--trials", "2",
                 "--seed", "1"]
    )
    assert code == 1 and out == ""
    assert err.startswith("budget exceeded:") and err.count("\n") == 1


def test_codes_past_the_pair_budget_exit_promptly():
    # At p = 0 no two of the 2^18 binary words pass the count test, so the search's
    # pair table would test all 3.4e10 pairs; SUBSET_BUDGET never counts them.
    src = os.path.dirname(os.path.dirname(codethresh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "codethresh.cli", "simulate", "--p", "0", "--ell", "1",
         "--L", "3", "--q", "2", "--n", "18", "--rates", "1", "--trials", "1", "--seed", "0"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("budget exceeded:")


@pytest.mark.parametrize(
    "search",
    ["--L 14 --n 30 --rates 0.3 --seed 0", "--L 300 --n 30 --rates 0.3 --seed 1",
     "--L 300 --n 30 --rates 0.3 --seed 0", "--L 1100 --n 24 --rates 0.5 --seed 1"],
)
def test_dense_searches_exit_within_their_budgets(search):
    # At p = 0.5 every pair of words passes the count test.  The badness DP's states
    # (L = 14), or the search's depth (L = 300 and 1100), grew until memory or the
    # stack ran out; the child's 3 GB of address space keeps the machine's memory safe.
    proc = _child(["-m", "codethresh.cli", "simulate", "--q", "2", "--ell", "1", "--p", "0.5",
                   "--trials", "1", *search.split()], timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("budget exceeded:")


def test_pair_table_masks_are_charged_before_they_are_built():
    # At p = 1 every pair passes, so the prefix grows to 27 rows and its pair table
    # would keep C(27, 13) masks; charged first, they exit 1 within seconds under 1 GB.
    proc = _child(["-m", "codethresh.cli", "simulate", "--q", "28", "--ell", "14", "--L", "28",
                   "--p", "1", "--n", "3", "--rates", "1", "--trials", "1", "--seed", "0"],
                  timeout=10, space=1 << 30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("budget exceeded:")


def test_coverage_patterns_are_counted_before_they_are_listed():
    # 28 distinct symbols per coordinate at ell = 14 make C(28, 14) = 4e7 K-sets.
    script = ("from codethresh.errors import BudgetError\n"
              "from codethresh.simulate import is_bad_tuple\n"
              "try:\n"
              "    is_bad_tuple([[j, j, j] for j in range(28)], 1 / 3, 14, 28)\n"
              "except BudgetError as exc:\n"
              "    print(exc)\n")
    proc = _child(["-c", script], timeout=10, space=1 << 30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "badness DP state entries" in proc.stdout


# Each option of each command, one at a time, takes each of these values.
_FUZZ_VALUES = ["0", "1", "-1", "2", "0.5", "2.5", "-0", "1e-320", "1e308", "nan", "inf", "300",
                "99999999999999999999", "abc", ""]
_FUZZ_BASES = [
    ("threshold", {"--p": "0.1", "--ell": "1", "--L": "3", "--q": "2", "--eps": "1e-6"}),
    ("sweep", {"--ell": "1", "--L": "3", "--q": "2",
               "--p-min": "0.05", "--p-max": "0.2", "--p-step": "0.05"}),
    ("levelsets", {"--ell": "1", "--L": "3", "--q": "2"}),
    *(("simulate", {"--p": p, "--ell": "1", "--L": "3", "--q": "2", "--n": n, "--rates": "0.3",
                    "--trials": "2", "--seed": "0"}) for p, n in (("0.1", "12"), ("0.5", "30"))),
    ("rlc", {"--p-min": "0.05", "--p-max": "0.2", "--p-step": "0.05"}),
    ("toy", {"--p-min": "0.05", "--p-max": "0.2", "--p-step": "0.05"}),
]

# Runs each argv of stdin through cli.run, 10 s each, and prints [argv, exit code, stderr].
_FUZZ_CHILD = """
import contextlib, io, json, signal, sys
from codethresh.cli import run

class TimedOut(BaseException):
    pass

def time_out(*_):
    raise TimedOut

signal.signal(signal.SIGALRM, time_out)
for argv in json.load(sys.stdin):
    err = io.StringIO()
    signal.alarm(10)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
    except BaseException as exc:  # the alarm, or an exception the command let through
        code = repr(exc)
    finally:
        signal.alarm(0)
    print(json.dumps([argv, code, err.getvalue()]), flush=True)
"""


def test_every_option_value_exits_0_1_or_2_without_a_traceback():
    calls = [[command, *itertools.chain.from_iterable({**base, option: value}.items())]
             for command, base in _FUZZ_BASES for option in base for value in _FUZZ_VALUES]
    proc = _child(["-c", _FUZZ_CHILD], timeout=300, input=json.dumps(calls))
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0 and len(results) == len(calls) == 540
    assert [(argv, code) for argv, code, err in results
            if code not in (0, 1, 2) or "Traceback" in err] == []


def test_simulate_million_symbol_words_exit_0(capsys):
    # At rate 0 every n passes the size cap; the sampler's dedup once ran out of memory here.
    code, out, err = _capture(
        capsys, ["simulate", "--q", "2", "--ell", "1", "--L", "3", "--p", "0.1",
                 "--n", "1000000", "--rates", "0", "--trials", "2", "--seed", "0"]
    )
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["rows"][0]["satisfied"] == 0


def test_alphabet_past_2_63_exits_2(capsys):
    code, out, err = _capture(
        capsys, ["simulate", "--q", "9223372036854775813", "--ell", "1", "--L", "1",
                 "--p", "0.1", "--n", "2", "--rates", "0", "--trials", "5", "--seed", "0"]
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_infinite_eps_exits_2(capsys):
    code, out, err = _capture(
        capsys, ["threshold", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2",
                 "--eps", "inf"]
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "epsilon" in err


@pytest.mark.parametrize(
    "flags",
    [["--n", "-5", "--rates", "0.3"], ["--n", "10", "--rates", "0.4", "0.3"],
     ["--n", "10", "10", "--rates", "0.3"]],
)
def test_invalid_sweep_grids_exit_2(capsys, flags):
    code, out, err = _capture(
        capsys, ["simulate", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2", *flags,
                 "--trials", "2", "--seed", "1"]
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Each subcommand's argv, with its "parameters" keys and its --help options in
# the order the parser declares them (recorded before the options were shared).
_OPTION_ORDER = {
    "threshold": (
        ["--p", "0.1", "--ell", "1", "--L", "3", "--q", "2"],
        ["p", "ell", "L", "q", "eps"],
        ["--help", "--p", "--ell", "--L", "--q", "--eps"],
    ),
    "sweep": (
        ["--ell", "1", "--L", "3", "--q", "2", "--p-min", "0.1", "--p-max", "0.1",
         "--p-step", "0.1"],
        ["ell", "L", "q", "p_min", "p_max", "p_step"],
        ["--help", "--ell", "--L", "--q", "--p-min", "--p-max", "--p-step"],
    ),
    "levelsets": (
        ["--ell", "1", "--L", "3", "--q", "2"],
        ["ell", "L", "q"],
        ["--help", "--ell", "--L", "--q"],
    ),
    "simulate": (
        ["--p", "0.1", "--ell", "1", "--L", "3", "--q", "2", "--n", "8", "--rates", "0.3",
         "--trials", "2", "--seed", "1"],
        ["p", "ell", "L", "q", "n", "rates", "trials", "seed"],
        ["--help", "--p", "--ell", "--L", "--q", "--n", "--rates", "--trials", "--seed"],
    ),
    "rlc": (
        ["--p-min", "0.1", "--p-max", "0.1", "--p-step", "0.1"],
        ["p_min", "p_max", "p_step"],
        ["--help", "--p-min", "--p-max", "--p-step"],
    ),
    "toy": (
        ["--p-min", "0.1", "--p-max", "0.1", "--p-step", "0.1"],
        ["p_min", "p_max", "p_step"],
        ["--help", "--p-min", "--p-max", "--p-step"],
    ),
}


@pytest.mark.parametrize("command", sorted(_OPTION_ORDER))
def test_options_keep_their_order(capsys, monkeypatch, command):
    argv, keys, options = _OPTION_ORDER[command]
    code, out, _ = _capture(capsys, [command, *argv])
    assert code == 0
    assert list(json.loads(out)["parameters"]) == keys

    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _capture(capsys, [command, "--help"])
    assert code == 0
    section = out.split("\noptions:\n", 1)[1]
    assert re.findall(r"^  (?:-\w, )?(--[\w-]+)", section, re.M) == options


# ---------------------------------------------------------------------------
# Number rendering, against the rounding pass and indented json.dumps it replaced.


def _sig12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _sig12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sig12(v) for v in obj]
    return obj


def _reference_json(obj) -> str:
    return json.dumps(_sig12(obj), indent=2)


def _render(obj) -> str:
    out = []
    cli._put_json(obj, out.append)
    return "".join(out)


_FLOATS = st.floats() | st.floats().map(np.float64)  # NaN, +-inf, +-0.0 and subnormals
_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\n\t\x7f", "\u00e9\u20ac\U0001f600", ""])
_SCALARS = (_FLOATS | st.integers() | st.integers(2**64, 2**200) | st.booleans() | st.none()
            | _TEXT | st.sampled_from(list(enum.IntEnum("Level", "LOW HIGH"))))
_PAYLOADS = st.recursive(_SCALARS, lambda kids: st.lists(kids, max_size=4)
                         | st.lists(kids, max_size=4).map(tuple)
                         | st.dictionaries(_TEXT, kids, max_size=4), max_leaves=30)

_PINNED = [5e-324, 2.2250738585072014e-308, 999999999999.5, 1e12, 9999999999999998.0, -0.0,
           1.0, -3.0, 123456789012.0, 1.5e13, 9.99999999999e15, 1.5e-07, 0.0001,
           math.inf, math.nan]  # each branch of _num: no ".", exponent 12-15, the 1e-4 cut


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_json_renderer_matches_rounded_dumps(payload):
    assert _render(payload) == _reference_json(payload)


@pytest.mark.parametrize("x", _PINNED + [-x for x in _PINNED], ids=repr)
def test_pinned_floats_render_as_the_rounded_float(x):
    assert cli._num(x) == cli._num(np.float64(x)) == str(float(f"{x:.12g}"))
    assert _render({"x": [x, (x,)]}) == _reference_json({"x": [x, (x,)]})


def test_json_renderer_leaves_no_garbage_cycle():
    # A cycle would hold each output's pieces until a collection: 1.7 MB more
    # peak RSS over the 66 sweeps of the exact-sweep benchmark workload.
    payload = {"rows": [{"p": 0.1 * i, "exact": [1.0, None, "x"]} for i in range(50)]}
    gc.collect()
    gc.disable()
    try:
        _render(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_json_renderer_refuses_what_json_refuses():
    for bad in (object(), np.int64(3), np.bool_(True), {"a": [{1.5}]}):
        with pytest.raises(TypeError):
            _render(bad)


def test_json_renderer_refuses_non_str_keys():
    # json.dumps would print {"1": 2.0}; no payload has such keys.
    with pytest.raises(TypeError):
        _render({1: 2.0})


def _print(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.lists(_FLOATS, min_size=1, max_size=6) | st.sampled_from([_PINNED]))
def test_printed_floats_match_the_rounded_float(xs):
    # A stand-in solver result carries the floats through both output formats.
    fields = {f"x{i}": x for i, x in enumerate(xs)}
    argv = ["threshold", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "threshold_rate", lambda query: types.SimpleNamespace(**fields))
        table = _print(["--format", "csv", *argv])
        doc = _print(argv)
    (row,) = csv.DictReader(io.StringIO(table))
    assert list(row.values()) == [str(float(f"{x:.12g}")) for x in xs]
    envelope = {
        "command": "threshold",
        "parameters": {"p": 0.1, "ell": 1, "L": 3, "q": 2, "eps": 1e-06},
        "results": fields,
        "version": codethresh.__version__,
        "elapsed_ms": 0,
    }
    assert _strip_timing(doc) == _strip_timing(_reference_json(envelope) + "\n")
