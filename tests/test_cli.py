"""Command-line contract: envelopes, formats, exit codes, reproducibility."""

from __future__ import annotations

import csv
import io
import json
import re
import sys

import pytest

from codethresh.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _strip_timing(text: str) -> str:
    return re.sub(r'"elapsed_(ms|s)": [0-9.e+-]+,?\n', "", text)


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
        "solver_vs_grid_oracle",
        "solver_vs_ascent_oracle",
        "dp_vs_brute_force",
    }
    assert all(r["status"] == "PASS" for r in rows)


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
