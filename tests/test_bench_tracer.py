"""The bench's layer tracer still installs on the program and counts its layers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import codethresh

ROOT = Path(__file__).resolve().parent.parent

# Installs bench/tracing.Tracer, runs one threshold and one two-trial simulate
# through the wrapped cli.run, and prints layer_metrics of the spans.
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, layer_metrics
from codethresh import cli

tracer = Tracer()
tracer.install()
run = tracer.wrap("cli.run", cli.run)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        run(["threshold", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2"]),
        run(["simulate", "--p", "0.1", "--ell", "1", "--L", "3", "--q", "2", "--n", "8",
             "--rates", "0.3", "--trials", "2", "--seed", "1"]),
    ]
tracer.dump(sys.argv[2])
with open(sys.argv[2]) as fh:
    print(json.dumps({"codes": codes, "metrics": layer_metrics(json.load(fh))}))
"""


def test_bench_tracer_counts_layers(tmp_path):
    src = os.path.dirname(os.path.dirname(codethresh.__file__))
    env = dict(os.environ, CODE_THRESH_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "bench"), str(tmp_path / "spans.json")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0]
    metrics = report["metrics"]
    assert metrics["solver.solves"] == 1
    assert metrics["simulate.search.calls"] == 2  # one search per trial
    assert metrics["solver.dual_evals_per_solve"] == 0


# One simulate run whose only search reaches the DP: two trials, two DP calls.
_DP_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, layer_metrics
from codethresh import cli

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["simulate", "--p", "0.25", "--ell", "1", "--L", "3", "--q", "2", "--n", "8",
                    "--rates", "0.5", "--trials", "2", "--seed", "1"])
tracer.dump(sys.argv[2])
with open(sys.argv[2]) as fh:
    print(json.dumps({"code": code, "metrics": layer_metrics(json.load(fh))}))
"""


def test_bench_tracer_sees_the_badness_dp(tmp_path):
    # The bench's simulate.dp.* metrics stay live only while the search calls
    # simulate.is_bad_tuple through the module attribute the tracer wraps.
    src = os.path.dirname(os.path.dirname(codethresh.__file__))
    env = dict(os.environ, CODE_THRESH_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _DP_CHILD, str(ROOT / "bench"), str(tmp_path / "spans.json")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    assert report["metrics"]["simulate.dp.calls"] >= 1
