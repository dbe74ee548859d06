"""Correctness of a workload's outputs: stored references plus invariants.

Every invocation gets one status:

* ``ok``;
* ``raised``: the call raised instead of returning an exit code;
* ``exit``: it returned a nonzero exit code (none is expected here);
* ``wrong``: its output disagrees with the reference or an invariant, or is
  not the JSON envelope the checks read.

All four but ``ok`` count as failed; ``wrong`` also makes the run incorrect.

References (``bench/reference/<workload>.json``) hold the seed commit's
outputs, keyed by the argv joined with spaces.  When a key is present:

* every R* lies within 2*eps of the reference;
* exact level counts are equal; log-domain log-counts and t* agree within
  1e-9, relative to their size where it exceeds 1;
* Monte Carlo rows and crossings are identical.

A probe whose reference raised passes once it returns 0 <= R* <= 1e-6.
Invariants hold for every seed: 0 <= R* <= 1, R* non-increasing in p within
each (q, ell, L), and Monte Carlo rows consistent with their own counts.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_EPS = 1e-6
LOG_TOL = 1e-9
# Floats in the CLI output carry 12 significant digits.
PRINT_TOL = 1e-11


def key(argv: list[str]) -> str:
    return " ".join(argv)


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())["outputs"] if path.exists() else {}


def _arg(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _outcome(argv: list[str], result: dict) -> tuple[str, dict | None]:
    """(status, the compared part of the output or None) before any comparison."""
    if result["error"] is not None:
        return "raised", None
    if result["code"] != 0:
        return "exit", None
    try:
        return "ok", summarize(argv, json.loads(result["stdout"])["results"])
    except (ValueError, KeyError, TypeError):  # not the envelope this benchmark reads
        return "wrong", None


def summarize(argv: list[str], payload) -> dict:
    """The part of an output that the checks compare, as stored in a reference."""
    cmd = argv[0]
    if cmd == "threshold":
        return {"r_star": payload["r_star"]}
    if cmd == "sweep":
        return {col: [row[col] for row in payload["rows"]]
                for col in ("p", "exact", "kl_estimate", "band")}
    if cmd == "levelsets":
        return {k: payload.get(k) for k in ("counts", "log_counts", "t_star", "exact")}
    if cmd == "simulate":
        return {"rows": payload["rows"], "crossings": payload["crossings"]}
    raise ValueError(f"no check for subcommand {cmd!r}")


def _close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol


def _log_counts(out: dict, q: int) -> list[float]:
    if out.get("log_counts") is not None:
        return out["log_counts"]
    return [math.log(int(c)) / math.log(q) if int(c) else -math.inf for c in out["counts"]]


def _matches(argv: list[str], out: dict, ref: dict) -> bool:
    cmd = argv[0]
    eps = float(_arg(argv, "--eps", DEFAULT_EPS))
    if "error" in ref:  # the reference raised: only R* ~ 0 is accepted now
        return cmd == "threshold" and 0.0 <= out["r_star"] <= 1e-6
    if cmd == "threshold":
        return _close(out["r_star"], ref["r_star"], 2 * eps)
    if cmd == "sweep":
        return (len(out["p"]) == len(ref["p"])
                and all(_close(a, b, PRINT_TOL) for a, b in zip(out["p"], ref["p"]))
                and all(_close(a, b, 2 * eps) for a, b in zip(out["exact"], ref["exact"]))
                and all(_close(a, b, LOG_TOL) for col in ("kl_estimate", "band")
                        for a, b in zip(out[col], ref[col])))
    if cmd == "levelsets":
        if ref["exact"] and out["counts"] != ref["counts"]:
            return False
        q = int(_arg(argv, "--q"))
        mine, theirs = _log_counts(out, q), _log_counts(ref, q)
        # A log-domain reference is itself off from the exact values by up to
        # 5e-9 at (2,1,2000), where log_counts reach 2000: compare relatively.
        scale = (lambda b: 1.0) if ref["exact"] else (lambda b: max(1.0, abs(b)))
        return (_close(out["t_star"], ref["t_star"], LOG_TOL * scale(ref["t_star"]))
                and len(mine) == len(theirs)
                and all(_close(a, b, LOG_TOL * scale(b)) for a, b in zip(mine, theirs)))
    return out == ref


def _crossing(rates: list[float], fractions: list[float]):
    """Rate where the badness fraction first passes 1/2, linearly interpolated."""
    if fractions and fractions[0] > 0.5:
        return rates[0]
    for (r0, f0), (r1, f1) in zip(zip(rates, fractions), zip(rates[1:], fractions[1:])):
        if f0 <= 0.5 < f1:
            return r0 + (0.5 - f0) * (r1 - r0) / (f1 - f0)
    return None


def _simulate_consistent(argv: list[str], out: dict) -> bool:
    """Rows follow the requested (n, rate) grid and their counts; crossings follow the rows."""
    n_list = [int(x) for x in argv[argv.index("--n") + 1:argv.index("--rates")]]
    rates = [float(x) for x in argv[argv.index("--rates") + 1:argv.index("--trials")]]
    trials = int(_arg(argv, "--trials"))
    rows = out["rows"]
    if [(r["n"], r["rate"]) for r in rows] != [(n, r) for n in n_list for r in rates]:
        return False
    if any(not (r["trials"] == trials and 0 <= r["satisfied"] <= trials
                and _close(r["fraction"], r["satisfied"] / trials, PRINT_TOL)) for r in rows):
        return False
    for n in n_list:
        want = _crossing(rates, [r["fraction"] for r in rows if r["n"] == n])
        got = out["crossings"].get(str(n))
        if (want is None) != (got is None) or (want is not None and not _close(want, got, 1e-9)):
            return False
    return True


def check(invocations: list[list[str]], results: list[dict],
          reference: dict) -> tuple[list[str], list]:
    """One status per invocation (see the module docstring), and the compared outputs."""
    statuses, outs = [], []
    for argv, result in zip(invocations, results):
        status, out = _outcome(argv, result)
        if out is not None:
            ref = reference.get(key(argv))
            if (ref is not None and not _matches(argv, out, ref)) or not _invariants(argv, out):
                status = "wrong"
        statuses.append(status)
        outs.append(out)
    _threshold_invariants(invocations, outs, statuses)
    return statuses, outs


def _invariants(argv: list[str], out: dict) -> bool:
    if argv[0] == "simulate":
        return _simulate_consistent(argv, out)
    if argv[0] == "sweep":
        return _sweep_invariants(out)
    return True


def _sweep_invariants(out: dict) -> bool:
    r = out["exact"]
    return (all(0.0 <= x <= 1.0 for x in r)
            and all(b <= a + 2 * DEFAULT_EPS for a, b in zip(r, r[1:]))
            and all(b > a for a, b in zip(out["p"], out["p"][1:])))


def _threshold_invariants(invocations, outs, statuses) -> None:
    """0 <= R* <= 1, and R* non-increasing in p within each (q, ell, L)."""
    groups = defaultdict(list)
    for i, (argv, out) in enumerate(zip(invocations, outs)):
        if argv[0] == "threshold" and out is not None:
            if not 0.0 <= out["r_star"] <= 1.0:
                statuses[i] = "wrong"
            point = (_arg(argv, "--q"), _arg(argv, "--ell"), _arg(argv, "--L"))
            groups[point].append((float(_arg(argv, "--p")), i))
    for members in groups.values():
        members.sort()
        for (_, i), (_, j) in zip(members, members[1:]):
            eps = float(_arg(invocations[j], "--eps", DEFAULT_EPS))
            if outs[j]["r_star"] > outs[i]["r_star"] + 2 * eps:
                statuses[j] = "wrong"
