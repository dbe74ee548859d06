"""Command-line front end.

Every subcommand prints a single OutputEnvelope on stdout: JSON by
default, or a flat CSV table with --format csv.  Numbers are serialized
with 12 significant digits in either format, so the two payloads carry
identical values.  Exit codes: 0 success, 1 budget or verification
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import __version__
from .errors import BudgetError, ValidationError
from .levels import LevelSetParams, level_profile
from .rlc import implied_type_scan, rlc_list_of_two_threshold
from .simulate import empirical_threshold_sweep
from .solver import (
    ThresholdQuery,
    kl_estimate,
    list_of_two_rc_threshold,
    threshold_rate,
    threshold_rates,
    toy_property_rates,
)

__all__ = ["OutputEnvelope", "run", "main"]


@dataclass(frozen=True)
class OutputEnvelope:
    """What every subcommand emits: inputs echoed, results, provenance."""

    command: str
    parameters: dict[str, Any]
    results: Any
    version: str
    elapsed_ms: int

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": _sig12(self.parameters),
            "results": _sig12(self.results),
            "version": self.version,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(payload, indent=2)


def _sig12(obj: Any) -> Any:
    """Round every float in a nested payload to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _sig12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sig12(v) for v in obj]
    return obj


def _csv_text(header: list[str], rows: list[list[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else _sig12(v) for v in row])
    return buf.getvalue()


def _float_grid(lo: float, hi: float, step: float) -> list[float]:
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step}")
    out = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + 1e-12:
            break
        out.append(round(x, 12))
        k += 1
    if not out:
        raise ValidationError(f"empty grid: [{lo}, {hi}] with step {step}")
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results payload, csv header, csv rows)


def _cmd_threshold(args) -> tuple[Any, list[str], list[list[Any]]]:
    query = ThresholdQuery(args.p, args.ell, args.L, args.q, args.eps)
    res = threshold_rate(query)
    results = {
        "r_star": res.r_star,
        "beta": res.beta,
        "alpha_star": res.alpha_star,
        "method": res.method,
        "error_bound": res.error_bound,
    }
    header = ["r_star", "beta", "alpha_star", "method", "error_bound"]
    rows = [[res.r_star, res.beta, res.alpha_star, res.method, res.error_bound]]
    return results, header, rows


def _cmd_sweep(args) -> tuple[Any, list[str], list[list[Any]]]:
    grid = _float_grid(args.p_min, args.p_max, args.p_step)
    queries = [ThresholdQuery(p, args.ell, args.L, args.q) for p in grid]
    rows = []
    for query, res in zip(queries, threshold_rates(queries)):
        estimate, band = kl_estimate(query)
        rows.append([query.p, res.r_star, estimate, band])
    results = {
        "rows": [
            {"p": r[0], "exact": r[1], "kl_estimate": r[2], "band": r[3]}
            for r in rows
        ]
    }
    return results, ["p", "exact", "kl_estimate", "band"], rows


def _cmd_levelsets(args) -> tuple[Any, list[str], list[list[Any]]]:
    params = LevelSetParams(args.q, args.ell, args.L)
    profile = level_profile(params)
    try:
        counts = [str(c) for c in profile.counts]
    except ValueError as exc:  # the interpreter's cap on int -> str digits
        raise BudgetError(
            f"level counts for q={params.q}, L={params.L} exceed the limit of "
            f"{sys.get_int_max_str_digits()} digits per printed integer"
        ) from exc
    results = {
        "q": params.q,
        "ell": params.ell,
        "L": params.L,
        "counts": counts,
        "t_star": profile.t_star,
        "exact": True,
    }
    header = ["q", "ell", "L", "d", "count", "t_star"]
    rows = [
        [params.q, params.ell, params.L, d, counts[d], profile.t_star]
        for d in range(params.L + 1)
    ]
    return results, header, rows


def _cmd_simulate(args) -> tuple[Any, list[str], list[list[Any]]]:
    report = empirical_threshold_sweep(
        n_list=args.n,
        rate_grid=args.rates,
        trials=args.trials,
        p=args.p,
        ell=args.ell,
        L=args.L,
        q=args.q,
        base_seed=args.seed,
    )
    results = {
        "rows": [
            {
                "n": r.n,
                "rate": r.rate,
                "trials": r.trials,
                "satisfied": r.satisfied,
                "fraction": r.fraction,
            }
            for r in report.rows
        ],
        "crossings": {str(n): c for n, c in report.crossings.items()},
        "base_seed": report.base_seed,
        "elapsed_s": report.elapsed_s,
    }
    header = ["n", "rate", "trials", "satisfied", "fraction"]
    rows = [[r.n, r.rate, r.trials, r.satisfied, r.fraction] for r in report.rows]
    return results, header, rows


def _cmd_rlc(args) -> tuple[Any, list[str], list[list[Any]]]:
    grid = _float_grid(args.p_min, args.p_max, args.p_step)
    rows = []
    thresholds = []
    for p in grid:
        scan = implied_type_scan(p)
        for entry in scan.entries:
            rows.append([p, entry.map_label, entry.entropy, entry.dimension, entry.ratio])
        thresholds.append(
            {
                "p": p,
                "rc": list_of_two_rc_threshold(p),
                "rlc": rlc_list_of_two_threshold(p),
                "min_ratio": scan.min_ratio,
            }
        )
    results = {
        "rows": [
            {"p": r[0], "label": r[1], "entropy": r[2], "dim": r[3], "ratio": r[4]}
            for r in rows
        ],
        "thresholds": thresholds,
    }
    return results, ["p", "label", "entropy", "dim", "ratio"], rows


def _cmd_toy(args) -> tuple[Any, list[str], list[list[Any]]]:
    grid = _float_grid(args.p_min, args.p_max, args.p_step)
    rows = []
    for p in grid:
        rates = toy_property_rates(p)
        rows.append([p, rates.r_theorem, rates.r_dagger])
    results = {
        "rows": [
            {"p": r[0], "r_theorem": r[1], "r_dagger": r[2]} for r in rows
        ]
    }
    return results, ["p", "r_theorem", "r_dagger"], rows


def _cmd_verify(args) -> tuple[Any, list[str], list[list[Any]]]:
    from .verification import verification_report

    checks = verification_report(quick=args.quick)
    results = {"checks": checks}
    header = ["check", "status", "observed", "bound"]
    rows = [[c["check"], c["status"], c["observed"], c["bound"]] for c in checks]
    return results, header, rows


_HANDLERS: dict[str, Callable] = {
    "threshold": _cmd_threshold,
    "sweep": _cmd_sweep,
    "levelsets": _cmd_levelsets,
    "simulate": _cmd_simulate,
    "rlc": _cmd_rlc,
    "toy": _cmd_toy,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="codethresh",
        description="Threshold rates for list-recovery of random codes",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    # Also accepted after the subcommand; SUPPRESS keeps the root value
    # intact unless the flag is actually repeated there.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("threshold", parents=[common], help="R* for one (p, ell, L, q)")
    t.add_argument("--p", type=float, required=True)
    t.add_argument("--ell", type=int, required=True)
    t.add_argument("--L", type=int, required=True)
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--eps", type=float, default=1e-6)

    s = sub.add_parser("sweep", parents=[common], help="exact R* vs KL estimate over p")
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--p-min", type=float, required=True)
    s.add_argument("--p-max", type=float, required=True)
    s.add_argument("--p-step", type=float, required=True)

    lv = sub.add_parser("levelsets", parents=[common], help="level-set profile dump")
    lv.add_argument("--ell", type=int, required=True)
    lv.add_argument("--L", type=int, required=True)
    lv.add_argument("--q", type=int, required=True)

    sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo threshold sweep")
    sim.add_argument("--p", type=float, required=True)
    sim.add_argument("--ell", type=int, required=True)
    sim.add_argument("--L", type=int, required=True)
    sim.add_argument("--q", type=int, required=True)
    sim.add_argument("--n", type=int, nargs="+", required=True)
    sim.add_argument("--rates", type=float, nargs="+", required=True)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)

    r = sub.add_parser("rlc", parents=[common], help="implied-type scan over p")
    r.add_argument("--p-min", type=float, required=True)
    r.add_argument("--p-max", type=float, required=True)
    r.add_argument("--p-step", type=float, required=True)

    toy = sub.add_parser("toy", parents=[common], help="toy-property rate pair over p")
    toy.add_argument("--p-min", type=float, required=True)
    toy.add_argument("--p-max", type=float, required=True)
    toy.add_argument("--p-step", type=float, required=True)

    v = sub.add_parser("verify", parents=[common], help="oracle-equivalence suite")
    v.add_argument("--quick", action="store_true", help="smaller grids and corpora")
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    """Parse argv, execute one subcommand, print its envelope to stdout."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    t0 = time.perf_counter()
    try:
        results, header, rows = _HANDLERS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))

    parameters = {
        k: v for k, v in vars(args).items() if k not in ("command", "format")
    }
    envelope = OutputEnvelope(args.command, parameters, results, __version__, elapsed_ms)
    if args.format == "csv":
        sys.stdout.write(_csv_text(header, rows))
    else:
        print(envelope.to_json())

    if args.command == "verify":
        if any(c["status"] != "PASS" for c in results["checks"]):
            return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
