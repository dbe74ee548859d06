"""Command-line front end.

Every subcommand prints one JSON envelope on stdout by default, or with
--format csv the flat table whose rows the envelope's results hold.
Numbers are serialized with 12 significant digits in either format, so
the two payloads carry identical values.  Exit codes: 0 success, 1 budget
or verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from typing import Any, Optional

from . import __version__
from .errors import BudgetError, ValidationError
from .levels import LevelSetParams, level_profile
from .rlc import implied_type_scan, rlc_list_of_two_threshold
from .simulate import empirical_threshold_sweep
from .solver import (
    ThresholdQuery,
    _kl_estimates,
    _threshold_columns,
    list_of_two_rc_threshold,
    threshold_rate,
    toy_property_rates,
)

__all__ = ["run", "main"]

#: Refuse p grids longer than this many points.
GRID_BUDGET = 100_000


def _num(x):
    """x rounded to 12 significant digits, printed as repr prints that float: %.12g already has
    repr's digits (12-digit decimals lie over 2**-53 apart), only not its ".0" or its exponent."""
    s = "%.12g" % x
    if "e" in s or "n" in s:  # an exponent (from 1e12 on; repr's from 1e16 on), inf or nan
        return repr(float(s))
    return s if "." in s else s + ".0"


def _put_json(o, put, pad=""):
    """Write o as json.dumps(o, indent=2) writes it, each finite float by _num; str keys only.

    Not a closure: one calling itself is a cycle, keeping the pieces until a GC pass.
    """
    if isinstance(o, float) and math.isfinite(o):
        put(_num(o))
    elif isinstance(o, str):  # the encoder json.dumps(o) calls, with no dumps overhead
        put(json.encoder.encode_basestring_ascii(o))
    elif type(o) is int:  # bools and other subclasses print as json.dumps prints them
        put(repr(o))
    elif isinstance(o, (dict, list, tuple)) and o:
        inner, keyed = f"{pad}  ", isinstance(o, dict)
        sep = f"{'{' if keyed else '['}\n{inner}"
        for k, v in o.items() if keyed else enumerate(o):
            put(f"{sep}{json.encoder.encode_basestring_ascii(k)}: " if keyed else sep)
            _put_json(v, put, inner)
            sep = f",\n{inner}"
        put(f"\n{pad}{'}' if keyed else ']'}")
    else:  # None, bools, NaN, infinities, empty containers; json.dumps raises on others
        put(json.dumps(o))


def _float_grid(lo: float, hi: float, step: float) -> list[float]:
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValidationError(
            f"grid bounds and step must be finite, got [{lo}, {hi}] with step {step}"
        )
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step}")
    if (hi - lo) / step > GRID_BUDGET:
        raise BudgetError(
            f"grid [{lo}, {hi}] with step {step} has over {GRID_BUDGET} points"
        )
    # Points are rounded to 12 decimals, so any other step would repeat or skew them.
    if round(step, 12) != step:
        raise ValidationError(f"step must be at least 1e-12 and a multiple of it, got {step}")
    out = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + min(1e-12, step / 2):
            break
        out.append(round(x, 12))
        k += 1
    if not out:
        raise ValidationError(f"empty grid: [{lo}, {hi}] with step {step}")
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (JSON results, table rows).  The rows are
# dicts keyed by CSV column, and the results hold the same dicts.


def _cmd_threshold(args) -> tuple[Any, list[dict]]:
    res = threshold_rate(ThresholdQuery(args.p, args.ell, args.L, args.q, args.eps))
    row = dict(vars(res))
    return row, [row]


def _cmd_sweep(args) -> tuple[Any, list[dict]]:
    """Exact R* and the KL estimate over the p grid, in one pass.

    The grid is checked as its queries would be, once: the query at the
    first p, then the first p outside [0, 1) if there is one.
    """
    grid = _float_grid(args.p_min, args.p_max, args.p_step)
    query = ThresholdQuery(grid[0], args.ell, args.L, args.q)
    if (bad := next((p for p in grid if not 0.0 <= p < 1.0), None)) is not None:
        ThresholdQuery(bad, args.ell, args.L, args.q)
    profile = level_profile(LevelSetParams(args.q, args.ell, args.L))
    exact = _threshold_columns(profile, grid, query.epsilon)[0]
    estimates, band = _kl_estimates(grid, args.ell, args.L, args.q)
    rows = [
        {"p": p, "exact": x, "kl_estimate": e, "band": band}
        for p, x, e in zip(grid, exact, estimates)
    ]
    return {"rows": rows}, rows


def _cmd_levelsets(args) -> tuple[Any, list[dict]]:
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
    rows = [
        {"q": params.q, "ell": params.ell, "L": params.L, "d": d, "count": count,
         "t_star": profile.t_star}
        for d, count in enumerate(counts)
    ]
    return results, rows


def _cmd_simulate(args) -> tuple[Any, list[dict]]:
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
    rows = [r._asdict() for r in report.rows]
    results = {
        "rows": rows,
        "crossings": {str(n): c for n, c in report.crossings.items()},
        "base_seed": report.base_seed,
        "elapsed_s": report.elapsed_s,
    }
    return results, rows


def _cmd_rlc(args) -> tuple[Any, list[dict]]:
    rows = []
    thresholds = []
    for p in _float_grid(args.p_min, args.p_max, args.p_step):
        scan = implied_type_scan(p)
        rows.extend(
            {
                "p": p,
                "label": e.map_label,
                "entropy": e.entropy,
                "dim": e.dimension,
                "ratio": e.ratio,
            }
            for e in scan.entries
        )
        thresholds.append(
            {
                "p": p,
                "rc": list_of_two_rc_threshold(p),
                "rlc": rlc_list_of_two_threshold(p),
                "min_ratio": scan.min_ratio,
            }
        )
    return {"rows": rows, "thresholds": thresholds}, rows


def _cmd_toy(args) -> tuple[Any, list[dict]]:
    grid = _float_grid(args.p_min, args.p_max, args.p_step)
    rows = [{"p": p, **toy_property_rates(p)._asdict()} for p in grid]
    return {"rows": rows}, rows


def _cmd_verify(args) -> tuple[Any, list[dict]]:
    from .verification import verification_report

    checks = verification_report(quick=args.quick)
    return {"checks": checks}, checks


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
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--p", type=float, required=True)
    code = argparse.ArgumentParser(add_help=False)
    for name in ("--ell", "--L", "--q"):
        code.add_argument(name, type=int, required=True)
    grid = argparse.ArgumentParser(add_help=False)
    for name in ("--p-min", "--p-max", "--p-step"):
        grid.add_argument(name, type=float, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, parents, summary):
        cmd = sub.add_parser(name, parents=[common, *parents], help=summary)
        cmd.set_defaults(handler=handler)
        return cmd

    t = add("threshold", _cmd_threshold, [point, code], "R* for one (p, ell, L, q)")
    t.add_argument("--eps", type=float, default=1e-6)
    add("sweep", _cmd_sweep, [code, grid], "exact R* vs KL estimate over p")
    add("levelsets", _cmd_levelsets, [code], "level-set profile dump")
    sim = add("simulate", _cmd_simulate, [point, code], "Monte Carlo threshold sweep")
    sim.add_argument("--n", type=int, nargs="+", required=True)
    sim.add_argument("--rates", type=float, nargs="+", required=True)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    add("rlc", _cmd_rlc, [grid], "implied-type scan over p")
    add("toy", _cmd_toy, [grid], "toy-property rate pair over p")
    v = add("verify", _cmd_verify, [], "oracle-equivalence suite")
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
        results, rows = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))

    if args.format == "csv":
        writer = csv.DictWriter(
            sys.stdout, fieldnames=list(rows[0]), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows({k: _num(v) if isinstance(v, float) else v for k, v in r.items()}
                         for r in rows)
    else:
        parameters = {
            k: v for k, v in vars(args).items() if k not in ("command", "format", "handler")
        }
        envelope = {
            "command": args.command,
            "parameters": parameters,
            "results": results,
            "version": __version__,
            "elapsed_ms": elapsed_ms,
        }
        out = []  # the pieces, joined once: long strings are copied once
        _put_json(envelope, out.append)
        print("".join(out))

    return int(args.command == "verify" and any(c["status"] != "PASS" for c in rows))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
