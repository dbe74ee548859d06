"""Spans around codethresh's layers, recorded from outside the program.

``Tracer.install`` replaces the names each caller looks up with wrappers
that record a span (name, start, end, parent, info):

* in ``codethresh.cli``: ``threshold_rate``, ``level_profile`` and
  ``empirical_threshold_sweep``;
* in ``codethresh.solver``: ``level_profile``;
* in ``codethresh.simulate``: ``sample_random_code``,
  ``contains_bad_matrix`` and ``is_bad_tuple``.

``DualObjective.value`` and ``.derivative`` are counted, not spanned.
Spans stay in memory and are written once, by ``dump``.  Spans in pool
workers would be lost, so Monte Carlo workloads are traced with one worker.

``layer_metrics`` turns a span file into the per-layer metrics; a layer's
self time is its spans' durations minus those of their direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

# Ladder for the tail percentile: the highest one with >= 10 samples beyond it.
_TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.info: list[object] = []
        self._stack: list[int] = []
        self.dual_present = False

    def wrap(self, name, fn, info=None):
        """``fn`` with a span around every call; ``info(args, result)`` annotates it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.info.append(None)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self._stack.pop()
            if info is not None:
                self.info[idx] = info(args, result)
            return result

        return wrapper

    def _count_dual(self, fn):
        """``fn`` counting each call into the info of the innermost open span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                top = self._stack[-1]
                self.info[top] = (self.info[top] or 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from codethresh import cli, simulate, solver

        cache_info = getattr(solver.level_profile, "cache_info", None)
        seen = [cache_info().misses if cache_info else 0]

        def profile_info(args, result):
            # A call builds a profile when the cache misses (always, without a cache).
            built = True
            if cache_info is not None:
                misses = cache_info().misses
                built, seen[0] = misses > seen[0], misses
            params = args[0]
            return [f"{params.q}_{params.ell}_{params.L}", built]

        profile = self.wrap("level_profile", solver.level_profile, profile_info)
        solver.level_profile = profile
        cli.level_profile = profile
        self._patch(cli, "threshold_rate")
        self._patch(cli, "empirical_threshold_sweep")
        self._patch(simulate, "sample_random_code", lambda a, r: len(r))
        self._patch(simulate, "contains_bad_matrix", lambda a, r: bool(r[0]))
        self._patch(simulate, "is_bad_tuple", lambda a, r: r is not None)
        dual = getattr(solver, "DualObjective", None)
        if dual is not None:
            self.dual_present = True
            dual.value = self._count_dual(dual.value)
            dual.derivative = self._count_dual(dual.derivative)

    def _patch(self, module, name, info=None) -> None:
        """Wrap ``module.name`` if the program still has it; its metrics read 0 otherwise."""
        if hasattr(module, name):
            setattr(module, name, self.wrap(name, getattr(module, name), info))

    def dump(self, path: str) -> None:
        t0 = min(self.start, default=0)
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "start_ns": [s - t0 for s in self.start],
                "end_ns": [e - t0 for e in self.end],
                "parent": self.parent,
                "info": self.info,
                "dual_present": self.dual_present,
            }, fh)


def _tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it."""
    if not values:
        return 0.0, 0.0
    values = sorted(values)
    for pct in _TAIL_LADDER:  # ends on the median when there are too few samples
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            break
    k = min(len(values) - 1, int(len(values) * pct / 100.0))
    return pct, values[k]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer metrics (seconds, counts, ratios) from one dumped trace."""
    names, parent, info = spans["names"], spans["parent"], spans["info"]
    dur = [(e - s) / 1e9 for s, e in zip(spans["start_ns"], spans["end_ns"])]
    child_time = [0.0] * len(names)
    for i, par in enumerate(parent):
        if par >= 0:
            child_time[par] += dur[i]
    self_time = [d - c for d, c in zip(dur, child_time)]

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def total(name, times=dur):
        return sum((times[i] for i in by_name[name]), 0.0)

    solves = by_name["threshold_rate"]
    evals = [info[i] for i in solves if info[i]]
    solve_pct, solve_tail = _tail([self_time[i] * 1e6 for i in solves])
    searches = by_name["contains_bad_matrix"]
    search_ms = [dur[i] * 1e3 for i in searches]
    search_pct, search_tail = _tail(search_ms)
    dp = by_name["is_bad_tuple"]
    samples = by_name["sample_random_code"]
    words = sum(info[i] for i in samples)
    built = [info[i] for i in by_name["level_profile"] if info[i][1]]

    wall = total("cli.run")
    m = {
        "trace.wall_s": wall,
        "cli.self_s": total("cli.run", self_time),
        "levels.profile_s": total("level_profile"),
        "levels.profiles_built": float(len(built)),
        "solver.self_s": total("threshold_rate", self_time),
        "solver.solves": float(len(solves)),
        "solver.solve_us_p50": _median([self_time[i] * 1e6 for i in solves]),
        "solver.solve_us_tail": solve_tail,
        "solver.solve_us_tail_pct": solve_pct,
        # 0 when DualObjective is gone or no solve evaluated the dual.
        "solver.dual_evals_per_solve": (
            sum(evals) / len(evals) if spans["dual_present"] and evals else 0.0),
        "simulate.sample.s": total("sample_random_code"),
        "simulate.sample.words": float(words),
        "simulate.sample.ns_per_word": (
            total("sample_random_code") / words * 1e9 if words else 0.0),
        "simulate.search.self_s": total("contains_bad_matrix", self_time),
        "simulate.search.calls": float(len(searches)),
        "simulate.search.ms_p50": _median(search_ms),
        "simulate.search.ms_tail": search_tail,
        "simulate.search.ms_tail_pct": search_pct,
        "simulate.search.found_frac": (
            sum(1 for i in searches if info[i]) / len(searches) if searches else 0.0),
        "simulate.dp.calls": float(len(dp)),
        "simulate.dp.s": total("is_bad_tuple"),
        "simulate.dp.us_p50": _median([dur[i] * 1e6 for i in dp]),
        "simulate.dp.bad_frac": sum(1 for i in dp if info[i]) / len(dp) if dp else 0.0,
        "simulate.sweep.self_s": total("empirical_threshold_sweep", self_time),
    }
    for key, _ in built:
        m[f"levels.profile_ms.{key}"] = max(
            dur[i] * 1e3 for i in by_name["level_profile"] if info[i][0] == key)
    shares = {
        "cli": m["cli.self_s"],
        "levels": m["levels.profile_s"],
        "solver": m["solver.self_s"],
        "simulate.sample": m["simulate.sample.s"],
        "simulate.search": m["simulate.search.self_s"],
        "simulate.dp": m["simulate.dp.s"],
        "simulate.sweep": m["simulate.sweep.self_s"],
    }
    for layer, secs in shares.items():
        m[f"{layer}.share"] = secs / wall if wall else 0.0
    return m
