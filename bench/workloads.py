"""The benchmark's workloads: fixed lists of ``codethresh`` CLI invocations.

Each workload is a list of argv lists, built from the seed alone, so the
same seed always gives the same inputs.  ``DEFAULT_SEED`` reproduces the
grids whose outputs are stored under ``bench/reference/``; other seeds
shift the continuous inputs (the p grid of ``sweep``, the p of the
level-set ``threshold`` queries, the ``--seed`` of ``simulate``) and are
checked by invariants instead.

Why each workload exists (see README.md for the layer predictions):

* ``exact-sweep``: the dual solve does nearly all the work; profiles are
  small and cached.  The zero-rate boundary probes stay in, including the
  ones that raise at the seed commit, so a fix shows as fewer failures.
* ``levelsets-large``: composition enumeration does nearly all the work.
  (2,1,2000) and (3,1,300) take the log-domain branch at the seed commit,
  so a single exact path that is slow for large L shows up here.
* ``mc-decode``: the ell = 1 Monte Carlo path, sampling plus the
  Hamming/clique filter; the badness DP does almost nothing.
* ``mc-recover``: the ell >= 2 Monte Carlo path, full subset enumeration
  where the badness DP does the work and sampling does almost none.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

DEFAULT_SEED = 0

WORKLOADS = ("exact-sweep", "levelsets-large", "mc-decode", "mc-recover")

#: Worker count of the timed Monte Carlo runs (CODE_THRESH_THREADS).
MC_WORKERS = 2

SWEEP_STEP = 0.005
SWEEP_POINTS = 100

LEVELSET_POINTS = ((6, 2, 40), (12, 2, 12), (10, 3, 12), (8, 3, 16), (2, 1, 2000), (3, 1, 300))
LEVELSET_P = (0.05, 0.10, 0.15, 0.20, 0.25)

MC_DECODE = dict(q=2, ell=1, L=3, p="0.1", n=(20, 30),
                 rates=("0.05", "0.1", "0.15", "0.2", "0.25", "0.3", "0.35", "0.4"), trials=30)
MC_RECOVER = dict(q=4, ell=2, L=3, p="0", n=(12, 16), rates=("0.05", "0.1", "0.15"), trials=100)

# Tiny variants used by ``run.py --smoke``: a few invocations per workload.
_SMOKE_MC = {
    "mc-decode": dict(MC_DECODE, n=(12,), rates=("0.2", "0.4"), trials=4),
    "mc-recover": dict(MC_RECOVER, n=(10,), rates=("0.1", "0.2"), trials=4),
}


def _shift(seed: int) -> float:
    """A seed-derived offset in [0, 1); exactly 0 for the default seed."""
    if seed == DEFAULT_SEED:
        return 0.0
    return random.Random(f"codethresh-bench/{seed}").random()


def exact_t_star(q: int, ell: int, L: int) -> Fraction:
    """t* = q^-L * sum_d d |D_d|, counted exactly over histograms of L into q parts.

    An independent count, used only to place the boundary probes.
    """
    fact = [math.factorial(k) for k in range(L + 1)]
    total = 0
    for bars in combinations(range(L + q - 1), q - 1):
        prev, eta = -1, []
        for b in (*bars, L + q - 1):
            eta.append(b - prev - 1)
            prev = b
        words = fact[L]
        for x in eta:
            words //= fact[x]
        total += (L - sum(sorted(eta, reverse=True)[:ell])) * words
    return Fraction(total, q**L)


def boundary_probes() -> list[tuple[int, int, int, float]]:
    """(q, ell, L, p) at p = t*/L and the two floats just below it.

    q <= 6, ell < q, 2 <= L <= 8: 315 probes, independent of the seed.
    """
    out = []
    for q in range(2, 7):
        for ell in range(1, q):
            for L in range(2, 9):
                p = float(exact_t_star(q, ell, L)) / L
                for _ in range(3):
                    out.append((q, ell, L, p))
                    p = math.nextafter(p, 0.0)
    return out


def _sweeps(seed: int) -> list[list[str]]:
    p_min = SWEEP_STEP * (1.0 + _shift(seed))
    # Half a step of slack keeps exactly SWEEP_POINTS points in the grid.
    p_max = p_min + (SWEEP_POINTS - 0.5) * SWEEP_STEP
    return [
        ["sweep", "--q", str(q), "--ell", str(ell), "--L", str(L),
         "--p-min", repr(p_min), "--p-max", repr(p_max), "--p-step", repr(SWEEP_STEP)]
        for q in (2, 3, 4) for ell in range(1, q) for L in range(2, 13)
    ]


def _threshold(q, ell, L, p) -> list[str]:
    return ["threshold", "--q", str(q), "--ell", str(ell), "--L", str(L), "--p", repr(p)]


def _levelsets(seed: int, points) -> list[list[str]]:
    u = _shift(seed)
    out = []
    for q, ell, L in points:
        out.append(["levelsets", "--q", str(q), "--ell", str(ell), "--L", str(L)])
        out.extend(_threshold(q, ell, L, round(p - 0.05 * u, 12)) for p in LEVELSET_P)
    return out


def _simulate(seed: int, spec: dict) -> list[list[str]]:
    return [[
        "simulate", "--q", str(spec["q"]), "--ell", str(spec["ell"]), "--L", str(spec["L"]),
        "--p", spec["p"], "--n", *map(str, spec["n"]), "--rates", *spec["rates"],
        "--trials", str(spec["trials"]), "--seed", str(seed),
    ]]


def invocations(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """The workload's argv lists, in the order they run."""
    if workload == "exact-sweep":
        sweeps = _sweeps(seed)
        probes = [_threshold(*probe) for probe in boundary_probes()]
        return sweeps[:3] + probes[:6] if smoke else sweeps + probes
    if workload == "levelsets-large":
        return _levelsets(seed, [(4, 2, 6), (3, 1, 300)] if smoke else LEVELSET_POINTS)
    if workload == "mc-decode":
        return _simulate(seed, _SMOKE_MC[workload] if smoke else MC_DECODE)
    if workload == "mc-recover":
        return _simulate(seed, _SMOKE_MC[workload] if smoke else MC_RECOVER)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def workers(workload: str) -> int:
    """Workers the timed runs use: the MC sweeps fan out, the rest are serial."""
    return MC_WORKERS if workload.startswith("mc-") else 1
