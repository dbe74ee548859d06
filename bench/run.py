"""Benchmark for codethresh: four workloads of CLI invocations, timed end to end.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 bench/run.py --smoke

Run from anywhere inside a source checkout; the program is imported from
``src/``, nothing is installed.  Each repetition is one fresh child process
(``bench/child.py``) that imports codethresh and runs the workload's fixed
list of invocations through ``codethresh.cli.run``.

``--trace 0`` repeats the workload until ``--seconds`` are used and reports
the end-to-end metrics of BENCHMARK.json as medians over repetitions, with
times rescaled to a reference CPU speed (see ``SpeedProbe``).  The Monte
Carlo workloads first replay the list once with one worker, untimed; every
timed run must print the same rows.  ``--trace 1`` alternates untraced runs
with one traced run (``bench/tracing.py``) and reports the per-layer
metrics, whose times are not rescaled.  Either way
the last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give provenance, failure counts and ``failed_frac``.
``--all`` runs every workload and prints one table; ``--smoke`` runs every
workload at a tiny size in both modes and checks that every metric is
printed with its unit.  Full records and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-up-only children started before the timed repetitions.
SETUP_PROBES = 2
#: Every run must end within 180 s; stop starting children well before.
HARD_LIMIT_S = 170.0
#: Median time of ``_kernel`` on an uncontended vCPU of the host the bounds
#: were tuned on (Intel Xeon, 2.1 GHz); reported times are rescaled to it.
REFERENCE_KERNEL_S = 2.1e-4
SAMPLE_PERIOD_S = 0.05


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _kernel() -> float:
    """Seconds for a fixed pure-Python loop: how fast the calling CPU runs now."""
    t = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return time.perf_counter() - t


class SpeedProbe:
    """Samples each CPU's speed every 50 ms for as long as a run lasts.

    On a shared host the CPUs slow down by up to 50% when other tenants load
    them, in phases of seconds to minutes and independently of each other,
    so raw times of one run mostly record the phase it fell in.  Each sampler
    thread is pinned to one CPU, where it preempts the child for about 0.2 ms
    per sample.  Dividing a time measured on some CPUs by ``slowdown`` over
    the same interval gives the time at the reference speed.
    """

    def __init__(self, cpus: list[int]):
        self.samples: dict[int, list[tuple[float, float]]] = {c: [] for c in cpus}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(c,), daemon=True)
                         for c in cpus]

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        while not self._stop.is_set():
            self.samples[cpu].append((time.perf_counter(), _kernel()))
            self._stop.wait(SAMPLE_PERIOD_S)

    def slowdown(self, cpus, t0: float, t1: float) -> float:
        """Median kernel time on ``cpus`` over [t0, t1], over the reference time."""
        near = [(t, d) for c in cpus for t, d in list(self.samples[c])]
        inside = [d for t, d in near if t0 - 0.25 <= t <= t1 + 0.25]
        if len(inside) < 3:  # a short interval: the samples closest to it
            mid = (t0 + t1) / 2
            inside = [d for _, d in sorted(near, key=lambda s: abs(s[0] - mid))[:5]]
        if not inside:
            raise BenchError("no CPU speed samples were taken")
        return statistics.median(inside) / REFERENCE_KERNEL_S


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text())


def spawn(mode: str, invocations=(), workers: int = 1, cpus=None, deadline: float = 0.0,
          spans_path: Path | None = None) -> dict:
    """Run one child, pinned to ``cpus``; its report plus t0, t1 and setup.

    ``t0`` is just before launch and ``t1`` after exit (monotonic clock);
    ``setup`` is the time from launch to the child's import of codethresh.
    """
    spec = {"mode": mode, "invocations": list(invocations), "bench_dir": str(BENCH_DIR),
            "spans_path": str(spans_path) if spans_path else None}
    env = dict(os.environ, CODE_THRESH_THREADS=str(workers))
    t0 = time.perf_counter()
    # A session of its own, so a timeout also stops the child's pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(SRC)], cwd=ROOT, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        if cpus:
            os.sched_setaffinity(proc.pid, cpus)
        out, err = proc.communicate(json.dumps(spec),
                                    timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child did not finish before the run's time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    t1 = time.perf_counter()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} child exited with {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(out.splitlines()[-1])
    report.update(t0=t0, t1=t1, setup=report["ready"] - t0)
    return report


class Tally:
    """Statuses of every invocation run, plus agreement between runs.

    All runs of one workload and seed must produce the same outputs: timed
    runs with any worker count, the serial replay and the traced run.  An
    invocation whose output differs from the first run's is ``wrong``.
    """

    def __init__(self, invocations: list[list[str]], reference: dict):
        self.invocations = invocations
        self.reference = reference
        self.first: list | None = None
        self.counts: Counter = Counter()
        self.failures: dict[str, str] = {}

    def add(self, report: dict) -> None:
        statuses, outs = checks.check(self.invocations, report["results"], self.reference)
        if self.first is None:
            self.first = outs
        for i, (argv, result) in enumerate(zip(self.invocations, report["results"])):
            if outs[i] != self.first[i]:
                statuses[i] = "wrong"
            if statuses[i] != "ok":
                detail = result["error"] or result["stderr"].strip() or "output disagrees"
                self.failures.setdefault(checks.key(argv), f"{statuses[i]}: {detail}"[:300])
        self.counts.update(statuses)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]


def _pinning(nworkers: int, cpus: list[int]):
    """CPU set of the i-th child: serial children take turns on one CPU each."""
    if nworkers > 1:
        return lambda i: set(cpus)
    return lambda i: {cpus[i % len(cpus)]}


def _setup_s(probe: SpeedProbe, rep: dict, cpus) -> float:
    """The child's set-up time at the reference CPU speed."""
    return rep["setup"] / probe.slowdown(cpus, rep["t0"], rep["t0"] + rep["setup"])


def _wall_s(probe: SpeedProbe, rep: dict, cpus) -> float:
    """The child's wall time at the reference CPU speed."""
    return rep["wall"] / probe.slowdown(cpus, rep["t0"] + rep["setup"], rep["t1"])


def _timed(inv, nworkers, tally, probe, start, seconds, deadline,
           setup_probes) -> tuple[dict, dict]:
    """Repeat the workload until ``seconds`` are used; (metric values, raw samples)."""
    pin = _pinning(nworkers, list(probe.samples))
    setups = []
    for i in range(setup_probes):
        rep = spawn("setup", cpus=pin(i), deadline=deadline)
        setups.append(_setup_s(probe, rep, pin(i)))
    if nworkers > 1:  # worker independence: a serial replay must give the same rows
        tally.add(spawn("run", inv, 1, deadline=deadline))
    walls, raw_walls, rss = [], [], []
    for i in itertools.count():
        t = time.perf_counter()
        rep = spawn("run", inv, nworkers, pin(i), deadline)
        walls.append(_wall_s(probe, rep, pin(i)))
        raw_walls.append(rep["wall"])
        rss.append(rep["rss_mb"])
        tally.add(rep)
        # Set-up samples spread over the whole run, not bunched at its start.
        extra = spawn("setup", cpus=pin(i + 1), deadline=deadline)
        setups += [_setup_s(probe, rep, pin(i)), _setup_s(probe, extra, pin(i + 1))]
        now, took = time.perf_counter(), time.perf_counter() - t
        if now + took > min(start + seconds, deadline - 3 * took):
            break
    print(f"repetitions {len(walls)}  set-up samples {len(setups)}  workers {nworkers}  "
          f"unscaled wall_s median {statistics.median(raw_walls):.6g} s")
    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(rss)}
    return values, {"wall_s": walls, "unscaled_wall_s": raw_walls, "setup_s": setups,
                    "peak_rss_mb": rss}


def _traced(workload, seed, inv, nworkers, tally, probe, start, seconds, deadline,
            names) -> tuple[dict, dict]:
    """Alternate untraced and traced runs until ``seconds`` are used; (values, walls)."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    cpus = list(probe.samples)
    passes, walls = [], {"untraced": [], "serial": [], "traced": []}
    for i in itertools.count():
        t = time.perf_counter()
        one = {cpus[i % len(cpus)]}
        untraced = spawn("run", inv, nworkers, set(cpus), deadline)
        tally.add(untraced)
        walls["untraced"].append(_wall_s(probe, untraced, set(cpus)))
        if nworkers > 1:  # the serial run the traced one is compared with
            serial = spawn("run", inv, 1, one, deadline)
            tally.add(serial)
            walls["serial"].append(_wall_s(probe, serial, one))
        else:
            walls["serial"].append(walls["untraced"][-1])
        traced = spawn("trace", inv, 1, one, deadline, spans_path)
        tally.add(traced)
        walls["traced"].append(_wall_s(probe, traced, one))
        m = tracing.layer_metrics(json.loads(spans_path.read_text()))
        m["trace.slowdown"] = probe.slowdown(one, traced["t0"] + traced["setup"], traced["t1"])
        passes.append(m)
        now, took = time.perf_counter(), time.perf_counter() - t
        if now + took > min(start + seconds, deadline - 2 * took):
            break
    print(f"traced passes {len(passes)}  workers {nworkers} (traced with 1)")
    # A layer the workload never reaches reads 0.
    values = {name: statistics.median(p.get(name, 0.0) for p in passes) for name in names}
    wall = {kind: statistics.median(v) for kind, v in walls.items()}
    values["trace.overhead_frac"] = wall["traced"] / wall["serial"] - 1.0
    values["simulate.sweep.parallel_eff"] = wall["serial"] / (nworkers * wall["untraced"])
    values["simulate.sweep.points"] = float(sum(
        len(out["rows"]) for argv, out in zip(inv, tally.first)
        if argv[0] == "simulate" and out is not None))
    return values, walls


def _cpu_quota() -> str:
    """CPUs allowed by the cgroup, read-only from its files; 'max' when unlimited."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text().strip()
            period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text().strip()
        except OSError:
            return "unknown"
        quota = "max" if quota == "-1" else quota
    return "max" if quota == "max" else f"{int(quota) / int(period):g}"


def _git_commit() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, nworkers: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_quota": _cpu_quota(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": _git_commit(), "seed": seed,
            "workers": nworkers}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """One benchmark run; returns the result object that run.py prints last."""
    if not (SRC / "codethresh" / "__init__.py").is_file():
        raise BenchError(f"no codethresh sources under {SRC}; run from a source checkout")
    spec = _spec()
    section = spec["per_layer" if trace else "end_to_end"]
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    inv = workloads.invocations(workload, seed, smoke)
    nworkers = workloads.workers(workload)
    tally = Tally(inv, checks.load_reference(workload))
    prov = provenance(seed, nworkers)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  invocations {len(inv)}")
    print("provenance " + json.dumps(prov))
    with SpeedProbe(sorted(os.sched_getaffinity(0))) as probe:
        if trace:
            names = [m["name"] for m in section]
            values, samples = _traced(workload, seed, inv, nworkers, tally, probe, start,
                                      seconds, deadline, names)
        else:
            values, samples = _timed(inv, nworkers, tally, probe, start, seconds, deadline,
                                     1 if smoke else SETUP_PROBES)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    result = {"correct": tally.counts["wrong"] == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    failed_frac = tally.failed / tally.attempted
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {failed_frac:.6g} ({tally.failed}/{tally.attempted})  "
          f"statuses {dict(sorted(tally.counts.items()))}")
    for argv, why in list(tally.failures.items())[:3]:
        print(f"  failed: {argv} -> {why}")
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, failed_frac=failed_frac, workload=workload, provenance=prov,
                  samples=samples, failures=tally.failures)
    name = f"result-{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    return result


def _smoke() -> int:
    """Every workload, tiny, both modes: every metric printed with its unit."""
    spec = _spec()
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(workload, workloads.DEFAULT_SEED, 1, trace, smoke=True)
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={int(trace)}: {m['name']} missing")
            if result["attempted"] < 1 or not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result}")
    print("smoke " + ("PASS" if not problems else "FAIL\n" + "\n".join(problems)))
    return 1 if problems else 0


def _all(seed: int, seconds: float, trace: bool) -> None:
    rows = {}
    for workload in workloads.WORKLOADS:
        result = run_workload(workload, seed, seconds, trace)
        rows[workload] = result
        print(json.dumps(result))
    print()
    metric_names = [m["name"] for m in _spec()["per_layer" if trace else "end_to_end"]]
    header = ["workload", *metric_names, "failed_frac", "correct"]
    print("  ".join(f"{h:>16}" for h in header))
    for workload, result in rows.items():
        cells = [f"{result['metrics'][n]['value']:.4g} {result['metrics'][n]['unit']}"
                 for n in metric_names]
        cells += [f"{result['failed'] / result['attempted']:.4g}", str(result["correct"])]
        print("  ".join(f"{c:>16}" for c in [workload, *cells]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, one table")
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return _smoke()
        if args.all:
            _all(args.seed, args.seconds, bool(args.trace))
            return 0
        if args.workload is None:
            parser.error("--workload is required without --all or --smoke")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
