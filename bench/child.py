"""One repetition of a workload, in a fresh interpreter.

Usage: python3 bench/child.py <src-dir> < spec.json

The first thing it does is import codethresh, so the parent can time set-up
from process launch to the import returning.  It then reads its spec from
stdin: ``{"mode": "setup" | "run" | "trace", "invocations": [[argv...], ...]}``.
Each invocation runs in-process through ``codethresh.cli.run(argv)`` with
its stdout and stderr captured.  The last line on stdout is one JSON object:
``ready`` (the monotonic clock when the import returned), ``wall`` (first
call to last return), ``rss_mb`` (peak RSS of this process and its pool
workers) and ``results`` (exit code, stdout and error per invocation).
In ``trace`` mode the benchmark's wrappers record spans, which are written
to the file named by ``spans_path`` once the invocations are done.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
from codethresh import cli  # noqa: E402

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _run_all(invocations, call):
    results = []
    t0 = time.perf_counter()
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(argv)
        except Exception as exc:  # an invocation that raises is a failure, not a crash
            error = f"{type(exc).__name__}: {exc}"
        results.append({"code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "error": error})
    return time.perf_counter() - t0, results


def main() -> None:
    spec = json.load(sys.stdin)
    report = {"ready": READY}
    if spec["mode"] != "setup":
        tracer = None
        call = cli.run
        if spec["mode"] == "trace":
            sys.path.insert(0, spec["bench_dir"])
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            call = tracer.wrap("cli.run", cli.run)
        wall, results = _run_all(spec["invocations"], call)
        report.update(wall=wall, rss_mb=_peak_rss_mb(), results=results)
        if tracer is not None:
            tracer.dump(spec["spans_path"])
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
