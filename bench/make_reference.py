"""Rewrite bench/reference/ from the program in this checkout.

    python3 bench/make_reference.py [workload ...]

Runs each workload once at the default seed and stores, per invocation,
the part of its output that ``checks.py`` compares (or the error it
raised).  The stored files are the ground truth later runs are checked
against, so regenerate them only at a commit whose outputs are trusted,
and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
import time

import run
from run import checks, workloads


def main(names: list[str]) -> None:
    for workload in names or workloads.WORKLOADS:
        inv = workloads.invocations(workload, workloads.DEFAULT_SEED)
        deadline = time.perf_counter() + run.HARD_LIMIT_S
        report = run.spawn("run", inv, workloads.workers(workload), deadline=deadline)
        outputs = {}
        for argv, result in zip(inv, report["results"]):
            if result["error"] is not None or result["code"] != 0:
                outputs[checks.key(argv)] = {"error": result["error"] or f"exit {result['code']}"}
            else:
                payload = json.loads(result["stdout"])["results"]
                outputs[checks.key(argv)] = checks.summarize(argv, payload)
        checks.REFERENCE_DIR.mkdir(exist_ok=True)
        path = checks.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps({
            "workload": workload, "seed": workloads.DEFAULT_SEED,
            "commit": run.provenance(workloads.DEFAULT_SEED, 1)["commit"],
            "outputs": outputs,
        }, separators=(",", ":")) + "\n")
        print(f"{workload}: {len(outputs)} outputs -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
