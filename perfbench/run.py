"""Benchmark of the roughvolterra CLI, one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the checkout's ``src`` directory; without it
the benchmark exits with code 2 and prints no result.  The operations, and
the set-up probes between them, run in a worker process (worker.py);
afterwards every operation's outputs are checked against computations made
here (checks.py).  An operation that exits non-zero counts as failed and
makes the run incorrect; the time medians are taken over the operations
that succeeded.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The workload inputs are fixed (see workloads.py and README.md); ``--seed``
names the run's output directory and changes no input.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER_TIMEOUT_S = 150
# one BLAS thread: the solves are single-threaded Python loops, and idle
# BLAS threads only add noise on a small machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s_per_sweep"):
        return "s"
    return "count"


def end_to_end(ops: list[dict], peak_rss_mb: float, setup: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def per_layer(ops: list[dict], layers: list[dict], alloc: dict[str, float]) -> dict[str, float]:
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics.update(alloc)
    # each round is one untraced and one traced operation, back to back, so
    # a round's difference is taken in one phase of the machine
    rounds = zip((op for op in ops if op["kind"] == "plain"), (op for op in ops if op["kind"] == "traced"))
    metrics["trace.overhead_s"] = statistics.median(
        traced["wall_s"] - plain["wall_s"] for plain, traced in rounds if plain["exit"] == traced["exit"] == 0
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the roughvolterra CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "roughvolterra", "cli.py")):
        print(f"error: no roughvolterra sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    subprocess.run(worker, env=child_env(), check=True, timeout=WORKER_TIMEOUT_S)
    with open(os.path.join(out, "worker.json"), encoding="utf-8") as fh:
        run = json.load(fh)

    driver_path = os.path.join(out, "driver.npy")
    driver = np.load(driver_path) if os.path.exists(driver_path) else None
    ops = run["ops"]
    failures = []
    for op in ops:
        if op["exit"] == 0:
            failures += workload.check(op["dir"], driver)
        else:
            failures.append(f"{op['dir']}: exit code {op['exit']}")
        shutil.rmtree(op["dir"])
    for message in failures:
        print(message, file=sys.stderr)
    succeeded = [op for op in ops if op["exit"] == 0]
    timed_kinds = {"plain", "traced"} if args.trace else {"plain"}
    if not timed_kinds <= {op["kind"] for op in succeeded}:
        print("error: no successful operation to time", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(ops, run["layers"], run["alloc"])
    else:
        metrics = end_to_end(succeeded, run["peak_rss_mb"], run["setup_s"])
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(ops) - len(succeeded),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
