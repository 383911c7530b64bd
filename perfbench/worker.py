"""One benchmark run: a single caller issuing CLI operations in a closed loop.

run.py starts this file as its own process, so that the process's peak
resident memory is the workload's.  Each operation is one call of
``roughvolterra.cli.main`` with its own output directory; the next starts
when the previous one has returned.  Untraced, the loop repeats the
workload's operation until ``--seconds`` have passed, and after each
operation times one fresh interpreter importing ``roughvolterra.cli``: the
set-up probes are spread over the run, so that their median sees the same
phases of the machine as the operations do.  Traced, it first
makes one operation under tracemalloc for the allocation peaks, then
repeats rounds of one untraced and one traced operation, so that the
tracing overhead is measured in the same process.  After the loop it
saves the fBm sample the operations were driven by, for the checks.

Usage: python3 worker.py --workload NAME --seconds S --trace 0|1 --out DIR
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

import tracing
from workloads import WORKLOADS

SETUP_TIMEOUT_S = 60


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_op(cli, args: list[str], out: str, kind: str) -> dict:
    """Time one CLI call; wall clock from ``main`` called to ``main`` returned."""
    os.makedirs(out)
    cpu0, children0 = time.process_time(), _children_cpu()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
    except Exception:
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu0 + _children_cpu() - children0
    return {"kind": kind, "dir": out, "exit": code, "wall_s": wall, "cpu_s": cpu}


def setup_probe() -> float:
    """Seconds from a fresh interpreter's start to ``roughvolterra.cli`` imported."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import roughvolterra.cli"], check=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    opts = parser.parse_args()

    import roughvolterra.cli as cli

    workload = WORKLOADS[opts.workload]
    config_path = os.path.join(opts.out, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(), fh, indent=2)

    ops: list[dict] = []
    tracers: list[tracing.Tracer] = []
    peaks = dict.fromkeys(tracing.ALLOC_METRICS, 0.0)
    setup: list[float] = []

    def op(kind: str) -> None:
        out = os.path.join(opts.out, f"op{len(ops)}")
        ops.append(run_op(cli, workload.cli_args(config_path, out), out, kind))

    started = time.perf_counter()
    if opts.trace:
        with tracing.peak_alloc_cli(cli, peaks):
            op("alloc")
    while True:
        op("plain")
        if opts.trace:
            tracer = tracing.Tracer()
            with tracing.traced_cli(cli, tracer), tracer.span("cli.main"):
                op("traced")
            tracers.append(tracer)
        else:
            setup.append(setup_probe())
        if time.perf_counter() - started >= opts.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if opts.trace:
        tracing.write_spans(os.path.join(opts.out, "spans.csv"), tracers)
    driver = workload.reference_driver()
    if driver is not None:
        np.save(os.path.join(opts.out, "driver.npy"), driver)
    result = {
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup,
        "layers": [tracer.layer_metrics() for tracer in tracers],
        "alloc": peaks,
    }
    with open(os.path.join(opts.out, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
