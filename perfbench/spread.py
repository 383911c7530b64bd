"""Every metric of every workload, over several seeds, as one table.

Run from the root of a checkout:

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...]

For each workload of BENCHMARK.json (or each one named), runs run.py untraced once per seed (1 to N) and traced
once, with the run length of BENCHMARK.json.  Prints the operations
attempted and failed, each end-to-end metric's median and spread over the
seeds (the distance between the quartiles of ``statistics.quantiles(v, n=4)``
as a share of the median), and each per-layer metric of the traced run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)

    seconds = benchmark["run_seconds"]
    for workload in args.workload or [w["name"] for w in benchmark["workloads"]]:
        results = [run(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        traced = run(workload, 1, seconds, 1)
        everything = results + [traced]
        print(
            f"{workload}: attempted {sum(r['attempted'] for r in everything)}, "
            f"failed {sum(r['failed'] for r in everything)}, "
            f"correct {all(r['correct'] for r in everything)}"
        )
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            detail = f"  spread {spread(values):.4f}" if len(values) > 1 else ""
            print(f"  {name:26} {metric['unit']:6} median {statistics.median(values):12.4f}{detail}")
        for name, metric in traced["metrics"].items():
            print(f"  {name:26} {metric['unit']:6} traced {metric['value']:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
