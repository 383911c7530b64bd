"""Self-test of the benchmark's correctness checks.

Runs each workload's CLI operation at a small size, confirms that the
intact outputs pass their check, then corrupts one output at a time and
confirms that the check fails:

* a solution value moved by 1e-6 (young and rough residual checks);
* a report Hölder norm off by 1e-9 relative (young and rough norm checks);
* a rate error off by 1e-6 (singular ladder check).

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
Exits 0 when every check behaves as expected, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np

from workloads import RoughSolve, SingularRate, YoungSolve

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out", "selftest")


def move_solution_value(out: str, prefix: str) -> None:
    path = os.path.join(out, f"{prefix}_solution.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    table[len(table) // 2, 1] += 1e-6
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def edit_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)


def scale_holder_norm(out: str, prefix: str) -> None:
    def edit(report):
        report["norms"]["solution_holder"] *= 1.0 + 1e-9

    edit_json(os.path.join(out, f"{prefix}_report.json"), edit)


def shift_rate_error(out: str, prefix: str) -> None:
    def edit(rate):
        rate["errors"][1] += 1e-6

    edit_json(os.path.join(out, f"{prefix}_rate.json"), edit)


CASES = (
    (YoungSolve("young-selftest", 512), (move_solution_value, scale_holder_norm)),
    (RoughSolve("rough-selftest", 256), (move_solution_value, scale_holder_norm)),
    (SingularRate("singular-selftest", 256, 4), (shift_rate_error,)),
)


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import roughvolterra.cli as cli

    shutil.rmtree(OUT, ignore_errors=True)
    ok = True
    for workload, corruptions in CASES:
        out = os.path.join(OUT, workload.name)
        os.makedirs(out)
        config = os.path.join(out, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(workload.config(), fh)
        intact = os.path.join(out, "intact")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(workload.cli_args(config, intact))
        driver = workload.reference_driver()
        failures = workload.check(intact, driver) if code == 0 else [f"exit code {code}"]
        print(f"{workload.name} intact: {'passes' if not failures else failures}")
        ok &= not failures
        for corrupt in corruptions:
            copy = os.path.join(out, corrupt.__name__)
            shutil.copytree(intact, copy)
            corrupt(copy, workload.prefix)
            failures = workload.check(copy, driver)
            print(f"{workload.name} {corrupt.__name__}: {failures[0] if failures else 'NOT DETECTED'}")
            ok &= bool(failures)
    shutil.rmtree(OUT)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
