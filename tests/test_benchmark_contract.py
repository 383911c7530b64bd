"""The benchmark harness under ``perfbench/`` against the current solver reports.

`perfbench/tracing.py` reads each `WindowRecord` (``iterations``) and
`perfbench/checks.py` reads the report's ``errors`` and ``norms``.  The
three workloads run here at the harness's self-test sizes, through
`cli.main` under the harness's tracing, and must pass the harness's own
checks; their outputs go to a temporary directory.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402
from workloads import RoughSolve, SingularRate, YoungSolve  # noqa: E402

from roughvolterra import cli  # noqa: E402


@pytest.mark.parametrize(
    "workload",
    [YoungSolve("young-contract", 512), RoughSolve("rough-contract", 256), SingularRate("singular-contract", 256, 4)],
    ids=lambda w: w.name,
)
def test_traced_workload_passes_its_check(tmp_path, workload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config()))
    out = str(tmp_path / "out")
    tracer = tracing.Tracer()
    with tracing.traced_cli(cli, tracer), tracer.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workload.cli_args(str(config), out))
    assert code == 0
    assert workload.check(out, workload.reference_driver()) == []
    metrics = tracer.layer_metrics()
    assert metrics["solver.windows"] > 0
    # `solver.sweeps` sums WindowRecord.iterations, 1 per report window: it counts windows, not the solve's one sweep
    assert metrics["solver.sweeps"] == metrics["solver.windows"]
