"""Spans around the public calls the CLI makes into each layer.

The wrappers are installed from outside the package, on the names
``roughvolterra.cli`` looks up at call time, and on the coefficient the
built problem carries.  Spans are kept in memory as
``[name, start, end, parent, coefficient_s]`` and written out when the run
ends; per-layer self time is a span's duration minus the durations of its
direct children and its ``coefficient_s``.

The coefficient's methods are called tens of thousands of times per
operation, a few microseconds each, so they get no span: a plain clock pair
around each call adds its duration to the ``coefficient_s`` of the span open
at the time.  What the wrapper itself costs outside that clock pair still
counts as the open span's self time.
"""
from __future__ import annotations

import contextlib
import csv
import os
import time
import tracemalloc
from collections import Counter

MB = 1024.0 * 1024.0

# layer span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "solver.solve": "solver.solve_s",
    "algebra.holder_norm": "algebra.holder_norm_s",
    "signals.fbm": "signals.fbm_s",
    "rough.lift": "rough.lift_s",
    "cli.build": "cli.build_s",
    "cli.write": "cli.write_s",
}
COUNT_METRICS = (
    "solver.solve_calls",
    "solver.steps",
    "solver.windows",
    "solver.sweeps",
    "coefficients.eval_calls",
    "coefficients.eval_rows",
    "algebra.holder_norm_pairs",
    "signals.fbm_steps",
    "cli.bytes_written",
)
ALLOC_METRICS = ("solver.peak_alloc_mb", "algebra.peak_alloc_mb")


class Tracer:
    """Spans and counts of the layers one operation passes through."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def wrap_coefficient(self, fn):
        """``fn`` timed into the open span's ``coefficient_s``, with calls and rows counted."""
        clock, spans, open_spans, counts = time.perf_counter, self.spans, self._open, self.counts

        def timed(*args, **kwargs):
            started = clock()
            result = fn(*args, **kwargs)
            spans[open_spans[-1]][4] += clock() - started
            counts["coefficients.eval_calls"] += 1
            counts["coefficients.eval_rows"] += len(result)
            return result

        return timed

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer and the counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        metrics["coefficients.eval_s"] = sum(span[4] for span in self.spans)
        solve_s = 0.0
        for (name, start, end, _, coefficient_s), children in zip(self.spans, child_time):
            if name in SELF_TIME_METRICS:
                metrics[SELF_TIME_METRICS[name]] += end - start - children - coefficient_s
            if name == "solver.solve":
                solve_s += end - start
        metrics.update({key: float(self.counts[key]) for key in COUNT_METRICS})
        # a sweep's cost includes the coefficient calls it makes
        metrics["solver.s_per_sweep"] = solve_s / max(self.counts["solver.sweeps"], 1)
        return metrics


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """All spans as CSV rows: operation, name, start, end, parent (-1 for a root), coefficient_s."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["op", "name", "start", "end", "parent", "coefficient_s"])
        for op, tracer in enumerate(tracers):
            out.writerows([op, *span] for span in tracer.spans)


def _count_solve(counts, args, report) -> None:
    counts["solver.solve_calls"] += 1
    counts["solver.steps"] += report.solved_steps
    counts["solver.windows"] += len(report.windows)
    counts["solver.sweeps"] += sum(w.iterations for w in report.windows)


def _count_pairs(counts, args, result) -> None:
    n = args[0].grid.n_steps
    counts["algebra.holder_norm_pairs"] += n * (n + 1) // 2


def _count_fbm(counts, args, result) -> None:
    spec = args[0]
    counts["signals.fbm_steps"] += spec.grid.n_steps * spec.dim


def _count_bytes(counts, args, result) -> None:
    counts["cli.bytes_written"] += os.path.getsize(args[0])


@contextlib.contextmanager
def patched(module, replacements: dict):
    originals = {name: getattr(module, name) for name in replacements}
    for name, fn in replacements.items():
        setattr(module, name, fn)
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def traced_cli(cli, tracer: Tracer):
    """Wrap the layer entry points ``cli`` calls so that they record spans."""
    from roughvolterra.coefficients import Coefficient

    build_problem = tracer.wrap("cli.build", cli.build_problem)

    def build_and_trace_coefficient(cfg):
        problem, rng = build_problem(cfg)
        sigma = problem.coefficient
        if isinstance(sigma, Coefficient):
            for method in ("eval_many", "d3_many", "diagonal_many"):
                setattr(sigma, method, tracer.wrap_coefficient(getattr(sigma, method)))
        return problem, rng

    return patched(
        cli,
        {
            "build_problem": build_and_trace_coefficient,
            "solve": tracer.wrap("solver.solve", cli.solve, _count_solve),
            "path_holder_norm": tracer.wrap("algebra.holder_norm", cli.path_holder_norm, _count_pairs),
            "generate_fbm_detailed": tracer.wrap("signals.fbm", cli.generate_fbm_detailed, _count_fbm),
            "lift_from_subgrid": tracer.wrap("rough.lift", cli.lift_from_subgrid),
            "_write_csv": tracer.wrap("cli.write", cli._write_csv, _count_bytes),
            "_write_json": tracer.wrap("cli.write", cli._write_json, _count_bytes),
        },
    )


def peak_alloc_cli(cli, peaks: dict[str, float]):
    """Record the largest tracemalloc peak of each solve and report-norm call."""

    def measured(metric, fn):
        def run(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                peaks[metric] = max(peaks[metric], peak)

        return run

    return patched(
        cli,
        {
            "solve": measured("solver.peak_alloc_mb", cli.solve),
            "path_holder_norm": measured("algebra.peak_alloc_mb", cli.path_holder_norm),
        },
    )
