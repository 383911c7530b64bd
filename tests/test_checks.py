"""Invariant check suites: clean pass, fault detection, stable reports."""
from __future__ import annotations

import json

import pytest

from roughvolterra.checks import SUITES, CheckResult, checks_report, run_checks, run_suite

# Every check as (suite, name, bound), in run order.  A check that is dropped,
# renamed, moved or given another bound must change this list.
CATALOGUE = [
    ("algebra", "double-difference-vanishes", 1e-12),
    ("algebra", "product-rule-exact", 1e-12),
    ("algebra", "sewn-plus-remainder-reconstructs-germ", 1e-12),
    ("algebra", "sewing-remainder-bound", 1.000000000001),
    ("young", "linear-self-integral", 0.0078125),
    ("young", "first-order-refinement-rate", 0.2),
    ("young", "integral-equals-sewn-germ", 0.0),
    ("singular", "explicit-kernel-endpoint", 0.01),
    ("singular", "endpoint-error-shrinks-under-refinement", 1.0),
    ("singular", "kernel-increment-nonpositive", 0.0),
    ("singular", "inadmissible-exponents-rejected", 0.0),
    ("rough", "two-level-consistency", 1e-13),
    ("rough", "symmetric-part-is-half-square", 1e-13),
    ("rough", "self-integral-closed-form", 1e-12),
    ("signals", "analytic-covariance-psd", 1e-10),
    ("signals", "seeded-regeneration-identical", 0.0),
    ("signals", "sample-starts-at-zero", 0.0),
    ("signals", "holder-estimate-linear-path", 1e-10),
    ("signals", "holder-estimate-seeded-sample", 0.15),
    ("solver", "zero-driver-fixed-point", 0.0),
    ("solver", "ramp-error-identity", 1e-9),
    ("solver", "windows-tile-horizon", 0.0),
    ("solver", "fixed-point-unique", 1e-9),
]


class TestSuites:
    def test_catalogue_is_pinned(self):
        assert [(r.suite, r.name, r.bound) for r in run_checks("all")] == CATALOGUE

    def test_all_suites_pass_on_clean_build(self):
        results = run_checks("all")
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        assert {r.suite for r in results} == set(SUITES)

    def test_single_suite_scopes_results(self):
        results = run_suite("algebra")
        assert results
        assert all(r.suite == "algebra" for r in results)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown check suite"):
            run_suite("quantum")

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            run_checks("rough", fault="flip-everything")

    def test_fault_injection_breaks_exactly_one_identity(self):
        results = run_checks("all", fault="chen-sign")
        failed = [r.name for r in results if not r.passed]
        assert failed == ["two-level-consistency"]

    def test_results_carry_measurements(self):
        for r in run_suite("rough"):
            assert isinstance(r, CheckResult)
            assert r.measured >= 0 or r.name == "kernel-increment-nonpositive"
            assert r.passed == (r.measured <= r.bound)


class TestReport:
    def test_report_counts_consistent(self):
        results = run_checks("signals")
        rep = checks_report(results)
        assert rep["version"] == 1
        assert rep["counts"]["total"] == len(results)
        assert rep["counts"]["passed"] + rep["counts"]["failed"] == len(results)
        assert rep["passed"] == (rep["counts"]["failed"] == 0)

    def test_report_schema_and_determinism(self):
        a = checks_report(run_checks("all"))
        b = checks_report(run_checks("all"))
        assert json.dumps(a) == json.dumps(b)
        for entry in a["checks"]:
            assert list(entry) == ["suite", "name", "passed", "measured", "bound", "detail"]
