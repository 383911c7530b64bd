"""Command-line runner: config round trips, file formats, exit codes."""
from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughvolterra.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    ExperimentConfig,
    main,
)

REPORT_KEYS = ["config", "converged", "windows", "norms", "errors", "timing", "rng"]


def exp_sine_config(n_steps: int = 1024) -> dict:
    """y' = y cos t via x = sin t; endpoint oracle e^(sin 1)."""
    return {
        "version": 1,
        "regime": "young",
        "a": 1.0,
        "driver": {"kind": "builtin", "name": "sine"},
        "grid": {"n_steps": n_steps, "horizon": 1.0},
        "gamma": 0.75,
        "kappa": 0.9,
        "coefficient": {"family": "linear", "params": {"a": 1.0}},
        "rate": {"mode": "oracle", "oracle": "exp_of_sine"},
        "outputs": {"prefix": "expsine"},
    }


def singular_config(n_steps: int = 512) -> dict:
    """psi = 1, alpha = 1/4 against x = t; endpoint oracle 4/3."""
    return {
        "version": 1,
        "regime": "singular",
        "a": 0.0,
        "driver": {"kind": "builtin", "name": "linear"},
        "grid": {"n_steps": n_steps, "horizon": 1.0},
        "gamma": 1.0,
        "kappa": 0.5,
        "kernel": {"alpha": 0.25, "psi": "ones"},
        "rate": {"mode": "oracle", "oracle": "power_kernel"},
        "outputs": {"prefix": "sing"},
    }


def fbm_young_config(n_steps: int = 256) -> dict:
    return {
        "version": 1,
        "regime": "young",
        "a": 1.0,
        "driver": {"kind": "fbm", "hurst": 0.75, "dim": 1, "seed": 31},
        "grid": {"n_steps": n_steps, "horizon": 1.0},
        "gamma": 0.75,
        "kappa": 0.9,
        "coefficient": {
            "family": "separable",
            "params": {"phi": {"name": "one"}, "psi": {"name": "sin_plus", "shift": 2.0}},
        },
        "outputs": {"prefix": "fbmy"},
    }


def fbm_rough_config(n_steps: int = 128) -> dict:
    """Trig sigma against 2-D fBm lifted from a twice finer grid."""
    return {
        "version": 1,
        "regime": "rough",
        "a": 0.5,
        "driver": {"kind": "fbm", "hurst": 0.4, "dim": 2, "seed": 99, "lift_refine": 2},
        "grid": {"n_steps": n_steps, "horizon": 1.0},
        "gamma": 0.38,
        "kappa": 0.7,
        "coefficient": {
            "family": "trig",
            "params": {"amp": 0.5, "t_freq": 1.0, "u_freq": 0.5, "d_dim": 1, "n_dim": 2},
        },
        "outputs": {"prefix": "fbmr"},
    }


def fbm_driver(n_steps: int | None = None, **entries):
    """A config edit: a 1-D fbm driver with ``entries``, and ``n_steps`` grid steps if given."""

    def edit(data):
        data["driver"] = {"kind": "fbm", "hurst": 0.75, "dim": 1, "seed": 3, **entries}
        data["grid"]["n_steps"] = n_steps or data["grid"]["n_steps"]

    return edit


def singular_kernel(**entries):
    """A config edit: the singular config, with ``entries`` added to its kernel."""

    def edit(data):
        data.clear()
        data.update(singular_config(n_steps=64))
        data["kernel"].update(entries)

    return edit


def write_config(tmp_path, data, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_header(path) -> str:
    with open(path) as fh:
        return fh.readline().strip()


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestConfig:
    def test_round_trip_is_lossless(self):
        data = fbm_young_config()
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.to_dict() == data
        assert cfg.to_dict() is not cfg.raw  # defensive copy

    def test_unknown_top_level_key(self):
        data = exp_sine_config()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown config key 'surprise'"):
            ExperimentConfig.from_dict(data)

    def test_unknown_nested_key(self):
        data = exp_sine_config()
        data["driver"]["frequency"] = 2.0
        with pytest.raises(ValueError, match="unknown config key 'driver.frequency'"):
            ExperimentConfig.from_dict(data)

    def test_version_is_checked(self):
        data = exp_sine_config()
        data["version"] = 99
        with pytest.raises(ValueError, match="unsupported config version"):
            ExperimentConfig.from_dict(data)

    def test_missing_required_key(self):
        data = exp_sine_config()
        del data["grid"]
        with pytest.raises(ValueError, match="missing required key 'grid'"):
            ExperimentConfig.from_dict(data)

    def test_driver_kind_checked(self):
        data = exp_sine_config()
        data["driver"] = {"kind": "brownian-bridge"}
        with pytest.raises(ValueError, match="driver kind must be 'fbm' or 'builtin'"):
            ExperimentConfig.from_dict(data)

    def test_builtin_name_checked(self):
        data = exp_sine_config()
        data["driver"]["name"] = "sawtooth"
        with pytest.raises(ValueError, match="unknown builtin driver 'sawtooth'"):
            ExperimentConfig.from_dict(data)

    def test_fbm_requires_seed(self):
        data = fbm_young_config()
        del data["driver"]["seed"]
        with pytest.raises(ValueError, match="fbm driver missing required key 'seed'"):
            ExperimentConfig.from_dict(data)

    def test_regime_specific_entries_required(self):
        young = exp_sine_config()
        del young["coefficient"]
        with pytest.raises(ValueError, match="requires a 'coefficient' entry"):
            ExperimentConfig.from_dict(young)
        sing = singular_config()
        del sing["kernel"]
        with pytest.raises(ValueError, match="requires a 'kernel' entry"):
            ExperimentConfig.from_dict(sing)

    def test_rate_entry_checked(self):
        data = exp_sine_config()
        data["rate"] = {"mode": "extrapolate"}
        with pytest.raises(ValueError, match="rate mode must be 'oracle' or 'self'"):
            ExperimentConfig.from_dict(data)
        data["rate"] = {"mode": "oracle", "oracle": "riemann-zeta"}
        with pytest.raises(ValueError, match="rate oracle must be one of"):
            ExperimentConfig.from_dict(data)

    def test_seed_override_needs_random_driver(self, tmp_path, capsys):
        cfg = write_config(tmp_path, exp_sine_config())
        code = main(["solve", "--config", cfg, "--out", str(tmp_path), "--seed", "7"])
        assert code == EXIT_INVALID
        assert "seed override requires a random driver" in capsys.readouterr().err

    def test_exponent_constraint_named_on_stderr(self, tmp_path, capsys):
        data = singular_config()
        data["gamma"] = 0.7  # gamma - alpha = 0.45 <= 1/2
        cfg = write_config(tmp_path, data)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_INVALID
        assert "gamma - alpha > 1/2" in capsys.readouterr().err

    def test_malformed_json_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,,}')
        assert main(["solve", "--config", str(path)]) == EXIT_INVALID
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 4

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda d: d.update(gamma=None), "'gamma'"),
            (lambda d: d["grid"].pop("horizon"), "'grid.horizon'"),
            (lambda d: d["coefficient"]["params"].update(frequency=2.0), "'frequency'"),
            (lambda d: d["coefficient"].update(family="separable", params={"phi": {}, "psi": {"name": "ones"}}), "'phi'"),
            (lambda d: d["coefficient"].update(family="separable", params={"phi": {"name": "exp_decay", "speed": 1.0}, "psi": {"name": "ones"}}), "'speed'"),
            (lambda d: d.update(solver={"tol": "x"}), "'solver.tol'"),
            (lambda d: d["coefficient"].update(family="separable", params={"phi": {"name": "one", "rate": 5}, "psi": {"name": "ones"}}), "'rate'"),
            (lambda d: d["coefficient"].update(family="separable", params={"phi": {"name": "one"}, "psi": {"name": "cos", "shift": 1}}), "'shift'"),
            (lambda d: d["coefficient"]["params"].update(amp=None), "'amp'"),
            (lambda d: d["coefficient"]["params"].update(t_freq=None), "'t_freq'"),
            (lambda d: d["coefficient"].update(family="constant", params={"value": float("inf")}), "'value'"),
            (lambda d: d["grid"].update(n_steps=64.5), "'grid.n_steps'"),
            (fbm_driver(seed=3.9), "'driver.seed'"),
            (fbm_driver(lift_refine=2.5), "'driver.lift_refine'"),
            (lambda d: d["driver"].update(dim=1.7), "'driver.dim'"),
            (lambda d: d.update(version=True), "'version'"),
            (lambda d: d.update(solver={"tol": True}), "'solver.tol'"),
            (lambda d: d["outputs"].update(write_lift="yes"), "'outputs.write_lift'"),
            (lambda d: d["outputs"].update(prefix=5), "'outputs.prefix'"),
            (lambda d: d["coefficient"].update(params=[1]), "'coefficient.params'"),
            (singular_kernel(psi_params=[1]), "'kernel.psi_params'"),
            (lambda d: d["coefficient"].update(family=[]), "'coefficient.family'"),
            (lambda d: d["coefficient"].update(family="separable", params={"phi": {"name": []}, "psi": {"name": "ones"}}), "scalar function name"),
            (lambda d: d.update(a={}), "'a'"),
            (lambda d: d["coefficient"]["params"].update(d_dim="2"), "'d_dim'"),
            (lambda d: d.update(a="x"), "'a'"),
            (fbm_driver(seed=-1), "seed must be non-negative"),
            (lambda d: d["driver"].update(dim=0), "dim must be positive"),
            (lambda d: d["grid"].update(n_steps=2**21), "'grid.n_steps'"),
            (fbm_driver(lift_refine=2, n_steps=2**20), "'grid.n_steps'"),
            (lambda d: d["coefficient"]["params"].update(t_freq=[1]), "'t_freq'"),
            (lambda d: d["coefficient"]["params"].update(amp=True), "'amp'"),
            (singular_kernel(psi_params={"name": "identity"}), "'name'"),
            (lambda d: d["driver"].update(dim=2**21), "'driver.dim'"),
            (fbm_driver(dim=2**21, n_steps=16), "'driver.dim'"),
            (lambda d: d.update(solver={"max_iter": 60}), "unknown config key 'solver.max_iter'"),
            (lambda d: d.update(kappa=1e300), "kappa <= 1"),
        ],
        ids=[
            "gamma-null", "grid-without-horizon", "unknown-trig-param", "phi-without-name", "unknown-phi-param",
            "tol-string", "one-with-rate", "cos-with-shift", "amp-null", "t-freq-null", "value-infinity",
            "n-steps-fraction", "seed-fraction", "lift-refine-fraction", "builtin-dim-fraction", "version-true",
            "tol-true", "write-lift-string", "prefix-number", "params-list", "psi-params-list",
            "family-list", "phi-name-list", "a-object", "d-dim-string", "a-string", "seed-negative",
            "builtin-dim-zero", "builtin-grid-over-size-limit", "lifted-grid-over-size-limit", "t-freq-list",
            "amp-true", "psi-params-name", "builtin-dim-over-size-limit", "fbm-dim-over-size-limit",
            "max-iter-unknown", "kappa-huge",
        ],
    )
    def test_malformed_config_exits_invalid_naming_the_field(self, tmp_path, capsys, edit, named):
        data = exp_sine_config(n_steps=64)
        data["coefficient"] = {"family": "trig", "params": {"amp": 1.0}}
        edit(data)
        code = main(["solve", "--config", write_config(tmp_path, data), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert err.startswith("error: ") and named in err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


class TestGen:
    def test_builtin_sine_matches_analytic_values(self, tmp_path):
        data = exp_sine_config(n_steps=256)
        cfg = write_config(tmp_path, data)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        table = load_csv(tmp_path / "expsine_driver.csv")
        assert table.shape == (257, 2)
        assert read_header(tmp_path / "expsine_driver.csv") == "t,x_1"
        t = table[:, 0]
        assert np.abs(table[:, 1] - np.sin(t)).max() <= 1e-15

    def test_fbm_driver_shape(self, tmp_path):
        data = fbm_young_config(n_steps=1024)
        data["driver"].update({"dim": 2, "seed": 42})
        cfg = write_config(tmp_path, data)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        table = load_csv(tmp_path / "fbmy_driver.csv")
        assert table.shape == (1025, 3)
        assert read_header(tmp_path / "fbmy_driver.csv") == "t,x_1,x_2"
        assert np.all(table[0, 1:] == 0.0)

    def test_lift_rows_satisfy_half_square_identity(self, tmp_path):
        data = exp_sine_config(n_steps=64)
        data["outputs"]["write_lift"] = True
        cfg = write_config(tmp_path, data)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert read_header(tmp_path / "expsine_lift.csv") == "i,j,k,value"
        lift = load_csv(tmp_path / "expsine_lift.csv")
        drv = load_csv(tmp_path / "expsine_driver.csv")
        assert lift.shape == (64, 4)  # one cell per row for a scalar driver
        dx = np.diff(drv[:, 1])
        cells = lift[np.argsort(lift[:, 0]), 3]
        assert np.array_equal(cells, 0.5 * dx * dx)

    def test_config_echo_round_trips(self, tmp_path):
        data = fbm_young_config()
        cfg = write_config(tmp_path, data)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        echo = json.loads((tmp_path / "fbmy_config.json").read_text())
        assert echo["config"] == data
        assert echo["rng"]["generator"] == "pcg64"
        assert echo["rng"]["seed"] == 31


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


class TestSolve:
    def test_exp_oracle_run(self, tmp_path):
        cfg = write_config(tmp_path, exp_sine_config())
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        table = load_csv(tmp_path / "expsine_solution.csv")
        assert read_header(tmp_path / "expsine_solution.csv") == "t,y_1"
        target = np.exp(np.sin(1.0))
        assert abs(table[-1, 1] - target) / target <= 1e-3
        report = json.loads((tmp_path / "expsine_report.json").read_text())
        assert list(report) == REPORT_KEYS
        assert report["converged"] is True
        assert len(report["windows"]) >= 2
        assert report["config"] == exp_sine_config()
        assert report["errors"]["final_residual"] < report["errors"]["tolerance"]

    def test_zero_field_solution_is_constant(self, tmp_path):
        data = exp_sine_config(n_steps=128)
        data["a"] = -1.25
        data["coefficient"] = {"family": "constant", "params": {"value": 0.0}}
        cfg = write_config(tmp_path, data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        table = load_csv(tmp_path / "expsine_solution.csv")
        assert np.all(table[:, 1] == -1.25)

    def test_singular_power_oracle(self, tmp_path):
        cfg = write_config(tmp_path, singular_config())
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        table = load_csv(tmp_path / "sing_solution.csv")
        assert abs(table[-1, 1] - 4.0 / 3.0) <= 1e-2  # measured 6.6e-3 at 512

    def test_rough_solve_reports_proven_horizon(self, tmp_path):
        data = {
            "version": 1,
            "regime": "rough",
            "a": 1.0,
            "driver": {"kind": "builtin", "name": "linear"},
            "grid": {"n_steps": 256, "horizon": 1.0},
            "gamma": 0.5,
            "kappa": 0.5,
            "coefficient": {"family": "linear", "params": {"a": 1.0}},
            "outputs": {"prefix": "roughexp"},
        }
        cfg = write_config(tmp_path, data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "roughexp_report.json").read_text())
        table = load_csv(tmp_path / "roughexp_solution.csv")
        assert abs(table[-1, 1] - np.e) / np.e <= 1e-3
        assert report["errors"]["proven_horizon"] == 0.25
        assert report["errors"]["extension_heuristic"] is True

    def test_nonconvergence_keeps_partial_outputs(self, tmp_path, capsys):
        data = exp_sine_config(n_steps=64)
        data["driver"] = {"kind": "builtin", "name": "linear"}
        data["coefficient"] = {"family": "linear", "params": {"a": 1e160}}
        cfg = write_config(tmp_path, data)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NOT_CONVERGED
        assert "partial outputs written" in capsys.readouterr().err
        report = json.loads((tmp_path / "expsine_report.json").read_text())
        assert report["converged"] is False
        table = load_csv(tmp_path / "expsine_solution.csv")
        assert np.isfinite(table).all()

    @pytest.mark.parametrize(
        "make", [fbm_young_config, singular_config, fbm_rough_config], ids=["young", "singular", "rough"]
    )
    def test_byte_identical_reproduction(self, tmp_path, make):
        data = make()
        prefix = data["outputs"]["prefix"]
        cfg = write_config(tmp_path, data)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["solve", "--config", cfg, "--out", str(b)]) == EXIT_OK
        assert (a / f"{prefix}_solution.csv").read_bytes() == (b / f"{prefix}_solution.csv").read_bytes()
        ra = json.loads((a / f"{prefix}_report.json").read_text())
        rb = json.loads((b / f"{prefix}_report.json").read_text())
        ra.pop("timing"), rb.pop("timing")
        assert json.dumps(ra) == json.dumps(rb)

    def test_seed_override_changes_sample_and_is_echoed(self, tmp_path):
        cfg = write_config(tmp_path, fbm_young_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["solve", "--config", cfg, "--out", str(b), "--seed", "123"]) == EXIT_OK
        report = json.loads((b / "fbmy_report.json").read_text())
        assert report["config"]["driver"]["seed"] == 123
        assert report["rng"]["seed"] == 123
        ya = load_csv(a / "fbmy_solution.csv")[:, 1]
        yb = load_csv(b / "fbmy_solution.csv")[:, 1]
        assert np.max(np.abs(ya - yb)) > 1e-3

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from-env"
        flagdir = tmp_path / "from-flag"
        monkeypatch.setenv("ROUGHVOLTERRA_OUT", str(envdir))
        cfg = write_config(tmp_path, exp_sine_config(n_steps=64))
        assert main(["solve", "--config", cfg]) == EXIT_OK
        assert (envdir / "expsine_solution.csv").exists()
        assert main(["solve", "--config", cfg, "--out", str(flagdir)]) == EXIT_OK
        assert (flagdir / "expsine_solution.csv").exists()


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


class TestRate:
    def test_smooth_oracle_slope_is_first_order(self, tmp_path):
        cfg = write_config(tmp_path, exp_sine_config(n_steps=64))
        assert main(["rate", "--config", cfg, "--out", str(tmp_path), "--refinements", "3"]) == EXIT_OK
        rate = json.loads((tmp_path / "expsine_rate.json").read_text())
        assert rate["mode"] == "oracle"
        assert rate["resolutions"] == [64, 128, 256]
        assert 0.8 <= rate["slope"] <= 1.2
        assert np.isfinite(rate["lsq_residual"])
        assert rate["converged"] == [True, True, True]

    def test_refinement_floor_enforced(self, tmp_path, capsys):
        cfg = write_config(tmp_path, exp_sine_config(n_steps=64))
        code = main(["rate", "--config", cfg, "--out", str(tmp_path), "--refinements", "2"])
        assert code == EXIT_INVALID
        assert "refinements must be at least 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,refinements",
        [
            (lambda d: d["grid"].update(n_steps=2**18), 4),
            (lambda d: None, 10**6),
            (fbm_driver(lift_refine=4, n_steps=2**16), 4),
            (fbm_driver(dim=2**14, n_steps=16), 4),
        ],
        ids=["finest-level", "refinements-huge", "finest-lifted-level", "finest-level-times-dim"],
    )
    def test_ladder_over_size_limit_is_refused(self, tmp_path, capsys, edit, refinements):
        data = exp_sine_config(n_steps=64)
        edit(data)
        cfg = write_config(tmp_path, data)
        code = main(["rate", "--config", cfg, "--out", str(tmp_path), "--refinements", str(refinements)])
        assert code == EXIT_INVALID
        assert "--refinements" in capsys.readouterr().err

    def test_singular_oracle_reports_exponent_benchmark(self, tmp_path):
        cfg = write_config(tmp_path, singular_config(n_steps=512))
        assert main(["rate", "--config", cfg, "--out", str(tmp_path), "--refinements", "3"]) == EXIT_OK
        rate = json.loads((tmp_path / "sing_rate.json").read_text())
        assert rate["benchmark"] == 0.75  # gamma - alpha
        assert rate["slope"] > 0  # measured 0.72
        assert rate["errors"][0] > rate["errors"][-1]

    def test_fbm_self_convergence_shares_master_sample(self, tmp_path):
        cfg = write_config(tmp_path, fbm_young_config(n_steps=256))
        assert main(["rate", "--config", cfg, "--out", str(tmp_path), "--refinements", "4"]) == EXIT_OK
        rate = json.loads((tmp_path / "fbmy_rate.json").read_text())
        assert rate["mode"] == "self"
        assert rate["resolutions"] == [256, 512, 1024, 2048]
        assert rate["error_resolutions"] == [256, 512, 1024]
        assert rate["rng"]["master_n_steps"] == 2048
        assert all(e > 0 for e in rate["errors"])
        assert rate["slope"] >= 0.2  # measured 0.40 for seed 31

    def test_exactly_agreeing_levels_skip_the_fit(self, tmp_path, capsys):
        # a = 1e300 swamps every increment, so all levels agree to the bit
        data = fbm_young_config(n_steps=16)
        data["a"] = 1e300
        cfg = write_config(tmp_path, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rate", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        rate = json.loads((tmp_path / "fbmy_rate.json").read_text())
        assert rate["errors"] == [0.0, 0.0]
        assert rate["slope"] is None and rate["lsq_residual"] is None
        assert rate["zero_error_resolutions"] == [16, 32]

    def test_failing_solve_aborts_with_partial_table(self, tmp_path, capsys):
        data = exp_sine_config(n_steps=64)
        data["driver"] = {"kind": "builtin", "name": "linear"}
        data["coefficient"] = {"family": "linear", "params": {"a": 1e160}}
        data["rate"] = {"mode": "self"}
        cfg = write_config(tmp_path, data)
        code = main(["rate", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NOT_CONVERGED
        assert "aborted" in capsys.readouterr().err
        rate = json.loads((tmp_path / "expsine_rate.json").read_text())
        assert rate["aborted"] is True
        assert rate["converged"] == [False]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


class TestCheck:
    def test_all_suites_pass(self, tmp_path, capsys):
        assert main(["check", "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        on_disk = json.loads((tmp_path / "checks_all.json").read_text())
        assert on_disk == report

    def test_fault_injection_fails_run(self, capsys):
        code = main(["check", "--suite", "rough", "--inject-fault", "chen-sign"])
        assert code == EXIT_NOT_CONVERGED
        report = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["two-level-consistency"]

    def test_output_schema_stable_across_runs(self, capsys):
        assert main(["check", "--suite", "young"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["check", "--suite", "young"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_console_script_entry_point(self):
        exe = shutil.which("roughvolterra")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "check", "--suite", "algebra"], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True


# ---------------------------------------------------------------------------
# Mutated configs
# ---------------------------------------------------------------------------

# No valid large integer here, so no mutation can start a large solve.
MUTATIONS = (None, True, "x", [], {}, [1], -1, 0, 0.5, 1e300)


def config_slots(data: dict, path: tuple = ()):
    """The key path of every section and leaf of a config."""
    for key, value in data.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from config_slots(value, path + (key,))


@st.composite
def mutated_configs(draw) -> dict:
    """A young, singular or rough config at 16 steps with one section or leaf replaced."""
    data = draw(st.sampled_from([fbm_young_config, singular_config, fbm_rough_config]))(16)
    *parents, key = draw(st.sampled_from(list(config_slots(data))))
    node = data
    for parent in parents:
        node = node[parent]
    node[key] = draw(st.sampled_from(MUTATIONS))
    return data


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated_configs())
def test_mutated_config_exits_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["solve", "--config", write_config(pathlib.Path(out), data), "--out", out])
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_NOT_CONVERGED, EXIT_IO)
    if code == EXIT_INVALID:
        assert err.getvalue().startswith("error: ")


def test_cli_import_leaves_scipy_stats_and_linalg_unloaded():
    import roughvolterra

    src = os.path.dirname(os.path.dirname(os.path.abspath(roughvolterra.__file__)))
    code = (
        "import sys, roughvolterra.cli; print([m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules]); "
        "roughvolterra.run_checks('algebra'); print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # scipy is a test dependency only: nothing the package runs imports it
    assert proc.stdout.split() == ["[]", "[]"]
