"""Command-line experiment runner: ``gen``, ``solve``, ``rate``, ``check``.

Experiments are described by a JSON config (schema below, ``version`` 1).
Outputs are CSV (comma-delimited, header row, floats at 17 significant
digits) and JSON with a fixed key order, so identical configs and seeds
reproduce identical bytes — except for the wall-clock ``timing`` entry,
which is the one intentionally non-reproducible field.

Config schema, kept as a table in ``_FIELDS``: ``int`` entries take JSON
integers only, ``?`` marks an optional entry and ``|null`` one whose null
picks the default::

    {
      "version": 1,
      "regime": "young" | "singular" | "rough",
      "a": number | [numbers],                  # initial value
      "driver": {"kind": "fbm", "hurst": H, "dim": int, "seed": int,
                 "method"?: "auto|cholesky|circulant", "lift_refine"?: int}
              | {"kind": "builtin", "name": "linear|sine|cosine|quadratic|trig",
                 "dim"?: int},
      "grid": {"n_steps": int, "horizon": T},   # n_steps a power of two
      "gamma": g, "kappa": k,                   # singular: "kappa"?: k|null
      "coefficient": {"family": "constant|linear|separable|trig",
                      "params"?: {...}},        # young / rough regimes
      "kernel": {"alpha": a, "psi": "<matrix function>",
                 "psi_params"?: {...}},         # singular regime
      "solver"?: {"tol"?: t|null},
      "rate"?: {"mode"?: "oracle" | "self", "oracle"?: "<name>",
                "benchmark"?: number|null},
      "outputs"?: {"prefix"?: "experiment", "write_lift"?: false}
    }

``n_steps`` x ``lift_refine`` x ``dim``, and for ``rate`` the same at its
finest level, is at most ``MAX_FINE_STEPS`` = 2**20.

Exit codes: 0 success; 2 invalid config or arguments (the message names
the violated constraint or config entry); 3 solver non-convergence or
failed checks (outputs are still written); 4 I/O failure.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .algebra import Grid, Path, path_holder_norm
from .checks import FAULT_MODES, SUITES, checks_report, run_checks
from .coefficients import (
    Coefficient,
    _bind_call,
    constant_coefficient,
    linear_coefficient,
    matrix_func,
    scalar_func,
    separable_coefficient,
    trig_coefficient,
)
from .rough import LevyArea, levy_lift_piecewise_linear, lift_from_subgrid
from .signals import BUILTIN_PATHS, FbmSpec, builtin_path, generate_fbm_detailed
from .singular import KernelSpec
from .solver import SolverReport, VolterraProblem, solve

__all__ = [
    "ExperimentConfig",
    "load_config",
    "build_problem",
    "cmd_gen",
    "cmd_solve",
    "cmd_rate",
    "cmd_check",
    "main",
    "EXIT_OK",
    "EXIT_INVALID",
    "EXIT_NOT_CONVERGED",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4

CONFIG_VERSION = 1

# The rate study's oracles: a closed-form solution at time t, read against each level's final value.
_ORACLE_VALUES = {
    "exp_of_sine": lambda cfg, t: float(np.exp(np.sin(t))),
    "exponential": lambda cfg, t: float(np.exp(t)),
    "quadratic_ramp": lambda cfg, t: float(np.asarray(cfg.raw["a"], dtype=float).reshape(-1)[0] + 0.5 * t * t),
    "power_kernel": lambda cfg, t: float(
        np.asarray(cfg.raw["a"], dtype=float).reshape(-1)[0]
        + np.float64(t) ** (1.0 - cfg.raw["kernel"]["alpha"]) / (1.0 - cfg.raw["kernel"]["alpha"])
    ),
}

MAX_FINE_STEPS = 2**20  # larger driver samples are refused before any array exists

# JSON types of config entries: (the name a message gives it, its test).
_INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_NUM = ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_STR = ("a string", lambda v: isinstance(v, str))
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_OBJ = ("a JSON object", lambda v: isinstance(v, dict))
_NUMS = ("a number or a list of numbers", lambda v: _NUM[1](v) or isinstance(v, list) and all(map(_NUM[1], v)))
_REQUIRED, _NULLABLE = "required", "nullable"  # null in a nullable entry picks its default

# The config format: section ("" is the top level) -> key -> (type, *flags).
# A section's required keys are required where it is present.  Value ranges
# are checked by the objects built from the config.
_FIELDS = {
    "": {
        "version": (_INT, _REQUIRED), "regime": (_STR, _REQUIRED), "a": (_NUMS, _REQUIRED),
        "driver": (_OBJ, _REQUIRED), "grid": (_OBJ, _REQUIRED), "gamma": (_NUM, _REQUIRED),
        "kappa": (_NUM, _NULLABLE), "coefficient": (_OBJ,), "kernel": (_OBJ,), "solver": (_OBJ,),
        "rate": (_OBJ,), "outputs": (_OBJ,),
    },
    "driver": {
        "kind": (_STR, _REQUIRED), "hurst": (_NUM,), "dim": (_INT,), "seed": (_INT,),
        "method": (_STR,), "lift_refine": (_INT,), "name": (_STR,),
    },
    "grid": {"n_steps": (_INT, _REQUIRED), "horizon": (_NUM, _REQUIRED)},
    "coefficient": {"family": (_STR, _REQUIRED), "params": (_OBJ,)},
    "kernel": {"alpha": (_NUM, _REQUIRED), "psi": (_STR, _REQUIRED), "psi_params": (_OBJ,)},
    "solver": {"tol": (_NUM, _NULLABLE)},
    "rate": {"mode": (_STR,), "oracle": (_STR,), "benchmark": (_NUM, _NULLABLE)},
    "outputs": {"prefix": (_STR,), "write_lift": (_BOOL,)},
}


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description.

    Keeps the raw (validated) dictionary so serialization round-trips
    losslessly: ``ExperimentConfig.from_dict(d).to_dict() == d``.
    """

    raw: dict

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        _check_section(data, "")
        if data["version"] != CONFIG_VERSION:
            raise ValueError(
                f"unsupported config version {data['version']!r} (this build reads version {CONFIG_VERSION})"
            )

        driver = data["driver"]
        if driver["kind"] not in ("fbm", "builtin"):
            raise ValueError(f"driver kind must be 'fbm' or 'builtin', got {driver['kind']!r}")
        for key in ("hurst", "dim", "seed") if driver["kind"] == "fbm" else ("name",):
            if key not in driver:
                raise ValueError(f"{driver['kind']} driver missing required key '{key}'")
        if driver["kind"] == "builtin" and driver["name"] not in BUILTIN_PATHS:
            raise ValueError(
                f"unknown builtin driver '{driver['name']}' (expected one of {', '.join(BUILTIN_PATHS)})"
            )
        refine = driver.get("lift_refine", 1)
        if refine < 1 or refine & (refine - 1):
            raise ValueError(f"config entry 'driver.lift_refine' must be a power of two, got {refine}")
        if data["grid"]["n_steps"] * refine * driver.get("dim", 1) > MAX_FINE_STEPS:
            raise ValueError(f"config entry 'grid.n_steps' x 'driver.lift_refine' x 'driver.dim' is over {MAX_FINE_STEPS}")

        regime = data["regime"]
        if regime not in ("young", "singular", "rough"):
            raise ValueError(f"unknown regime '{regime}' (expected young, singular or rough)")
        entry = "kernel" if regime == "singular" else "coefficient"
        if entry not in data:
            raise ValueError(f"{regime} regime config requires a '{entry}' entry")
        if regime != "singular" and data.get("kappa") is None:
            raise ValueError(f"{regime} regime config requires a number for 'kappa'")
        # the field's dimensions are fixed by 'a' and the driver: compare them
        # before anything is built, so that a huge one allocates nothing.
        # This repeats, on the raw config, the shape comparison of
        # solver.validate_problem, which still guards the built problem; a
        # change to either must keep the two in step.
        a = data["a"]
        want = {
            "d_dim": (len(a) if isinstance(a, list) else 1, "len('a')"),
            "n_dim": (driver.get("dim", 1), "'driver.dim'"),
        }
        where = "coefficient.params" if entry == "coefficient" else "kernel.psi_params"
        params = data[entry].get(where.split(".")[1], {})
        sections = {where: params}
        sections.update({f"{where}.{k}": params[k] for k in ("phi", "psi") if isinstance(params.get(k), dict)})
        for name, section in sections.items():
            for key, (size, source) in want.items():
                value = section.get(key)
                if isinstance(value, int) and not isinstance(value, bool) and value != size:
                    raise ValueError(f"config entry '{name}.{key}' is {value}, but {source} is {size}")

        rate = data.get("rate", {})
        if rate.get("mode", "self") not in ("oracle", "self"):
            raise ValueError(f"rate mode must be 'oracle' or 'self', got {rate.get('mode')!r}")
        if rate.get("mode") == "oracle" and rate.get("oracle") not in _ORACLE_VALUES:
            raise ValueError(
                f"rate oracle must be one of {', '.join(sorted(_ORACLE_VALUES))}, got {rate.get('oracle')!r}"
            )
        if rate.get("mode") == "oracle" and rate["oracle"] == "power_kernel" and "kernel" not in data:
            raise ValueError("rate oracle 'power_kernel' reads 'kernel.alpha', and the config has no 'kernel' entry")
        return ExperimentConfig(copy.deepcopy(data))

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)

    # typed accessors -------------------------------------------------------
    @property
    def regime(self) -> str:
        return self.raw["regime"]

    @property
    def driver(self) -> dict:
        return self.raw["driver"]

    @property
    def grid(self) -> Grid:
        g = self.raw["grid"]
        return Grid(float(g["horizon"]), g["n_steps"])

    @property
    def outputs(self) -> dict:
        return self.raw.get("outputs", {})

    @property
    def prefix(self) -> str:
        return self.outputs.get("prefix", "experiment")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        if self.driver.get("kind") != "fbm":
            raise ValueError("seed override requires a random driver (kind 'fbm')")
        data = self.to_dict()
        data["driver"]["seed"] = int(seed)
        return ExperimentConfig(data)

    def with_steps(self, n_steps: int) -> "ExperimentConfig":
        data = self.to_dict()
        data["grid"]["n_steps"] = int(n_steps)
        return ExperimentConfig(data)


def _check_section(entry: dict, section: str) -> None:
    """Raise ValueError naming the first key of ``entry``, or of a section in it, that breaks `_FIELDS`."""
    fields = _FIELDS[section]
    where = f"{section}." if section else ""
    unknown = sorted(set(entry) - set(fields))
    if unknown:
        raise ValueError(f"unknown config key '{where}{unknown[0]}'")
    for key, ((kind, is_kind), *flags) in fields.items():
        if key not in entry:
            if _REQUIRED in flags:
                raise ValueError(f"config missing required key '{where}{key}'")
        elif not (is_kind(entry[key]) or entry[key] is None and _NULLABLE in flags):
            got = json.dumps(entry[key], default=repr)
            raise ValueError(f"config entry '{where}{key}' must be {kind}, got {got}")
        elif key in _FIELDS:
            _check_section(entry[key], key)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"config file {path} is not valid JSON: {e}") from e
    return ExperimentConfig.from_dict(data)


def _load_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    return cfg if args.seed is None else cfg.with_seed(args.seed)


# ---------------------------------------------------------------------------
# Builders: config -> objects
# ---------------------------------------------------------------------------


def _build_coefficient(entry: dict) -> Coefficient:
    family = entry["family"]
    params = dict(entry.get("params", {}))
    families = {"constant": constant_coefficient, "linear": linear_coefficient, "trig": trig_coefficient}
    if family in families:
        return _bind_call(families[family], params, "config entry 'coefficient.params'")
    if family == "separable":
        phi = params.pop("phi", None)
        psi = params.pop("psi", None)
        if params:
            raise ValueError(f"unknown separable coefficient key '{sorted(params)[0]}'")
        if not (isinstance(phi, dict) and isinstance(psi, dict) and "name" in phi and "name" in psi):
            raise ValueError("separable coefficient requires 'phi' and 'psi' objects with a 'name'")
        phi, psi = dict(phi), dict(psi)
        return separable_coefficient(
            scalar_func(phi.pop("name"), **phi), matrix_func(psi.pop("name"), **psi)
        )
    raise ValueError(
        f"unknown coefficient family {family!r} (expected constant, linear, separable or trig)"
    )


def _build_kernel(cfg: ExperimentConfig) -> KernelSpec:
    entry = cfg.raw["kernel"]
    psi = matrix_func(entry["psi"], **entry.get("psi_params", {}))
    return KernelSpec(
        alpha=float(entry["alpha"]),
        psi=psi,
        gamma=float(cfg.raw["gamma"]),
        kappa=cfg.raw.get("kappa"),
    )


def _draw_fbm(cfg: ExperimentConfig, n_steps: int, **record) -> tuple[Path, dict]:
    """The config's fbm driver sampled on ``n_steps`` cells of its horizon, with its rng record.

    ``record`` entries are appended to the generator's own record.
    """
    d = cfg.driver
    spec = FbmSpec(
        hurst=float(d["hurst"]),
        dim=d["dim"],
        grid=Grid(cfg.grid.horizon, n_steps),
        seed=d["seed"],
        method=d.get("method", "auto"),
    )
    sample, meta = generate_fbm_detailed(spec)
    return sample, {**meta, "kind": "fbm", **record}


def _build_driver(
    cfg: ExperimentConfig, master: tuple[Path, dict] | None = None
) -> tuple[Path, LevyArea | None, dict]:
    """Driver path, its lift when the regime needs one, and the rng record.

    An fbm driver is restricted from ``master``, a sample on a finer grid
    with its rng record; without one, it is drawn ``lift_refine`` times
    finer than the config's grid.
    """
    d = cfg.driver
    grid = cfg.grid
    needs_lift = cfg.regime == "rough" or bool(cfg.outputs.get("write_lift"))
    if d["kind"] == "builtin":
        x = builtin_path(d["name"], grid, dim=d.get("dim", 1))
        lift = levy_lift_piecewise_linear(x) if needs_lift else None
        rng = {"generator": None, "seed": None, "kind": "builtin", "name": d["name"]}
        return x, lift, rng

    refine = d.get("lift_refine", 1)
    fine, rng = master or _draw_fbm(cfg, grid.n_steps * refine, lift_refine=refine)
    factor = fine.grid.n_steps // grid.n_steps
    if needs_lift:
        x, lift = lift_from_subgrid(fine, factor)
    else:
        x, lift = fine.restrict(factor), None
    return x, lift, rng


def build_problem(
    cfg: ExperimentConfig, master: tuple[Path, dict] | None = None
) -> tuple[VolterraProblem, dict]:
    """Construct the Volterra problem an experiment config describes (see `_build_driver`)."""
    x, lift, rng = _build_driver(cfg, master)
    a = np.atleast_1d(np.asarray(cfg.raw["a"], dtype=float))
    meta = {k: rng[k] for k in ("hurst", "seed", "method") if k in rng}
    if cfg.regime == "singular":
        coeff = _build_kernel(cfg)
        problem = VolterraProblem("singular", a, coeff, x, driver_meta=meta or None)
    else:
        coeff = _build_coefficient(cfg.raw["coefficient"])
        problem = VolterraProblem(
            cfg.regime,
            a,
            coeff,
            x,
            gamma=float(cfg.raw["gamma"]),
            kappa=float(cfg.raw["kappa"]),
            lift=lift,
            driver_meta=meta or None,
        )
    return problem, rng


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _out_dir(args) -> str:
    if args.out is not None:
        return args.out
    return os.environ.get("ROUGHVOLTERRA_OUT", ".")


def _finite_or_null(obj):
    """``obj`` with every non-finite float (a failed window's inf residual, say) as None."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _write_json(path: str, obj: dict) -> None:
    """``obj`` as standard JSON: non-finite floats are written as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, header: str, table: np.ndarray) -> None:
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _driver_csv(path: str, x: Path) -> None:
    header = "t," + ",".join(f"x_{k}" for k in range(1, x.dim + 1))
    _write_csv(path, header, np.column_stack([x.grid.times, x.values]))


def _solution_csv(path: str, y: Path) -> None:
    header = "t," + ",".join(f"y_{k}" for k in range(1, y.values.shape[1] + 1))
    _write_csv(path, header, np.column_stack([y.grid.times, y.values]))


def _lift_csv(path: str, lift: LevyArea) -> None:
    """Adjacent-cell entries: cell index i, 1-based components (j, k)."""
    n_cells, dim, _ = lift.adjacent.shape
    i, j, k = np.meshgrid(
        np.arange(n_cells), np.arange(1, dim + 1), np.arange(1, dim + 1), indexing="ij"
    )
    table = np.column_stack(
        [i.ravel(), j.ravel(), k.ravel(), lift.adjacent.reshape(-1)]
    )
    _write_csv(path, "i,j,k,value", table)


def _window_dicts(report: SolverReport) -> list[dict]:
    return [
        {
            "start": w.start,
            "end": w.end,
            "t_start": w.t_start,
            "t_end": w.t_end,
            "converged": w.converged,
            "iterations": w.iterations,
            "final_residual": w.final_residual,
            "holder_norm": w.holder_norm,
        }
        for w in report.windows
    ]


def _solver_report_json(
    cfg: ExperimentConfig, report: SolverReport, rng: dict, seconds: float
) -> dict:
    exponent = report.holder_exponent
    return {
        "config": cfg.to_dict(),
        "converged": report.converged,
        "windows": _window_dicts(report),
        "norms": {
            "exponent": exponent,
            "solution_holder": path_holder_norm(report.solution, exponent).value,
            "solution_sup": float(np.max(np.abs(report.solution.values))),
        },
        "errors": {
            "tolerance": report.tolerance,
            "final_residual": report.windows[-1].final_residual,
            "t_solved": report.t_solved,
            "solved_steps": report.solved_steps,
            "proven_horizon": report.proven_horizon,
            "extension_heuristic": report.extension_heuristic,
        },
        "timing": {"seconds": seconds},
        "rng": rng,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    x, lift, rng = _build_driver(cfg)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    prefix = os.path.join(out, cfg.prefix)
    _driver_csv(f"{prefix}_driver.csv", x)
    written = [f"{prefix}_driver.csv"]
    if cfg.outputs.get("write_lift"):
        _lift_csv(f"{prefix}_lift.csv", lift)
        written.append(f"{prefix}_lift.csv")
    echo = cfg.to_dict()
    _write_json(f"{prefix}_config.json", {"config": echo, "rng": rng})
    written.append(f"{prefix}_config.json")
    for path in written:
        print(path)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    problem, rng = build_problem(cfg)
    started = time.perf_counter()
    report = _solve_with_opts(cfg, problem)
    seconds = time.perf_counter() - started
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    prefix = os.path.join(out, cfg.prefix)
    _solution_csv(f"{prefix}_solution.csv", report.solution)
    _write_json(f"{prefix}_report.json", _solver_report_json(cfg, report, rng, seconds))
    print(f"{prefix}_solution.csv")
    print(f"{prefix}_report.json")
    if not report.converged:
        print(
            f"solver stopped at t = {report.t_solved} (step {report.solved_steps}); "
            "partial outputs written",
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _solve_rate_ladder(cfg: ExperimentConfig, resolutions: list[int]):
    """Solve at every resolution, sharing one fbm master sample.

    Random drivers are generated once on the finest grid and restricted
    down, so coarser runs see the same signal; builtin drivers are
    analytic and regenerate consistently at any resolution.  Returns the
    reports, the rng record and each level's solve time in seconds.
    """
    master = None
    if cfg.driver["kind"] == "fbm":
        n_master = resolutions[-1] * cfg.driver.get("lift_refine", 1)
        master = _draw_fbm(cfg, n_master, master_n_steps=n_master)
    reports: list[SolverReport] = []
    levels: list[float] = []
    for n in resolutions:
        sub = cfg.with_steps(n)
        # builtin drivers keep the one-argument call that wrappers of build_problem(cfg) expect
        problem, rng = build_problem(sub) if master is None else build_problem(sub, master)
        started = time.perf_counter()
        reports.append(_solve_with_opts(sub, problem))
        levels.append(time.perf_counter() - started)
        if not reports[-1].converged:
            break
    return reports, rng, levels


def _solve_with_opts(cfg: ExperimentConfig, problem: VolterraProblem) -> SolverReport:
    opts = cfg.raw.get("solver", {})
    return solve(problem, tol=opts.get("tol"))


def cmd_rate(args) -> int:
    cfg = _load_config(args)
    refinements = args.refinements
    if refinements < 3:
        raise ValueError(f"refinements must be at least 3, got {refinements}")
    finest = cfg.grid.n_steps * cfg.driver.get("lift_refine", 1) * cfg.driver.get("dim", 1)
    if refinements > MAX_FINE_STEPS.bit_length() or finest << (refinements - 1) > MAX_FINE_STEPS:
        raise ValueError(f"--refinements {refinements} takes the finest level x 'driver.dim' past {MAX_FINE_STEPS}")
    rate_cfg = cfg.raw.get("rate", {})
    mode = rate_cfg.get("mode", "self")
    resolutions = [cfg.grid.n_steps << k for k in range(refinements)]
    horizon = cfg.grid.horizon
    if mode == "oracle":
        with np.errstate(all="ignore"):
            target = _ORACLE_VALUES[rate_cfg["oracle"]](cfg, horizon)
        if not np.isfinite(target):
            raise ValueError(f"config entry 'rate.oracle' {rate_cfg['oracle']!r} is not finite at the horizon {horizon}")

    started = time.perf_counter()
    reports, rng, levels = _solve_rate_ladder(cfg, resolutions)
    timing = {"seconds": time.perf_counter() - started, "levels": levels}
    solved = resolutions[: len(reports)]
    aborted = bool(reports) and not reports[-1].converged

    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    prefix = os.path.join(out, cfg.prefix)

    if aborted or len(reports) < 3:
        partial = {
            "config": cfg.to_dict(),
            "mode": mode,
            "resolutions": solved,
            "converged": [r.converged for r in reports],
            "aborted": True,
            "timing": timing,
            "rng": rng,
        }
        _write_json(f"{prefix}_rate.json", partial)
        print(f"{prefix}_rate.json")
        print("rate study aborted: a solve did not converge; partial table written", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    if mode == "oracle":
        errors = [float(abs(r.solution.values[-1, 0] - target)) for r in reports]
        error_resolutions = solved
        benchmark = rate_cfg.get("benchmark")
        if benchmark is None and cfg.regime == "singular":
            benchmark = float(cfg.raw["gamma"]) - float(cfg.raw["kernel"]["alpha"])
    else:
        errors = []
        for coarse_n, coarse, fine in zip(solved, reports, reports[1:]):
            step = fine.solution.grid.n_steps // coarse_n
            errors.append(
                float(
                    np.max(
                        np.abs(coarse.solution.values - fine.solution.values[::step])
                    )
                )
            )
        error_resolutions = solved[:-1]
        benchmark = rate_cfg.get("benchmark")

    # an error of exactly 0 has no logarithm: then there is no fit, and the report names its levels
    zero_at = [n for n, e in zip(error_resolutions, errors) if e == 0.0]
    slope = lsq = None
    if not zero_at:
        fit, residuals, *_ = np.polyfit(np.log2(error_resolutions), np.log2(errors), 1, full=True)
        slope = float(-fit[0])
        if not np.isfinite(slope):
            raise ValueError(f"fitted slope is not finite: {slope}")
        lsq = float(np.sqrt(residuals[0] / len(errors))) if len(residuals) else 0.0
    payload = {
        "config": cfg.to_dict(),
        "mode": mode,
        "resolutions": solved,
        "error_resolutions": error_resolutions,
        "errors": errors,
        "slope": slope,
        "lsq_residual": lsq,
        **({"zero_error_resolutions": zero_at} if zero_at else {}),
        "benchmark": benchmark,
        "converged": [r.converged for r in reports],
        "timing": timing,
        "rng": rng,
    }
    _write_json(f"{prefix}_rate.json", payload)
    print(f"{prefix}_rate.json")
    return EXIT_OK


def cmd_check(args) -> int:
    results = run_checks(args.suite, fault=args.inject_fault)
    report = checks_report(results)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"checks_{args.suite}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    return EXIT_OK if report["passed"] else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughvolterra",
        description="Volterra-equation experiments driven by Hölder-rough signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory (default: $ROUGHVOLTERRA_OUT or .)")
        p.add_argument("--seed", type=int, default=None, help="override the fbm driver seed")

    p_gen = sub.add_parser("gen", help="generate the driver (and lift) files")
    add_common(p_gen)
    p_gen.set_defaults(fn=cmd_gen)

    p_solve = sub.add_parser("solve", help="run the configured solve")
    add_common(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_rate = sub.add_parser("rate", help="refinement study across dyadic resolutions")
    add_common(p_rate)
    p_rate.add_argument("--refinements", type=int, default=3, help="number of resolutions (>= 3)")
    p_rate.set_defaults(fn=cmd_rate)

    p_check = sub.add_parser("check", help="run the invariant suites")
    p_check.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p_check.add_argument("--out", default=None, help="also write the JSON report here")
    p_check.add_argument(
        "--inject-fault",
        default=None,
        choices=FAULT_MODES,
        help="deliberately corrupt one identity (testing hook)",
    )
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
