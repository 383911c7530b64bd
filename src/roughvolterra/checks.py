"""Deterministic invariant suites behind the command-line ``check`` command.

Each suite re-verifies a module's defining identities on fixed seeded
inputs and reports the measured value against a frozen bound.  Everything
is deterministic: the same package version produces the same report,
byte for byte.  The ``fault`` hook deliberately corrupts one computation
(currently the sign of the cross term in the two-level consistency
identity) so callers can demonstrate that a broken identity is actually
detected and that the other suites are unaffected.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .algebra import (
    Grid,
    Increment2,
    Path,
    delta1,
    delta2,
    holder_norm,
    lambda_of,
    sew,
    sewing_constant,
    split_holder_norm,
)
from .coefficients import linear_coefficient, matrix_func, scalar_func, separable_coefficient
from .rough import ControlledPath, levy_lift_piecewise_linear, rough_integral
from .signals import FbmSpec, estimate_holder, fbm_covariance, generate_fbm
from .singular import KernelSpec, kernel_increment
from .solver import VolterraProblem, solve
from .young import YoungIntegrand, young_germ, young_integral

__all__ = ["CheckResult", "SUITES", "FAULT_MODES", "run_suite", "run_checks", "checks_report"]

SUITES = ("algebra", "young", "singular", "rough", "signals", "solver")
FAULT_MODES = ("chen-sign",)


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: what was measured and the bound it must meet."""

    suite: str
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        d["measured"] = float(d["measured"])
        d["bound"] = float(d["bound"])
        return d


def _result(suite: str, name: str, measured: float, bound: float, detail: str = "") -> CheckResult:
    measured = float(measured)
    return CheckResult(suite, name, bool(measured <= bound), measured, float(bound), detail)


def _scalar_path(grid: Grid, values: np.ndarray) -> Path:
    return Path(grid, np.asarray(values, dtype=float).reshape(-1, 1))


def _linear_driver(n: int) -> Path:
    g = Grid(1.0, n)
    return _scalar_path(g, g.times)


# ---------------------------------------------------------------------------
# algebra: increment calculus and the sewing construction
# ---------------------------------------------------------------------------


def _check_algebra(fault: str | None) -> list[CheckResult]:
    out = []

    # the second difference of a first difference vanishes identically
    rng = np.random.default_rng(12)
    g = Grid(1.0, 32)
    p = Path(g, rng.uniform(-5, 5, size=(33, 2)))
    d2 = delta2(delta1(p))
    idx = np.arange(33)
    i, u, j = np.meshgrid(idx, idx, idx, indexing="ij")
    scale = float(np.max(np.abs(p.values)))
    measured = float(np.max(np.abs(d2.fn(i, u, j)))) / scale
    out.append(_result("algebra", "double-difference-vanishes", measured, 1e-12))

    # difference of a product splits exactly into the two one-sided terms
    rng = np.random.default_rng(7)
    fv = rng.standard_normal(33)
    hv = rng.standard_normal(33)
    prod = delta1(_scalar_path(g, fv * hv))
    worst = 0.0
    for a in range(32):
        js = np.arange(a + 1, 33)
        lhs = prod.fn(a, js)[:, 0]
        rhs = (fv[js] - fv[a]) * hv[js] + fv[a] * (hv[js] - hv[a])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    scale = max(1.0, float(np.max(np.abs(fv * hv))))
    out.append(_result("algebra", "product-rule-exact", worst / scale, 1e-12))

    # the sewn part plus the remainder reconstructs the germ exactly, and
    # the remainder obeys the sewing bound with the explicit constant
    mu = 1.5
    c_mu = sewing_constant(mu)
    g64 = Grid(1.0, 64)
    t = g64.times
    rng = np.random.default_rng(2024)
    worst_ratio = 0.0
    worst_recon = 0.0
    for _ in range(5):
        coef = rng.standard_normal((2, 3))
        freq = rng.integers(1, 4, size=(2, 3))
        phase = rng.uniform(0, 2 * np.pi, size=(2, 3))
        phi, psi = (
            np.sum(c[:, None] * np.sin(f[:, None] * t[None, :] + ph[:, None]), axis=0)
            for c, f, ph in zip(coef, freq, phase)
        )

        def germ_fn(a, b, phi=phi, psi=psi):
            return (phi[a] * (psi[b] - psi[a]))[..., None]

        germ = Increment2(g64, germ_fn, (1,))
        lam = lambda_of(germ, mu, diagnostics=False)
        sewn = sew(germ, mu, diagnostics=False)
        js = np.arange(1, 65)
        recon = germ.fn(0, js) - (sewn.fn(0, js) + lam.fn(0, js))
        worst_recon = max(worst_recon, float(np.max(np.abs(recon))))
        lhs = holder_norm(lam, mu).value
        rhs = c_mu * split_holder_norm(delta2(germ), mu / 2, mu / 2)
        worst_ratio = max(worst_ratio, lhs / rhs)
    out.append(_result("algebra", "sewn-plus-remainder-reconstructs-germ", worst_recon, 1e-12))
    out.append(
        _result(
            "algebra",
            "sewing-remainder-bound",
            worst_ratio,
            1.0 + 1e-12,
            detail="constant 2 + 2^mu zeta(mu) at mu = 1.5",
        )
    )
    return out


# ---------------------------------------------------------------------------
# young: first-order compensated sums
# ---------------------------------------------------------------------------


def _check_young(fault: str | None) -> list[CheckResult]:
    out = []

    # int_0^1 t dt via left sums has relative error exactly 1/N
    errs = {}
    for n in (64, 128, 256):
        x = _linear_driver(n)
        z = YoungIntegrand(Path(x.grid, x.values[:, :, None]), rho=1.0)
        val = young_integral(z, x, 0, n)[0]
        errs[n] = abs(val - 0.5) / 0.5
    out.append(_result("young", "linear-self-integral", errs[256], 2.0 / 256, detail="target 1/2"))

    slope = -np.polyfit(np.log2(list(errs)), np.log2(list(errs.values())), 1)[0]
    out.append(
        _result("young", "first-order-refinement-rate", abs(slope - 1.0), 0.2, detail=f"slope={slope:.6f}")
    )

    # the integral is the sewn germ: identical prefix sums, no tolerance
    g = Grid(1.0, 64)
    rng = np.random.default_rng(3)
    x = _scalar_path(g, np.cumsum(np.concatenate([[0.0], rng.standard_normal(64)])) * 0.1)
    z = YoungIntegrand(Path(g, np.cos(x.values)[:, :, None]), rho=1.0)
    sewn = sew(young_germ(z, x), 1.5, diagnostics=False)
    worst = max(
        float(np.max(np.abs(young_integral(z, x, 0, j) - sewn.fn(0, j)))) for j in range(1, 65)
    )
    out.append(_result("young", "integral-equals-sewn-germ", worst, 0.0, detail="bitwise"))
    return out


# ---------------------------------------------------------------------------
# singular: weakly singular kernels
# ---------------------------------------------------------------------------


def _check_singular(fault: str | None) -> list[CheckResult]:
    out = []

    # psi = 1, alpha = 1/4: y(1) = 4/3 in closed form
    spec = KernelSpec(alpha=0.25, psi=matrix_func("ones"), gamma=1.0)
    errs = {}
    for n in (512, 1024):
        rep = solve(VolterraProblem("singular", 0.0, spec, _linear_driver(n)))
        errs[n] = abs(rep.solution.values[-1, 0] - 4.0 / 3.0)
    out.append(_result("singular", "explicit-kernel-endpoint", errs[512], 1e-2, detail="target 4/3"))
    out.append(
        _result(
            "singular",
            "endpoint-error-shrinks-under-refinement",
            errs[1024] / errs[512],
            1.0,
            detail=f"errors {errs[512]:.3e} -> {errs[1024]:.3e}",
        )
    )

    # the kernel increment (t-u)^(-a) - (s-u)^(-a) is never positive
    worst = -np.inf
    for s, t, step in ((0.5, 0.75, 0.05), (0.3, 1.0, 0.02)):
        for u in np.arange(0.0, s - 1e-9, step):
            worst = max(worst, kernel_increment(t, s, float(u), 0.25))
    out.append(_result("singular", "kernel-increment-nonpositive", worst, 0.0))

    # inadmissible exponent combinations are rejected by name
    try:
        KernelSpec(alpha=0.4, psi=matrix_func("ones"), gamma=0.8)  # gamma - alpha = 0.4 <= 1/2
        rejected = 1.0
        detail = "no error raised"
    except ValueError as e:
        rejected = 0.0
        detail = str(e)
    out.append(_result("singular", "inadmissible-exponents-rejected", rejected, 0.0, detail=detail))
    return out


# ---------------------------------------------------------------------------
# rough: second-level lift and second-order sums
# ---------------------------------------------------------------------------


def _check_rough(fault: str | None) -> list[CheckResult]:
    out = []
    n = 16
    g = Grid(1.0, n)
    rng = np.random.default_rng(11)
    x = Path(g, rng.standard_normal((n + 1, 2)) * 0.5)
    xx = levy_lift_piecewise_linear(x)

    # two-level consistency: the lift of a union of intervals is the sum of
    # the pieces plus the cross term delta x (x) delta x
    sign = -1.0 if fault == "chen-sign" else 1.0
    worst = 0.0
    for i in range(n + 1):
        for u in range(i, n + 1):
            for j in range(u, n + 1):
                cross = np.outer(x.values[u] - x.values[i], x.values[j] - x.values[u])
                defect = xx.fn(i, j) - xx.fn(i, u) - xx.fn(u, j) - sign * cross
                worst = max(worst, float(np.max(np.abs(defect))))
    out.append(
        _result(
            "rough",
            "two-level-consistency",
            worst,
            1e-13,
            detail="exhaustive triples at 16 cells" + (" [fault injected]" if fault == "chen-sign" else ""),
        )
    )

    # geometric lift: symmetric part is half the squared increment
    idx = np.arange(n + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    vals = xx.fn(ii, jj)
    dx = x.values[jj] - x.values[ii]
    sym_defect = vals + np.swapaxes(vals, -1, -2) - np.einsum("...a,...b->...ab", dx, dx)
    out.append(_result("rough", "symmetric-part-is-half-square", float(np.max(np.abs(sym_defect))), 1e-13))

    # self-integration has the exact closed form (x_T^2 - x_0^2) / 2
    g1 = Grid(1.0, 128)
    xs = _scalar_path(g1, np.sin(2.0 * g1.times) + 0.3)
    xxs = levy_lift_piecewise_linear(xs)
    z = ControlledPath(
        x=xs,
        y=Path(g1, xs.values[:, :, None]),
        yprime=Path(g1, np.ones((129, 1, 1, 1))),
        gamma=0.5,
        eta=1.0,
    )
    val = rough_integral(z, xs, xxs, 0, 128)[0]
    exact = 0.5 * (xs.values[-1, 0] ** 2 - xs.values[0, 0] ** 2)
    out.append(
        _result("rough", "self-integral-closed-form", abs(val - exact) / abs(exact), 1e-12)
    )
    return out


# ---------------------------------------------------------------------------
# signals: fractional Brownian drivers
# ---------------------------------------------------------------------------


def _check_signals(fault: str | None) -> list[CheckResult]:
    out = []

    # analytic covariance matrix is symmetric nonnegative definite
    ts = np.linspace(0.1, 1.0, 8)
    cov = np.array([[fbm_covariance(s, t, 0.75) for t in ts] for s in ts])
    eigmin = float(np.linalg.eigvalsh(cov).min())
    out.append(_result("signals", "analytic-covariance-psd", max(0.0, -eigmin), 1e-10))

    # one seed, one sample: bytes match on regeneration, zero at the origin
    spec = FbmSpec(hurst=0.75, dim=2, grid=Grid(1.0, 256), seed=42)
    a, b = generate_fbm(spec), generate_fbm(spec)
    max_dev = float(np.max(np.abs(a.values - b.values)))
    out.append(_result("signals", "seeded-regeneration-identical", max_dev, 0.0))
    out.append(_result("signals", "sample-starts-at-zero", float(np.max(np.abs(a.values[0]))), 0.0))

    # regularity estimator: exact on a linear path, near the target on a
    # seeded sample (the dyadic-max estimator biases slightly low)
    lin = _linear_driver(1024)
    est_lin = estimate_holder(lin).value
    out.append(_result("signals", "holder-estimate-linear-path", abs(est_lin - 1.0), 1e-10))
    sample = generate_fbm(FbmSpec(hurst=0.7, dim=1, grid=Grid(1.0, 2048), seed=99))
    est = estimate_holder(sample).value
    out.append(
        _result("signals", "holder-estimate-seeded-sample", abs(est - 0.7), 0.15, detail=f"estimate={est:.4f}")
    )
    return out


# ---------------------------------------------------------------------------
# solver: one forward-substitution sweep onto the fixed point
# ---------------------------------------------------------------------------


def _check_solver(fault: str | None) -> list[CheckResult]:
    out = []
    sin_field = separable_coefficient(scalar_func("one"), matrix_func("sin_plus", shift=2.0))

    # sigma = 0 fixes the initial value exactly
    g = Grid(1.0, 64)
    x = _scalar_path(g, np.sin(g.times))
    p = VolterraProblem(
        "young",
        2.0,
        separable_coefficient(scalar_func("one"), matrix_func("ones")),
        Path(g, np.zeros((65, 1))),
        gamma=0.75,
        kappa=0.9,
    )
    rep = solve(p)
    out.append(
        _result("solver", "zero-driver-fixed-point", float(np.max(np.abs(rep.solution.values - 2.0))), 0.0)
    )

    # quadratic ramp: the discrete endpoint error is 1/N identically
    n = 256
    ramp = separable_coefficient(scalar_func("linear"), matrix_func("ones"))
    rep = solve(VolterraProblem("young", 0.0, ramp, _linear_driver(n), gamma=1.0, kappa=0.9))
    rel = abs(rep.solution.values[-1, 0] - 0.5) / 0.5
    out.append(_result("solver", "ramp-error-identity", abs(rel * n - 1.0), 1e-9, detail="rel err = 1/N"))

    # windows tile the horizon and each a-posteriori window residual is below tolerance
    p = VolterraProblem("young", 1.0, linear_coefficient(1.0), x, gamma=0.75, kappa=0.9)
    rep = solve(p)
    tiled = rep.windows[0].start == 0 and rep.windows[-1].end == rep.solved_steps
    tiled = tiled and all(b.start == a.end for a, b in zip(rep.windows, rep.windows[1:]))
    tiled = tiled and all(w.final_residual < rep.tolerance for w in rep.windows)
    out.append(_result("solver", "windows-tile-horizon", 0.0 if tiled else 1.0, 0.0))

    # one-cell windows report the default tiling's fixed point: one sweep
    # writes the solution and the tiling shapes only the report, so this
    # reads 0.0; it guards against the windows reaching the solution again
    p = VolterraProblem("young", 1.0, sin_field, x, gamma=0.75, kappa=0.9)
    base = solve(p)
    again = solve(p, initial_window=1)
    dev = float(np.max(np.abs(base.solution.values - again.solution.values)))
    out.append(_result("solver", "fixed-point-unique", dev, 10 * base.tolerance, detail="window tilings"))
    return out


_SUITE_FNS = {
    "algebra": _check_algebra,
    "young": _check_young,
    "singular": _check_singular,
    "rough": _check_rough,
    "signals": _check_signals,
    "solver": _check_solver,
}


def run_suite(name: str, fault: str | None = None) -> list[CheckResult]:
    """Run one named suite; see `SUITES` for the valid names."""
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown check suite '{name}' (expected one of {', '.join(SUITES)} or all)")
    if fault is not None and fault not in FAULT_MODES:
        raise ValueError(f"unknown fault mode '{fault}' (expected one of {', '.join(FAULT_MODES)})")
    return _SUITE_FNS[name](fault)


def run_checks(suite: str = "all", fault: str | None = None) -> list[CheckResult]:
    """Run one suite or, with ``suite="all"``, every suite in order."""
    if suite == "all":
        out: list[CheckResult] = []
        for name in SUITES:
            out.extend(run_suite(name, fault))
        return out
    return run_suite(suite, fault)


def checks_report(results: list[CheckResult]) -> dict:
    """Plain-data report with a stable key order for serialization."""
    return {
        "version": 1,
        "passed": all(r.passed for r in results),
        "counts": {
            "total": len(results),
            "passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
        },
        "checks": [r.to_dict() for r in results],
    }
