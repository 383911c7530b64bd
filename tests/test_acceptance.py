"""End-to-end acceptance gate: one test per release criterion.

Each test prints one verdict line (criterion number, PASS/FAIL, measured
values, elapsed time) and asserts both the numerical target and the
runtime budget.  Oracles are independent of the code under test:
closed-form integrals, analytic covariances, high-resolution Riemann
sums, exact discrete identities, and fixed-seed self-convergence ladders
whose margins sit well away from the measured values.
"""
from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.special import zeta

from roughvolterra.algebra import (
    Grid,
    Increment2,
    Path,
    delta1,
    delta2,
    holder_norm,
    lambda_of,
    split_holder_norm,
)
from roughvolterra.coefficients import (
    linear_coefficient,
    matrix_func,
    scalar_func,
    separable_coefficient,
)
from roughvolterra.rough import (
    ControlledPath,
    levy_lift_piecewise_linear,
    lift_from_subgrid,
    rough_integral,
)
from roughvolterra.signals import FbmSpec, estimate_holder, fbm_covariance, generate_fbm
from roughvolterra.singular import KernelSpec
from roughvolterra.solver import VolterraProblem, solve
from roughvolterra.young import YoungIntegrand, young_integral


def verdict(num: int, name: str, ok: bool, detail: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    line = (
        f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} "
        f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)"
    )
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def linear_driver(n: int) -> Path:
    g = Grid(1.0, n)
    return Path(g, g.times.reshape(-1, 1))


def sine_driver(n: int) -> Path:
    g = Grid(1.0, n)
    return Path(g, np.sin(g.times).reshape(-1, 1))


def sin_plus_field():
    return separable_coefficient(scalar_func("one"), matrix_func("sin_plus", shift=2.0))


def test_criterion_01_increment_calculus_exact():
    started = time.monotonic()
    worst = 0.0
    for n in (8, 16, 32):
        g = Grid(1.0, n)
        rng = np.random.default_rng(n)
        p = Path(g, rng.uniform(-5, 5, size=(n + 1, 2)))
        d2 = delta2(delta1(p))
        idx = np.arange(n + 1)
        i, u, j = np.meshgrid(idx, idx, idx, indexing="ij")
        scale = float(np.max(np.abs(p.values)))
        worst = max(worst, float(np.max(np.abs(d2.fn(i, u, j)))) / scale)

        # product rule: the difference of f g splits into the two one-sided terms
        fv = rng.standard_normal(n + 1)
        hv = rng.standard_normal(n + 1)
        prod = delta1(Path(g, (fv * hv).reshape(-1, 1)))
        scale = max(1.0, float(np.max(np.abs(fv * hv))))
        for a in range(n):
            js = np.arange(a + 1, n + 1)
            rhs = (fv[js] - fv[a]) * hv[js] + fv[a] * (hv[js] - hv[a])
            worst = max(worst, float(np.max(np.abs(prod.fn(a, js)[:, 0] - rhs))) / scale)
    verdict(1, "increment calculus exact", worst <= 1e-12, f"max relative defect {worst:.2e} <= 1e-12", started, 1.0)


def test_criterion_02_sewing_remainder_bound():
    started = time.monotonic()
    mu = 1.5
    c_mu = 2.0 + 2.0**mu * float(zeta(mu))  # constant recomputed independently
    g = Grid(1.0, 64)
    t = g.times
    rng = np.random.default_rng(2024)
    violations = 0
    worst = 0.0
    for _ in range(20):
        def trig_sum():
            coef = rng.standard_normal(3)
            freq = rng.integers(1, 4, size=3)
            phase = rng.uniform(0, 2 * np.pi, size=3)
            return np.sum(coef[:, None] * np.sin(freq[:, None] * t[None, :] + phase[:, None]), axis=0)

        phi, psi = trig_sum(), trig_sum()

        def germ_fn(a, b, phi=phi, psi=psi):
            return (phi[a] * (psi[b] - psi[a]))[..., None]

        germ = Increment2(g, germ_fn, (1,))
        lam = lambda_of(germ, mu, diagnostics=False)
        lhs = holder_norm(lam, mu).value
        rhs = c_mu * split_holder_norm(delta2(germ), mu / 2, mu / 2)
        ratio = lhs / rhs
        worst = max(worst, ratio)
        violations += ratio > 1.0 + 1e-12
    verdict(2, "sewing remainder bound", violations == 0, f"20 germs, worst ratio {worst:.3f} <= 1", started, 10.0)


def test_criterion_03_first_order_integral_rate():
    started = time.monotonic()
    sizes = [1 << k for k in range(6, 13)]
    errs = []
    ok = True
    for n in sizes:
        x = linear_driver(n)
        z = YoungIntegrand(Path(x.grid, x.values[:, :, None]), rho=1.0)
        rel = abs(float(young_integral(z, x, 0, n)[0]) - 0.5) / 0.5
        errs.append(rel)
        ok = ok and rel <= 2.0 / n
    slope = -np.polyfit(np.log2(sizes), np.log2(errs), 1)[0]
    ok = ok and 0.8 <= slope <= 1.2
    verdict(3, "first-order integral rate", ok, f"rel err <= 2/N at 7 sizes, slope {slope:.3f} in [0.8, 1.2]", started, 5.0)


def test_criterion_04_two_level_consistency_exact():
    started = time.monotonic()
    n = 16
    g = Grid(1.0, n)
    rng = np.random.default_rng(3)
    x = Path(g, 0.25 * np.cumsum(np.vstack([np.zeros((1, 2)), rng.standard_normal((n, 2))]), axis=0))
    xx = levy_lift_piecewise_linear(x)
    worst = 0.0
    for i in range(n + 1):
        for u in range(i, n + 1):
            for j in range(u, n + 1):
                cross = np.outer(x.values[u] - x.values[i], x.values[j] - x.values[u])
                defect = xx.fn(i, j) - xx.fn(i, u) - xx.fn(u, j) - cross
                worst = max(worst, float(np.max(np.abs(defect))))
    idx = np.arange(n + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    vals = xx.fn(ii, jj)
    dx = x.values[jj] - x.values[ii]
    sym = float(np.max(np.abs(vals + np.swapaxes(vals, -1, -2) - np.einsum("...a,...b->...ab", dx, dx))))
    ok = worst <= 1e-13 and sym <= 1e-13
    verdict(4, "two-level consistency exact", ok, f"defect {worst:.2e}, symmetric part {sym:.2e} <= 1e-13", started, 1.0)


def test_criterion_05_second_order_vs_fine_riemann():
    started = time.monotonic()

    def xfun(t):
        return np.stack([np.sin(t), np.cos(t)], axis=1)

    def z_diag(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = x[..., 0]
        out[..., 1, 1] = x[..., 1]
        return out

    def g_diag(x):
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 1.0
        out[..., 1, 1, 1] = 1.0
        return out

    def z_row(x):
        out = np.zeros(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = np.sin(x[..., 1])
        out[..., 0, 1] = np.cos(x[..., 0])
        return out

    def g_row(x):
        out = np.zeros(x.shape[:-1] + (1, 2, 2))
        out[..., 0, 0, 1] = np.cos(x[..., 1])
        out[..., 0, 1, 0] = -np.sin(x[..., 0])
        return out

    def z_rot(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.cos(x[..., 0])
        out[..., 0, 1] = -np.sin(x[..., 1])
        out[..., 1, 0] = np.sin(x[..., 0])
        out[..., 1, 1] = np.cos(x[..., 1])
        return out

    def g_rot(x):
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = -np.sin(x[..., 0])
        out[..., 0, 1, 1] = -np.cos(x[..., 1])
        out[..., 1, 0, 0] = np.cos(x[..., 0])
        out[..., 1, 1, 1] = -np.sin(x[..., 1])
        return out

    g = Grid(1.0, 1024)
    x = Path(g, xfun(g.times))
    xx = levy_lift_piecewise_linear(x)
    tfine = np.linspace(0.0, 1.0, (1 << 21) + 1)
    xv = xfun(tfine)
    dx = np.diff(xv, axis=0)
    worst = 0.0
    for zf, gf in ((z_diag, g_diag), (z_row, g_row), (z_rot, g_rot)):
        z = ControlledPath(x, Path(g, zf(x.values)), Path(g, gf(x.values)), 1.0, 2.0)
        got = rough_integral(z, x, xx, 0, 1024)
        oracle = np.einsum("kdn,kn->kd", zf(xv[:-1]), dx).sum(axis=0)
        worst = max(worst, float(np.linalg.norm(got - oracle) / np.linalg.norm(oracle)))
    verdict(5, "second-order integral vs fine Riemann", worst <= 1e-3, f"worst relative error {worst:.2e} <= 1e-3 across 3 integrands", started, 5.0)


def test_criterion_06_first_order_volterra_exp_oracle():
    started = time.monotonic()
    p = VolterraProblem("young", 1.0, linear_coefficient(1.0), sine_driver(4096), gamma=0.75, kappa=0.9)
    rep = solve(p)
    target = float(np.exp(np.sin(1.0)))
    rel = abs(float(rep.solution.values[-1, 0]) - target) / target
    ok = rep.converged and rel <= 1e-3 and len(rep.windows) >= 2
    verdict(6, "first-order Volterra exp oracle", ok, f"rel err {rel:.2e} <= 1e-3, {len(rep.windows)} windows", started, 60.0)


def test_criterion_07_singular_kernel_power_oracle():
    started = time.monotonic()
    spec = KernelSpec(alpha=0.25, psi=matrix_func("ones"), gamma=1.0)
    errs = []
    for n in (1024, 2048, 4096):
        rep = solve(VolterraProblem("singular", 0.0, spec, linear_driver(n)))
        errs.append(abs(float(rep.solution.values[-1, 0]) - 4.0 / 3.0))
    rate = -np.polyfit(np.log2([1024, 2048, 4096]), np.log2(errs), 1)[0]
    ok = errs[-1] <= 1.4e-2 and rate > 0
    verdict(7, "singular kernel power oracle", ok, f"|y(1) - 4/3| = {errs[-1]:.2e} <= 1.4e-2, rate {rate:.3f} > 0", started, 120.0)


def test_criterion_08_abel_self_consistency():
    started = time.monotonic()
    spec = KernelSpec(alpha=0.25, psi=matrix_func("identity", d_dim=1), gamma=1.0)
    coarse = solve(VolterraProblem("singular", 1.0, spec, linear_driver(4096)))
    fine = solve(VolterraProblem("singular", 1.0, spec, linear_driver(16384)))
    c = coarse.solution.values[:, 0]
    f = fine.solution.values[::4, 0]
    rel = float(np.abs(c - f).max() / np.abs(f).max())
    verdict(8, "Abel-type self-consistency", rel <= 1e-2, f"rel sup dev vs 4x grid {rel:.2e} <= 1e-2", started, 180.0)


def test_criterion_09_second_order_exp_oracle():
    started = time.monotonic()
    x = linear_driver(2048)
    xx = levy_lift_piecewise_linear(x)
    p = VolterraProblem("rough", 1.0, linear_coefficient(1.0), x, gamma=0.5, kappa=0.5, lift=xx)
    rep = solve(p)
    rel = abs(float(rep.solution.values[-1, 0]) - np.e) / np.e
    ok = rep.converged and rel <= 1e-3
    verdict(9, "second-order exp oracle", ok, f"rel err {rel:.2e} <= 1e-3", started, 120.0)


def test_criterion_10_fixed_point_uniqueness():
    started = time.monotonic()
    n = 512
    sine = sine_driver(n)
    problems = {
        "young": (solve, VolterraProblem("young", 1.0, sin_plus_field(), sine, gamma=0.75, kappa=0.9)),
        "singular": (
            solve,
            VolterraProblem(
                "singular", 1.0, KernelSpec(alpha=0.25, psi=matrix_func("identity", d_dim=1), gamma=1.0), linear_driver(n)
            ),
        ),
        "rough": (
            solve,
            VolterraProblem(
                "rough", 1.0, sin_plus_field(), sine, gamma=0.5, kappa=0.5,
                lift=levy_lift_piecewise_linear(sine),
            ),
        ),
    }
    # one sweep over all rows writes the solution and the window tiling only
    # partitions the report, so every tiling reads a deviation of 0.0
    devs = {}
    ok = True
    for name, (fn, p) in problems.items():
        base = fn(p)
        ok = ok and base.converged
        for window in (1, 64, n):
            again = fn(p, initial_window=window)
            dev = float(np.max(np.abs(base.solution.values - again.solution.values)))
            devs[f"{name}/{window}"] = dev
            ok = ok and again.converged and dev <= 10 * base.tolerance
    detail = ", ".join(f"{k} {v:.1e}" for k, v in devs.items())
    verdict(10, "fixed-point uniqueness", ok, f"window-tiling deviations {detail} <= 10*tol", started, 300.0)


def test_criterion_11_fbm_statistics():
    started = time.monotonic()
    # Monte Carlo covariance: 10^4 independent components in one batch
    hurst, n = 0.75, 64
    p = generate_fbm(FbmSpec(hurst=hurst, dim=10_000, grid=Grid(1.0, n), seed=90210, method="cholesky"))
    t = p.grid.times
    pairs = [(8, 8), (16, 48), (32, 32), (8, 56), (24, 40), (64, 64), (16, 16), (40, 64)]
    worst_sigmas = 0.0
    for i, j in pairs:
        want = fbm_covariance(t[i], t[j], hurst)
        prod = p.values[i] * p.values[j]
        var = want**2 + fbm_covariance(t[i], t[i], hurst) * fbm_covariance(t[j], t[j], hurst)
        se = float(np.sqrt(var / prod.size))
        worst_sigmas = max(worst_sigmas, abs(float(prod.mean()) - want) / se)
    # regularity estimation: mean fitted exponent over 20 seeds near H
    g = Grid(1.0, 1 << 14)
    vals = [estimate_holder(generate_fbm(FbmSpec(hurst=0.7, dim=1, grid=g, seed=s))).value for s in range(20)]
    est_dev = abs(float(np.mean(vals)) - 0.7)
    ok = worst_sigmas <= 3.0 and est_dev <= 0.1
    verdict(
        11,
        "fbm statistics",
        ok,
        f"covariance within {worst_sigmas:.2f} SE (<= 3) on 8 pairs, exponent dev {est_dev:.3f} <= 0.1",
        started,
        120.0,
    )


def test_criterion_12_fbm_driven_solves():
    started = time.monotonic()
    field = sin_plus_field()

    # persistent driver, first-order regime: fixed-seed self-convergence
    master = generate_fbm(FbmSpec(hurst=0.75, dim=1, grid=Grid(1.0, 2048), seed=31))
    meta = {"hurst": 0.75, "seed": 31}
    sols = {}
    for n in (256, 512, 1024, 2048):
        x = master.restrict(2048 // n)
        p = VolterraProblem("young", 1.0, field, x, gamma=0.75, kappa=0.9, driver_meta=meta)
        rep = solve(p)
        assert rep.converged
        sols[n] = rep.solution.values[:, 0]
    ns = np.array([256, 512, 1024])
    diffs = [float(np.abs(sols[n] - sols[2 * n][::2]).max()) for n in ns]
    young_slope = -np.polyfit(np.log2(ns), np.log2(diffs), 1)[0]

    # antipersistent driver, second-order regime: shared-area ladder
    master2 = generate_fbm(FbmSpec(hurst=0.4, dim=1, grid=Grid(1.0, 2048), seed=99))
    meta2 = {"hurst": 0.4, "seed": 99}
    sols2 = {}
    for n in (128, 256, 512, 1024, 2048):
        x, xx = lift_from_subgrid(master2, 2048 // n)
        p = VolterraProblem("rough", 0.5, field, x, gamma=0.4, kappa=0.6, lift=xx, driver_meta=meta2)
        rep = solve(p)
        assert rep.converged
        sols2[n] = rep.solution.values[:, 0]
    ns2 = np.array([128, 256, 512, 1024])
    diffs2 = [float(np.abs(sols2[n] - sols2[2 * n][::2]).max()) for n in ns2]
    rough_slope = -np.polyfit(np.log2(ns2), np.log2(diffs2), 1)[0]

    ok = young_slope >= 0.35 and rough_slope > 0
    verdict(
        12,
        "fbm-driven solves",
        ok,
        f"first-order slope {young_slope:.3f} >= 0.35, second-order slope {rough_slope:.3f} > 0",
        started,
        600.0,
    )
