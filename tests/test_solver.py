"""Windowed fixed-point solvers: oracles, continuation mechanics, reports.

Expected values come from independent sources: closed-form solutions of
the underlying integral equations (exponentials, power functions), a
high-accuracy Runge-Kutta integration of the equivalent ODE for smooth
drivers, exact discrete identities of the left-point quadrature (whose
endpoint error on the quadratic ramp is 1/N by direct summation), and
self-refinement against the same solver on a finer grid restricted back.
Statistical targets (fractional-Brownian drivers) use fixed seeds with
margins well away from the measured values.
"""
from __future__ import annotations

import dataclasses
import functools
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from roughvolterra import solver
from roughvolterra.algebra import Grid, Path, path_holder_norm
from roughvolterra.coefficients import (
    Coefficient,
    Modes,
    _from_modes,
    constant_coefficient,
    linear_coefficient,
    matrix_func,
    scalar_func,
    separable_coefficient,
    trig_coefficient,
)
from roughvolterra.rough import (
    ControlledPath,
    levy_lift_piecewise_linear,
    lift_from_subgrid,
    volterra_remainder_rough,
)
from roughvolterra.signals import FbmSpec, generate_fbm
from roughvolterra.singular import KernelSpec, singular_increment, singular_row_sum
from roughvolterra.solver import (
    DEFAULT_TOL_FBM,
    DEFAULT_TOL_SMOOTH,
    SolverReport,
    VolterraProblem,
    solve,
    validate_problem,
)
from roughvolterra.young import volterra_increment_young


def linear_driver(n: int, horizon: float = 1.0) -> Path:
    g = Grid(horizon, n)
    return Path(g, g.times.reshape(-1, 1))


def sine_driver(n: int, horizon: float = 1.0) -> Path:
    g = Grid(horizon, n)
    return Path(g, np.sin(g.times).reshape(-1, 1))


def sin_plus_field():
    """sigma(t, u, y) = sin(y) + 2: bounded, smooth, never vanishing."""
    return separable_coefficient(scalar_func("one"), matrix_func("sin_plus", shift=2.0))


def ramp_field():
    """sigma(t, u, y) = t - u: turns the linear driver into a quadratic ramp."""
    return separable_coefficient(scalar_func("linear"), matrix_func("ones"))


def abel_kernel() -> KernelSpec:
    """Kernel (t - u)^(-1/4) with psi(y) = y."""
    return KernelSpec(alpha=0.25, psi=matrix_func("identity", d_dim=1), gamma=1.0)


def ode_solution(rhs, y0: float, times: np.ndarray) -> np.ndarray:
    sol = solve_ivp(rhs, (times[0], times[-1]), [y0], rtol=1e-11, atol=1e-12, dense_output=True)
    return sol.sol(times)[0]


def assert_windows_tile(report: SolverReport) -> None:
    """Converged windows cover [0, solved_steps] back to back; a trailing
    failed record (if any) starts exactly where coverage stops."""
    windows = report.windows
    assert windows[0].start == 0
    for left, right in zip(windows, windows[1:]):
        assert right.start == left.end
    accepted = [w for w in windows if w.converged]
    if accepted:
        assert accepted[-1].end == report.solved_steps
    else:
        assert report.solved_steps == 0
    if not windows[-1].converged:
        assert windows[-1].start == report.solved_steps


# ---------------------------------------------------------------------------
# Problem validation
# ---------------------------------------------------------------------------


class TestProblemValidation:
    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="unknown regime"):
            VolterraProblem("elliptic", 1.0, linear_coefficient(1.0), linear_driver(8), gamma=0.75, kappa=0.9)

    def test_driver_must_be_vector(self):
        g = Grid(1.0, 8)
        matrix_path = Path(g, np.ones((9, 2, 2)))
        with pytest.raises(ValueError, match="vector path"):
            VolterraProblem("young", 1.0, linear_coefficient(1.0), matrix_path, gamma=0.75, kappa=0.9)

    def test_initial_value_must_be_finite(self):
        with pytest.raises(ValueError, match="initial value must be finite"):
            VolterraProblem("young", np.nan, linear_coefficient(1.0), linear_driver(8), gamma=0.75, kappa=0.9)

    def test_singular_requires_kernel(self):
        with pytest.raises(ValueError, match="requires a KernelSpec"):
            VolterraProblem("singular", 1.0, linear_coefficient(1.0), linear_driver(8), gamma=1.0, kappa=0.5)

    def test_young_rejects_kernel(self):
        with pytest.raises(ValueError, match="requires a Coefficient"):
            VolterraProblem("young", 1.0, abel_kernel(), linear_driver(8), gamma=0.75, kappa=0.9)

    def test_young_requires_exponents(self):
        with pytest.raises(ValueError, match="explicit gamma and kappa"):
            VolterraProblem("young", 1.0, linear_coefficient(1.0), linear_driver(8), gamma=0.75)

    def test_young_gamma_range(self):
        with pytest.raises(ValueError, match=re.escape("gamma in (1/2, 1]")):
            VolterraProblem("young", 1.0, linear_coefficient(1.0), linear_driver(8), gamma=0.4, kappa=0.9)

    def test_young_exponent_product(self):
        with pytest.raises(ValueError, match=re.escape("kappa (1 + gamma) > 1")):
            VolterraProblem("young", 1.0, linear_coefficient(1.0), linear_driver(8), gamma=0.75, kappa=0.5)

    def test_rough_gamma_range(self):
        x = linear_driver(8)
        xx = levy_lift_piecewise_linear(x)
        with pytest.raises(ValueError, match=re.escape("gamma in (1/3, 1/2]")):
            VolterraProblem("rough", 1.0, linear_coefficient(1.0), x, gamma=0.6, kappa=0.5, lift=xx)

    def test_rough_exponent_product(self):
        x = linear_driver(8)
        xx = levy_lift_piecewise_linear(x)
        with pytest.raises(ValueError, match=re.escape("gamma (kappa + 2) > 1")):
            VolterraProblem("rough", 1.0, linear_coefficient(1.0), x, gamma=0.4, kappa=0.4, lift=xx)

    @pytest.mark.parametrize("regime,gamma", [("young", 0.75), ("rough", 0.4)])
    def test_kappa_is_a_holder_exponent(self, regime, gamma):
        x = linear_driver(8)
        lift = levy_lift_piecewise_linear(x) if regime == "rough" else None
        with pytest.raises(ValueError, match=re.escape(f"{regime} regime requires kappa <= 1")):
            VolterraProblem(regime, 1.0, linear_coefficient(1.0), x, gamma=gamma, kappa=1e300, lift=lift)

    def test_rough_requires_lift(self):
        with pytest.raises(ValueError, match="lift"):
            VolterraProblem("rough", 1.0, linear_coefficient(1.0), linear_driver(8), gamma=0.5, kappa=0.5)

    def test_lift_must_match_driver(self):
        x = linear_driver(16)
        other = levy_lift_piecewise_linear(linear_driver(8))
        with pytest.raises(ValueError, match="lift does not match the driver"):
            VolterraProblem("rough", 1.0, linear_coefficient(1.0), x, gamma=0.5, kappa=0.5, lift=other)

    def test_initial_value_shape(self):
        with pytest.raises(ValueError, match="initial value has shape"):
            VolterraProblem("young", [1.0, 2.0], linear_coefficient(1.0), linear_driver(8), gamma=0.75, kappa=0.9)

    def test_driver_dimension(self):
        g = Grid(1.0, 8)
        wide = Path(g, np.ones((9, 2)) * g.times.reshape(-1, 1))
        with pytest.raises(ValueError, match="driver has dimension"):
            VolterraProblem("young", 1.0, linear_coefficient(1.0), wide, gamma=0.75, kappa=0.9)

    def test_validate_accepts_well_posed_problem(self):
        p = VolterraProblem("young", 1.0, linear_coefficient(1.0), sine_driver(8), gamma=0.75, kappa=0.9)
        validate_problem(p)  # idempotent on a valid problem
        assert p.d_dim == 1 and p.n_dim == 1 and p.grid.n_steps == 8

    def test_singular_copies_kernel_exponents(self):
        spec = abel_kernel()
        p = VolterraProblem("singular", 1.0, spec, linear_driver(8))
        assert p.gamma == spec.gamma
        assert p.kappa == spec.kappa


# ---------------------------------------------------------------------------
# First-order regime (drivers above exponent 1/2)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exp_sine_report() -> SolverReport:
    """y' = y cos t, y(0) = 1, written as int y dx with x = sin t."""
    p = VolterraProblem("young", 1.0, linear_coefficient(1.0), sine_driver(4096), gamma=0.75, kappa=0.9)
    return solve(p)


class TestYoungSolver:
    def test_zero_field_returns_initial_value(self):
        p = VolterraProblem("young", -2.5, constant_coefficient(0.0), sine_driver(64), gamma=0.75, kappa=0.9)
        rep = solve(p)
        assert rep.converged
        assert np.array_equal(rep.solution.values, np.full((65, 1), -2.5))
        assert all(w.iterations == 1 for w in rep.windows)

    def test_constant_field_reproduces_linear_solution_exactly(self):
        # On a dyadic grid with unit horizon every cell increment of the
        # linear driver is an exact binary fraction, so the accumulated
        # solution matches a + c t without rounding.
        x = linear_driver(256)
        p = VolterraProblem("young", -0.75, constant_coefficient(1.5), x, gamma=1.0, kappa=0.9)
        rep = solve(p)
        expected = -0.75 + 1.5 * x.grid.times
        assert np.array_equal(rep.solution.values[:, 0], expected)

    def test_exponential_of_sine_oracle(self, exp_sine_report):
        rep = exp_sine_report
        times = rep.solution.grid.times
        truth = np.exp(np.sin(times))
        rel_end = abs(rep.solution.values[-1, 0] - truth[-1]) / truth[-1]
        rel_sup = np.abs(rep.solution.values[:, 0] - truth).max() / truth.max()
        assert rep.converged
        assert rep.t_solved == 1.0
        assert len(rep.windows) >= 2
        assert rel_end <= 2e-4  # measured 8.9e-5 at 4096 cells
        assert rel_sup <= 1e-3

    def test_quadratic_ramp_error_is_exactly_one_over_n(self):
        # sigma(t, u, y) = t - u against dx = du gives y(1) = 1/2; the
        # left-point quadrature sums (1 - l/N)/N = (N + 1)/(2N), so the
        # relative endpoint error is 1/N identically.
        n = 2048
        p = VolterraProblem("young", 0.0, ramp_field(), linear_driver(n), gamma=1.0, kappa=0.9)
        rep = solve(p)
        rel = abs(rep.solution.values[-1, 0] - 0.5) / 0.5
        assert rel == pytest.approx(1.0 / n, rel=1e-9)

    def test_quadratic_ramp_meets_absolute_target_when_refined(self):
        n = 16384
        p = VolterraProblem("young", 0.0, ramp_field(), linear_driver(n), gamma=1.0, kappa=0.9)
        rep = solve(p)
        rel = abs(rep.solution.values[-1, 0] - 0.5) / 0.5
        assert rel <= 1e-4  # exactly 1/16384 ~ 6.1e-5

    def test_agrees_with_runge_kutta_on_smooth_equation(self):
        # y' = (sin y + 2) cos t via x = sin t; oracle is an independent
        # high-order adaptive integrator on the equivalent ODE.
        x = sine_driver(2048)
        p = VolterraProblem("young", 0.5, sin_plus_field(), x, gamma=0.75, kappa=0.9)
        rep = solve(p)
        truth = ode_solution(lambda t, y: (np.sin(y) + 2.0) * np.cos(t), 0.5, x.grid.times)
        rel_sup = np.abs(rep.solution.values[:, 0] - truth).max() / np.abs(truth).max()
        assert rep.converged
        assert rel_sup <= 5e-4  # measured 4.9e-5


# ---------------------------------------------------------------------------
# Weakly singular kernels
# ---------------------------------------------------------------------------


class TestSingularSolver:
    def test_zero_driver_returns_initial_value(self):
        g = Grid(1.0, 64)
        flat = Path(g, np.zeros((65, 1)))
        p = VolterraProblem("singular", 3.0, abel_kernel(), flat)
        rep = solve(p)
        assert rep.converged
        assert np.array_equal(rep.solution.values, np.full((65, 1), 3.0))
        assert all(w.iterations == 1 for w in rep.windows)

    def test_power_kernel_closed_form_and_refinement_rate(self):
        # psi = 1 makes the equation explicit: y(t) = t^(3/4) / (3/4),
        # so y(1) = 4/3.  The endpoint error must shrink with a positive
        # dyadic rate (measured 0.72, consistent with 1 - alpha = 3/4).
        spec = KernelSpec(alpha=0.25, psi=matrix_func("ones"), gamma=1.0)
        errs = []
        for n in (1024, 2048, 4096):
            rep = solve(VolterraProblem("singular", 0.0, spec, linear_driver(n)))
            assert rep.converged
            errs.append(abs(rep.solution.values[-1, 0] - 4.0 / 3.0))
        assert errs[-1] / (4.0 / 3.0) <= 1e-2  # measured 1.1e-3 at 4096
        assert errs[0] > errs[1] > errs[2]
        rate = -np.polyfit(np.log2([1024, 2048, 4096]), np.log2(errs), 1)[0]
        assert rate >= 0.5  # measured 0.725

    def test_abel_equation_stable_under_refinement(self):
        # No closed form with psi(y) = y; the oracle is the same scheme on
        # a 4x finer grid restricted back to the coarse one.
        coarse = solve(VolterraProblem("singular", 1.0, abel_kernel(), linear_driver(2048)))
        fine = solve(VolterraProblem("singular", 1.0, abel_kernel(), linear_driver(8192)))
        c = coarse.solution.values[:, 0]
        f = fine.solution.values[::4, 0]
        assert coarse.converged and fine.converged
        assert np.abs(c - f).max() / np.abs(f).max() <= 1e-2  # measured 4.6e-3


def direct_singular_solution(p: VolterraProblem) -> np.ndarray:
    """Forward substitution row by row over every earlier cell: O(n^2), no windows, no FFT."""
    t, dx = p.grid.times, p.driver.cells()
    y = np.tile(p.a, (p.grid.n_steps + 1, 1))
    for m in range(1, len(y)):
        y[m] = p.a + singular_row_sum(p.coefficient, t[m], t[:m], dx[:m], y[:m])
    return y


def window_schedule(n: int, first: int) -> list[tuple[int, int]]:
    """The solver's windows when none fails: ``first`` cells, then 1.5x growth capped at n / 2."""
    spans, start, width = [], 0, first
    while start < n:
        spans.append((start, min(start + width, n)))
        start = spans[-1][1]
        width = min(int(width * 1.5), max(n // 2, 1))
    return spans


CONVOLUTION_PSI = {
    "ones": lambda: matrix_func("ones"),
    "sin_plus": lambda: matrix_func("sin_plus", shift=1.0),
    "identity2": lambda: matrix_func("identity", d_dim=2),
}


@functools.lru_cache(maxsize=None)
def convolution_case(n: int, alpha: float, psi: str) -> tuple[VolterraProblem, np.ndarray]:
    g = Grid(1.0, n)
    if psi == "identity2":
        driver = Path(g, np.column_stack([np.sin(g.times), 0.5 * g.times**2]))
        a = [1.0, -0.5]
    else:
        driver, a = sine_driver(n), 0.5
    p = VolterraProblem("singular", a, KernelSpec(alpha, CONVOLUTION_PSI[psi](), gamma=1.0), driver)
    return p, direct_singular_solution(p)


class TestSingularConvolution:
    """The singular sweep (blocked forward substitution, FFT block sums) against the direct O(n^2) one."""

    @pytest.mark.parametrize("first", [1, 3, None], ids=["window-1", "window-3", "window-default"])
    @pytest.mark.parametrize("psi", sorted(CONVOLUTION_PSI))
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.45])
    @pytest.mark.parametrize("n", [64, 512, 4096])
    def test_matches_direct_forward_substitution(self, n, alpha, psi, first):
        p, want = convolution_case(n, alpha, psi)
        rep = solve(p, initial_window=first)
        assert rep.converged
        got = rep.solution.values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()  # measured <= 4.5e-15
        schedule = window_schedule(n, first or n // 4)
        assert [(w.start, w.end) for w in rep.windows] == schedule
        assert all(w.iterations == 1 and w.final_residual < rep.tolerance for w in rep.windows)

    def test_overflow_fails_at_the_same_row_without_warnings(self):
        # y_1 = 4.4e303 is finite but g_1 = psi(y_1) dx_1 overflows to inf;
        # the direct row sum reads inf at row 2, and so must the solver,
        # where an FFT over that cell would read nan: the sweep stops there,
        # and the report accepts row 1 and records the failed cell [1, 2]
        g = Grid(1.0, 64)
        p = VolterraProblem("singular", 1.0, abel_kernel(), Path(g, 1e305 * g.times[:, None]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(p)
        assert rep.solved_steps == 1
        assert [(w.start, w.end, w.converged, w.final_residual) for w in rep.windows] == [
            (0, 1, True, 0.0), (1, 2, False, np.inf)
        ]
        assert np.isfinite(rep.solution.values).all()
        # the accepted window's Hölder-1/2 norm is finite although its increment squared is not
        assert rep.windows[0].holder_norm == pytest.approx(4.419417382415922e303 * 8.0, rel=1e-15)
        assert rep.windows[1].holder_norm == np.inf

    def test_late_overflow_halves_through_the_same_windows(self):
        # the solution reaches 3.6e307 at row 286: the sweep overflows at row
        # 287 inside an FFT-summed block, the row direct row sums fail at
        # (they printed 641 numpy warnings on the way), so the second window
        # of the schedule, 384 rows, ends at 286 before the failed cell [286, 287]
        g = Grid(1.0, 1024)
        x = Path(g, 2e3 * np.column_stack([g.times, -g.times]))
        k = KernelSpec(alpha=0.25, psi=matrix_func("identity", d_dim=2), gamma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(VolterraProblem("singular", [1.0, 1.0], k, x))
        assert [(w.start, w.end) for w in rep.windows] == [(0, 256), (256, 286), (286, 287)]
        assert (rep.windows[-1].final_residual, rep.windows[-1].holder_norm) == (np.inf, np.inf)
        assert rep.solution.values[286, 0] == pytest.approx(3.55022084e307, rel=1e-8)


MODAL_PHI = {
    "one": lambda: scalar_func("one"),
    "linear": lambda: scalar_func("linear"),
    "exp_decay": lambda: scalar_func("exp_decay", rate=2.0),
    "cos": lambda: scalar_func("cos", freq=3.0),
}
MODAL_PSI = {"sin_plus": lambda: matrix_func("sin_plus", shift=1.0), "identity": lambda: matrix_func("identity", d_dim=2)}
MODAL_FAMILIES = ["constant", "linear", "trig", *(f"{phi}-{psi}" for phi in MODAL_PHI for psi in MODAL_PSI)]


def modal_coefficient(family: str) -> Coefficient:
    """A built-in family by test name: constant, linear (d = 2), trig (d = n = 2) or phi-psi separable."""
    if family == "constant":
        return constant_coefficient(0.7)
    if family == "linear":
        a = np.array([[[0.5, -0.2], [0.1, 0.3]], [[-0.4, 0.2], [0.6, -0.1]]])
        return linear_coefficient(a, b=[[0.2, -0.3], [0.1, 0.4]], d_dim=2, n_dim=2)
    if family == "trig":
        return trig_coefficient(
            amp=[[0.5, -0.3], [0.2, 0.4]], t_freq=1.0, u_freq=0.5, y_weights=[0.3, -0.5],
            phase=[[0.1, 0.7], [-0.4, 1.2]], d_dim=2, n_dim=2,
        )
    if family == "two-modes":
        return two_mode_coefficient()
    phi, psi = family.split("-")
    return separable_coefficient(MODAL_PHI[phi](), MODAL_PSI[psi]())


def two_mode_coefficient() -> Coefficient:
    """A custom `Modes` with K = 2 (d = 1, n = 2): a real decaying mode e^(-2 v) B_0(y) and a
    complex one v e^((-1 + 3i) v) B_1(u, y) of lag power 1."""
    w = 0.4 - 0.2j

    def value(us, ys):
        y, rot = np.asarray(ys)[..., 0], w * np.exp(1j * np.asarray(us))[..., None]
        b0 = np.stack([np.sin(y) + 1.5, 0.5 * np.cos(y)], -1)
        b1 = rot * np.stack([np.cos(y), 1.0 + 0.3 * y], -1)
        return np.stack([b0 + 0j, b1], -2)[..., None, :]  # (..., K, d, n)

    def jac(us, ys, b):
        y, rot = np.asarray(ys)[..., 0], w * np.exp(1j * np.asarray(us))[..., None]
        j0 = np.stack([np.cos(y), -0.5 * np.sin(y)], -1)
        j1 = rot * np.stack([-np.sin(y), np.full_like(y, 0.3)], -1)
        return np.stack([j0 + 0j, j1], -2)[..., None, :, None]  # (..., K, d, n, d)

    return _from_modes(1, 2, Modes(np.array([-2.0, -1.0 + 3.0j]), np.array([0, 1]), value, jac), "two-modes")


def without_modes(c: Coefficient) -> Coefficient:
    """The same sigma with no modes: the solver sums its rows."""
    return dataclasses.replace(c, modes=None, validate=False)


@functools.lru_cache(maxsize=None)
def modal_case(regime: str, n: int, family: str) -> tuple[VolterraProblem, SolverReport]:
    """A built-in family against fBm (H = 0.75 young; H = 0.4 lifted from a 2x finer grid, rough),
    with the row-sum solve of the same sigma without its modes, default windows."""
    sigma = modal_coefficient(family)
    a = np.linspace(0.5, -0.5, sigma.d_dim)
    if regime == "young":
        x = generate_fbm(FbmSpec(hurst=0.75, dim=sigma.n_dim, grid=Grid(1.0, n), seed=7))
        p = VolterraProblem("young", a, sigma, x, gamma=0.7, kappa=0.9)
    else:
        fine = generate_fbm(FbmSpec(hurst=0.4, dim=sigma.n_dim, grid=Grid(1.0, 2 * n), seed=99))
        x, xx = lift_from_subgrid(fine, 2)
        p = VolterraProblem("rough", a, sigma, x, gamma=0.38, kappa=0.7, lift=xx)
    return p, solve(dataclasses.replace(p, coefficient=without_modes(sigma)))


def assert_close_relative(got: np.ndarray, want: np.ndarray, rel: float) -> None:
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def assert_settles_on(rep: SolverReport, schedule: list[tuple[int, int]]) -> None:
    assert rep.converged
    assert [(w.start, w.end) for w in rep.windows] == schedule
    assert all(w.iterations == 1 and w.final_residual < rep.tolerance for w in rep.windows)


class TestModalSums:
    """The convolution over a built-in family's modes against the row sums of the same sigma.

    The row-sum reference is solved once per problem, on the default
    windows: another tiling changes only its report.
    """

    @pytest.mark.parametrize("first", [1, 3, None], ids=["window-1", "window-3", "window-default"])
    @pytest.mark.parametrize("family", MODAL_FAMILIES)
    @pytest.mark.parametrize("n", [64, 512, 2048])
    @pytest.mark.parametrize("regime", ["young", "rough"])
    def test_matches_row_sums(self, regime, n, family, first):
        p, rows = modal_case(regime, n, family)
        assert_settles_on(rows, window_schedule(n, n // 4))
        # the modal solve never evaluates sigma itself
        sigma = dataclasses.replace(p.coefficient, validate=False)
        for method in ("eval_many", "d3_many", "diagonal_many"):
            setattr(sigma, method, None)
        rep = solve(dataclasses.replace(p, coefficient=sigma), initial_window=first)
        assert_settles_on(rep, window_schedule(n, first or n // 4))
        assert_close_relative(rep.solution.values, rows.solution.values, 1e-12)  # measured <= 2.4e-14
        if regime == "rough":
            assert_close_relative(rep.yprime.values, rows.yprime.values, 1e-12)

    def test_fast_decay_stays_finite(self):
        # e^(1000 u) overflows past u = 0.71; the weights e^(-1000 (t - u)) never exceed 1
        g = Grid(1.0, 4096)
        sigma = separable_coefficient(scalar_func("exp_decay", rate=1000.0), matrix_func("sin_plus", shift=1.0))
        p = VolterraProblem("young", 0.5, sigma, Path(g, np.sin(3.0 * g.times)[:, None]), gamma=1.0, kappa=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(p)
        rows = solve(dataclasses.replace(p, coefficient=without_modes(sigma)))
        assert rep.converged and np.isfinite(rep.solution.values).all()
        assert_close_relative(rep.solution.values, rows.solution.values, 1e-12)

    @pytest.mark.parametrize("rate", [-10.0, -40.0])
    def test_growing_mode_matches_row_sums_row_by_row(self, rate):
        # e^(-rate (t - u)) grows to 2e4 (rate -10) and 2e17 (rate -40); an FFT
        # rounds relative to its largest term, so block sums with unscaled
        # weights read a pointwise error of 6.4e-8 at t ~ 0.5 (rate -40)
        sigma = separable_coefficient(scalar_func("exp_decay", rate=rate), matrix_func("sin_plus", shift=1.0))
        g = Grid(1.0, 4096)
        p = VolterraProblem("young", 1.0, sigma, Path(g, np.sin(3 * g.times).reshape(-1, 1)), gamma=0.75, kappa=0.9)
        got = solve(p).solution.values
        want = solve(dataclasses.replace(p, coefficient=without_modes(sigma))).solution.values
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))  # measured <= 6.6e-15

    @pytest.mark.parametrize("path", ["modes", "rows"])
    def test_overflow_stops_at_the_first_non_finite_row(self, path):
        # sigma ~ 1e300 against increments of 15.6 overflows in the first
        # row: the sweep stops there and the report records the failed cell [0, 1], inf on both
        # paths, without evaluating sigma at a non-finite state (the row
        # sums printed 57 numpy warnings when they ran on past it)
        g = Grid(1.0, 64)
        x = Path(g, 1e3 * np.column_stack([g.times, g.times]))
        sigma = trig_coefficient(amp=1e300, d_dim=1, n_dim=2)
        if path == "rows":
            sigma = Coefficient(1, 2, sigma.eval_many, sigma.d3_many, name="custom trig")
        p = VolterraProblem("rough", 0.5, sigma, x, gamma=0.5, kappa=0.5, lift=levy_lift_piecewise_linear(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(p)
        assert rep.solved_steps == 0
        assert [(w.start, w.end, w.converged, w.final_residual, w.holder_norm) for w in rep.windows] == [
            (0, 1, False, np.inf, np.inf)
        ]
        assert np.isfinite(rep.solution.values).all()


def leaf_blocks(lo: int, hi: int) -> list[tuple[int, int]]:
    """The row blocks [lo, hi) that `_Convolution` solves row by row: halves until at most `LEAF_ROWS` rows."""
    if hi - lo <= solver.LEAF_ROWS:
        return [(lo, hi)]
    mid = (lo + hi) // 2
    return leaf_blocks(lo, mid) + leaf_blocks(mid, hi)


class TestConvolutionLeaves:
    """The leaf loop of `_Convolution`: its flat mode layout, its finiteness check and its B evaluations."""

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_first_non_finite_row_at_a_leaf_edge(self, at):
        # sigma = y against a driver that jumps by 1e308 at cell r - 1: y_(r-1) dx_(r-1) >= 2e308
        # overflows, so row r is the first non-finite one.  The third leaf of n = 256 reads its
        # history through FFT block sums; the leaf checks its rows once, after its loop, and must
        # report r wherever r falls in it, as the row sums do row by row.
        n = 256
        lo, hi = leaf_blocks(1, n + 1)[2]
        assert (lo, hi) == (129, 193)
        r = {"first": lo, "middle": (lo + hi) // 2, "last": hi - 1}[at]
        g = Grid(1.0, n)
        x = Path(g, (g.times + np.where(np.arange(n + 1) >= r, 1e308, 0.0))[:, None])
        p = VolterraProblem("young", 2.0, linear_coefficient(1.0), x, gamma=1.0, kappa=0.9)
        reports = {}
        for path, sigma in (("modes", p.coefficient), ("rows", without_modes(p.coefficient))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reports[path] = solve(dataclasses.replace(p, coefficient=sigma))
        for rep in reports.values():
            assert rep.solved_steps == r - 1
            last = rep.windows[-1]
            assert (last.start, last.end, last.converged, last.final_residual) == (r - 1, r, False, np.inf)
            assert np.isfinite(rep.solution.values).all()
        assert [(w.start, w.end) for w in reports["modes"].windows] == [(w.start, w.end) for w in reports["rows"].windows]
        assert_close_relative(reports["modes"].solution.values, reports["rows"].solution.values, 1e-12)

    @pytest.mark.parametrize("regime", ["young", "rough"])
    def test_custom_modes_with_two_terms_match_row_sums(self, regime):
        # K = 2: flat holds each cell's two modes side by side, and a row's weights run over
        # both modes of each lag; a mismatch in either pairs a mode with the other's weights
        p, rows = modal_case(regime, 512, "two-modes")
        assert p.coefficient.modes.rates.shape == (2,)
        rep = solve(p)
        assert rows.converged and rep.converged
        assert_close_relative(rep.solution.values, rows.solution.values, 1e-12)
        if regime == "rough":
            assert_close_relative(rep.yprime.values, rows.yprime.values, 1e-12)

    @pytest.mark.parametrize("regime", ["young", "singular", "rough"])
    def test_one_b_evaluation_per_row(self, regime):
        # the sweep evaluates B once for each row 0..n, the rough y' and D_y B included
        n, calls = 512, []
        if regime == "singular":
            psi = matrix_func("sin_plus", shift=1.0)

            def counted(ys):
                calls.append(np.shape(ys))
                return psi.value(ys)

            kernel = KernelSpec(alpha=0.25, psi=dataclasses.replace(psi, value=counted), gamma=1.0)
            p = VolterraProblem("singular", 0.5, kernel, sine_driver(n))
        else:
            p = modal_case(regime, n, "trig" if regime == "rough" else "exp_decay-sin_plus")[0]
            modes = p.coefficient.modes

            def counted(us, ys):
                calls.append(np.shape(ys))
                return modes.value(us, ys)

            sigma = dataclasses.replace(p.coefficient, modes=dataclasses.replace(modes, value=counted), validate=False)
            p = dataclasses.replace(p, coefficient=sigma)
        steps = solver._Convolution(p, np.tile(p.a, (n + 1, 1)))
        assert calls == []
        assert steps.sweep() is None
        assert calls == [(p.d_dim,)] * (n + 1)


# ---------------------------------------------------------------------------
# Second-order regime (Levy-area lift)
# ---------------------------------------------------------------------------


class TestRoughSolver:
    def test_zero_field_returns_initial_value_and_zero_derivative(self):
        x = sine_driver(64)
        xx = levy_lift_piecewise_linear(x)
        p = VolterraProblem("rough", 0.5, constant_coefficient(0.0), x, gamma=0.5, kappa=0.5, lift=xx)
        rep = solve(p)
        assert rep.converged
        assert np.array_equal(rep.solution.values, np.full((65, 1), 0.5))
        # the controlled derivative is a (d, n) matrix at each time
        assert np.array_equal(rep.yprime.values, np.zeros((65, 1, 1)))

    def test_exponential_oracle_with_horizon_flags(self):
        # sigma(y) = y with x = t is y' = y: y(1) = e.  Only the first
        # window carries a contraction guarantee; continuation past it is
        # flagged as heuristic.
        n = 2048
        x = linear_driver(n)
        xx = levy_lift_piecewise_linear(x)
        p = VolterraProblem("rough", 1.0, linear_coefficient(1.0), x, gamma=0.5, kappa=0.5, lift=xx)
        rep = solve(p)
        rel = abs(rep.solution.values[-1, 0] - np.e) / np.e
        assert rep.converged
        assert rel <= 1e-3  # measured 4.0e-8
        assert rep.proven_horizon == x.grid.times[n // 4]
        assert rep.extension_heuristic
        assert rep.t_solved == 1.0
        assert rep.yprime is not None
        # y' tracks sigma evaluated on the solution's diagonal
        assert np.array_equal(rep.yprime.values[:, :, 0], rep.solution.values)

    def test_single_window_solve_is_not_heuristic(self):
        n = 256
        x = linear_driver(n)
        xx = levy_lift_piecewise_linear(x)
        p = VolterraProblem("rough", 1.0, linear_coefficient(1.0), x, gamma=0.5, kappa=0.5, lift=xx)
        rep = solve(p, initial_window=n)
        assert rep.converged
        assert len(rep.windows) == 1
        assert not rep.extension_heuristic
        assert rep.proven_horizon == 1.0

    def test_agrees_with_runge_kutta_on_smooth_equation(self):
        x = sine_driver(1024)
        xx = levy_lift_piecewise_linear(x)
        p = VolterraProblem("rough", 0.5, sin_plus_field(), x, gamma=0.5, kappa=0.5, lift=xx)
        rep = solve(p)
        truth = ode_solution(lambda t, y: (np.sin(y) + 2.0) * np.cos(t), 0.5, x.grid.times)
        rel_sup = np.abs(rep.solution.values[:, 0] - truth).max() / np.abs(truth).max()
        assert rep.converged
        assert rel_sup <= 1e-5  # measured 1.8e-7; second-order accuracy

    def test_fbm_driver_self_convergence(self):
        # Rough fractional-Brownian driver (exponent just below 1/2 - eps):
        # no closed form, so solve on nested restrictions of one master
        # sample, sharing the fine-grid area, and require the successive
        # differences to shrink with a positive fitted rate.
        master = generate_fbm(FbmSpec(hurst=0.4, dim=1, grid=Grid(1.0, 2048), seed=99))
        meta = {"hurst": 0.4, "seed": 99}
        solutions = {}
        for n in (128, 256, 512, 1024, 2048):
            x, xx = lift_from_subgrid(master, 2048 // n)
            p = VolterraProblem(
                "rough", 0.5, sin_plus_field(), x, gamma=0.4, kappa=0.6, lift=xx, driver_meta=meta
            )
            rep = solve(p)
            assert rep.converged
            assert rep.tolerance == DEFAULT_TOL_FBM
            solutions[n] = rep.solution.values[:, 0]
        ns = np.array([128, 256, 512, 1024])
        diffs = [np.abs(solutions[n] - solutions[2 * n][::2]).max() for n in ns]
        assert diffs[-1] < diffs[0]
        slope = -np.polyfit(np.log2(ns), np.log2(diffs), 1)[0]
        assert slope >= 0.2  # measured 0.90 for seed 99


# ---------------------------------------------------------------------------
# Continuation mechanics
# ---------------------------------------------------------------------------


def make_problem(regime: str, n: int) -> VolterraProblem:
    if regime == "young":
        return VolterraProblem("young", 1.0, sin_plus_field(), sine_driver(n), gamma=0.75, kappa=0.9)
    if regime == "singular":
        return VolterraProblem("singular", 1.0, abel_kernel(), linear_driver(n))
    x = sine_driver(n)
    xx = levy_lift_piecewise_linear(x)
    return VolterraProblem("rough", 1.0, sin_plus_field(), x, gamma=0.5, kappa=0.5, lift=xx)


def singular_sin_plus_problem() -> VolterraProblem:
    k = KernelSpec(alpha=0.25, psi=matrix_func("sin_plus", shift=1.0), gamma=1.0)
    return VolterraProblem("singular", 0.5, k, sine_driver(256))


def rough_trig_fbm2d_problem() -> VolterraProblem:
    fine = generate_fbm(FbmSpec(hurst=0.4, dim=2, grid=Grid(1.0, 256), seed=99))
    x, xx = lift_from_subgrid(fine, 2)
    sigma = trig_coefficient(amp=0.5, t_freq=1.0, u_freq=0.5, d_dim=1, n_dim=2)
    return VolterraProblem("rough", 0.5, sigma, x, gamma=0.38, kappa=0.7, lift=xx)


OPERATOR_PROBLEMS = {"singular": singular_sin_plus_problem, "rough": rough_trig_fbm2d_problem}


class TestContinuationMechanics:
    def test_window_schedule_quarter_then_grow_capped(self):
        p = VolterraProblem("young", 1.0, linear_coefficient(1.0), sine_driver(1024), gamma=0.75, kappa=0.9)
        rep = solve(p)
        assert [w.end - w.start for w in rep.windows] == [256, 384, 384]

    def test_initial_window_is_respected(self):
        p = make_problem("young", 512)
        rep = solve(p, initial_window=64)
        assert rep.windows[0].end - rep.windows[0].start == 64

    def test_initial_window_validation(self):
        p = make_problem("young", 64)
        for bad in (0, 65, -3):
            with pytest.raises(ValueError, match="initial window must lie"):
                solve(p, initial_window=bad)

    @pytest.mark.parametrize("first", [1, 3, 64])
    @pytest.mark.parametrize("regime", ["young", "singular", "rough"])
    def test_solution_independent_of_window_tiling(self, regime, first):
        # One sweep over every row writes the solution; the tiling only
        # partitions it for the report.
        p = make_problem(regime, 512)
        a = solve(p)
        b = solve(p, initial_window=first)
        assert [w.end for w in a.windows] != [w.end for w in b.windows]
        assert np.array_equal(a.solution.values, b.solution.values)
        if regime == "rough":
            assert np.array_equal(a.yprime.values, b.yprime.values)

    @pytest.mark.parametrize("first", [1, 3, None], ids=["window-1", "window-3", "window-default"])
    @pytest.mark.parametrize("path", ["rows", "modes", "convolution"])
    def test_each_solve_sweeps_once(self, path, first, monkeypatch):
        steps = {"rows": solver._RowSums, "modes": solver._Convolution, "convolution": solver._Convolution}[path]
        sweep, image, calls = steps.sweep, steps.image, []

        def counted(self):
            calls.append("sweep")
            return sweep(self)

        def imaged(self, end):
            calls.append("image")
            return image(self, end)

        monkeypatch.setattr(steps, "sweep", counted)
        monkeypatch.setattr(steps, "image", imaged)
        p = make_problem("singular" if path == "convolution" else "rough", 256)
        if path == "rows":
            p = dataclasses.replace(p, coefficient=without_modes(p.coefficient))
        rep = solve(p, initial_window=first)
        assert rep.converged and len(rep.windows) >= 3
        assert calls == ["sweep", "image"]  # one image gives every window its residual

    def test_overflow_produces_partial_report(self):
        # An enormous linear field overflows float range a few cells in;
        # the solver reports the prefix it did fix and keeps the stored
        # solution finite via constant extension.
        p = VolterraProblem("young", 1.0, linear_coefficient(1e160), linear_driver(64), gamma=1.0, kappa=0.9)
        rep = solve(p)
        assert not rep.converged
        assert rep.solved_steps == 1
        assert rep.t_solved == pytest.approx(1.0 / 64.0)
        assert np.isfinite(rep.solution.values).all()
        tail = rep.solution.values[rep.solved_steps :]
        assert np.array_equal(tail, np.tile(tail[0], (len(tail), 1)))
        assert not rep.windows[-1].converged
        assert all(w.converged for w in rep.windows[:-1])
        assert_windows_tile(rep)
        # the sweep overflows at row 2: the report accepts [0, 1] and
        # records the failed cell [1, 2]
        assert [(w.start, w.end, w.final_residual) for w in rep.windows] == [(0, 1, 0.0), (1, 2, np.inf)]
        # one increment of 1.5625e158 over 1/64: its square overflows, its Hölder-1 norm is 1e160
        assert rep.windows[0].holder_norm == pytest.approx(1e160, rel=1e-15)
        assert rep.windows[1].holder_norm == np.inf

    @pytest.mark.parametrize("regime", ["young", "singular", "rough"])
    def test_windows_settle_by_forward_substitution(self, regime, exp_sine_report):
        # Row m of the map reads only rows < m, so one in-place sweep is the
        # fixed point: each window's a-posteriori residual, summed by another
        # route, is rounding.
        rep = exp_sine_report if regime == "young" else solve(OPERATOR_PROBLEMS[regime]())
        assert rep.converged
        assert len(rep.windows) >= 2
        for w in rep.windows:
            assert w.iterations == 1
            assert w.final_residual < rep.tolerance

    def test_solution_regularity_stable_under_refinement(self):
        # The measured Hölder norm of the solution at the driver's own
        # exponent should be stable (not blow up) when the grid doubles.
        master = generate_fbm(FbmSpec(hurst=0.75, dim=1, grid=Grid(1.0, 2048), seed=5))
        meta = {"hurst": 0.75, "seed": 5}
        norms = {}
        for n in (1024, 2048):
            x = master.restrict(2048 // n)
            p = VolterraProblem("young", 1.0, sin_plus_field(), x, gamma=0.75, kappa=0.9, driver_meta=meta)
            rep = solve(p)
            assert rep.converged
            norms[n] = path_holder_norm(rep.solution, 0.75).value
        ratio = norms[2048] / norms[1024]
        assert 0.8 <= ratio <= 1.25  # measured 1.115


# ---------------------------------------------------------------------------
# Reports and dispatch
# ---------------------------------------------------------------------------


class TestOperatorEquation:
    """A converged solve satisfies its regime module's equation y_m - a = I(0, m).

    The young operator sums `young_row_sum` over every cell; the solver's
    one sweep convolves the coefficient's modes instead (row sums only for
    a custom sigma).  Forward substitution solves the
    discrete equation exactly, so the two agree to rounding.  The singular
    operator sums `singular_row_sum`, which the solver's convolution does
    not call.  The row sums themselves are checked against independent
    references: `brute_force_map` and the power-law oracles in the operator
    tests.  The rough operator still sews its own prefix sums.
    """

    def test_young(self):
        sigma = separable_coefficient(scalar_func("exp_decay", rate=1.0), matrix_func("sin_plus", shift=2.0))
        p = VolterraProblem("young", 1.0, sigma, sine_driver(256), gamma=0.75, kappa=0.9)
        rep = solve(p)
        assert rep.converged
        for m in (1, 37, 64, 200, 256):
            want = volterra_increment_young(sigma, rep.solution, p.driver, 0, m)
            assert np.abs(rep.solution.values[m] - p.a - want).max() <= 1e-13  # measured 2.2e-16

    def test_singular(self):
        p = singular_sin_plus_problem()
        rep = solve(p)
        assert rep.converged
        for m in (1, 2, 16, 128, 256):  # the dyadic operator needs m a power of two
            want = singular_increment(p.coefficient, rep.solution, p.driver, 0, m)
            assert np.abs(rep.solution.values[m] - p.a - want).max() <= 1e-13  # measured 4.4e-16

    def test_rough(self):
        p = rough_trig_fbm2d_problem()
        rep = solve(p)
        assert rep.converged
        x, xx, sigma = p.driver, p.lift, p.coefficient
        y = ControlledPath(x, rep.solution, rep.yprime, gamma=0.38, eta=0.76)
        for m in (1, 37, 64, 100, 128):
            want = volterra_remainder_rough(sigma, y, x, xx, 0, m)
            assert np.abs(rep.solution.values[m] - p.a - want).max() <= 1e-13  # measured 1.2e-15


class TestReports:
    def test_windows_tile_the_solved_horizon(self, exp_sine_report):
        rep = exp_sine_report
        assert_windows_tile(rep)
        times = rep.solution.grid.times
        for w in rep.windows:
            assert w.converged
            assert w.t_start == times[w.start]
            assert w.t_end == times[w.end]
            assert w.iterations == 1
            assert w.final_residual < rep.tolerance
            assert np.isfinite(w.holder_norm)
        assert rep.solved_steps == rep.solution.grid.n_steps
        assert rep.proven_horizon <= rep.t_solved

    @pytest.mark.parametrize("path", ["rows", "modes", "lagged-modes", "convolution"])
    def test_residual_measures_a_perturbed_row(self, path, monkeypatch):
        # The residual is summed by another route than the sweep, so it is
        # not zero by construction: the second window's last row, moved by
        # 1e-6 after the sweep, shows in that window's residual and in none
        # before it (later windows read it in their history).
        if path == "rows":
            p = make_problem("rough", 256)
            p = dataclasses.replace(p, coefficient=without_modes(p.coefficient))
        elif path == "lagged-modes":  # phi linear: one mode of lag power 1
            p = modal_case("rough", 512, "linear-identity")[0]
        else:
            p = rough_trig_fbm2d_problem() if path == "modes" else singular_sin_plus_problem()
        steps = {"rows": solver._RowSums}.get(path, solver._Convolution)
        sweep, n = steps.sweep, p.grid.n_steps
        row = window_schedule(n, n // 4)[1][1]

        def moved(self):
            bad = sweep(self)
            self.y[row] += 1e-6
            return bad

        monkeypatch.setattr(steps, "sweep", moved)
        rep = solve(p)
        assert rep.converged and len(rep.windows) >= 3 and rep.windows[1].end == row
        residuals = [w.final_residual for w in rep.windows]
        assert residuals[1] >= 1e-7
        assert residuals[0] < rep.tolerance

    @pytest.mark.parametrize("regime", ["young", "singular", "rough"])
    def test_row_residuals_do_not_depend_on_the_tiling(self, regime):
        # Every window reads its residual off the solve's one image a + I(y),
        # so a row's residual is the same whatever window holds it.  Here
        # |y| <= 1, every window's scale is 1, and a default window's residual
        # is the largest of the one-cell windows inside it, bit for bit.
        n = 512
        if regime == "young":
            x = generate_fbm(FbmSpec(hurst=0.75, dim=1, grid=Grid(1.0, n), seed=7))
            p = VolterraProblem("young", 0.25, trig_coefficient(amp=0.2), x, gamma=0.7, kappa=0.9)
        elif regime == "singular":
            k = KernelSpec(alpha=0.25, psi=matrix_func("sin_plus", shift=0.0), gamma=1.0)
            p = VolterraProblem("singular", 0.25, k, sine_driver(n))
        else:
            fine = generate_fbm(FbmSpec(hurst=0.4, dim=2, grid=Grid(1.0, 2 * n), seed=99))
            x, xx = lift_from_subgrid(fine, 2)
            sigma = trig_coefficient(amp=0.5, t_freq=1.0, u_freq=0.5, d_dim=1, n_dim=2)
            p = VolterraProblem("rough", 0.5, sigma, x, gamma=0.38, kappa=0.7, lift=xx)
        tiled, cells = solve(p), solve(p, initial_window=1)
        assert tiled.converged and np.abs(tiled.solution.values).max() <= 1.0
        assert len(tiled.windows) == 3 and len(cells.windows) == n
        for w in tiled.windows:
            inside = [c.final_residual for c in cells.windows[w.start : w.end]]
            assert w.final_residual == max(inside) < tiled.tolerance

    @pytest.mark.parametrize("rate", [-10.0, -40.0])
    def test_residual_is_relative_to_the_window_scale(self, rate):
        # A growing mode e^(-rate (t - u)) makes |y| reach 1e4 (rate -10) and
        # 3e16 (rate -40); the modal residual's FFT rounds at that scale, so
        # it is recorded relative to max(1, max |y|) over the window.
        sigma = separable_coefficient(scalar_func("exp_decay", rate=rate), matrix_func("sin_plus", shift=1.0))
        g = Grid(1.0, 4096)
        p = VolterraProblem("young", 1.0, sigma, Path(g, np.sin(3 * g.times).reshape(-1, 1)), gamma=0.75, kappa=0.9)
        rep = solve(p)
        assert rep.converged and np.abs(rep.solution.values).max() > 1e4
        assert all(w.final_residual < rep.tolerance for w in rep.windows)  # measured <= 1.4e-13

    def test_default_tolerance_smooth_and_fbm(self):
        smooth = make_problem("young", 64)
        assert solve(smooth).tolerance == DEFAULT_TOL_SMOOTH
        x = generate_fbm(FbmSpec(hurst=0.75, dim=1, grid=Grid(1.0, 64), seed=3))
        rough_meta = VolterraProblem(
            "young", 1.0, sin_plus_field(), x, gamma=0.75, kappa=0.9,
            driver_meta={"hurst": 0.75, "seed": 3},
        )
        assert solve(rough_meta).tolerance == DEFAULT_TOL_FBM

    def test_explicit_tolerance_is_echoed(self):
        p = make_problem("young", 64)
        rep = solve(p, tol=1e-6)
        assert rep.tolerance == 1e-6

    @pytest.mark.parametrize(
        "problem,exponent",
        [
            (lambda: make_problem("young", 128), 0.75),
            (lambda: make_problem("singular", 128), 0.5),
            (rough_trig_fbm2d_problem, 0.38),
        ],
        ids=["young-gamma", "singular-kappa", "rough-gamma"],
    )
    def test_holder_exponent_is_the_window_norm_exponent(self, problem, exponent):
        # gamma for young and rough (kappa differs in all three problems), the
        # kernel's kappa for singular; every window norm is taken with it
        rep = solve(problem())
        assert rep.holder_exponent == exponent
        times, y = rep.solution.grid.times, rep.solution.values
        for w in rep.windows:
            assert w.holder_norm == solver._segment_holder(times, y, w.start, w.end, exponent)

    def test_dispatch_matches_direct_solver(self):
        # `solve` is the one entry point: a singular problem goes to the convolution core
        p = make_problem("singular", 128)
        via_dispatch = solve(p)
        direct = np.tile(p.a, (p.grid.n_steps + 1, 1))
        assert solver._Convolution(p, direct).sweep() is None
        assert np.array_equal(via_dispatch.solution.values, direct)
        assert via_dispatch.regime == "singular"

    def test_tolerance_validation(self):
        p = make_problem("young", 64)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            solve(p, tol=0.0)
