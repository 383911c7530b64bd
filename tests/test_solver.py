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

import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from roughvolterra.algebra import Grid, Path, path_holder_norm
from roughvolterra.coefficients import (
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
from roughvolterra.singular import KernelSpec, singular_increment
from roughvolterra.solver import (
    DEFAULT_TOL_FBM,
    DEFAULT_TOL_SMOOTH,
    SolverReport,
    VolterraProblem,
    solve,
    solve_rough,
    solve_singular,
    solve_young,
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
    return solve_young(p)


class TestYoungSolver:
    def test_zero_field_returns_initial_value(self):
        p = VolterraProblem("young", -2.5, constant_coefficient(0.0), sine_driver(64), gamma=0.75, kappa=0.9)
        rep = solve_young(p)
        assert rep.converged
        assert np.array_equal(rep.solution.values, np.full((65, 1), -2.5))
        assert all(w.iterations == 1 for w in rep.windows)

    def test_constant_field_reproduces_linear_solution_exactly(self):
        # On a dyadic grid with unit horizon every cell increment of the
        # linear driver is an exact binary fraction, so the accumulated
        # solution matches a + c t without rounding.
        x = linear_driver(256)
        p = VolterraProblem("young", -0.75, constant_coefficient(1.5), x, gamma=1.0, kappa=0.9)
        rep = solve_young(p)
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
        rep = solve_young(p)
        rel = abs(rep.solution.values[-1, 0] - 0.5) / 0.5
        assert rel == pytest.approx(1.0 / n, rel=1e-9)

    def test_quadratic_ramp_meets_absolute_target_when_refined(self):
        n = 16384
        p = VolterraProblem("young", 0.0, ramp_field(), linear_driver(n), gamma=1.0, kappa=0.9)
        rep = solve_young(p)
        rel = abs(rep.solution.values[-1, 0] - 0.5) / 0.5
        assert rel <= 1e-4  # exactly 1/16384 ~ 6.1e-5

    def test_agrees_with_runge_kutta_on_smooth_equation(self):
        # y' = (sin y + 2) cos t via x = sin t; oracle is an independent
        # high-order adaptive integrator on the equivalent ODE.
        x = sine_driver(2048)
        p = VolterraProblem("young", 0.5, sin_plus_field(), x, gamma=0.75, kappa=0.9)
        rep = solve_young(p)
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
        rep = solve_singular(p)
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
            rep = solve_singular(VolterraProblem("singular", 0.0, spec, linear_driver(n)))
            assert rep.converged
            errs.append(abs(rep.solution.values[-1, 0] - 4.0 / 3.0))
        assert errs[-1] / (4.0 / 3.0) <= 1e-2  # measured 1.1e-3 at 4096
        assert errs[0] > errs[1] > errs[2]
        rate = -np.polyfit(np.log2([1024, 2048, 4096]), np.log2(errs), 1)[0]
        assert rate >= 0.5  # measured 0.725

    def test_abel_equation_stable_under_refinement(self):
        # No closed form with psi(y) = y; the oracle is the same scheme on
        # a 4x finer grid restricted back to the coarse one.
        coarse = solve_singular(VolterraProblem("singular", 1.0, abel_kernel(), linear_driver(2048)))
        fine = solve_singular(VolterraProblem("singular", 1.0, abel_kernel(), linear_driver(8192)))
        c = coarse.solution.values[:, 0]
        f = fine.solution.values[::4, 0]
        assert coarse.converged and fine.converged
        assert np.abs(c - f).max() / np.abs(f).max() <= 1e-2  # measured 4.6e-3


# ---------------------------------------------------------------------------
# Second-order regime (Levy-area lift)
# ---------------------------------------------------------------------------


class TestRoughSolver:
    def test_zero_field_returns_initial_value_and_zero_derivative(self):
        x = sine_driver(64)
        xx = levy_lift_piecewise_linear(x)
        p = VolterraProblem("rough", 0.5, constant_coefficient(0.0), x, gamma=0.5, kappa=0.5, lift=xx)
        rep = solve_rough(p)
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
        rep = solve_rough(p)
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
        rep = solve_rough(p, initial_window=n)
        assert rep.converged
        assert len(rep.windows) == 1
        assert not rep.extension_heuristic
        assert rep.proven_horizon == 1.0

    def test_agrees_with_runge_kutta_on_smooth_equation(self):
        x = sine_driver(1024)
        xx = levy_lift_piecewise_linear(x)
        p = VolterraProblem("rough", 0.5, sin_plus_field(), x, gamma=0.5, kappa=0.5, lift=xx)
        rep = solve_rough(p)
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
            rep = solve_rough(p)
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


SOLVERS = {"young": solve_young, "singular": solve_singular, "rough": solve_rough}


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
        rep = solve_young(p)
        assert [w.end - w.start for w in rep.windows] == [256, 384, 384]

    def test_initial_window_is_respected(self):
        p = make_problem("young", 512)
        rep = solve_young(p, initial_window=64)
        assert rep.windows[0].end - rep.windows[0].start == 64

    def test_initial_window_validation(self):
        p = make_problem("young", 64)
        for bad in (0, 65, -3):
            with pytest.raises(ValueError, match="initial window must lie"):
                solve_young(p, initial_window=bad)

    def test_initial_guess_shape_validation(self):
        p = make_problem("young", 64)
        with pytest.raises(ValueError, match="initial guess must have shape"):
            solve_young(p, initial_guess=np.zeros((65, 2)))

    @pytest.mark.parametrize("regime", ["young", "singular", "rough"])
    def test_unique_limit_under_perturbed_guess(self, regime):
        # The fixed point does not depend on where the iteration starts:
        # restarting from the solution shifted by 0.5 after time zero
        # lands on the same limit to within the stopping tolerance.
        p = make_problem(regime, 512)
        base = SOLVERS[regime](p)
        guess = base.solution.values.copy()
        guess[1:] += 0.5
        perturbed = SOLVERS[regime](p, initial_guess=guess)
        assert base.converged and perturbed.converged
        dev = np.abs(base.solution.values - perturbed.solution.values).max()
        assert dev <= 10 * base.tolerance  # measured <= 4e-12

    @pytest.mark.parametrize("regime", ["young", "singular"])
    def test_solution_independent_of_window_tiling(self, regime):
        p = make_problem(regime, 512)
        a = SOLVERS[regime](p)
        b = SOLVERS[regime](p, initial_window=64)
        assert [w.end for w in a.windows] != [w.end for w in b.windows]
        dev = np.abs(a.solution.values - b.solution.values).max()
        assert dev <= 10 * a.tolerance  # measured <= 3e-12

    def test_overflow_produces_partial_report(self):
        # An enormous linear field overflows float range a few cells in;
        # the solver reports the prefix it did fix and keeps the stored
        # solution finite via constant extension.
        p = VolterraProblem("young", 1.0, linear_coefficient(1e160), linear_driver(64), gamma=1.0, kappa=0.9)
        rep = solve_young(p)
        assert not rep.converged
        assert rep.solved_steps == 1
        assert rep.t_solved == pytest.approx(1.0 / 64.0)
        assert np.isfinite(rep.solution.values).all()
        tail = rep.solution.values[rep.solved_steps :]
        assert np.array_equal(tail, np.tile(tail[0], (len(tail), 1)))
        assert not rep.windows[-1].converged
        assert all(w.converged for w in rep.windows[:-1])
        assert_windows_tile(rep)
        # windows of 16, 8, 4 and 2 cells overflow in one sweep each and are
        # halved away unrecorded; the recorded windows are [0, 1] (2 sweeps)
        # and the failed [1, 2] (1 sweep)
        assert [w.iterations for w in rep.windows] == [2, 1]
        assert rep.sweeps == 7

    @pytest.mark.parametrize("regime", ["young", "singular", "rough"])
    def test_windows_settle_by_forward_substitution(self, regime, exp_sine_report):
        # Row m of the map reads only rows < m, so the first in-place sweep
        # is the window's fixed point and the second re-reads the same
        # inputs: every window takes exactly 2 sweeps, the second changing
        # nothing at all.
        rep = exp_sine_report if regime == "young" else solve(OPERATOR_PROBLEMS[regime]())
        assert rep.converged
        assert len(rep.windows) >= 2
        for w in rep.windows:
            assert w.iterations == 2
            assert len(w.residuals) == 2
            assert w.residuals[1] == 0.0
        assert rep.sweeps == 2 * len(rep.windows)

    def test_solution_regularity_stable_under_refinement(self):
        # The measured Hölder norm of the solution at the driver's own
        # exponent should be stable (not blow up) when the grid doubles.
        master = generate_fbm(FbmSpec(hurst=0.75, dim=1, grid=Grid(1.0, 2048), seed=5))
        meta = {"hurst": 0.75, "seed": 5}
        norms = {}
        for n in (1024, 2048):
            x = master.restrict(2048 // n)
            p = VolterraProblem("young", 1.0, sin_plus_field(), x, gamma=0.75, kappa=0.9, driver_meta=meta)
            rep = solve_young(p)
            assert rep.converged
            norms[n] = path_holder_norm(rep.solution, 0.75).value
        ratio = norms[2048] / norms[1024]
        assert 0.8 <= ratio <= 1.25  # measured 1.115


# ---------------------------------------------------------------------------
# Reports and dispatch
# ---------------------------------------------------------------------------


class TestOperatorEquation:
    """A converged solve satisfies its regime module's equation y_m - a = I(0, m).

    The young and singular operators sum the same row sums as the solver,
    so this ties the solver's windowed split (history once per window, the
    moving cells each sweep) to the operator equation; forward substitution
    solves the discrete equation exactly, so they agree to rounding.  The
    row sums themselves are checked against independent references:
    `brute_force_map` and the power-law oracles in the operator tests.  The
    rough operator still sews its own prefix sums.
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
            assert np.abs(rep.solution.values[m] - p.a - want).max() <= 1e-13  # measured 8.9e-16

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
            assert 1 <= w.iterations <= 2
            assert w.final_residual < rep.tolerance
            assert np.isfinite(w.holder_norm)
        assert rep.sweeps == sum(w.iterations for w in rep.windows)
        assert rep.solved_steps == rep.solution.grid.n_steps
        assert rep.proven_horizon <= rep.t_solved

    def test_default_tolerance_smooth_and_fbm(self):
        smooth = make_problem("young", 64)
        assert solve_young(smooth).tolerance == DEFAULT_TOL_SMOOTH
        x = generate_fbm(FbmSpec(hurst=0.75, dim=1, grid=Grid(1.0, 64), seed=3))
        rough_meta = VolterraProblem(
            "young", 1.0, sin_plus_field(), x, gamma=0.75, kappa=0.9,
            driver_meta={"hurst": 0.75, "seed": 3},
        )
        assert solve_young(rough_meta).tolerance == DEFAULT_TOL_FBM

    def test_explicit_tolerance_is_echoed(self):
        p = make_problem("young", 64)
        rep = solve_young(p, tol=1e-6)
        assert rep.tolerance == 1e-6
        assert rep.config["tolerance"] == 1e-6

    def test_config_echoes_problem(self):
        p = VolterraProblem(
            "singular", 2.0, abel_kernel(), linear_driver(128), driver_meta={"source": "unit"}
        )
        cfg = solve_singular(p).config
        assert cfg["regime"] == "singular"
        assert cfg["a"] == [2.0]
        assert cfg["field"]["kind"] == "kernel"
        assert cfg["field"]["alpha"] == 0.25
        assert cfg["n_steps"] == 128
        assert cfg["horizon"] == 1.0
        assert cfg["lift"] is False
        assert cfg["driver_meta"] == {"source": "unit"}

        q = make_problem("rough", 64)
        qcfg = solve_rough(q).config
        assert qcfg["field"]["kind"] == "coefficient"
        assert "name" in qcfg["field"]
        assert qcfg["lift"] is True

    def test_dispatch_matches_direct_solver(self):
        p = make_problem("singular", 128)
        via_dispatch = solve(p)
        direct = solve_singular(p)
        assert np.array_equal(via_dispatch.solution.values, direct.solution.values)
        assert via_dispatch.regime == "singular"

    @pytest.mark.parametrize(
        "fn,wrong",
        [(solve_young, "singular"), (solve_singular, "young"), (solve_rough, "young")],
    )
    def test_regime_mismatch_rejected(self, fn, wrong):
        p = make_problem(wrong, 64)
        with pytest.raises(ValueError, match=f"got a problem of regime '{wrong}'"):
            fn(p)

    def test_tolerance_validation(self):
        p = make_problem("young", 64)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            solve_young(p, tol=0.0)
