"""Windowed fixed-point solvers for Volterra equations in three regimes.

The solution of y_t = a + int_0^t sigma(t, u, y_u) dx_u is constructed as
the fixed point of the Picard map

    (Gamma y)_m = a + I(t_m, [0, m)),

where I is the regime's integral operator: first-order compensated sums
for drivers above Hölder exponent 1/2 ('young'), the same sums against a
weakly singular kernel (t - u)^(-alpha) psi(y) ('singular'), and
second-order sums driven by a Lévy-area lift for exponents in (1/3, 1/2]
('rough').

The map is strictly causal: row m reads only rows before it.  The solve
runs window by window.  Each window starts from the constant extension of
the previously accepted endpoint and sweeps its rows in order, writing
each one before the next reads it, so the first sweep is forward
substitution onto the window's fixed point and a second sweep confirms it
(its sup-norm update is exactly zero).  A window is accepted when a
sweep's update drops below tolerance, so it takes two sweeps, or one if
the start is already exact; there is no iteration budget.  A window halves
its length when a sweep turns non-finite, and grows by half after success
(capped at half the horizon).
A window that fails at one grid cell ends the solve; the report then
carries the partial solution up to the last accepted time, which for the
rough regime is a legitimate outcome rather than an error: only local
solvability is guaranteed there, and the report marks everything past the
first window as heuristic continuation.

All reported norms are discrete-grid quantities measured over dyadic time
lags, hence lower bounds on their continuum counterparts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .algebra import Grid, Path
from .coefficients import Coefficient
from .rough import LevyArea, rough_row_sum
from .singular import KernelSpec, singular_row_sum
from .young import young_row_sum

__all__ = [
    "VolterraProblem",
    "WindowRecord",
    "SolverReport",
    "validate_problem",
    "solve",
    "solve_young",
    "solve_singular",
    "solve_rough",
    "DEFAULT_TOL_SMOOTH",
    "DEFAULT_TOL_FBM",
]

Regime = Literal["young", "singular", "rough"]

DEFAULT_TOL_SMOOTH = 1e-10
DEFAULT_TOL_FBM = 1e-8


@dataclass
class VolterraProblem:
    """One Volterra equation: regime, initial value, field, driver, exponents.

    ``coefficient`` is a `Coefficient` for the young and rough regimes and
    a `KernelSpec` for the singular one (the kernel carries its own
    exponents, so ``gamma``/``kappa`` may then be omitted).  ``gamma`` is
    the driver's Hölder exponent; ``kappa`` the state-regularity exponent
    the contraction estimates run at.  ``driver_meta`` optionally echoes
    how the driver was generated (seed, hurst, method) into reports and
    picks the default tolerance.
    """

    regime: Regime
    a: np.ndarray
    coefficient: Coefficient | KernelSpec
    driver: Path
    gamma: float | None = None
    kappa: float | None = None
    lift: LevyArea | None = None
    driver_meta: dict | None = None

    def __post_init__(self) -> None:
        self.a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if self.regime == "singular" and isinstance(self.coefficient, KernelSpec):
            if self.gamma is None:
                self.gamma = self.coefficient.gamma
            if self.kappa is None:
                self.kappa = self.coefficient.kappa
        validate_problem(self)

    @property
    def d_dim(self) -> int:
        return self.coefficient.d_dim

    @property
    def n_dim(self) -> int:
        return self.coefficient.n_dim

    @property
    def grid(self) -> Grid:
        return self.driver.grid

    def config(self) -> dict:
        """Plain-data echo of the problem for reports and reproduction."""
        if isinstance(self.coefficient, KernelSpec):
            field_desc = {
                "kind": "kernel",
                "alpha": self.coefficient.alpha,
                "psi": self.coefficient.psi.name,
            }
        else:
            field_desc = {"kind": "coefficient", "name": self.coefficient.name}
        return {
            "regime": self.regime,
            "a": self.a.tolist(),
            "field": field_desc,
            "gamma": self.gamma,
            "kappa": self.kappa,
            "horizon": self.grid.horizon,
            "n_steps": self.grid.n_steps,
            "d_dim": self.d_dim,
            "n_dim": self.n_dim,
            "lift": self.lift is not None,
            "driver_meta": dict(self.driver_meta) if self.driver_meta else None,
        }


def validate_problem(p: VolterraProblem) -> None:
    """Check regime-specific solvability constraints; raise ValueError naming the violated one."""
    if p.regime not in ("young", "singular", "rough"):
        raise ValueError(f"unknown regime '{p.regime}' (expected young, singular or rough)")
    if p.driver.values.ndim != 2:
        raise ValueError("driver must be a vector path with shape (n_steps + 1, n)")
    if not np.all(np.isfinite(p.a)):
        raise ValueError("initial value must be finite")

    if p.regime == "singular":
        if not isinstance(p.coefficient, KernelSpec):
            raise ValueError("singular regime requires a KernelSpec coefficient")
        # solvability constraints live on the KernelSpec itself
    else:
        if not isinstance(p.coefficient, Coefficient):
            raise ValueError(f"{p.regime} regime requires a Coefficient, got {type(p.coefficient).__name__}")
        if p.gamma is None or p.kappa is None:
            raise ValueError(f"{p.regime} regime requires explicit gamma and kappa exponents")
        if not (p.kappa <= 1.0):
            raise ValueError(f"{p.regime} regime requires kappa <= 1, a Hölder exponent, got kappa={p.kappa}")

    if p.regime == "young":
        if not (0.5 < p.gamma <= 1.0):
            raise ValueError(f"young regime requires gamma in (1/2, 1], got {p.gamma}")
        if not (p.kappa * (1.0 + p.gamma) > 1.0):
            raise ValueError(
                f"young regime requires kappa (1 + gamma) > 1, got kappa={p.kappa}, gamma={p.gamma}"
            )
    elif p.regime == "rough":
        if not (1.0 / 3.0 < p.gamma <= 0.5):
            raise ValueError(f"rough regime requires gamma in (1/3, 1/2], got {p.gamma}")
        if not (p.gamma * (p.kappa + 2.0) > 1.0):
            raise ValueError(
                f"rough regime requires gamma (kappa + 2) > 1, got kappa={p.kappa}, gamma={p.gamma}"
            )
        if p.lift is None:
            raise ValueError("rough regime requires a Lévy-area lift for the driver")
        if p.lift.grid != p.grid or p.lift.dim != p.driver.dim:
            raise ValueError("lift does not match the driver")

    if p.a.shape != (p.d_dim,):
        raise ValueError(f"initial value has shape {p.a.shape}, the field expects ({p.d_dim},)")
    if p.driver.dim != p.n_dim:
        raise ValueError(
            f"driver has dimension {p.driver.dim} but the field expects {p.n_dim}"
        )


@dataclass(frozen=True)
class WindowRecord:
    """One continuation window: indices, each sweep's sup-norm update, Hölder norm of the last sweep."""

    start: int
    end: int
    t_start: float
    t_end: float
    converged: bool
    residuals: tuple[float, ...]
    holder_norm: float

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


@dataclass(frozen=True)
class SolverReport:
    """Solution with its construction trace.

    ``solution`` always spans the full grid; when ``converged`` is false
    only the prefix up to ``solved_steps`` holds fixed-point values and
    the tail is the constant extension of the last accepted point.
    ``proven_horizon`` is the horizon backed by a genuine contraction
    window; for the rough regime anything beyond the first window is a
    heuristic extension and ``extension_heuristic`` says whether the
    solve used one.  ``sweeps`` counts every sweep the solve ran, those of
    window attempts discarded by halving included; ``windows`` records only
    the accepted windows and the final failed one.
    """

    regime: Regime
    solution: Path
    yprime: Path | None
    windows: tuple[WindowRecord, ...]
    sweeps: int
    converged: bool
    t_solved: float
    solved_steps: int
    tolerance: float
    proven_horizon: float
    extension_heuristic: bool
    config: dict = field(default_factory=dict)


def _segment_holder(times: np.ndarray, values: np.ndarray, i0: int, i1: int, mu: float) -> float:
    """Hölder-mu norm of a value array over [i0, i1], i0 < i1, dyadic lags only."""
    width = i1 - i0
    flat = values[i0 : i1 + 1].reshape(width + 1, -1)
    best = 0.0
    lag = 1
    # overflowed iterates reach this diagnostic on the partial-solve path;
    # their norm is legitimately inf, not an arithmetic error
    with np.errstate(over="ignore", invalid="ignore"):
        while lag <= width:
            mags = np.linalg.norm(flat[lag:] - flat[:-lag], axis=1)
            span = float(times[i0 + lag] - times[i0])
            best = max(best, float(np.max(mags)) / span**mu)
            lag *= 2
    return best


# ---------------------------------------------------------------------------
# One windowed core for all three regimes.  The discrete map is
#   (Gamma y)_m = a + sum over cells l < m of the regime's germ at outer time t_m,
# and only the germ differs between regimes: each regime module supplies it
# as a row sum over cells [lo, hi) frozen at t_m.  Cell l reads the state at
# its left point, so once the solution is accepted up to `start` the cells
# l <= start no longer move: a window sums them once (its history) and each
# sweep adds the moving cells (start, m).  Row m reads only rows < m, so a
# sweep that writes each row before the next one reads it (Gauss-Seidel) is
# forward substitution: its first pass is the window's fixed point, and a
# second pass reads the same inputs and changes nothing.
# ---------------------------------------------------------------------------


def _row_sum(p: VolterraProblem):
    """The regime's row sum as rows(m, lo, hi, y, w) -> (d,): cells [lo, hi) frozen at t_m.

    ``w`` holds the rough germ's per-cell product y'_l . adj_l (None in the
    other regimes).
    """
    coeff, times, dx = p.coefficient, p.grid.times, p.driver.cells()
    if p.regime == "rough":
        return lambda m, lo, hi, y, w: rough_row_sum(
            coeff, times[m], times[lo:hi], dx[lo:hi], y[lo:hi], w[lo:hi]
        )
    row_sum = young_row_sum if p.regime == "young" else singular_row_sum
    return lambda m, lo, hi, y, w: row_sum(coeff, times[m], times[lo:hi], dx[lo:hi], y[lo:hi])


def solve(
    p: VolterraProblem,
    tol: float | None = None,
    initial_window: int | None = None,
    initial_guess: np.ndarray | None = None,
) -> SolverReport:
    """Fixed point of the problem's Picard map, window by window.

    ``tol`` defaults by driver (`DEFAULT_TOL_FBM` for fBm, otherwise
    `DEFAULT_TOL_SMOOTH`); ``initial_window`` defaults to a quarter of the
    grid; ``initial_guess`` replaces the constant start of the first window.
    A window is accepted once a sweep changes it by less than ``tol``:
    forward substitution and one confirming sweep, whose update is zero.
    """
    if tol is None:
        tol = DEFAULT_TOL_FBM if p.driver_meta and "hurst" in p.driver_meta else DEFAULT_TOL_SMOOTH
    if not (tol > 0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    rows = _row_sum(p)
    grid = p.grid
    n = grid.n_steps
    times = grid.times
    norm_exponent = p.kappa if p.regime == "singular" else p.gamma

    def refresh(lo, hi):
        # the rough germ reads y' = sigma(t, t, y) beside y, through w_l = y'_l . adj_l;
        # other regimes carry None
        if yp is not None:
            yp[lo:hi] = p.coefficient.diagonal_many(times[lo:hi], y[lo:hi])
            cells = slice(lo, min(hi, n))
            w[cells] = np.matmul(yp[cells], p.lift.adjacent[cells])

    y = np.tile(p.a, (n + 1, 1))
    yp = w = None
    if p.regime == "rough":
        yp = np.empty((n + 1, p.d_dim, p.n_dim))
        w = np.empty((n, p.d_dim, p.n_dim))
        refresh(0, n + 1)

    if initial_guess is not None:
        initial_guess = np.asarray(initial_guess, dtype=float)
        if initial_guess.shape != y.shape:
            raise ValueError(
                f"initial guess must have shape {y.shape}, got {initial_guess.shape}"
            )

    windows: list[WindowRecord] = []
    sweeps = 0
    start = 0
    window = max(n // 4, 1) if initial_window is None else initial_window
    if not (1 <= window <= n):
        raise ValueError(f"initial window must lie in [1, {n}] cells, got {window}")
    cap = max(n // 2, 1)

    while start < n:
        # attempts write y, y' and w in place: a sweep reads only rows <= start and
        # rows it has written, and a retry or the tail overwrites a failed attempt
        end = min(start + window, n)
        moving = range(start + 1, end + 1)
        hist = [rows(m, 0, start + 1, y, w) for m in moving]
        if initial_guess is not None:  # the first attempt only
            y[start + 1 : end + 1] = initial_guess[start + 1 : end + 1]
            initial_guess = None
        else:
            y[start + 1 : end + 1] = y[start]
        residuals: list[float] = []
        for _ in range(2):  # forward substitution, then the confirming sweep
            before = y[start + 1 : end + 1].copy()
            for m, h in zip(moving, hist):
                y[m] = p.a + h + rows(m, start + 1, m, y, w)
                refresh(m, m + 1)
            residuals.append(float(np.max(np.abs(y[start + 1 : end + 1] - before))))
            if not np.isfinite(residuals[-1]) or residuals[-1] < tol:
                break
        sweeps += len(residuals)
        ok = residuals[-1] < tol
        if not ok and window > 1:
            window //= 2
            continue
        windows.append(
            WindowRecord(
                start=start,
                end=end,
                t_start=float(times[start]),
                t_end=float(times[end]),
                converged=ok,
                residuals=tuple(residuals),
                holder_norm=_segment_holder(times, y, start, end, norm_exponent),
            )
        )
        if not ok:
            break
        start = end
        window = min(int(window * 1.5), cap)

    solved_steps = start
    # tail past the solved horizon: constant extension, not solution values
    y[solved_steps + 1 :] = y[solved_steps]
    if yp is not None:
        yp[solved_steps + 1 :] = yp[solved_steps]

    if p.regime == "rough":
        first_end = windows[0].end if windows[0].converged else 0
        proven = float(times[first_end])
        heuristic = solved_steps > first_end
    else:
        proven = float(times[solved_steps])
        heuristic = False

    return SolverReport(
        regime=p.regime,
        solution=Path(grid, y),
        yprime=Path(grid, yp) if yp is not None else None,
        windows=tuple(windows),
        sweeps=sweeps,
        converged=solved_steps == n,
        t_solved=float(times[solved_steps]),
        solved_steps=solved_steps,
        tolerance=tol,
        proven_horizon=proven,
        extension_heuristic=heuristic,
        config={**p.config(), "tolerance": tol},
    )


def _of_regime(p: VolterraProblem, regime: str) -> VolterraProblem:
    if p.regime != regime:
        raise ValueError(f"solve_{regime} got a problem of regime '{p.regime}'")
    return p


def solve_young(p: VolterraProblem, **opts) -> SolverReport:
    """`solve` for the first-order regime: drivers above Hölder exponent 1/2."""
    return solve(_of_regime(p, "young"), **opts)


def solve_singular(p: VolterraProblem, **opts) -> SolverReport:
    """`solve` for the weakly singular kernel (t - u)^(-alpha) psi(y) against the driver."""
    return solve(_of_regime(p, "singular"), **opts)


def solve_rough(p: VolterraProblem, **opts) -> SolverReport:
    """`solve` for the second-order regime via the driver's Lévy-area lift; local contract.

    Continuation past the first window is heuristic (flagged in the
    report); stopping early with a partial horizon is a legitimate
    outcome for this regime.
    """
    return solve(_of_regime(p, "rough"), **opts)
