"""Fixed-point solvers for Volterra equations in three regimes, reported by window.

The solution of y_t = a + int_0^t sigma(t, u, y_u) dx_u is constructed as
the fixed point of the Picard map

    (Gamma y)_m = a + I(t_m, [0, m)),

where I is the regime's integral operator: first-order compensated sums
for drivers above Hölder exponent 1/2 ('young'), the same sums against a
weakly singular kernel (t - u)^(-alpha) psi(y) ('singular'), and
second-order sums driven by a Lévy-area lift for exponents in (1/3, 1/2]
('rough').

The map is strictly causal: row m reads only rows before it.  The solve
is one sweep over the n rows, writing every row before the next reads it:
forward substitution onto the discrete fixed point, with no iteration
budget.  The solved rows are then reported window by window, the first
window ``initial_window`` cells long and each next one half as long again
(capped at half the horizon); a window records its a-posteriori residual
max |a + I(y)_m - y_m| / max(1, max |y|) over its rows, its history summed
by another route than the sweep's.  The windows shape only the report,
never the solution.  A sweep that turns non-finite at row r keeps the rows
before r, and the report ends with a failed one-cell window [r - 1, r].
The report then carries the partial solution up to the last accepted
time, which for the rough regime is a legitimate outcome rather than an
error: only local solvability is guaranteed there, and the report marks
everything past the first window as heuristic continuation.

Cost in grid steps n: a young or rough solve with a built-in coefficient
family is O(n K), its K modes (t - u)^p e^(z (t - u)) in the outer time
carried as running sums; with a custom coefficient it is O(n^2), every row
summing its earlier cells.  On the uniform grid the
singular kernel is Toeplitz, so a singular solve is a causal convolution:
one blocked forward substitution whose block sums are FFTs (`numpy.fft`),
O(n log^2 n).

All reported norms are discrete-grid quantities measured over dyadic time
lags, hence lower bounds on their continuum counterparts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .algebra import Grid, Path, _dyadic_maxima
from .coefficients import Coefficient
from .rough import LevyArea, rough_row_sum
from .singular import KernelSpec
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
    the contraction estimates run at.  ``driver_meta`` optionally says how
    the driver was generated (seed, hurst, method); it only picks the
    default tolerance, `DEFAULT_TOL_FBM` when it names a ``hurst``.
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
    """One report window of the solved rows: indices, a-posteriori residual and Hölder norm.

    The failed cell that ends a non-finite solve has both set to inf.
    """

    start: int
    end: int
    t_start: float
    t_end: float
    converged: bool
    final_residual: float
    holder_norm: float

    @property
    def iterations(self) -> int:
        return 1  # the solve's one sweep spans every window


@dataclass(frozen=True)
class SolverReport:
    """Solution with its construction trace.

    ``solution`` always spans the full grid; when ``converged`` is false
    only the prefix up to ``solved_steps`` holds fixed-point values and
    the tail is the constant extension of the last accepted point.
    ``holder_exponent`` is the exponent of the windows' Hölder norms:
    kappa in the singular regime, gamma otherwise.  No contraction
    estimate backs ``proven_horizon`` yet.  In the rough regime it is the
    end of the first window, so it follows ``initial_window``, and anything
    beyond is a heuristic extension (``extension_heuristic`` says whether
    the solve used one); in the young and singular regimes it is the solved
    horizon.  ``windows`` partitions the solved rows, which one sweep
    wrote, and ends with the failed cell the sweep stopped at when it
    turned non-finite.
    """

    regime: Regime
    solution: Path
    yprime: Path | None
    windows: tuple[WindowRecord, ...]
    converged: bool
    t_solved: float
    solved_steps: int
    tolerance: float
    holder_exponent: float
    proven_horizon: float
    extension_heuristic: bool


def _segment_holder(times: np.ndarray, values: np.ndarray, i0: int, i1: int, mu: float) -> float:
    """Hölder-mu norm of a value array over [i0, i1], i0 < i1, dyadic lags only."""
    width = i1 - i0
    best = 0.0
    for k, top in enumerate(_dyadic_maxima(values[i0 : i1 + 1].reshape(width + 1, -1), 1, width)):
        span = float(times[i0 + (1 << k)] - times[i0])
        best = float(np.maximum(best, top / span**mu))  # a nan stays nan
    return best


# ---------------------------------------------------------------------------
# One causal core for all three regimes.  The discrete map is
#   (Gamma y)_m = a + sum over cells l < m of the regime's germ at outer time t_m.
# Row m reads only rows < m, so one sweep that writes each row before the
# next one reads it is forward substitution onto the fixed point; it returns
# its first non-finite row.  `_RowSums` (young, rough) sums each row's cells
# at t_m, `_Modes` (young, rough, coefficients with modes) carries running
# sums, `_Convolution` (singular) convolves.  A window's residual sums the
# cells l <= start (its history) in one piece and recomputes its own cells
# (start, m) from y in one batch; `_Modes` and `_Convolution` sum those by FFT.
# ---------------------------------------------------------------------------

# The most rows a singular sweep solves by the direct row loop; larger blocks split in two.
LEAF_ROWS = 64


def _causal(weights: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Rows i < len(cells) of the sum over j <= i of weights[i - j] cells[j]: one zero-padded FFT on axis 0."""
    rows = len(cells)
    size = 1 << (2 * rows - 2).bit_length()  # no wrap into the first `rows` outputs
    real = not (np.iscomplexobj(weights) or np.iscomplexobj(cells))
    fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    return inv(fwd(weights[:rows], size, axis=0) * fwd(cells, size, axis=0), size, axis=0)[:rows]


class _RowSums:
    """Young and rough steps: row m sums the regime's germs of cells [lo, m) frozen at t_m.

    O(n) per row, O(n^2) per solve: the path of custom coefficients, which
    carry no modes.  The rough germ also
    reads y' = sigma(t, t, y), refreshed right after y, through the
    per-cell product w_l = y'_l . adj_l; the young regime carries neither.
    """

    def __init__(self, p: VolterraProblem, y: np.ndarray):
        self.p, self.y = p, y
        coeff, times, dx = p.coefficient, p.grid.times, p.driver.cells()
        self.yp = self.w = None
        if p.regime == "rough":
            n = p.grid.n_steps
            self.yp = np.empty((n + 1, p.d_dim, p.n_dim))
            self.w = np.empty((n, p.d_dim, p.n_dim))
            self.refresh(0, n + 1)
            self.rows = lambda m, lo, hi, w=self.w: rough_row_sum(
                coeff, times[m], times[lo:hi], dx[lo:hi], y[lo:hi], w[lo:hi]
            )
        else:
            self.rows = lambda m, lo, hi, w=None: young_row_sum(coeff, times[m], times[lo:hi], dx[lo:hi], y[lo:hi])

    def refresh(self, lo: int, hi: int) -> None:
        if self.yp is not None:
            p, y, n = self.p, self.y, len(self.w)
            self.yp[lo:hi] = p.coefficient.diagonal_many(p.grid.times[lo:hi], y[lo:hi])
            cells = slice(lo, min(hi, n))
            self.w[cells] = np.matmul(self.yp[cells], p.lift.adjacent[cells])

    def sweep(self) -> int | None:
        y = self.y
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, len(y)):
                y[m] = self.p.a + self.rows(m, 0, m)
                if not np.isfinite(y[m]).all():
                    return m
                self.refresh(m, m + 1)
        return None

    def residual(self, start: int, end: int) -> float:
        p, y, w = self.p, self.y, self.w
        with np.errstate(over="ignore", invalid="ignore"):
            if w is not None:  # the window's y' and w afresh from y, in one batch
                yp = p.coefficient.diagonal_many(p.grid.times[start + 1 : end], y[start + 1 : end])
                w = np.concatenate([w[: start + 1], np.matmul(yp, p.lift.adjacent[start + 1 : end])])
            rows = [p.a + self.rows(m, 0, start + 1) + self.rows(m, start + 1, m, w) for m in range(start + 1, end + 1)]
            return float(np.max(np.abs(np.array(rows) - y[start + 1 : end + 1])))


class _Modes:
    """Young and rough steps for sigma = Re sum_k (t - u)^p_k e^(z_k (t - u)) B_k(u, y) (`Modes`).

    Row m is a + Re sum_k Z_k[m], where Z_k[m] sums (t_m - t_l)^p_k
    e^(z_k (t_m - t_l)) g_l over the cells l < m and the per-cell term
    g_l = B(t_l, y_l) dx_l (plus D_y B(t_l, y_l) . w_l in the rough regime,
    w_l = y'_l . adj_l) is set once when row l is written.  The sweep
    carries the lag-free sums Z0[m + 1] = e^(z h_m) (Z0[m] + g_m) of every
    mode and, for the power-1 modes only,
    Z1[m + 1] = e^(z h_m) Z1[m] + h_m Z0[m + 1].
    The weights are never split into e^(-z t) e^(z u), so for Re z <= 0 the
    exponentials never exceed 1 in modulus.  One evaluation of B per written
    row also gives the rough y'_m, Re B_k(t_m, y_m) summed over the power-0
    modes.  O(n K) per solve.  A residual sums the cells before its window
    with one weighted sum, recomputes the window's own cells in one batch
    and convolves them with t_k^p e^(z t_k) by FFT, as the uniform grid has
    t_m - t_l = t_(m-l).
    """

    def __init__(self, p: VolterraProblem, y: np.ndarray):
        modes, n = p.coefficient.modes, p.grid.n_steps
        self.a, self.y, self.times = p.a, y, p.grid.times
        self.rates, self.value, self.jac = modes.rates, modes.value, modes.jac
        lagged = np.flatnonzero(modes.powers)
        self.lagged = lagged if len(lagged) else None  # the power-1 modes
        self.free = np.flatnonzero(modes.powers == 0)
        # row n closes no cell: a zero increment (and lift) and a unit shift
        # let it take the same steps as the others
        self.dx = np.concatenate([p.driver.cells(), np.zeros((1, p.n_dim))])
        self.h = np.diff(self.times, append=self.times[-1])
        self.shift = np.exp(self.h[:, None, None] * self.rates[:, None])
        self.lshift = None if self.lagged is None else self.shift[:, self.lagged]
        self.g = np.empty((n + 1, len(self.rates), p.d_dim), dtype=np.result_type(self.rates, float))
        self.yp = self.adj = None
        if p.regime == "rough":
            self.yp = np.empty((n + 1, p.d_dim, p.n_dim))
            self.adj = np.concatenate([p.lift.adjacent, np.zeros((1, p.n_dim, p.n_dim))])
        with np.errstate(over="ignore", invalid="ignore"):
            self.store(0)

    def store(self, m: int) -> None:
        g, yp = self.cells(m, m + 1)
        self.g[m] = g[0]
        if yp is not None:
            self.yp[m] = yp[0]

    def cells(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | None]:
        """g[lo:hi] and, in the rough regime, y'[lo:hi], from one evaluation of B at (t_m, y_m)."""
        us, ys = self.times[lo:hi], self.y[lo:hi]
        b = self.value(us, ys)
        g = (b @ self.dx[lo:hi, None, :, None])[..., 0]
        if self.yp is None:
            return g, None
        yp = np.add.reduce((b if self.lagged is None else b[:, self.free]).real, 1)  # a zero lag kills power 1
        w = (yp @ self.adj[lo:hi]).swapaxes(1, 2).reshape(hi - lo, 1, -1, 1)
        g += (self.jac(us, ys, b).reshape(b.shape[:3] + (-1,)) @ w)[..., 0]  # D_y B[k, a, b, c] w[c, b]
        return g, yp

    def sweep(self) -> int | None:
        y, a, g, h, shift, lshift, store = self.y, self.a, self.g, self.h, self.shift, self.lshift, self.store
        finite, add, free, lagged = np.isfinite, np.add.reduce, self.free, self.lagged
        mixed = len(free) > 0  # power-0 modes beside the power-1 ones
        with np.errstate(over="ignore", invalid="ignore"):
            z = shift[0] * g[0]  # the sums at row 1 hold cell 0 alone
            z1 = None if lagged is None else h[0] * z[lagged]
            for m in range(1, len(y)):
                if z1 is None:
                    y[m] = a + add(z.real, 0)
                elif mixed:
                    y[m] = a + add(z[free].real, 0) + add(z1.real, 0)
                else:
                    y[m] = a + add(z1.real, 0)
                if not finite(y[m]).all():
                    return m
                store(m)
                z = shift[m] * (z + g[m])
                if z1 is not None:
                    z1 = lshift[m] * z1 + h[m] * z[lagged]
        return None

    def residual(self, start: int, end: int) -> float:
        y, rows, lagged = self.y, end - start, self.lagged
        back, g, lags = self.times[start + 1] - self.times[: start + 1], self.g[: start + 1], self.times[:rows, None]
        with np.errstate(over="ignore", invalid="ignore"):
            # the history at row start + 1: Z0 of every mode and Z1 of the power-1 modes
            decay = np.exp(back[:, None] * self.rates)
            z0 = np.einsum("lk,lkd->kd", decay, g)
            z1 = None if lagged is None else np.einsum("lk,lkd->kd", back[:, None] * decay[:, lagged], g[:, lagged])
            weights = np.exp(lags * self.rates)[:, :, None]
            z = weights * z0
            if rows > 1:  # a one-row window has no cells of its own
                cells = self.cells(start + 1, end)[0]
                z[1:] += _causal(weights[1:], cells)
            if lagged is not None:  # row k: e^(z t_k) (Z1 + t_k Z0) of the history, cells weighted t_k e^(z t_k)
                decay = weights[:, lagged]
                z1 = decay * z1 + lags[:, :, None] * decay * z0[lagged]
                if rows > 1:
                    z1[1:] += _causal(lags[1:, :, None] * decay[1:], cells[:, lagged])
                z = np.concatenate([z[:, self.free], z1], axis=1)
            return float(np.max(np.abs(self.a + np.add.reduce(z.real, 1) - y[start + 1 : end + 1])))


class _Convolution:
    """Singular steps: y_m = a + sum over l < m of K[m - l] g_l, a causal discrete convolution.

    On the uniform grid t_m - t_l = t_(m-l), so the kernel weights
    K[k] = t_k^(-alpha) are computed once per solve, and the per-cell term
    g_l = psi(y_l) dx_l once when row l is written.  The sweep is the
    recursion of Hairer, Lubich and Schlichte (1985) over rows 1..n: solve
    the left half of a block, add its cells to the right half with one FFT,
    solve the right half; blocks of at most `LEAF_ROWS` rows are solved row
    by row.  O(n log^2 n) per solve.  A residual sums the cells before its
    window with one FFT middle product and its own cells, recomputed from
    y, with one causal FFT.

    Values near the float ceiling overflow to inf silently, as in a row
    sum.  An FFT spreads a non-finite cell over its block as nan, so a sweep
    stops at its first non-finite row, whose predecessors read finite cells.
    """

    yp = None

    def __init__(self, p: VolterraProblem, y: np.ndarray):
        self.a, self.y = p.a, y
        self.psi, self.dx = p.coefficient.psi.value, p.driver.cells()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self.K = p.grid.times ** -p.coefficient.alpha  # K[0] = inf: no cell weighs its own row
            self.g = np.empty((p.grid.n_steps, p.d_dim))
            self.g[0] = self.psi(p.a) @ self.dx[0]
        self.acc = np.empty_like(y)  # per row: a plus the cells summed so far
        self.spectra: dict[int, np.ndarray] = {}

    def sweep(self) -> int | None:
        with np.errstate(over="ignore", invalid="ignore"):
            self.acc[1:] = self.a + self.K[1:, None] * self.g[0]
            return self._solve(1, len(self.y))

    def residual(self, start: int, end: int) -> float:
        y, rows = self.y, end - start
        with np.errstate(over="ignore", invalid="ignore"):
            cells = (self.psi(y[start + 1 : end]) @ self.dx[start + 1 : end, :, None])[..., 0]
            out = self.a + self._convolve(0, start + 1, end + 1)
            out[1:] += _causal(self.K[1:rows, None], cells)
            return float(np.max(np.abs(out - y[start + 1 : end + 1])))

    def _solve(self, lo: int, hi: int) -> int | None:
        """Write rows [lo, hi), whose ``acc`` holds every cell before ``lo``; the first non-finite row, if any."""
        if hi - lo <= LEAF_ROWS:
            y, g, K, acc, psi, dx, cells = self.y, self.g, self.K, self.acc, self.psi, self.dx, len(self.g)
            for m in range(lo, hi):
                y[m] = acc[m] + K[m - lo : 0 : -1] @ g[lo:m]
                if not np.isfinite(y[m]).all():
                    return m
                if m < cells:
                    g[m] = psi(y[m]) @ dx[m]
            return None
        mid = (lo + hi) // 2
        bad = self._solve(lo, mid)
        if bad is not None:
            return bad
        self.acc[mid:hi] += self._convolve(lo, mid, hi)
        return self._solve(mid, hi)

    def _convolve(self, lo: int, mid: int, hi: int) -> np.ndarray:
        """Rows [mid, hi) of the sum over cells [lo, mid) of K[m - l] g_l: one FFT middle product.

        The lags run from 1 to hi - lo - 1, so a circular convolution of
        that length, rounded up to a power of two, wraps nothing into these
        rows.
        """
        size = 1 << (hi - lo - 2).bit_length()
        spectrum = self.spectra.get(size)
        if spectrum is None:
            spectrum = self.spectra[size] = np.fft.rfft(self.K[1 : size + 1], size)
        cells = np.fft.rfft(self.g[lo:mid], size, axis=0)
        return np.fft.irfft(cells * spectrum[:, None], size, axis=0)[mid - lo - 1 : hi - lo - 1]


def solve(
    p: VolterraProblem,
    tol: float | None = None,
    initial_window: int | None = None,
) -> SolverReport:
    """Fixed point of the problem's Picard map, reported window by window.

    ``tol`` defaults by driver (`DEFAULT_TOL_FBM` for fBm, otherwise
    `DEFAULT_TOL_SMOOTH`); the report reads each window's residual against
    it, and a finite sweep is accepted whatever its residual.
    ``initial_window``, the first report window's length in cells, defaults
    to a quarter of the grid; it does not touch the solution.
    """
    if tol is None:
        tol = DEFAULT_TOL_FBM if p.driver_meta and "hurst" in p.driver_meta else DEFAULT_TOL_SMOOTH
    if not (tol > 0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    grid, n, times = p.grid, p.grid.n_steps, p.grid.times
    norm_exponent = p.kappa if p.regime == "singular" else p.gamma
    window = max(n // 4, 1) if initial_window is None else initial_window
    if not (1 <= window <= n):
        raise ValueError(f"initial window must lie in [1, {n}] cells, got {window}")
    cap = max(n // 2, 1)

    y = np.tile(p.a, (n + 1, 1))
    kind = _Convolution if p.regime == "singular" else _RowSums if p.coefficient.modes is None else _Modes
    steps = kind(p, y)
    bad = steps.sweep()
    solved_steps = n if bad is None else bad - 1  # the map is causal: the rows before `bad` are exact

    windows: list[WindowRecord] = []
    start = 0
    while start < solved_steps:
        end = min(start + window, solved_steps)
        scale = max(1.0, float(np.max(np.abs(y[start : end + 1]))))
        fit = steps.residual(start, end) / scale, _segment_holder(times, y, start, end, norm_exponent)
        windows.append(WindowRecord(start, end, float(times[start]), float(times[end]), True, *fit))
        start = end
        window = min(int(window * 1.5), cap)
    if bad is not None:
        windows.append(WindowRecord(start, bad, float(times[start]), float(times[bad]), False, np.inf, np.inf))

    # tail past the solved horizon: constant extension, not solution values
    y[solved_steps + 1 :] = y[solved_steps]
    yp = steps.yp
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
        converged=solved_steps == n,
        t_solved=float(times[solved_steps]),
        solved_steps=solved_steps,
        tolerance=tol,
        holder_exponent=norm_exponent,
        proven_horizon=proven,
        extension_heuristic=heuristic,
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
