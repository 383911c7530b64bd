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
(capped at half the horizon).  The solve computes the image a + I(y) of
the solved rows once, from cells recomputed from y in one batch, by
another route than the sweep's; a window records its a-posteriori
residual max |a + I(y)_m - y_m| / max(1, max |y|) over its rows, read off
that image.  The windows shape only the report, never the solution, nor
any row's residual.  A sweep that turns non-finite at row r keeps the rows
before r, and the report ends with a failed one-cell window [r - 1, r].
The report then carries the partial solution up to the last accepted
time, which for the rough regime is a legitimate outcome rather than an
error: only local solvability is guaranteed there, and the report marks
everything past the first window as heuristic continuation.

Cost in grid steps n: every built-in coefficient family, and the singular
kernel, depends on the outer time only through the lag, as K modes
(t - u)^p e^(z (t - u)) (K = 1 for each), so on the uniform grid a solve is
a causal convolution: one blocked forward substitution whose block sums
are FFTs (`numpy.fft`), O(n K log^2 n).  A custom coefficient costs O(n^2),
every row summing its earlier cells.  The per-row constant outweighs the
log factors: a row solved directly is one contiguous dot over its block's
earlier cells and one evaluation of B, with one finiteness check per block
of at most 64 rows.  At n = 2^19 a young solve takes 3.95 s (7.5 us per
row) and a rough one 14.1 s (27 us per row): the young and rough benchmark
configs, the rough one with ``lift_refine`` 1; min of 3, 2-core Xeon, one
BLAS thread.  An O(n K) running-sum recursion over the modes was slower
still, by a factor 1.2 against an earlier form of this sweep.

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
# its first non-finite row.  `_Convolution` solves every sigma with modes (the
# built-in families and the singular kernel), whose germ depends on the outer
# time only through the lag; `_RowSums` sums each row's cells at t_m for a
# custom sigma.  Each also computes the image a + I(y) of rows 1..end once,
# all its cells recomputed from y in one batch, for the report's residuals.
# ---------------------------------------------------------------------------

# The most rows a sweep solves by the direct row loop; larger blocks split in two.
LEAF_ROWS = 64


class _RowSums:
    """Young and rough steps: row m sums the regime's germs of cells [lo, m) frozen at t_m.

    O(n) per row, O(n^2) per solve: the path of custom coefficients, which
    carry no modes.  The rough germ also
    reads y' = sigma(t, t, y), refreshed right after y, through the
    per-cell product w_l = y'_l . adj_l; the young regime carries neither.
    The image sums the same rows with y' and w recomputed from y in one
    batch.
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

    def image(self, end: int) -> np.ndarray:
        """a + I(y) at rows 1..end, end >= 1, shape (end, d)."""
        p, y, w = self.p, self.y, self.w
        with np.errstate(over="ignore", invalid="ignore"):
            if w is not None:  # y' and w afresh from y, in one batch
                w = np.matmul(p.coefficient.diagonal_many(p.grid.times[:end], y[:end]), p.lift.adjacent[:end])
            return p.a + np.array([self.rows(m, 0, m, w) for m in range(1, end + 1)])


class _Convolution:
    """Steps for sigma = Re sum_k (t - u)^p_k e^(z_k (t - u)) B_k(u, y) (`Modes`): a causal discrete convolution.

    On the uniform grid t_m - t_l = t_(m-l), so
    y_m = a + Re sum_k sum over l < m of K[m - l, k] g_l[k], the lag weights
    K[j, k] = t_j^p_k e^(z_k t_j) computed once per solve (the singular
    kernel: one mode t_j^(-alpha)) and the per-cell term
    g_l = B(t_l, y_l) dx_l (plus D_y B(t_l, y_l) . w_l in the rough regime,
    w_l = y'_l . adj_l) once when row l is written; the same evaluation of
    B gives the rough y'_l, Re B_k(t_l, y_l) summed over the power-0 modes.
    The sweep is the recursion of Hairer, Lubich and Schlichte (1985) over
    rows 1..n: solve the left half of a block, add its cells to the right
    half with one FFT middle product, solve the right half; blocks of at
    most `LEAF_ROWS` rows are solved row by row.  y is its own accumulator:
    the sweep first writes a plus cell 0 into every row, and each middle
    product adds into the rows it reaches, so a leaf row adds only its own
    block's earlier cells, one contiguous dot with the lag table ``leaf``
    (lags reversed, each lag's modes forward), and then evaluates B once
    for its cell.  A leaf checks its rows for finiteness once, after its
    loop, and returns the first non-finite one: the map is causal, so the
    rows before it are exact whatever the rows after it hold.  The image
    recomputes the cells from y in one batch.  Each FFT sum adds the modes
    before its inverse.

    An FFT rounds relative to its largest term, so the FFTs take the
    bounded weights Kt = t^p e^((z - c) t), c = max(0, max Re z), a block's
    cells scaled by e^(-c (t_l - t_lo)) and its rows by e^(c (t_m - t_lo)):
    a growing mode rounds each row relative to its own terms.  Values near
    the float ceiling overflow to inf silently, as in a row sum.  An FFT
    spreads a non-finite cell over its block as nan, so a sweep stops at the
    leaf that holds its first non-finite row, before any FFT reads that
    leaf's cells; that row's predecessors read finite cells.
    """

    def __init__(self, p: VolterraProblem, y: np.ndarray):
        modes, n = p.coefficient.modes, p.grid.n_steps
        self.a, self.y, self.times = p.a, y, p.grid.times
        self.value, self.jac = modes.value, modes.jac
        self.free = np.flatnonzero(modes.powers == 0)  # the modes of y' = sigma(t, t, y): a zero lag kills power 1
        # row n closes no cell: a zero increment (and lift) lets it take the same steps as the others
        self.dx = np.concatenate([p.driver.cells(), np.zeros((1, p.n_dim))])[:, None, :, None]
        self.yp = self.adj = None
        if p.regime == "rough":
            self.yp = np.empty((n + 1, p.d_dim, p.n_dim))
            self.adj = np.concatenate([p.lift.adjacent, np.zeros((1, p.n_dim, p.n_dim))])
        lags, self.c = self.times[:, None], max(0.0, float(np.max(modes.rates.real)))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            power = lags**modes.powers  # inf at lag 0 for the singular kernel: no cell weighs its own row
            self.K = power * np.exp(lags * modes.rates)
            self.Kt = power * np.exp(lags * (modes.rates - self.c)) if self.c > 0 else self.K
        # the lags reversed, each lag's modes forward: row m's weights on cells [lo, m) are one forward slice
        self.leaf = self.K[::-1].ravel()
        self.complex = np.iscomplexobj(self.K)
        self.fft = (np.fft.fft, np.fft.ifft) if self.complex else (np.fft.rfft, np.fft.irfft)
        self.g = np.empty((n + 1, self.K.shape[1], p.d_dim, 1), dtype=self.K.dtype)  # (..., 1): a matmul's output
        self.spectra: dict[int, np.ndarray] = {}

    def cells(self, rows: int | slice, out: np.ndarray | None = None, yp: np.ndarray | None = None) -> np.ndarray:
        """g[rows], shape (..., K, d, 1), into ``out``; the same evaluation of B gives the rough y'[rows] into ``yp``."""
        us, ys = self.times[rows], self.y[rows]
        b = self.value(us, ys)
        g = np.matmul(b, self.dx[rows], out=out)
        if self.adj is None:
            return g
        yp = np.add.reduce(b[..., self.free, :, :].real, -3, out=None if yp is None else yp[rows])
        w = (yp @ self.adj[rows]).swapaxes(-1, -2).reshape(yp.shape[:-2] + (1, -1, 1))
        g += self.jac(us, ys, b).reshape(b.shape[:-1] + (-1,)) @ w  # D_y B[k, a, b, c] w[c, b]
        return g

    def sweep(self) -> int | None:
        with np.errstate(over="ignore", invalid="ignore"):
            self.cells(0, self.g[0], self.yp)
            first = self.K[1:] @ self.g[0, ..., 0]  # every row's cell 0
            self.y[1:] = self.a + (first.real if self.complex else first)
            return self._solve(1, len(self.y))

    def image(self, end: int) -> np.ndarray:
        """a + I(y) at rows 1..end, end >= 1, shape (end, d): one causal FFT over cells 0..end - 1."""
        with np.errstate(over="ignore", invalid="ignore"):
            # the sweep is done with its spectra and its cells: free the one, overwrite the other
            self.spectra.clear()
            size = 1 << (2 * end - 2).bit_length()  # no wrap into the end outputs
            cells = self._hat(self.cells(slice(0, end), self.g[:end])[..., 0], size)
            cells *= self.fft[0](self.Kt[1 : end + 1], size, axis=0)[:, :, None]
            return self.a + self._spread(cells, size, 0, end)

    def _solve(self, lo: int, hi: int) -> int | None:
        """Write rows [lo, hi), which hold a plus every cell before ``lo``; the first non-finite row, if any."""
        y = self.y
        if hi - lo <= LEAF_ROWS:
            g, leaf, cells, yp = self.g, self.leaf, self.cells, self.yp
            modes, d = g.shape[1:3]
            flat, real = g.reshape(-1, d), not self.complex  # cell l's modes: rows l K .. l K + K - 1 of flat
            top = len(leaf) - modes  # lag j's modes start at top - j K
            for m in range(lo, hi):
                s = leaf[top - (m - lo) * modes : top].dot(flat[lo * modes : m * modes])
                y[m] = y[m] + (s if real else s.real)
                cells(m, g[m], yp)
            # causal: the rows before the first non-finite one are exact, whatever the rows after it hold
            finite = np.isfinite(y[lo:hi]).all(axis=1)
            first = int(np.argmin(finite))
            return None if finite[first] else lo + first
        mid = (lo + hi) // 2
        bad = self._solve(lo, mid)
        if bad is not None:
            return bad
        y[mid:hi] += self._convolve(lo, mid, hi)
        return self._solve(mid, hi)

    def _convolve(self, lo: int, mid: int, hi: int) -> np.ndarray:
        """Rows [mid, hi) of the sum over cells [lo, mid) of K[m - l] g_l: one FFT middle product.

        The lags run from 1 to hi - lo - 1, so a circular convolution of that
        length, rounded up to a power of two, wraps nothing into these rows.
        """
        size = 1 << (hi - lo - 2).bit_length()
        spectrum = self.spectra.get(size)
        if spectrum is None:
            spectrum = self.spectra[size] = self.fft[0](self.Kt[1 : size + 1], size, axis=0)
        cells = self._hat(self.g[lo:mid, ..., 0], size)
        return self._spread(np.multiply(cells, spectrum[:, :, None], out=cells), size, mid - lo - 1, hi - mid)

    def _hat(self, cells: np.ndarray, size: int) -> np.ndarray:
        """The FFT of ``cells`` zero-padded to ``size``, cell j scaled by e^(-c t_j) first."""
        if self.c > 0:
            cells = cells * np.exp(-self.c * self.times[: len(cells), None, None])
        return self.fft[0](cells, size, axis=0)

    def _spread(self, product: np.ndarray, size: int, skip: int, rows: int) -> np.ndarray:
        """Outputs [skip, skip + rows) of the inverse FFT of ``product``, summed over the modes in place.

        ``product`` pairs the FFT of Kt[1:] with a `_hat`; output i is scaled
        by e^(c t_(1 + i)), so it sums the cells j at their lag-(1 + i - j)
        weight of K.
        """
        for k in range(1, product.shape[1]):
            product[:, 0] += product[:, k]
        out = self.fft[1](product[:, 0], size, axis=0)[skip : skip + rows]
        out = out.real if self.complex else out
        return out if self.c == 0 else out * np.exp(self.c * self.times[skip + 1 : skip + 1 + rows, None])


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
    steps = (_RowSums if p.coefficient.modes is None else _Convolution)(p, y)
    bad = steps.sweep()
    solved_steps = n if bad is None else bad - 1  # the map is causal: the rows before `bad` are exact
    if solved_steps:  # every row's a-posteriori residual |(Gamma y)_m - y_m|, from one image
        gaps = np.abs(steps.image(solved_steps) - y[1 : solved_steps + 1]).max(axis=1)

    windows: list[WindowRecord] = []
    start = 0
    while start < solved_steps:
        end = min(start + window, solved_steps)
        scale = max(1.0, float(np.max(np.abs(y[start : end + 1]))))
        fit = float(np.max(gaps[start:end])) / scale, _segment_holder(times, y, start, end, norm_exponent)
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
