"""Volterra integrals with a weakly singular power kernel.

The integrand carries the factor (t - u)^(-alpha), alpha in (0, 1/2),
which blows up at the running upper limit.  Left-point sums never touch
the singular point, so the integral over [s, t] is realised level by level
on dyadic refinements of the interval: level 0 uses the single cell
[s, t], level n splits it into 2^n cells, and the finest level coincides
with the native grid cells.  Successive level corrections shrink
geometrically as long as the driver is more than (1/2 + alpha)-Hölder,
which is exactly the admissibility constraint on the kernel.

Increments between two times also pick up a contribution from the past:
the kernel difference (t - u)^(-alpha) - (s - u)^(-alpha) integrated over
[0, s], handled by the same dyadic scheme anchored at 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Path, _is_power_of_two
from .coefficients import MatrixFunc

__all__ = [
    "KernelSpec",
    "kernel_increment",
    "singular_integral_diag",
    "singular_integral_offdiag",
    "singular_increment",
    "singular_row_sum",
]

# below this fraction of the horizon, powers are evaluated in log space
TINY_INTERVAL_FRACTION = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Kernel (t - u)^(-alpha) paired with a state map psi and exponents.

    ``gamma`` is the Hölder regularity declared for the driver and
    ``kappa`` the regularity sought for the solution.  Admissibility:

    * 0 < alpha < 1/2
    * gamma - alpha > 1/2
    * 1 - (gamma - alpha) < kappa < gamma - alpha

    ``kappa`` defaults to the midpoint of its admissible interval (which
    is 1/2 regardless of the other exponents).  ``contraction_exponent``
    is the fixed intermediate exponent used by the level-decay
    diagnostics.
    """

    alpha: float
    psi: MatrixFunc
    gamma: float
    kappa: float | None = None

    def __post_init__(self) -> None:
        if not (0 < self.alpha < 0.5):
            raise ValueError(f"constraint violated: 0 < alpha < 1/2 (got alpha={self.alpha})")
        if not (0.5 < self.gamma <= 1.0):
            raise ValueError(f"constraint violated: 1/2 < gamma <= 1 (got gamma={self.gamma})")
        theta = self.gamma - self.alpha
        if not (theta > 0.5):
            raise ValueError(
                f"constraint violated: gamma - alpha > 1/2 (got gamma={self.gamma}, alpha={self.alpha})"
            )
        if self.kappa is None:
            object.__setattr__(self, "kappa", 0.5)
        if not (1 - theta < self.kappa < theta):
            raise ValueError(
                "constraint violated: 1 - (gamma - alpha) < kappa < gamma - alpha "
                f"(got kappa={self.kappa}, gamma-alpha={theta})"
            )

    @property
    def contraction_exponent(self) -> float:
        return 0.5 * (self.kappa + self.gamma - self.alpha)

    @property
    def d_dim(self) -> int:
        return self.psi.d_dim

    @property
    def n_dim(self) -> int:
        return self.psi.n_dim


def _power(dt: np.ndarray, alpha: float, horizon: float) -> np.ndarray:
    """(dt)^(-alpha) with a log-space branch for very small intervals."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0):
        raise ValueError("kernel evaluated at a nonpositive interval")
    tiny = dt < TINY_INTERVAL_FRACTION * horizon
    if not np.any(tiny):
        return dt**-alpha
    out = np.empty_like(dt)
    out[~tiny] = dt[~tiny] ** -alpha
    out[tiny] = np.exp(-alpha * np.log(dt[tiny]))
    return out


def kernel_increment(t: float, s: float, u: float, alpha: float) -> float:
    """(t - u)^(-alpha) - (s - u)^(-alpha) for u < s < t; always <= 0.

    Pointwise helper: any alpha in (0, 1) is meaningful here, while the
    solvability constraints of `KernelSpec` restrict to (0, 1/2).
    """
    if not (u < s < t):
        raise ValueError(f"kernel increment needs u < s < t, got u={u}, s={s}, t={t}")
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float((t - u) ** -alpha - (s - u) ** -alpha)


def singular_row_sum(
    k: KernelSpec, times: np.ndarray, dx: np.ndarray, y: np.ndarray, m: int, lo: int, hi: int
) -> np.ndarray:
    """Sum over cells l in [lo, hi) of (t_m - t_l)^(-alpha) psi(y_l) dx_l, shape (d,).

    Every cell starts at least one grid step before t_m, so the weights
    are finite plain powers.
    """
    if hi <= lo:
        return np.zeros(k.d_dim)
    weights = (times[m] - times[lo:hi]) ** -k.alpha
    return np.einsum("l,ldn,ln->d", weights, k.psi.value(y[lo:hi]), dx[lo:hi])


def _check_paths(k: KernelSpec, y: Path, x: Path) -> None:
    if y.values.ndim != 2 or y.dim != k.d_dim:
        raise ValueError(f"state path incompatible with kernel state map (need dimension {k.d_dim})")
    if x.values.ndim != 2 or x.dim != k.n_dim:
        raise ValueError(f"driver path incompatible with kernel state map (need dimension {k.n_dim})")
    if y.grid != x.grid:
        raise ValueError("state and driver live on different grids")


def _dyadic_levels(
    k: KernelSpec,
    y: Path,
    x: Path,
    weight_fn,
    base: int,
    span: int,
    stride_base: int,
) -> list[np.ndarray]:
    """Level-by-level left-point sums with weights from ``weight_fn``.

    Level n uses 2^n left points starting at ``base`` with stride
    ``stride_base >> n``; ``span = stride_base * 2^n_max`` cells total.
    """
    t = y.grid.times
    xv = x.values
    yv = y.values
    n_max = span.bit_length() - 1
    levels = []
    for n in range(n_max + 1):
        stride = span >> n
        idx = base + stride * np.arange(1 << n)
        w = weight_fn(t[idx])
        psi_v = k.psi.value(yv[idx])
        dxv = xv[idx + stride] - xv[idx]
        levels.append(np.einsum("l,ldn,ln->d", w, psi_v, dxv))
    return levels


def singular_integral_diag(
    k: KernelSpec,
    y: Path,
    x: Path,
    i: int,
    j: int,
    return_levels: bool = False,
):
    """Integral of (t_j - u)^(-alpha) psi(y_u) dx_u over [t_i, t_j].

    ``j - i`` must be a power of two so every dyadic level of the interval
    is available.  The returned value is the finest level (native grid
    cells); with ``return_levels`` the whole refinement sequence comes
    back, coarsest first, whose successive corrections shrink
    geometrically for admissible exponents.
    """
    _check_paths(k, y, x)
    n = y.grid.n_steps
    if not (0 <= i < j <= n):
        raise ValueError(f"need 0 <= i < j <= {n}, got ({i}, {j})")
    if not _is_power_of_two(j - i):
        raise ValueError(f"non-dyadic interval: j - i = {j - i} is not a power of two")
    t = y.grid.times
    horizon = y.grid.horizon
    t_end = float(t[j])
    levels = _dyadic_levels(
        k, y, x,
        weight_fn=lambda u: _power(t_end - u, k.alpha, horizon),
        base=i, span=j - i, stride_base=j - i,
    )
    return (levels[-1], levels) if return_levels else levels[-1]


def singular_integral_offdiag(
    k: KernelSpec,
    y: Path,
    x: Path,
    i: int,
    j: int,
    return_levels: bool = False,
):
    """Integral over the past [0, t_i] of the kernel increment times psi dx.

    The weight is (t_j - u)^(-alpha) - (t_i - u)^(-alpha), which is
    nonpositive and singular at u -> t_i; left points keep it finite.
    ``i`` must be a power of two (or zero, where the past is empty).
    """
    _check_paths(k, y, x)
    n = y.grid.n_steps
    if not (0 <= i < j <= n):
        raise ValueError(f"need 0 <= i < j <= {n}, got ({i}, {j})")
    if i == 0:
        zero = np.zeros(k.d_dim)
        return (zero, [zero]) if return_levels else zero
    if not _is_power_of_two(i):
        raise ValueError(f"non-dyadic past: i = {i} is not a power of two")
    t = y.grid.times
    horizon = y.grid.horizon
    t_new, t_old = float(t[j]), float(t[i])

    def weight(u):
        return _power(t_new - u, k.alpha, horizon) - _power(t_old - u, k.alpha, horizon)

    levels = _dyadic_levels(k, y, x, weight_fn=weight, base=0, span=i, stride_base=i)
    return (levels[-1], levels) if return_levels else levels[-1]


def singular_increment(k: KernelSpec, y: Path, x: Path, i: int, j: int) -> np.ndarray:
    """Increment of the singular Volterra integral between t_i and t_j.

    The sum of the running integral over [t_i, t_j] and the kernel-change
    correction over the past [0, t_i].  Needs j - i a power of two, and i
    one as well (or zero).
    """
    return singular_integral_diag(k, y, x, i, j) + singular_integral_offdiag(k, y, x, i, j)
