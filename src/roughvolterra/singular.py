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
[0, s], handled by the same dyadic scheme anchored at 0.  Every level of
either part is a `singular_row_sum`.  The solver sums the same cells
on the uniform grid as a causal convolution and never calls it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Path, _is_power_of_two
from .coefficients import MatrixFunc, Modes, _lag_times_psi

__all__ = [
    "KernelSpec",
    "kernel_increment",
    "singular_integral_diag",
    "singular_integral_offdiag",
    "singular_increment",
    "singular_row_sum",
]

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
    is (kappa + gamma - alpha) / 2, the midpoint of kappa and gamma - alpha.
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
    def modes(self) -> Modes:
        """The kernel as one `Modes` term: lag power -alpha, rate 0, B = psi(y)."""
        return _lag_times_psi(0.0, -self.alpha, self.psi)

    @property
    def d_dim(self) -> int:
        return self.psi.d_dim

    @property
    def n_dim(self) -> int:
        return self.psi.n_dim


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
    k: KernelSpec, t: float, times: np.ndarray, dx: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Sum over cells l of (t - times_l)^(-alpha) psi(y_l) dx_l, shape (d,).

    ``times``, ``dx`` and ``y`` hold the cells' left points, driver
    increments and left-point states.  Every cell starts before t, so the
    weights are finite plain powers.
    """
    if len(times) == 0:
        return np.zeros(k.d_dim)
    return np.einsum("l,ldn,ln->d", (t - times) ** -k.alpha, k.psi.value(y), dx)


def _check_paths(k: KernelSpec, y: Path, x: Path) -> None:
    if y.values.ndim != 2 or y.dim != k.d_dim:
        raise ValueError(f"state path incompatible with kernel state map (need dimension {k.d_dim})")
    if x.values.ndim != 2 or x.dim != k.n_dim:
        raise ValueError(f"driver path incompatible with kernel state map (need dimension {k.n_dim})")
    if y.grid != x.grid:
        raise ValueError("state and driver live on different grids")


def _level_sums(k: KernelSpec, y: Path, x: Path, t: float, lo: int, hi: int) -> list[np.ndarray]:
    """Row sums at outer time t over the dyadic levels of [t_lo, t_hi], coarsest first.

    Level n sums the cells of the strided restriction lo : hi + 1 : (hi - lo) >> n,
    so level 0 is the one cell [t_lo, t_hi] and the last level the native cells.
    """
    span = hi - lo
    levels = []
    for n in range(span.bit_length()):
        points = slice(lo, hi + 1, span >> n)
        times, xs, ys = y.grid.times[points], x.values[points], y.values[points]
        levels.append(singular_row_sum(k, t, times[:-1], np.diff(xs, axis=0), ys[:-1]))
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
    levels = _level_sums(k, y, x, float(y.grid.times[j]), i, j)
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
    Each level is the t_j-frozen row sum minus the t_i-frozen one.
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
    new = _level_sums(k, y, x, float(t[j]), 0, i)
    old = _level_sums(k, y, x, float(t[i]), 0, i)
    levels = [a - b for a, b in zip(new, old)]
    return (levels[-1], levels) if return_levels else levels[-1]


def singular_increment(k: KernelSpec, y: Path, x: Path, i: int, j: int) -> np.ndarray:
    """Increment of the singular Volterra integral between t_i and t_j.

    The sum of the running integral over [t_i, t_j] and the kernel-change
    correction over the past [0, t_i].  Needs j - i a power of two, and i
    one as well (or zero).
    """
    return singular_integral_diag(k, y, x, i, j) + singular_integral_offdiag(k, y, x, i, j)
