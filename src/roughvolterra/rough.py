"""Second-order integration against rough drivers via Lévy-area lifts.

Below Hölder exponent 1/2 the first-order (Young) sums stop converging;
the cure is to carry, along with the driver x, its iterated integrals

    xx_st[a, b] = integral over [s, t] of (x_u^a - x_s^a) dx_u^b,

and to integrate paths that are *controlled* by x: paths whose increments
are, to leading order, a linear image of the driver's increments,
delta y = y' delta x + r with a doubly-regular remainder r.  The integral
of a controlled integrand is then the compensated limit of second-order
sums z_s (delta x)_st + z'_s . xx_st.

`LevyArea` stores the lift on adjacent grid cells only; values over wider
intervals are reconstructed through Chen's relation

    xx_st = xx_su + xx_ut + (delta x)_su (x) (delta x)_ut,

realised with prefix accumulation so queries cost O(1) and satisfy the
relation to machine precision.  The piecewise-linear lift (cell value
half the outer product of the cell increment) is the canonical geometric
choice; smoother drivers can be lifted on a finer sub-grid and restricted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Grid,
    Increment2,
    Path,
    _cell_prefix,
    holder_norm,
    path_holder_norm,
    sup_norm,
)
from .coefficients import Coefficient

__all__ = [
    "LevyArea",
    "ControlledPath",
    "QNorm",
    "levy_lift_piecewise_linear",
    "lift_from_subgrid",
    "rough_integral",
    "controlled_compose",
    "volterra_remainder_rough",
    "rough_germ",
    "rough_row_sum",
]


@dataclass
class LevyArea:
    """Adjacent-cell Lévy areas of a driver, queried via Chen's relation.

    ``adjacent[k]`` is the n x n lift over cell [t_k, t_k+1].  Arbitrary
    pairs are served from prefix sums:

        xx(i, j) = P_j - P_i - (x_i - x_0) (x) (x_j - x_i),

    which reproduces exactly the Chen-composition of the adjacent cells.
    """

    x: Path
    adjacent: np.ndarray

    def __post_init__(self) -> None:
        if self.x.values.ndim != 2:
            raise ValueError("lift driver must be a vector path (N + 1, n)")
        n_steps, n = self.x.grid.n_steps, self.x.dim
        adj = np.asarray(self.adjacent, dtype=float)
        if adj.shape != (n_steps, n, n):
            raise ValueError(f"adjacent cells must have shape ({n_steps}, {n}, {n}), got {adj.shape}")
        if not np.all(np.isfinite(adj)):
            raise ValueError("lift values must be finite")
        self.adjacent = adj
        xv = self.x.values
        chain = adj + np.einsum("ka,kb->kab", xv[:-1] - xv[0], np.diff(xv, axis=0))
        self._prefix = _cell_prefix(chain)

    @property
    def grid(self) -> Grid:
        return self.x.grid

    @property
    def dim(self) -> int:
        return self.x.dim

    def fn(self, i, j):
        xv = self.x.values
        outer = np.einsum("...a,...b->...ab", xv[i] - xv[0], xv[j] - xv[i])
        return self._prefix[j] - self._prefix[i] - outer

    def __call__(self, i: int, j: int) -> np.ndarray:
        if not (0 <= i <= j <= self.grid.n_steps):
            raise ValueError(f"index pair ({i}, {j}) outside 0 <= i <= j <= {self.grid.n_steps}")
        return self.fn(i, j)

    def cells(self) -> np.ndarray:
        return self.adjacent

    def as_increment(self) -> Increment2:
        return Increment2(self.grid, self.fn, (self.dim, self.dim))

    def restrict(self, factor: int) -> "LevyArea":
        """Lift over the coarser grid: coarse cells are Chen-composed fine spans."""
        coarse_x = self.x.restrict(factor)
        m = coarse_x.grid.n_steps
        k = np.arange(m)
        coarse_cells = self.fn(k * factor, (k + 1) * factor)
        return LevyArea(coarse_x, coarse_cells)


def levy_lift_piecewise_linear(x: Path) -> LevyArea:
    """Geometric lift of the piecewise-linear interpolation of the samples.

    Each cell contributes half the outer product of its increment, which
    is the exact iterated integral of the straight-line segment.
    """
    dx = x.cells()
    return LevyArea(x, 0.5 * np.einsum("ka,kb->kab", dx, dx))


def lift_from_subgrid(x_fine: Path, factor: int) -> tuple[Path, LevyArea]:
    """Piecewise-linear lift built on a finer grid, restricted to the working one.

    Returns the restricted driver together with its lift; the coarse cell
    areas aggregate the fine-scale fluctuations that a lift built directly
    on the coarse samples would miss.
    """
    fine = levy_lift_piecewise_linear(x_fine)
    coarse = fine.restrict(factor)
    return coarse.x, coarse


@dataclass(frozen=True)
class QNorm:
    """Size of a controlled path: the four seminorm components and their sum."""

    gamma: float
    eta: float
    y_holder: float
    yprime_sup: float
    yprime_holder: float
    remainder: float

    @property
    def total(self) -> float:
        return self.y_holder + self.yprime_sup + self.yprime_holder + self.remainder


@dataclass
class ControlledPath:
    """A path y with derivative process y' controlling it along the driver x.

    ``y.values`` has shape (N + 1, *S) and ``yprime.values`` shape
    (N + 1, *S, n); the remainder r(i, j) = delta y - y'_i delta x must be
    eta-Hölder with gamma < eta <= 2 gamma for the pair to qualify.
    Solutions are vector-valued (S = (d,)); composed integrands are
    matrix-valued (S = (d, n)).
    """

    x: Path
    y: Path
    yprime: Path
    gamma: float
    eta: float

    def __post_init__(self) -> None:
        if self.x.values.ndim != 2:
            raise ValueError("driver must be a vector path (N + 1, n)")
        if not (self.x.grid == self.y.grid == self.yprime.grid):
            raise ValueError("driver, path and derivative must share one grid")
        if self.yprime.value_shape != self.y.value_shape + (self.x.dim,):
            raise ValueError(
                f"derivative shape {self.yprime.value_shape} does not extend "
                f"path shape {self.y.value_shape} by the driver dimension {self.x.dim}"
            )
        if not (0 < self.gamma <= 1):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not (self.gamma < self.eta <= 2 * self.gamma):
            raise ValueError(f"eta must lie in (gamma, 2 gamma], got eta={self.eta}, gamma={self.gamma}")

    def remainder(self) -> Increment2:
        """The increment r(i, j) = y_j - y_i - y'_i (x_j - x_i)."""
        yv, ypv, xv = self.y.values, self.yprime.values, self.x.values
        s_ndim = len(self.y.value_shape)

        def fn(i, j):
            dx = xv[j] - xv[i]
            dxe = dx.reshape(dx.shape[:-1] + (1,) * s_ndim + (dx.shape[-1],))
            return yv[j] - yv[i] - np.sum(ypv[i] * dxe, axis=-1)

        return Increment2(self.x.grid, fn, self.y.value_shape)

    def qnorm(self) -> QNorm:
        """Measure the four components at (gamma, eta).

        The path norms take `path_holder_norm`'s pruned scan; the remainder
        is not a path increment and scans all O(n^2) pairs.
        """
        return QNorm(
            gamma=self.gamma,
            eta=self.eta,
            y_holder=path_holder_norm(self.y, self.gamma).value,
            yprime_sup=sup_norm(self.yprime),
            yprime_holder=path_holder_norm(self.yprime, self.eta - self.gamma).value,
            remainder=holder_norm(self.remainder(), self.eta).value,
        )


def _check_integrand(z: ControlledPath, x: Path, xx: LevyArea) -> None:
    if z.y.values.ndim != 3:
        raise ValueError("rough integrand must be matrix-valued with shape (N + 1, d, n)")
    if z.x is not x and not (z.x.grid == x.grid and np.array_equal(z.x.values, x.values)):
        raise ValueError("integrand is controlled by a different driver")
    if xx.x.grid != x.grid or xx.dim != x.dim:
        raise ValueError("lift does not match the driver")
    if z.y.values.shape[2] != x.dim:
        raise ValueError(f"integrand has {z.y.values.shape[2]} columns but the driver has dimension {x.dim}")


def rough_germ(z: ControlledPath, x: Path, xx: LevyArea) -> Increment2:
    """Second-order germ (i, j) -> z_i (delta x)_ij + z'_i . xx_ij.

    The derivative contracts against the lift as trace(z'_i[row] @ xx_ij)
    per output row.
    """
    _check_integrand(z, x, xx)
    zv, zpv, xv = z.y.values, z.yprime.values, x.values

    def fn(i, j):
        first = np.einsum("...dn,...n->...d", zv[i], xv[j] - xv[i])
        second = np.einsum("...dba,...ab->...d", zpv[i], xx.fn(i, j))
        return first + second

    return Increment2(x.grid, fn, (z.y.values.shape[1],))


def rough_integral(z: ControlledPath, x: Path, xx: LevyArea, i: int, j: int) -> np.ndarray:
    """Compensated second-order sum of a controlled integrand over [i, j).

    Cell for cell this sews the second-order germ, so interval
    concatenation telescopes exactly; for drivers above exponent 1/2 with
    the geometric lift it reduces to the Young sums plus an O(grid step)
    lift correction.
    """
    _check_integrand(z, x, xx)
    n = x.grid.n_steps
    if not (0 <= i <= j <= n):
        raise ValueError(f"index pair ({i}, {j}) outside 0 <= i <= j <= {n}")
    zv, zpv = z.y.values, z.yprime.values
    dx = x.cells()
    cells = np.einsum("kdn,kn->kd", zv[:-1], dx) + np.einsum("kdba,kab->kd", zpv[:-1], xx.adjacent)
    prefix = _cell_prefix(cells)
    return prefix[j] - prefix[i]


def rough_row_sum(
    sigma: Coefficient, t: float, times: np.ndarray, dx: np.ndarray,
    y: np.ndarray, w: np.ndarray,
) -> np.ndarray:
    """Sum over cells l of the second-order germ frozen at outer time t, shape (d,).

    Cell l contributes sigma(t, times_l, y_l) dx_l plus the chain-rule
    derivative D_y sigma(t, times_l, y_l) against ``w[l] = yp_l . adj_l``,
    the state derivative times the cell's lift, shape (l, d, n), which does
    not depend on t; all arrays hold the cells in one order.
    """
    if len(times) == 0:
        return np.zeros(sigma.d_dim)
    t = float(t)
    return np.einsum("ldn,ln->d", sigma.eval_many(t, times, y), dx) + np.einsum(
        "ldbc,lcb->d", sigma.d3_many(t, times, y), w
    )


def controlled_compose(sigma: Coefficient, t: float, y: ControlledPath) -> ControlledPath:
    """Compose a coefficient with a controlled state at frozen outer time t.

    Values are sigma(t, u, y_u); the derivative process is the chain rule
    image D_y sigma . y', so the composition is controlled by the same
    driver with the same exponent pair.
    """
    if y.y.values.ndim != 2 or y.y.dim != sigma.d_dim:
        raise ValueError(f"controlled state has dimension {y.y.values.shape[1:]}, need ({sigma.d_dim},)")
    if y.x.dim != sigma.n_dim:
        raise ValueError(f"driver dimension {y.x.dim} does not match coefficient n_dim {sigma.n_dim}")
    grid = y.y.grid
    times = grid.times
    vals = sigma.eval_many(float(t), times, y.y.values)
    jac = sigma.d3_many(float(t), times, y.y.values)
    deriv = np.einsum("ldnc,lca->ldna", jac, y.yprime.values)
    return ControlledPath(y.x, Path(grid, vals), Path(grid, deriv), y.gamma, y.eta)


def volterra_remainder_rough(
    sigma: Coefficient,
    y: ControlledPath,
    x: Path,
    xx: LevyArea,
    i: int,
    j: int,
    return_parts: bool = False,
):
    """Increment of the rough Volterra integral of sigma(., ., y) from t_i to t_j.

    Assembled as two compensated second-order sums: the t_j-frozen
    composed integrand over [t_i, t_j], plus the difference between the
    t_j- and t_i-frozen integrands over the past [0, t_i].  Coefficients
    without outer-time dependence make the past part vanish identically.
    """
    n = x.grid.n_steps
    if not (0 <= i <= j <= n):
        raise ValueError(f"index pair ({i}, {j}) outside 0 <= i <= j <= {n}")
    t = x.grid.times
    z_new = controlled_compose(sigma, float(t[j]), y)
    recent = rough_integral(z_new, x, xx, i, j)
    if i > 0:
        z_old = controlled_compose(sigma, float(t[i]), y)
        past = rough_integral(z_new, x, xx, 0, i) - rough_integral(z_old, x, xx, 0, i)
    else:
        past = np.zeros_like(recent)
    if return_parts:
        return recent, past
    return recent + past
