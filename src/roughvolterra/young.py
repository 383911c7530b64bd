"""Young-type integrals of matrix integrands against vector paths.

When the integrand is rho-Hölder, the driver gamma-Hölder, and
rho + gamma > 1, the left-point Riemann sums over refining partitions
converge; their limit is the Young integral.  On a fixed grid the integral
is realised as the compensated sum of the germ z_s (x_t - x_s) over the
finest cells, i.e. exactly the additive part produced by the sewing
construction, so concatenating intervals telescopes by construction.

Volterra increments carry the outer time inside the integrand.  The
increment from s to t splits into the integral of the t-frozen integrand
over [s, t] plus the integral over the past [0, s] of the difference
between the t-frozen and s-frozen integrands; both parts are plain Young
integrals on the grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import Grid, HolderNorm, Increment2, Path, _cell_prefix, path_holder_norm
from .coefficients import Coefficient
from .signals import estimate_holder

__all__ = [
    "YoungIntegrand",
    "ExponentWarning",
    "young_germ",
    "young_integral",
    "compose_coeff",
    "young_row_sum",
    "volterra_increment_young",
]


class ExponentWarning(UserWarning):
    """The declared exponents do not satisfy the Young summability condition."""


@dataclass(frozen=True)
class YoungIntegrand:
    """Grid samples of a d x n matrix integrand with an asserted exponent.

    ``path.values`` has shape (N + 1, d, n); ``rho`` is the Hölder
    regularity the caller claims for it.  ``empirical_holder`` optionally
    records the measured Hölder ratio at that exponent for diagnostics.
    """

    path: Path
    rho: float
    empirical_holder: HolderNorm | None = None

    def __post_init__(self) -> None:
        if self.path.values.ndim != 3:
            raise ValueError("integrand values must have shape (N + 1, d, n)")
        if not (0 < self.rho <= 1):
            raise ValueError(f"integrand exponent must lie in (0, 1], got {self.rho}")

    @property
    def d_dim(self) -> int:
        return self.path.values.shape[1]

    @property
    def n_dim(self) -> int:
        return self.path.values.shape[2]

    @classmethod
    def from_scalar_samples(cls, grid: Grid, samples: np.ndarray, rho: float) -> "YoungIntegrand":
        """Wrap scalar samples (N + 1,) as a 1 x 1 integrand."""
        return cls(Path(grid, np.asarray(samples, dtype=float)[:, None, None]), rho)


def _check_dims(z: YoungIntegrand, x: Path) -> None:
    if x.values.ndim != 2:
        raise ValueError("driver must be a vector path with shape (N + 1, n)")
    if z.n_dim != x.dim:
        raise ValueError(f"integrand has {z.n_dim} columns but the driver has dimension {x.dim}")
    if z.path.grid != x.grid:
        raise ValueError("integrand and driver live on different grids")


def young_germ(z: YoungIntegrand, x: Path) -> Increment2:
    """The first-order germ (i, j) -> z_i (x_j - x_i)."""
    _check_dims(z, x)
    zv = z.path.values
    xv = x.values

    def fn(i, j):
        return np.einsum("...dn,...n->...d", zv[i], xv[j] - xv[i])

    return Increment2(x.grid, fn, (z.d_dim,))


def young_integral(z: YoungIntegrand, x: Path, i: int, j: int, gamma: float | None = None) -> np.ndarray:
    """Left-point compensated sum of z against x over grid cells [i, j).

    Identical, cell for cell, to sewing the first-order germ: the value is
    a difference of prefix sums, so summing over any partition of [i, j]
    telescopes to the same result.  If the driver exponent ``gamma`` is
    supplied, the Young condition rho + gamma > 1 is checked and a warning
    is emitted when it fails (the sums may then diverge under refinement).
    """
    _check_dims(z, x)
    n = x.grid.n_steps
    if not (0 <= i <= j <= n):
        raise ValueError(f"index pair ({i}, {j}) outside 0 <= i <= j <= {n}")
    if gamma is not None and z.rho + gamma <= 1:
        warnings.warn(
            f"Young condition violated: rho + gamma = {z.rho + gamma:.4f} <= 1",
            ExponentWarning,
            stacklevel=2,
        )
    prefix = _cell_prefix(young_germ(z, x).cells())
    return prefix[j] - prefix[i]


def compose_coeff(
    sigma: Coefficient,
    t: float,
    y: Path,
    rho: float | None = None,
    diagnostics: bool = True,
) -> YoungIntegrand:
    """Sample u -> sigma(t, u, y_u) on the grid as a Young integrand.

    ``rho`` defaults to the measured regularity of the state path (a
    smooth coefficient composed with a rho-Hölder path is rho-Hölder
    again, capped at exponent one).  With ``diagnostics`` on, the measured
    Hölder ratio of the composed samples at that exponent is attached.
    """
    grid = y.grid
    if y.values.ndim != 2:
        raise ValueError("state path must have shape (N + 1, d)")
    if y.dim != sigma.d_dim:
        raise ValueError(f"state dimension {y.dim} does not match coefficient d_dim {sigma.d_dim}")
    values = sigma.eval_many(float(t), grid.times, y.values)
    if values.shape != (grid.n_steps + 1, sigma.d_dim, sigma.n_dim):
        raise ValueError(f"coefficient returned shape {values.shape}")
    if rho is None:
        est = estimate_holder(y)
        rho = 1.0 if est.degenerate else min(1.0, max(est.value, 0.05))
    composed = Path(grid, values)
    empirical = path_holder_norm(composed, rho) if diagnostics else None
    return YoungIntegrand(composed, rho, empirical)


def young_row_sum(
    sigma: Coefficient, t: float, times: np.ndarray, dx: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Sum over cells l of sigma(t, times_l, y_l) dx_l, shape (d,).

    The first-order germ frozen at outer time t; ``times``, ``dx`` and
    ``y`` hold the cells' left points, driver increments and left-point
    states.
    """
    if len(times) == 0:
        return np.zeros(sigma.d_dim)
    return np.einsum("ldn,ln->d", sigma.eval_many(float(t), times, y), dx)


def volterra_increment_young(
    sigma: Coefficient,
    y: Path,
    x: Path,
    i: int,
    j: int,
    return_parts: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Increment from t_i to t_j of the Volterra integral of sigma(., ., y).

    Two left-point sums: the t_j-frozen integrand over [t_i, t_j], plus the
    change of the frozen integrand (t_j against t_i) integrated over the
    past [0, t_i].  Coefficients that do not depend on their first slot
    make the second part vanish identically.
    """
    if y.values.ndim != 2 or y.dim != sigma.d_dim:
        raise ValueError("state path incompatible with the coefficient")
    if x.values.ndim != 2 or x.dim != sigma.n_dim:
        raise ValueError("driver path incompatible with the coefficient")
    if y.grid != x.grid:
        raise ValueError("state and driver live on different grids")
    n = x.grid.n_steps
    if not (0 <= i <= j <= n):
        raise ValueError(f"index pair ({i}, {j}) outside 0 <= i <= j <= {n}")
    t, dx, yv = x.grid.times, x.cells(), y.values
    recent = young_row_sum(sigma, t[j], t[i:j], dx[i:j], yv[i:j])
    past = young_row_sum(sigma, t[j], t[:i], dx[:i], yv[:i]) - young_row_sum(sigma, t[i], t[:i], dx[:i], yv[:i])
    if return_parts:
        return recent, past
    return recent + past
