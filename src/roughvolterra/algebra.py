"""Increment calculus on uniform dyadic grids.

A path sampled on a grid gives rise to increments: functions of one grid
index (the path itself), two indices (differences, integral candidates), or
three (the defect that measures how far a two-index object is from being a
difference).  The coboundary ``delta`` moves up one level,

    (delta1 f)(s, t)    = f(t) - f(s),
    (delta2 g)(s, u, t) = g(s, t) - g(s, u) - g(u, t),

and composing the two gives zero.  A two-index object with vanishing
``delta2`` is called additive; it is exactly the increment of a path.

The sewing construction goes the other way: an almost-additive germ
``g(s, t)`` whose defect vanishes faster than ``|t - s|`` is split into an
additive part (the compensated Riemann sums of its cell values, realised
here by prefix sums over the finest grid) and a small remainder.  The
remainder is bounded by a universal constant times the size of the defect,
measured in a two-exponent Hölder norm over split points; the constant is
``sewing_constant(mu)``.

All suprema are discrete: they range over grid index pairs or triples.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "Path",
    "Increment2",
    "Increment3",
    "HolderNorm",
    "SewingRegularityWarning",
    "delta1",
    "delta2",
    "holder_norm",
    "path_holder_norm",
    "split_holder_norm",
    "sup_norm",
    "sew",
    "lambda_of",
    "sewing_constant",
    "zero_increment2",
]


class SewingRegularityWarning(UserWarning):
    """The defect of a germ decays too slowly for compensation to converge."""


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, horizon] with a power-of-two number of steps.

    The power-of-two constraint keeps every dyadic refinement level of the
    interval available, which the level-by-level summation schemes rely on.
    """

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not _is_power_of_two(self.n_steps):
            raise ValueError(f"n_steps must be a power of two, got {self.n_steps}")

    @cached_property
    def times(self) -> np.ndarray:
        t = np.linspace(0.0, self.horizon, self.n_steps + 1)
        t.flags.writeable = False
        return t

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


@dataclass(frozen=True)
class Path:
    """Grid samples of a path, immutable after construction.

    ``values`` has shape ``(n_steps + 1, ...)``; the leading axis runs over
    grid times and the trailing axes carry the value (a d-vector for state
    paths, a d x n matrix for integrands or derivative processes).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.ndim < 2:
            raise ValueError("path values must have shape (n_steps + 1, ...) with at least one value axis")
        if v.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"path has {v.shape[0]} samples but the grid has {self.grid.n_steps + 1} points"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def value_shape(self) -> tuple[int, ...]:
        return self.values.shape[1:]

    def cells(self) -> np.ndarray:
        """Per-cell forward differences, shape (n_steps, ...)."""
        return np.diff(self.values, axis=0)

    def restrict(self, factor: int) -> "Path":
        """Subsample onto the coarser grid with ``n_steps / factor`` steps."""
        if not _is_power_of_two(factor) or factor > self.grid.n_steps:
            raise ValueError(f"bad restriction factor {factor} for {self.grid.n_steps} steps")
        coarse = Grid(self.grid.horizon, self.grid.n_steps // factor)
        return Path(coarse, self.values[::factor])


@dataclass
class Increment2:
    """A two-index increment: values attached to grid pairs (i, j), i <= j.

    ``fn`` evaluates index pairs and must accept integer arrays that
    broadcast against each other, returning an array of shape
    ``broadcast(i, j).shape + value_shape``.  Increments built by this
    module (path differences, integral germs, sewn sums) all satisfy that
    contract, which is what lets norms and diagnostics run vectorised.

    ``prefix`` is set when the increment is additive by construction:
    ``fn(i, j) == prefix[j] - prefix[i]``.  Such increments are exact fixed
    points of the sewing map.
    """

    grid: Grid
    fn: Callable[..., np.ndarray]
    value_shape: tuple[int, ...]
    prefix: np.ndarray | None = None

    def __call__(self, i: int, j: int) -> np.ndarray:
        if not (0 <= i <= j <= self.grid.n_steps):
            raise ValueError(f"index pair ({i}, {j}) outside 0 <= i <= j <= {self.grid.n_steps}")
        return np.asarray(self.fn(i, j), dtype=float)

    def cells(self) -> np.ndarray:
        """Values on adjacent pairs (k, k+1), shape (n_steps, ...)."""
        n = self.grid.n_steps
        k = np.arange(n)
        return np.asarray(self.fn(k, k + 1), dtype=float)


@dataclass
class Increment3:
    """A three-index increment on grid triples (i, j, k), i <= j <= k.

    Same broadcasting contract as `Increment2.fn`, with three index arrays.
    """

    grid: Grid
    fn: Callable[..., np.ndarray]
    value_shape: tuple[int, ...]

    def __call__(self, i: int, j: int, k: int) -> np.ndarray:
        if not (0 <= i <= j <= k <= self.grid.n_steps):
            raise ValueError(f"index triple ({i}, {j}, {k}) is not ordered within the grid")
        return np.asarray(self.fn(i, j, k), dtype=float)


@dataclass(frozen=True)
class HolderNorm:
    """A discrete Hölder-ratio supremum together with where it was attained."""

    exponent: float
    value: float
    arg_pair: tuple[int, int]
    arg_times: tuple[float, float]


def zero_increment2(grid: Grid, value_shape: tuple[int, ...] = (1,)) -> Increment2:
    zero = np.zeros(value_shape)

    def fn(i, j):
        batch = np.broadcast(np.asarray(i), np.asarray(j)).shape
        return np.broadcast_to(zero, batch + value_shape)

    n = grid.n_steps
    prefix = np.zeros((n + 1,) + value_shape)
    return Increment2(grid, fn, value_shape, prefix=prefix)


def delta1(f: Path) -> Increment2:
    """Forward difference of a path: (i, j) -> f_j - f_i.

    The result is additive by construction and carries the path values as
    its prefix representation.
    """
    vals = f.values

    def fn(i, j):
        return vals[j] - vals[i]

    return Increment2(f.grid, fn, f.value_shape, prefix=vals)


def delta2(h: Increment2) -> Increment3:
    """Defect of a two-index increment: (i, j, k) -> h_ik - h_ij - h_jk.

    Vanishes identically when ``h`` is a path difference; composing with
    `delta1` therefore gives zero.
    """

    def fn(i, j, k):
        return h.fn(i, k) - h.fn(i, j) - h.fn(j, k)

    return Increment3(h.grid, fn, h.value_shape)


def _mags(vals: np.ndarray, value_ndim: int) -> np.ndarray:
    """Euclidean magnitude over the trailing value axes.

    A finite entry above ~1.3e154 overflows when squared: the values whose
    plain magnitude reads inf while every entry is finite are summed again
    scaled by their largest entry, so only a magnitude above the float
    ceiling reads inf.  Every finite plain result is returned as is.
    """
    vals = np.asarray(vals, dtype=float)
    if value_ndim == 0:
        return np.abs(vals)
    tail = tuple(range(vals.ndim - value_ndim, vals.ndim))
    with np.errstate(over="ignore"):
        mags = np.sqrt(np.sum(vals * vals, axis=tail))
        if not np.isfinite(np.sum(mags)):  # a reduction, no temporary array on the common path
            mags = np.array(mags)
            over = np.isinf(mags) & np.isfinite(vals).all(axis=tail)
            big = vals[over]  # shape (k,) + value shape
            value_axes = tuple(range(1, big.ndim))
            scale = np.max(np.abs(big), axis=value_axes, keepdims=True)
            mags[over] = scale.reshape(-1) * np.sqrt(np.sum((big / scale) ** 2, axis=value_axes))
    return mags


def _dyadic_maxima(values: np.ndarray, value_ndim: int, top: int) -> list[float]:
    """Largest increment magnitude along axis 0 at each lag 1, 2, 4, ... up to ``top``.

    Magnitudes come from `_mags`, so finite values near the float ceiling
    read their true maximum, or inf when an increment itself overflows,
    without a warning.  A nan increment makes its lag's maximum nan.
    """
    maxima = []
    lag = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while lag <= top:
            maxima.append(float(np.max(_mags(values[lag:] - values[:-lag], value_ndim))))
            lag *= 2
    return maxima


def holder_norm(g: Increment2, mu: float) -> HolderNorm:
    """Discrete Hölder norm: sup over i < j of |g_ij| / (t_j - t_i)^mu.

    Runs over every grid pair, O(n^2) in grid steps n (row-blocked so
    memory stays linear in the grid size).  Zero increments report value 0
    at the first pair; a nan ratio reports nan at the first nan pair in row
    order.  This scan serves any `Increment2` and is the reference for
    `path_holder_norm`, which returns the same result for a path's
    increments without visiting every pair.
    """
    if not (mu > 0):
        raise ValueError(f"exponent must be positive, got {mu}")
    n = g.grid.n_steps
    t = g.grid.times
    vndim = len(g.value_shape)
    best = -1.0
    arg = (0, min(1, n))
    for i in range(n):
        js = np.arange(i + 1, n + 1)
        mags = _mags(g.fn(i, js), vndim)
        ratios = mags / (t[js] - t[i]) ** mu
        k = int(np.argmax(ratios))  # a row's first nan, if it has one
        if np.isnan(ratios[k]):
            best, arg = float(ratios[k]), (i, int(js[k]))
            break
        if ratios[k] > best:
            best = float(ratios[k])
            arg = (i, int(js[k]))
    if best < 0:
        best = 0.0
    return HolderNorm(mu, best, arg, (float(t[arg[0]]), float(t[arg[1]])))


# lags below this are all evaluated to seed the maximum; bands of lags
# [L, 2L) from here up are bounded block by block
_SEED_LAGS = 32
# pairs per evaluated batch: a block is evaluated in row chunks this size
_CHUNK_PAIRS = 2048
# covers the rounding by which a computed ratio can exceed its block's
# computed bound: summation order in the magnitudes and the power
_BOUND_SAFETY = 1.0 + 1e-12


def path_holder_norm(p: Path, mu: float) -> HolderNorm:
    """Hölder norm of a path's increments, by a pruned scan of the pairs.

    Returns the same ``value`` and ``arg_pair``, to the bit, as
    ``holder_norm(delta1(p), mu)``: the largest ratio, at the
    lexicographically smallest pair attaining it.

    1. Every lag below 32 and every dyadic lag up to n is evaluated, one
       vectorised row per lag, which seeds the maximum.
    2. The lags [L, 2L) of each band L = 32, 64, ... <= n are split into
       blocks of L rows.  Block [s, s + L) is bounded by the magnitude of the
       componentwise range of the values over rows [s, s + 3L - 1), which
       holds every pair of the block, over the smallest lag-L time gap to the
       power mu.  The ranges come from a running table of window maxima and
       minima that doubles its window with the band.
    3. Blocks are evaluated in descending bound order, in row chunks of at
       most ~2048 pairs, until a bound falls below the maximum found.  A
       block whose bound equals the maximum is evaluated only if its first
       pair precedes the current ``arg_pair``, so ties resolve as in the row
       scan and a constant stretch evaluates nothing.

    Seeds and bounds cost O(n log n) in grid steps n, plus the evaluated
    blocks: a rough path whose ratios are close to the maximum at every
    scale evaluates many of them, and the worst case is the all-pairs
    O(n^2).  A grid whose time gaps to the power mu underflow or overflow
    takes the all-pairs scan, where a ratio may be inf or nan.
    """
    if not (mu > 0):
        raise ValueError(f"exponent must be positive, got {mu}")
    n = p.grid.n_steps
    t = p.grid.times
    with np.errstate(over="ignore", under="ignore"):
        normal_gaps = np.min(np.diff(t)) ** mu >= np.finfo(float).tiny and (t[-1] - t[0]) ** mu < np.inf
    if not normal_gaps:
        return holder_norm(delta1(p), mu)
    v = p.values
    vndim = len(p.value_shape)
    best, arg = -1.0, (0, 1)

    def visit(i: np.ndarray, j: np.ndarray) -> None:
        """Evaluate the pairs (i, j), broadcast in row-major order of (i, j)."""
        nonlocal best, arg
        i, j = np.broadcast_arrays(i, j)
        ratios = _mags(v[j] - v[i], vndim) / (t[j] - t[i]) ** mu
        k = int(np.argmax(ratios))  # the first maximum: smallest i, then j
        ratio, pair = float(ratios.flat[k]), (int(i.flat[k]), int(j.flat[k]))
        if ratio > best or (ratio == best and pair < arg):
            best, arg = ratio, pair

    for lag in sorted(set(range(1, min(_SEED_LAGS, n + 1))) | {1 << k for k in range(n.bit_length())}):
        i = np.arange(n + 1 - lag)
        visit(i, i + lag)
    blocks = []  # (bound, first row s, band L)
    hi = v.reshape(n + 1, -1).copy()  # per component: max and min over rows [r, r + width), clipped at n
    lo = hi.copy()
    width = 1
    while width <= n:
        if width >= _SEED_LAGS:
            s = np.arange(0, n + 1 - width, width)
            windows = (s, s + width, np.minimum(s + 2 * width - 1, n))  # together rows [s, s + 3L - 1)
            with np.errstate(over="ignore"):
                spread = np.max([hi[w] for w in windows], axis=0) - np.min([lo[w] for w in windows], axis=0)
                bound = _mags(spread, 1) * _BOUND_SAFETY / np.min(t[width:] - t[:-width]) ** mu
            blocks += zip(bound.tolist(), s.tolist(), [width] * len(s))
        np.maximum(hi[:-width], hi[width:], out=hi[:-width])
        np.minimum(lo[:-width], lo[width:], out=lo[:-width])
        width *= 2
    for bound, s, width in sorted(blocks, key=lambda b: -b[0]):
        if bound < best:
            break
        if bound == best and (s, s + width) >= arg:
            continue
        rows = np.arange(s, min(s + width, n + 1 - width))
        lags = np.arange(width, 2 * width)
        step = max(1, _CHUNK_PAIRS // width)
        for c in range(0, len(rows), step):
            i = rows[c : c + step, None]
            # a lag past n repeats the pair (i, n) after its first occurrence
            visit(i, np.minimum(i + lags, n))
    return HolderNorm(mu, best, arg, (float(t[arg[0]]), float(t[arg[1]])))


def sup_norm(p: Path) -> float:
    """Largest pointwise magnitude along the path."""
    return float(np.max(_mags(p.values, len(p.value_shape))))


def split_holder_norm(h: Increment3, rho_left: float, rho_right: float) -> float:
    """Two-exponent norm of a three-index increment.

    Computes ``sup |h(i, j, k)| / ((t_j - t_i)^rho_left (t_k - t_j)^rho_right)``
    by an exhaustive scan of the strictly increasing triples i < j < k,
    O(n^3) in grid steps n (one batched (j, k) block per i).
    """
    n = h.grid.n_steps
    t = h.grid.times
    vndim = len(h.value_shape)
    best = 0.0
    for i in range(n - 1):
        js, ks = np.arange(i + 1, n), np.arange(i + 2, n + 1)
        dtj = t[js][:, None] - t[i]
        dtk = t[ks][None, :] - t[js][:, None]
        valid = dtk > 0
        mags = _mags(h.fn(i, js[:, None], ks[None, :]), vndim)
        weights = np.where(valid, dtj**rho_left * np.where(valid, dtk, 1.0) ** rho_right, np.inf)
        best = max(best, float(np.max(mags / weights)))
    return best


def _cell_prefix(cells: np.ndarray) -> np.ndarray:
    """Prefix sums of cell values with a leading zero row."""
    zero = np.zeros((1,) + cells.shape[1:])
    return np.concatenate([zero, np.cumsum(cells, axis=0)], axis=0)


def _defect_exponent_estimate(g: Increment2) -> float | None:
    """Fitted decay exponent of max |delta2 g| over dyadic triple scales.

    Returns None when the defect is numerically zero (additive input) or
    there are too few scales to fit.
    """
    n = g.grid.n_steps
    t = g.grid.times
    d2 = delta2(g)
    vndim = len(g.value_shape)
    scales = []
    maxima = []
    w = 1
    while 2 * w <= n:
        i = np.arange(0, n - 2 * w + 1)
        vals = d2.fn(i, i + w, i + 2 * w)
        maxima.append(float(np.max(_mags(vals, vndim))))
        scales.append(2 * w * (t[1] - t[0]))
        w *= 2
    if len(scales) < 3:
        return None
    maxima_arr = np.asarray(maxima)
    top = float(np.max(maxima_arr))
    if top <= 1e-14 * max(1.0, float(np.max(_mags(g.cells(), vndim)))):
        return None
    keep = maxima_arr > 1e-300
    if int(np.sum(keep)) < 3:
        return None
    slope = np.polyfit(np.log(np.asarray(scales)[keep]), np.log(maxima_arr[keep]), 1)[0]
    return float(slope)


def sew(g: Increment2, mu: float, diagnostics: bool = True) -> Increment2:
    """Additive part of an almost-additive germ.

    The output at (i, j) is the sum of the germ's finest-grid cell values
    over the cells between i and j, realised by prefix sums so the result
    is additive by construction.  Additive inputs (those carrying a prefix
    representation, e.g. anything produced by `delta1` or by `sew` itself)
    are returned unchanged: they are exact fixed points.

    ``mu`` is the regularity the caller expects of the germ's remainder
    (must exceed 1 for the compensation to converge).  When ``diagnostics``
    is on, the decay of the germ's defect across dyadic scales is measured
    and a `SewingRegularityWarning` is emitted if the fitted exponent
    suggests the defect shrinks no faster than the interval length.
    """
    if not (mu > 0):
        raise ValueError(f"exponent must be positive, got {mu}")
    if g.prefix is not None:
        return g
    if diagnostics:
        if mu <= 1:
            warnings.warn(
                f"sewing requested at exponent mu={mu} <= 1; compensated sums need mu > 1",
                SewingRegularityWarning,
                stacklevel=2,
            )
        est = _defect_exponent_estimate(g)
        if est is not None and est <= 1.0:
            warnings.warn(
                f"germ defect decays with fitted exponent {est:.3f} <= 1; "
                "the compensated sums may not converge under refinement",
                SewingRegularityWarning,
                stacklevel=2,
            )
    prefix = _cell_prefix(g.cells())

    def fn(i, j):
        return prefix[j] - prefix[i]

    return Increment2(g.grid, fn, g.value_shape, prefix=prefix)


def lambda_of(g: Increment2, mu: float, diagnostics: bool = True) -> Increment2:
    """Compensation remainder: the germ minus its additive part.

    For an additive germ the result is identically zero.  Otherwise the
    remainder measures how far the germ is from the telescoping sums of its
    own cells; its Hölder-mu norm is controlled by ``sewing_constant(mu)``
    times the two-exponent norm of the germ's defect.
    """
    if g.prefix is not None:
        return zero_increment2(g.grid, g.value_shape)
    sewn = sew(g, mu, diagnostics=diagnostics)
    prefix = sewn.prefix

    def fn(i, j):
        return g.fn(i, j) - (prefix[j] - prefix[i])

    return Increment2(g.grid, fn, g.value_shape)


# B_2k / (2k)! for k = 1..6: the Euler-Maclaurin weights of the zeta tail
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)


def sewing_constant(mu: float) -> float:
    """Universal bound constant 2 + 2^mu * zeta(mu) for the sewing remainder.

    zeta(mu) is the sum of k^-mu over k < 10 plus the Euler-Maclaurin tail
    from k = 10 with the six Bernoulli terms B_2 ... B_12, which leaves a
    relative error at rounding level for every mu > 1.  Defined for mu > 1 only.
    """
    if not (mu > 1):
        raise ValueError(f"sewing constant requires mu > 1, got {mu}")
    n = 10.0
    zeta = sum(k**-mu for k in range(1, 10)) + n ** (1 - mu) / (mu - 1) + 0.5 * n**-mu
    rising = mu  # mu (mu + 1) ... (mu + 2k - 2)
    for k, weight in enumerate(_EM_WEIGHTS, start=1):
        zeta += weight * rising * n ** (-mu - 2 * k + 1)
        rising *= (mu + 2 * k - 1) * (mu + 2 * k)
    return 2.0 + 2.0**mu * zeta
