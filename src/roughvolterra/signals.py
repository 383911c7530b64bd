"""Synthetic driving signals: fractional Brownian motion and smooth paths.

Fractional Brownian motion with Hurst index H has stationary increments
with covariance E[B_s B_t] = (s^{2H} + t^{2H} - |t - s|^{2H}) / 2.  Two
samplers are provided:

* ``cholesky``: factor the exact increment covariance (Toeplitz) and map
  i.i.d. normals through it.  Exact for any size, cubic cost.
* ``circulant``: Davies-Harte circulant embedding of the increment
  autocovariance, synthesised by FFT.  Near-linear cost; falls back to the
  Cholesky route (with a warning) if the embedding produces a negative
  eigenvalue.

Components of a multidimensional signal are independent; each draws from
its own child stream of the seed sequence, so adding components never
perturbs the ones already generated.

`estimate_holder` recovers a Hölder exponent from samples by regressing
the log of the largest increment at dyadic lags against the log lag.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import Grid, Path, _dyadic_maxima

__all__ = [
    "FbmSpec",
    "HolderEstimate",
    "CirculantEmbeddingWarning",
    "generate_fbm",
    "generate_fbm_detailed",
    "estimate_holder",
    "fbm_covariance",
    "fgn_autocovariance",
    "builtin_path",
    "BUILTIN_PATHS",
]

GENERATOR_NAME = "pcg64"
AUTO_CIRCULANT_THRESHOLD = 1024


class CirculantEmbeddingWarning(UserWarning):
    """The circulant embedding was not nonnegative definite; fell back."""


@dataclass(frozen=True)
class FbmSpec:
    """Recipe for a fractional Brownian motion sample.

    ``method`` is one of ``cholesky``, ``circulant`` or ``auto`` (circulant
    from 1024 steps up, Cholesky below, where the dense factorisation is
    both exact and cheap).
    """

    hurst: float
    dim: int
    grid: Grid
    seed: int
    method: str = "auto"

    def __post_init__(self) -> None:
        if not (1.0 / 3.0 < self.hurst < 1.0):
            raise ValueError(f"hurst must lie in (1/3, 1), got {self.hurst}")
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.method not in ("auto", "cholesky", "circulant"):
            raise ValueError(f"unknown fbm method '{self.method}'")

    def resolved_method(self) -> str:
        if self.method != "auto":
            return self.method
        return "circulant" if self.grid.n_steps >= AUTO_CIRCULANT_THRESHOLD else "cholesky"


def fbm_covariance(s: float, t: float, hurst: float) -> float:
    """E[B_s B_t] for fractional Brownian motion started at zero."""
    h2 = 2 * hurst
    return 0.5 * (abs(s) ** h2 + abs(t) ** h2 - abs(t - s) ** h2)


def fgn_autocovariance(lag: np.ndarray, hurst: float) -> np.ndarray:
    """Autocovariance of unit-spaced, unit-variance fractional noise."""
    k = np.abs(np.asarray(lag, dtype=float))
    h2 = 2 * hurst
    return 0.5 * ((k + 1) ** h2 + np.abs(k - 1) ** h2 - 2 * k**h2)


def _fgn_unit_cholesky_factor(hurst: float, n: int) -> np.ndarray:
    lags = np.arange(n)
    r = fgn_autocovariance(lags, hurst)
    return np.linalg.cholesky(r[np.abs(lags[:, None] - lags[None, :])])


def _fgn_unit_circulant(hurst: float, n: int, rng: np.random.Generator) -> np.ndarray | None:
    """One row of unit-spaced fractional noise, or None if embedding fails."""
    r = fgn_autocovariance(np.arange(n + 1), hurst)
    c = np.concatenate([r, r[-2:0:-1]])
    lam = np.fft.fft(c).real
    top = float(np.max(lam))
    if float(np.min(lam)) < -1e-8 * top:
        return None
    lam = np.clip(lam, 0.0, None)
    two_n = 2 * n
    ends = rng.standard_normal(2)
    mids = rng.standard_normal((n - 1, 2))
    w = np.empty(two_n, dtype=complex)
    w[0] = np.sqrt(lam[0] / two_n) * ends[0]
    w[n] = np.sqrt(lam[n] / two_n) * ends[1]
    mid_scale = np.sqrt(lam[1:n] / (2 * two_n))
    w[1:n] = mid_scale * (mids[:, 0] + 1j * mids[:, 1])
    w[n + 1 :] = np.conj(w[1:n][::-1])
    return np.fft.fft(w)[:n].real


def generate_fbm_detailed(spec: FbmSpec) -> tuple[Path, dict]:
    """Sample fractional Brownian motion and report how it was produced.

    The metadata dictionary records the generator name, the seed, the
    per-component stream policy, the resolved method, and whether the
    circulant embedding had to fall back.
    """
    grid = spec.grid
    n = grid.n_steps
    method = spec.resolved_method()
    streams = [np.random.Generator(np.random.PCG64(child)) for child in np.random.SeedSequence(spec.seed).spawn(spec.dim)]
    scale = grid.dt**spec.hurst
    incr = np.empty((n, spec.dim))
    fell_back = False
    chol = None
    for c, rng in enumerate(streams):
        row = None
        if method == "circulant":
            row = _fgn_unit_circulant(spec.hurst, n, rng)
            if row is None:
                fell_back = True
        if row is None:
            if chol is None:
                chol = _fgn_unit_cholesky_factor(spec.hurst, n)
            row = chol @ rng.standard_normal(n)
        incr[:, c] = scale * row
    if fell_back:
        warnings.warn(
            "circulant embedding produced negative eigenvalues; "
            "fell back to the Cholesky sampler",
            CirculantEmbeddingWarning,
            stacklevel=2,
        )
    values = np.concatenate([np.zeros((1, spec.dim)), np.cumsum(incr, axis=0)])
    meta = {
        "generator": GENERATOR_NAME,
        "seed": spec.seed,
        "streams": "seedsequence-spawn-per-component",
        "method": method if not fell_back else "cholesky",
        "requested_method": spec.method,
        "fallback": fell_back,
        "hurst": spec.hurst,
    }
    return Path(grid, values), meta


def generate_fbm(spec: FbmSpec) -> Path:
    """Sample fractional Brownian motion described by an FbmSpec (zero at time zero)."""
    path, _ = generate_fbm_detailed(spec)
    return path


@dataclass(frozen=True)
class HolderEstimate:
    """Fitted Hölder exponent from dyadic-lag increment maxima.

    ``value`` is +inf with ``degenerate`` set when the path is constant and
    there is nothing to fit.
    """

    value: float
    degenerate: bool
    scales: tuple[float, ...]
    maxima: tuple[float, ...]


def estimate_holder(path: Path, levels: int | None = None) -> HolderEstimate:
    """Regress log max-increment against log lag over dyadic lags.

    Uses lags 1, 2, ..., 2^(levels-1) grid cells; ``levels`` defaults to
    everything up to an eighth of the grid so each lag still has many
    samples.  The slope is the exponent estimate.
    """
    n = path.grid.n_steps
    max_levels = max(1, n.bit_length() - 3)
    if levels is None:
        levels = min(8, max_levels)
    if not (1 <= levels and (1 << (levels - 1)) <= n):
        raise ValueError(f"levels={levels} does not fit a grid of {n} steps")
    vals = path.values
    maxima = _dyadic_maxima(vals, vals.ndim - 1, 1 << (levels - 1))
    scales = [(1 << m) * path.grid.dt for m in range(levels)]
    scale_of_path = float(np.max(np.abs(vals)))
    if max(maxima) <= 1e-14 * max(1.0, scale_of_path):
        return HolderEstimate(np.inf, True, tuple(scales), tuple(maxima))
    if levels < 2:
        raise ValueError("need at least two dyadic levels to fit an exponent")
    slope = float(np.polyfit(np.log(scales), np.log(maxima), 1)[0])
    return HolderEstimate(slope, False, tuple(scales), tuple(maxima))


def _builtin_values(name: str, t: np.ndarray, dim: int) -> np.ndarray:
    cols = []
    for c in range(dim):
        if name == "linear":
            cols.append(t)
        elif name == "sine":
            cols.append(np.sin((c + 1) * t))
        elif name == "cosine":
            cols.append(np.cos((c + 1) * t))
        elif name == "quadratic":
            cols.append(t**2)
        elif name == "trig":
            k = c // 2 + 1
            cols.append(np.sin(k * t) if c % 2 == 0 else np.cos(k * t))
        else:
            raise ValueError(f"unknown builtin path '{name}'")
    return np.stack(cols, axis=1)


BUILTIN_PATHS = ("linear", "sine", "cosine", "quadratic", "trig")


def builtin_path(name: str, grid: Grid, dim: int = 1) -> Path:
    """Deterministic smooth driver by name; see `BUILTIN_PATHS`."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return Path(grid, _builtin_values(name, grid.times, dim))
