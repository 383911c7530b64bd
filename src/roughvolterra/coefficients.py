"""Coefficient fields sigma(t, u, y) and their state derivative.

A coefficient maps (outer time t, inner time u, state y in R^d) to a d x n
matrix that multiplies driver increments.  The solvers read two things of
it: sigma itself and, in the rough regime, the state derivative D_y sigma
that feeds the controlled composition D_y sigma . y'.  Both are given as
one batched formula each,

    eval_many(t, us, ys) -> (m, d, n)      d3_many(t, us, ys) -> (m, d, n, d)

over inner times ``us`` (m,) and states ``ys`` (m, d), where the outer
time ``t`` is one float or an (m,) array matched with ``us``.  A custom
sigma supplies exactly this pair.  The state derivative is cross-checked
against central finite differences at quasi-random probe points when the
coefficient is constructed, so a typo in an analytic derivative fails
fast rather than corrupting a long solve.

Built-in families: constant, linear in the state, separable
phi(t - u) * psi(y), and trigonometric.  Each depends on the outer time
only through lag-weighted exponentials (t - u)^p e^(z (t - u)), p in
{0, 1}, and is defined by that form alone, as `Modes`: its ``eval_many``
and ``d3_many`` are the modal sums.  On the uniform grid such a sigma is a
causal convolution in the lag, which the solver sums by FFT block sums, as
it does the singular kernel's one mode.  Custom coefficients carry no modes.
"""
from __future__ import annotations

import inspect
from dataclasses import InitVar, dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Coefficient",
    "Modes",
    "ScalarFunc",
    "MatrixFunc",
    "constant_coefficient",
    "linear_coefficient",
    "separable_coefficient",
    "trig_coefficient",
    "scalar_func",
    "matrix_func",
    "SCALAR_FUNCS",
    "MATRIX_FUNCS",
]


@dataclass(frozen=True)
class ScalarFunc:
    """A scalar function of the lag v = t - u, f(v) = Re v^power e^(rate v), power 0 or 1."""

    name: str
    rate: complex
    power: int


@dataclass(frozen=True)
class MatrixFunc:
    """A smooth map from states y in R^d to d x n matrices, with Jacobian.

    ``value`` and ``jac`` accept batched states of shape (..., d) and
    return (..., d, n) and (..., d, n, d) respectively.
    """

    name: str
    d_dim: int
    n_dim: int
    value: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]


def scalar_func(name: str, /, **params) -> ScalarFunc:
    """Look up a scalar-function family by name ('one', 'linear', 'exp_decay', 'cos')."""
    if not isinstance(name, str):
        raise ValueError(f"scalar function name must be a string, got {name!r}")
    if name not in SCALAR_FUNCS:
        raise ValueError(f"unknown scalar function family '{name}'")
    return _bind_call(SCALAR_FUNCS[name], params, f"scalar function '{name}'")


def matrix_func(name: str, /, **params) -> MatrixFunc:
    """Look up a state-map family by name ('ones', 'identity', 'sin_plus', 'cos')."""
    if not isinstance(name, str):
        raise ValueError(f"state map name must be a string, got {name!r}")
    if name not in MATRIX_FUNCS:
        raise ValueError(f"unknown state-map family '{name}'")
    return _bind_call(MATRIX_FUNCS[name], params, f"state map '{name}'")


def _bind_call(fn: Callable, params: dict, what: str):
    """fn(**params); parameter names that fn does not take, or lacks, raise ValueError naming ``what``."""
    try:
        inspect.signature(fn).bind(**params)
    except TypeError as e:
        raise ValueError(f"{what}: {e}") from None
    return fn(**params)


def _dims(**dims) -> tuple[int, ...]:
    """The dimensions ``dims`` as a shape; one that is not a positive int raises ValueError naming it."""
    for name, value in dims.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"coefficient parameter '{name}' must be a positive integer, got {value!r}")
    return tuple(dims.values())


def _promote(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` as a finite float array of ``shape``, which a scalar fills; else ValueError naming ``name``."""
    try:
        if np.asarray(value).dtype == bool:
            raise TypeError
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"coefficient parameter '{name}' must be numeric, got {value!r}") from None
    if not np.isfinite(out).all():
        raise ValueError(f"coefficient parameter '{name}' must be finite, got {value!r}")
    if out.ndim == 0:
        out = np.full(shape, float(out))
    if out.shape != shape:
        raise ValueError(f"expected a {shape} array for '{name}', got shape {out.shape}")
    return out


def _one():
    return ScalarFunc("one", 0.0, 0)


def _linear():
    return ScalarFunc("linear", 0.0, 1)


def _exp_decay(rate: float = 1.0):
    rate = _promote(rate, (), "rate")
    return ScalarFunc(f"exp_decay({rate})", -float(rate), 0)


def _cos(freq: float = 1.0):
    freq = _promote(freq, (), "freq")
    return ScalarFunc(f"cos({freq})", 1j * float(freq), 0)


SCALAR_FUNCS = {"one": _one, "linear": _linear, "exp_decay": _exp_decay, "cos": _cos}


def _ones_map(d_dim: int = 1, n_dim: int = 1):
    shape = _dims(d_dim=d_dim, n_dim=n_dim)

    def value(y):
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape[:-1] + shape)
        out.fill(1.0)  # 0.5 us against 1.1 us for np.ones: the solver calls this once per row
        return out

    def jac(y):
        y = np.asarray(y, dtype=float)
        return np.zeros(y.shape[:-1] + shape + (d_dim,))

    return MatrixFunc("ones", d_dim, n_dim, value, jac)


def _identity_map(d_dim: int = 1):
    """psi(y) = diag(y): square, with psi(y) x = y * x componentwise."""
    eye = np.eye(*_dims(d_dim=d_dim))
    jconst = np.zeros((d_dim, d_dim, d_dim))
    for i in range(d_dim):
        jconst[i, i, i] = 1.0

    def value(y):
        y = np.asarray(y, dtype=float)
        return y[..., :, None] * eye

    def jac(y):
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(jconst, y.shape[:-1] + jconst.shape).copy()

    return MatrixFunc("identity", d_dim, d_dim, value, jac)


def _sin_plus_map(shift: float = 0.0):
    shift = _promote(shift, (), "shift")

    def value(y):
        y = np.asarray(y, dtype=float)
        return (np.sin(y[..., 0]) + shift)[..., None, None]

    def jac(y):
        y = np.asarray(y, dtype=float)
        return np.cos(y[..., 0])[..., None, None, None]

    return MatrixFunc(f"sin_plus({shift})", 1, 1, value, jac)


def _cos_map():
    def value(y):
        y = np.asarray(y, dtype=float)
        return np.cos(y[..., 0])[..., None, None]

    def jac(y):
        y = np.asarray(y, dtype=float)
        return -np.sin(y[..., 0])[..., None, None, None]

    return MatrixFunc("cos", 1, 1, value, jac)


MATRIX_FUNCS = {"ones": _ones_map, "identity": _identity_map, "sin_plus": _sin_plus_map, "cos": _cos_map}


@dataclass(frozen=True)
class Modes:
    """sigma(t, u, y) = Re sum_k (t - u)^powers[k] e^(rates[k] (t - u)) B_k(u, y): the outer time, exactly.

    ``powers`` holds one lag power per mode: 0 or 1 in the coefficient
    families, -alpha in the singular kernel's one mode.  ``value(us, ys)``
    returns B, shape (..., K, d, n), for inner times ``us`` (...) and
    states ``ys`` (..., d); ``jac(us, ys, b)`` returns the state derivative
    D_y B, shape (..., K, d, n, d), given ``b = value(us, ys)``.  B is real
    when ``rates`` is.
    """

    rates: np.ndarray
    powers: np.ndarray
    value: Callable[[float | np.ndarray, np.ndarray], np.ndarray]
    jac: Callable[[float | np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class Coefficient:
    """sigma(t, u, y) -> d x n matrix, with its state derivative, batched.

    ``eval_many(t, us, ys)`` returns (m, d, n) and ``d3_many(t, us, ys)``
    the state derivative (m, d, n, d), state component on the last axis,
    for inner times ``us`` (m,) and states ``ys`` (m, d).  The outer time
    ``t`` is one float or an (m,) array matched with ``us``.

    ``modes``, when set, is the same sigma as `Modes`.  The built-in
    families are defined by their modes alone and derive ``eval_many`` and
    ``d3_many`` from them; custom coefficients set none.

    Construction runs a central-difference consistency probe over
    ``probe_box`` unless ``validate=False``; see `check_derivatives`.
    """

    d_dim: int
    n_dim: int
    eval_many: Callable[[float | np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    d3_many: Callable[[float | np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    name: str = "custom"
    probe_box: tuple = ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
    modes: Modes | None = None
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if validate:
            self.check_derivatives()

    def eval(self, t: float, u: float, y: np.ndarray) -> np.ndarray:
        """sigma(t, u, y) at one point, shape (d, n)."""
        return self.eval_many(t, np.array([u], dtype=float), np.asarray(y, dtype=float)[None])[0]

    def d3(self, t: float, u: float, y: np.ndarray) -> np.ndarray:
        """D_y sigma(t, u, y) at one point, shape (d, n, d)."""
        return self.d3_many(t, np.array([u], dtype=float), np.asarray(y, dtype=float)[None])[0]

    def diagonal_many(self, ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """sigma(t, t, y) on matched arrays of times (m,) and states (m, d), shape (m, d, n)."""
        return self.eval_many(ts, ts, ys)

    def _probes(self, n_probes: int) -> np.ndarray:
        unit = _halton(n_probes, 2 + self.d_dim)
        (t_lo, t_hi), (u_lo, u_hi), (y_lo, y_hi) = self.probe_box
        pts = np.empty_like(unit)
        pts[:, 0] = t_lo + (t_hi - t_lo) * unit[:, 0]
        pts[:, 1] = u_lo + (u_hi - u_lo) * unit[:, 1]
        pts[:, 2:] = y_lo + (y_hi - y_lo) * unit[:, 2:]
        return pts

    def check_derivatives(self, step: float = 1e-5, rtol: float = 1e-3, n_probes: int = 16) -> None:
        """Probe ``d3_many`` against central differences of ``eval_many``.

        Uses a deterministic quasi-random point set inside ``probe_box``,
        evaluated in one batch per state component.  Raises ValueError
        naming the first probe point (t, u) where sigma is not finite or,
        failing that, the first where the derivative disagrees.
        """
        pts = self._probes(n_probes)
        t, u, y = pts[:, 0], pts[:, 1], pts[:, 2:]
        with np.errstate(all="ignore"):
            value = self.eval_many(t, u, y)
            self._first_bad(~np.isfinite(value), t, u, "sigma is not finite")
            jac = self.d3_many(t, u, y)
            fd = np.empty_like(jac)
            t2, u2 = np.concatenate([t, t]), np.concatenate([u, u])
            for c in range(self.d_dim):
                dy = np.zeros(self.d_dim)
                dy[c] = step
                plus, minus = np.split(self.eval_many(t2, u2, np.concatenate([y + dy, y - dy])), 2)
                fd[..., c] = (plus - minus) / (2 * step)
            atol = 1e-6 * max(1.0, float(np.max(np.abs(value))))
            self._first_bad(~np.isclose(jac, fd, rtol=rtol, atol=atol), t, u, "d3 disagrees with finite differences")

    def _first_bad(self, bad: np.ndarray, t: np.ndarray, u: np.ndarray, what: str) -> None:
        """Raise ValueError naming ``what`` at the first probe point (t, u) with any entry of ``bad`` set."""
        bad = bad.reshape(len(t), -1).any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"coefficient '{self.name}': {what} at {(float(t[k]), float(u[k]))}")


def _halton(n_points: int, dim: int) -> np.ndarray:
    """The first ``n_points`` unscrambled Halton points in [0, 1)^dim, index 0 first.

    Coordinate k is the radical inverse of the point index in the k-th
    prime base.
    """
    primes: list[int] = []
    candidate = 2
    while len(primes) < dim:
        if all(candidate % q for q in primes):
            primes.append(candidate)
        candidate += 1
    out = np.zeros((n_points, dim))
    for k, base in enumerate(primes):
        index, scale = np.arange(n_points), 1.0 / base
        while index.any():
            index, digit = np.divmod(index, base)
            out[:, k] += digit * scale
            scale /= base
    return out


def _from_modes(d_dim: int, n_dim: int, modes: Modes, name: str, **opts) -> Coefficient:
    """The coefficient whose sigma is ``modes``.

    sigma = Re sum_k (t - u)^p_k e^(z_k (t - u)) B_k(u, y), and D_y sigma
    is the same sum over D_y B_k.
    """

    def modal_sum(of_b):
        def many(t, us, ys):
            us, ys = np.asarray(us, dtype=float), np.asarray(ys, dtype=float)
            lags = (t - us)[:, None]
            return np.einsum("mk,mk...->m...", lags**modes.powers * np.exp(lags * modes.rates), of_b(us, ys)).real

        return many

    d3_many = modal_sum(lambda us, ys: modes.jac(us, ys, modes.value(us, ys)))
    return Coefficient(d_dim, n_dim, modal_sum(modes.value), d3_many, name=name, modes=modes, **opts)


def constant_coefficient(value, d_dim: int = 1, n_dim: int = 1) -> Coefficient:
    """sigma(t, u, y) = C: one mode, z = 0, B = C."""
    c = _promote(value, _dims(d_dim=d_dim, n_dim=n_dim), "value")
    zero3 = np.zeros(c.shape + (d_dim,))
    modes = Modes(
        np.zeros(1),
        np.zeros(1, dtype=int),
        lambda us, ys: np.broadcast_to(c, np.shape(us) + (1,) + c.shape),
        lambda us, ys, b: np.broadcast_to(zero3, np.shape(us) + (1,) + zero3.shape),
    )
    return _from_modes(d_dim, n_dim, modes, "constant")


def linear_coefficient(a, b=0.0, d_dim: int = 1, n_dim: int = 1) -> Coefficient:
    """sigma(t, u, y) = A y + B with A a (d, n, d) tensor acting on the state: one mode, z = 0.

    Scalars are promoted: for d = n = 1, ``linear_coefficient(1.0)`` is the
    plain sigma = y.
    """
    a_t = _promote(a, _dims(d_dim=d_dim, n_dim=n_dim) + (d_dim,), "a")
    b_m = _promote(b, (d_dim, n_dim), "b")
    modes = Modes(
        np.zeros(1),
        np.zeros(1, dtype=int),
        lambda us, ys: (np.vecdot(a_t, np.asarray(ys, dtype=float)[..., None, None, :]) + b_m)[..., None, :, :],
        lambda us, ys, b: np.broadcast_to(a_t, np.shape(us) + (1,) + a_t.shape),
    )
    return _from_modes(d_dim, n_dim, modes, "linear")


def separable_coefficient(phi: ScalarFunc, psi: MatrixFunc) -> Coefficient:
    """sigma(t, u, y) = phi(t - u) * psi(y): one mode, of rate ``phi.rate`` and lag power ``phi.power``, B = psi(y).

    phi reads only the lag t - u, so the derivative probe pins u = 0 and
    spans the causal lags t in [0, 1]: a fast ``exp_decay`` overflows at
    negative lags, which no solve evaluates.
    """
    modes = _lag_times_psi(phi.rate, phi.power, psi)
    name = f"separable({phi.name},{psi.name})"
    return _from_modes(psi.d_dim, psi.n_dim, modes, name, probe_box=((0.0, 1.0), (0.0, 0.0), (-1.0, 1.0)))


def _lag_times_psi(rate: complex, power: float, psi: MatrixFunc) -> Modes:
    """(t - u)^power e^(rate (t - u)) psi(y) as one mode, B = psi(y)."""
    return Modes(
        np.array([rate]),
        np.array([power]),
        lambda us, ys: psi.value(ys)[..., None, :, :],
        lambda us, ys, b: psi.jac(ys)[..., None, :, :, :],
    )


def trig_coefficient(
    amp=1.0,
    t_freq: float = 1.0,
    u_freq: float = 0.0,
    y_weights=1.0,
    phase=0.0,
    d_dim: int = 1,
    n_dim: int = 1,
) -> Coefficient:
    """sigma[a, b](t, u, y) = amp[a, b] * sin(p t + q u + r . y + phase[a, b]).

    One mode: sin(p (t - u) + theta + phase) = Re e^(i p (t - u)) e^(i theta) (-i e^(i phase)),
    with theta = (p + q) u + r . y.
    """
    amp_m = _promote(amp, _dims(d_dim=d_dim, n_dim=n_dim), "amp")
    phase_m = _promote(phase, (d_dim, n_dim), "phase")
    r = _promote(y_weights, (d_dim,), "y_weights")
    t_freq, u_freq = _promote(t_freq, (), "t_freq"), _promote(u_freq, (), "u_freq")
    mode_amp, mode_freq, mode_r = -1j * amp_m * np.exp(1j * phase_m), float(t_freq + u_freq), 1j * r

    def mode(us, ys):
        return np.exp(1j * (mode_freq * us + np.vecdot(ys, r)))[..., None, None, None] * mode_amp

    modes = Modes(np.array([1j * t_freq]), np.zeros(1, dtype=int), mode, lambda us, ys, b: b[..., None] * mode_r)
    return _from_modes(d_dim, n_dim, modes, "trig")
