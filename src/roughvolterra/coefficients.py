"""Coefficient fields sigma(t, u, y) and their derivative data.

A coefficient maps (outer time t, inner time u, state y in R^d) to a d x n
matrix that multiplies driver increments.  Solvers and integral operators
need first derivatives in each slot; the state derivative additionally
feeds the controlled-path composition rules.  Supplied derivatives are
cross-checked against central finite differences at quasi-random probe
points when the coefficient is constructed, so a typo in an analytic
derivative fails fast rather than corrupting a long solve.

Built-in families: constant, linear in the state, separable
phi(t - u) * psi(y), and trigonometric.  All built-ins evaluate vectorised
over the inner-time axis, which is what keeps the Picard sweeps cheap.
"""
from __future__ import annotations

import inspect
from dataclasses import InitVar, dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Coefficient",
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
    """A smooth scalar function of one variable with its derivative."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]


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


def scalar_func(name: str, **params) -> ScalarFunc:
    """Look up a scalar-function family by name ('one', 'linear', 'exp_decay', 'cos')."""
    if name not in SCALAR_FUNCS:
        raise ValueError(f"unknown scalar function family '{name}'")
    return _bind_call(SCALAR_FUNCS[name], params, f"scalar function '{name}'")


def matrix_func(name: str, **params) -> MatrixFunc:
    """Look up a state-map family by name ('ones', 'identity', 'sin_plus', 'cos')."""
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


def _one(**_):
    return ScalarFunc("one", lambda v: np.ones_like(np.asarray(v, dtype=float)), lambda v: np.zeros_like(np.asarray(v, dtype=float)))


def _linear(**_):
    return ScalarFunc("linear", lambda v: np.asarray(v, dtype=float), lambda v: np.ones_like(np.asarray(v, dtype=float)))


def _exp_decay(rate: float = 1.0):
    return ScalarFunc(
        f"exp_decay({rate})",
        lambda v: np.exp(-rate * np.asarray(v, dtype=float)),
        lambda v: -rate * np.exp(-rate * np.asarray(v, dtype=float)),
    )


def _cos(freq: float = 1.0):
    return ScalarFunc(
        f"cos({freq})",
        lambda v: np.cos(freq * np.asarray(v, dtype=float)),
        lambda v: -freq * np.sin(freq * np.asarray(v, dtype=float)),
    )


SCALAR_FUNCS = {"one": _one, "linear": _linear, "exp_decay": _exp_decay, "cos": _cos}


def _ones_map(d_dim: int = 1, n_dim: int = 1):
    shape = (d_dim, n_dim)

    def value(y):
        y = np.asarray(y, dtype=float)
        return np.ones(y.shape[:-1] + shape)

    def jac(y):
        y = np.asarray(y, dtype=float)
        return np.zeros(y.shape[:-1] + shape + (d_dim,))

    return MatrixFunc("ones", d_dim, n_dim, value, jac)


def _identity_map(d_dim: int = 1):
    """psi(y) = diag(y): square, with psi(y) x = y * x componentwise."""
    eye = np.eye(d_dim)
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
    def value(y):
        y = np.asarray(y, dtype=float)
        return (np.sin(y[..., 0]) + shift)[..., None, None]

    def jac(y):
        y = np.asarray(y, dtype=float)
        return np.cos(y[..., 0])[..., None, None, None]

    return MatrixFunc(f"sin_plus({shift})", 1, 1, value, jac)


def _cos_map(**_):
    def value(y):
        y = np.asarray(y, dtype=float)
        return np.cos(y[..., 0])[..., None, None]

    def jac(y):
        y = np.asarray(y, dtype=float)
        return -np.sin(y[..., 0])[..., None, None, None]

    return MatrixFunc("cos", 1, 1, value, jac)


MATRIX_FUNCS = {"ones": _ones_map, "identity": _identity_map, "sin_plus": _sin_plus_map, "cos": _cos_map}


@dataclass
class Coefficient:
    """sigma(t, u, y) -> d x n matrix with analytic slot derivatives.

    ``d1``, ``d2`` differentiate in the two time slots and return (d, n);
    ``d3`` differentiates in the state and returns (d, n, d) with the state
    component on the last axis.  ``eval_many``/``d3_many`` evaluate one
    outer time against arrays of inner times (m,) and states (m, d); when
    not supplied, a loop fallback is installed (correct but slow).

    Construction runs a central-difference consistency probe over
    ``probe_box`` unless ``validate=False``; see `check_derivatives`.
    """

    d_dim: int
    n_dim: int
    eval: Callable[[float, float, np.ndarray], np.ndarray]
    d1: Callable[[float, float, np.ndarray], np.ndarray]
    d2: Callable[[float, float, np.ndarray], np.ndarray]
    d3: Callable[[float, float, np.ndarray], np.ndarray]
    eval_many: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    d3_many: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    name: str = "custom"
    probe_box: tuple = ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if self.eval_many is None:
            ev = self.eval

            def eval_many(t, us, ys):
                return np.stack([ev(t, float(u), y) for u, y in zip(us, ys)])

            self.eval_many = eval_many
        if self.d3_many is None:
            d3 = self.d3

            def d3_many(t, us, ys):
                return np.stack([d3(t, float(u), y) for u, y in zip(us, ys)])

            self.d3_many = d3_many
        if validate:
            self.check_derivatives()

    def _probes(self, n_probes: int) -> np.ndarray:
        unit = _halton(n_probes, 2 + self.d_dim)
        (t_lo, t_hi), (u_lo, u_hi), (y_lo, y_hi) = self.probe_box
        pts = np.empty_like(unit)
        pts[:, 0] = t_lo + (t_hi - t_lo) * unit[:, 0]
        pts[:, 1] = u_lo + (u_hi - u_lo) * unit[:, 1]
        pts[:, 2:] = y_lo + (y_hi - y_lo) * unit[:, 2:]
        return pts

    def check_derivatives(self, step: float = 1e-5, rtol: float = 1e-3, n_probes: int = 16) -> None:
        """Probe supplied derivatives against central differences.

        Uses a deterministic quasi-random point set inside ``probe_box``.
        Raises ValueError naming the slot on the first inconsistency.
        """
        pts = self._probes(n_probes)
        scale = 1.0
        for p in pts:
            scale = max(scale, float(np.max(np.abs(self.eval(p[0], p[1], p[2:])))))
        atol = 1e-6 * scale
        for p in pts:
            t, u, y = float(p[0]), float(p[1]), p[2:]
            fd1 = (self.eval(t + step, u, y) - self.eval(t - step, u, y)) / (2 * step)
            if not np.allclose(self.d1(t, u, y), fd1, rtol=rtol, atol=atol):
                raise ValueError(f"coefficient '{self.name}': d1 disagrees with finite differences at {(t, u)}")
            fd2 = (self.eval(t, u + step, y) - self.eval(t, u - step, y)) / (2 * step)
            if not np.allclose(self.d2(t, u, y), fd2, rtol=rtol, atol=atol):
                raise ValueError(f"coefficient '{self.name}': d2 disagrees with finite differences at {(t, u)}")
            fd3 = np.empty((self.d_dim, self.n_dim, self.d_dim))
            for c in range(self.d_dim):
                dy = np.zeros(self.d_dim)
                dy[c] = step
                fd3[:, :, c] = (self.eval(t, u, y + dy) - self.eval(t, u, y - dy)) / (2 * step)
            if not np.allclose(self.d3(t, u, y), fd3, rtol=rtol, atol=atol):
                raise ValueError(f"coefficient '{self.name}': d3 disagrees with finite differences at {(t, u)}")

    def diagonal_many(self, ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """sigma(t, t, y) on matched arrays of times and states, shape (m, d, n)."""
        return np.stack([self.eval(float(t), float(t), y) for t, y in zip(ts, ys)])


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


def _promote_matrix(value, d_dim: int, n_dim: int) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        out = np.full((d_dim, n_dim), float(out))
    if out.shape != (d_dim, n_dim):
        raise ValueError(f"expected a ({d_dim}, {n_dim}) matrix, got shape {out.shape}")
    return out


def constant_coefficient(value, d_dim: int = 1, n_dim: int = 1) -> Coefficient:
    """sigma(t, u, y) = C."""
    c = _promote_matrix(value, d_dim, n_dim)
    zero = np.zeros_like(c)
    zero3 = np.zeros(c.shape + (d_dim,))

    def eval_many(t, us, ys):
        return np.broadcast_to(c, (len(us),) + c.shape).copy()

    def d3_many(t, us, ys):
        return np.broadcast_to(zero3, (len(us),) + zero3.shape).copy()

    return Coefficient(
        d_dim, n_dim,
        eval=lambda t, u, y: c,
        d1=lambda t, u, y: zero,
        d2=lambda t, u, y: zero,
        d3=lambda t, u, y: zero3,
        eval_many=eval_many,
        d3_many=d3_many,
        name="constant",
    )


def linear_coefficient(a, b=0.0, d_dim: int = 1, n_dim: int = 1) -> Coefficient:
    """sigma(t, u, y) = A y + B with A a (d, n, d) tensor acting on the state.

    Scalars are promoted: for d = n = 1, ``linear_coefficient(1.0)`` is the
    plain sigma = y.
    """
    a_t = np.asarray(a, dtype=float)
    if a_t.ndim == 0:
        a_t = np.full((d_dim, n_dim, d_dim), float(a_t))
    if a_t.shape != (d_dim, n_dim, d_dim):
        raise ValueError(f"expected A of shape ({d_dim}, {n_dim}, {d_dim}), got {a_t.shape}")
    b_m = _promote_matrix(b, d_dim, n_dim)
    zero = np.zeros((d_dim, n_dim))

    def ev(t, u, y):
        return np.einsum("dnc,c->dn", a_t, np.asarray(y, dtype=float)) + b_m

    def eval_many(t, us, ys):
        return np.einsum("dnc,mc->mdn", a_t, np.asarray(ys, dtype=float)) + b_m

    def d3_many(t, us, ys):
        return np.broadcast_to(a_t, (len(us),) + a_t.shape).copy()

    return Coefficient(
        d_dim, n_dim,
        eval=ev,
        d1=lambda t, u, y: zero,
        d2=lambda t, u, y: zero,
        d3=lambda t, u, y: a_t,
        eval_many=eval_many,
        d3_many=d3_many,
        name="linear",
    )


def separable_coefficient(phi: ScalarFunc, psi: MatrixFunc) -> Coefficient:
    """sigma(t, u, y) = phi(t - u) * psi(y)."""
    d_dim, n_dim = psi.d_dim, psi.n_dim

    def ev(t, u, y):
        return float(phi.f(t - u)) * psi.value(y)

    def d1(t, u, y):
        return float(phi.df(t - u)) * psi.value(y)

    def d3(t, u, y):
        return float(phi.f(t - u)) * psi.jac(y)

    def eval_many(t, us, ys):
        w = np.asarray(phi.f(t - np.asarray(us, dtype=float)))
        return w[:, None, None] * psi.value(np.asarray(ys, dtype=float))

    def d3_many(t, us, ys):
        w = np.asarray(phi.f(t - np.asarray(us, dtype=float)))
        return w[:, None, None, None] * psi.jac(np.asarray(ys, dtype=float))

    return Coefficient(
        d_dim, n_dim,
        eval=ev,
        d1=d1,
        d2=lambda t, u, y: -d1(t, u, y),
        d3=d3,
        eval_many=eval_many,
        d3_many=d3_many,
        name=f"separable({phi.name},{psi.name})",
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
    """sigma[a, b](t, u, y) = amp[a, b] * sin(p t + q u + r . y + phase[a, b])."""
    amp_m = _promote_matrix(amp, d_dim, n_dim)
    phase_m = _promote_matrix(phase, d_dim, n_dim)
    r = np.asarray(y_weights, dtype=float)
    if r.ndim == 0:
        r = np.full(d_dim, float(r))
    if r.shape != (d_dim,):
        raise ValueError(f"expected y_weights of shape ({d_dim},), got {r.shape}")

    def angle(t, u, y):
        return t_freq * t + u_freq * u + np.asarray(y, dtype=float) @ r + phase_m

    def ev(t, u, y):
        return amp_m * np.sin(angle(t, u, y))

    def d3(t, u, y):
        return (amp_m * np.cos(angle(t, u, y)))[:, :, None] * r

    def eval_many(t, us, ys):
        us = np.asarray(us, dtype=float)
        a = t_freq * t + u_freq * us[:, None, None] + (np.asarray(ys, dtype=float) @ r)[:, None, None] + phase_m
        return amp_m * np.sin(a)

    def d3_many(t, us, ys):
        us = np.asarray(us, dtype=float)
        a = t_freq * t + u_freq * us[:, None, None] + (np.asarray(ys, dtype=float) @ r)[:, None, None] + phase_m
        return (amp_m * np.cos(a))[:, :, :, None] * r

    return Coefficient(
        d_dim, n_dim,
        eval=ev,
        d1=lambda t, u, y: t_freq * amp_m * np.cos(angle(t, u, y)),
        d2=lambda t, u, y: u_freq * amp_m * np.cos(angle(t, u, y)),
        d3=d3,
        eval_many=eval_many,
        d3_many=d3_many,
        name="trig",
    )
