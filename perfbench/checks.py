"""Checks of CLI outputs against computations made here, with numpy alone.

Nothing in this module imports roughvolterra: every reference value is
recomputed from the written solution and the driver sample.  Each check
returns a list of failure messages; an empty list means the output passed.
"""
from __future__ import annotations

import json
import os

import numpy as np

ROW_BLOCK = 64
NORM_RTOL = 1e-12
SLOPE_TOL = 0.05
SLOPE_FIT_TOL = 1e-6


def read_solution(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of a solution CSV (header row, one row per grid point)."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0], table[:, 1:]


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def holder_norm(t: np.ndarray, y: np.ndarray, mu: float) -> float:
    """All-pairs sup over i < j of |y_j - y_i| / (t_j - t_i)^mu on a uniform grid.

    Pairs are taken lag by lag: on a uniform grid every pair at lag k spans
    t_k - t_0.
    """
    best = 0.0
    for lag in range(1, len(t)):
        diff = y[lag:] - y[:-lag]
        best = max(best, float(np.max(np.sqrt(np.sum(diff * diff, axis=1)))) / (t[lag] - t[0]) ** mu)
    return float(best)


def _relative_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), np.finfo(float).tiny)


def _causal_rows(n: int):
    """Blocks of target rows m with the mask l < m over all cells l."""
    cells = np.arange(n - 1)
    for m0 in range(1, n, ROW_BLOCK):
        rows = np.arange(m0, min(m0 + ROW_BLOCK, n))
        yield rows, cells[None, :] < rows[:, None]


def young_residual(t: np.ndarray, y: np.ndarray, dx: np.ndarray, a: float, rate: float, shift: float) -> float:
    """max_m |y_m - a - sum_{l<m} exp(-rate (t_m - t_l)) (sin y_l + shift) dx_l|.

    The discrete young map of sigma = exp_decay(rate)(t - u) * (sin y + shift)
    for a scalar state and a scalar driver, summed as
    exp(-rate t_m) * sum_{l<m} exp(rate t_l) (sin y_l + shift) dx_l.
    """
    g = np.exp(rate * t[:-1]) * (np.sin(y[:-1, 0]) + shift) * dx[:, 0]
    image = a + np.exp(-rate * t) * np.concatenate([[0.0], np.cumsum(g)])
    return float(np.max(np.abs(y[:, 0] - image)))


def levy_areas(x_fine: np.ndarray, refine: int) -> np.ndarray:
    """Lévy areas of each coarse cell, summed directly over its fine steps.

    Area[l, a, b] = sum over fine steps k of cell l of
    (x_k - x_start)_a dx_k,b + dx_k,a dx_k,b / 2, the iterated integral of the
    piecewise-linear fine path over the cell.
    """
    steps = np.diff(x_fine, axis=0)
    n_fine, dim = steps.shape
    cells = n_fine // refine
    start = x_fine[:-1:refine]
    offset = x_fine[:-1].reshape(cells, refine, dim) - start[:, None, :]
    steps = steps.reshape(cells, refine, dim)
    return np.einsum("lka,lkb->lab", offset, steps) + 0.5 * np.einsum("lka,lkb->lab", steps, steps)


def rough_residual(
    t: np.ndarray,
    y: np.ndarray,
    x_fine: np.ndarray,
    refine: int,
    a: float,
    amp: float,
    t_freq: float,
    u_freq: float,
) -> float:
    """max_m of the defect of the discrete second-order map at y.

    sigma_b(t, u, y) = amp sin(t_freq t + u_freq u + y) for every driver
    component b, a scalar state, y' = sigma(t, t, y).  Cell l contributes
    sigma(t_m, t_l, y_l) . dx_l + sum_ab d_y sigma_b(t_m, t_l, y_l) y'_l,a Area_l[a, b].
    """
    x = x_fine[::refine]
    dx_sum = np.sum(np.diff(x, axis=0), axis=1)
    area_sum = np.sum(levy_areas(x_fine, refine), axis=(1, 2))
    tl, yl = t[:-1], y[:-1, 0]
    yprime = amp * np.sin((t_freq + u_freq) * tl + yl)
    worst = abs(float(y[0, 0]) - a)
    for rows, causal in _causal_rows(len(t)):
        angle = t_freq * t[rows][:, None] + u_freq * tl[None, :] + yl[None, :]
        cell = amp * np.sin(angle) * dx_sum + amp * np.cos(angle) * yprime * area_sum
        image = a + np.sum(np.where(causal, cell, 0.0), axis=1)
        worst = max(worst, float(np.max(np.abs(y[rows, 0] - image))))
    return worst


def power_kernel_error(n_steps: int, alpha: float, a: float) -> float:
    """|a + h sum_{l<n} (1 - t_l)^(-alpha) - (a + 1/(1 - alpha))| on [0, 1]."""
    h = 1.0 / n_steps
    t = np.arange(n_steps) * h
    return abs(a + h * float(np.sum((1.0 - t) ** -alpha)) - (a + 1.0 / (1.0 - alpha)))


def check_norms(label: str, norms: dict, t: np.ndarray, y: np.ndarray, gamma: float) -> list[str]:
    """The report's gamma-Hölder and sup norms of the solution against all-pairs numpy values."""
    failures = []
    if norms["exponent"] != gamma:
        failures.append(f"{label}: norm exponent {norms['exponent']} is not gamma {gamma}")
    own = {"solution_holder": holder_norm(t, y, gamma), "solution_sup": float(np.max(np.abs(y)))}
    for key, want in own.items():
        gap = _relative_gap(norms[key], want)
        if not gap <= NORM_RTOL:
            failures.append(f"{label}: {key} {norms[key]!r} differs from {want!r} by {gap:.1e} relative")
    return failures


def check_young(out: str, prefix: str, dx: np.ndarray, a: float, gamma: float, rate: float, shift: float) -> list[str]:
    report = read_json(os.path.join(out, f"{prefix}_report.json"))
    t, y = read_solution(os.path.join(out, f"{prefix}_solution.csv"))
    failures = []
    if report["converged"] is not True:
        failures.append("young: report says not converged")
    if y[0, 0] != a:
        failures.append(f"young: y_0 = {y[0, 0]!r}, expected {a!r}")
    tol = report["errors"]["tolerance"]
    residual = young_residual(t, y, dx, a, rate, shift)
    if not residual <= tol:
        failures.append(f"young: fixed-point residual {residual:.3e} exceeds tolerance {tol:.1e}")
    return failures + check_norms("young", report["norms"], t, y, gamma)


def check_rough(
    out: str,
    prefix: str,
    x_fine: np.ndarray,
    refine: int,
    a: float,
    gamma: float,
    amp: float,
    t_freq: float,
    u_freq: float,
) -> list[str]:
    report = read_json(os.path.join(out, f"{prefix}_report.json"))
    t, y = read_solution(os.path.join(out, f"{prefix}_solution.csv"))
    failures = []
    if report["converged"] is not True:
        failures.append("rough: report says not converged")
    if not report["errors"]["proven_horizon"] > 0:
        failures.append(f"rough: proven_horizon {report['errors']['proven_horizon']} is not positive")
    tol = report["errors"]["tolerance"]
    residual = rough_residual(t, y, x_fine, refine, a, amp, t_freq, u_freq)
    if not residual <= tol:
        failures.append(f"rough: fixed-point residual {residual:.3e} exceeds tolerance {tol:.1e}")
    return failures + check_norms("rough", report["norms"], t, y, gamma)


def check_ladder(out: str, prefix: str, resolutions: list[int], alpha: float, a: float, tol: float, rate: float) -> list[str]:
    report = read_json(os.path.join(out, f"{prefix}_rate.json"))
    failures = []
    if report.get("aborted") or report["resolutions"] != resolutions:
        return [f"ladder: resolutions {report['resolutions']} are not {resolutions}"]
    if not all(report["converged"]):
        failures.append(f"ladder: converged flags {report['converged']}")
    own = [power_kernel_error(n, alpha, a) for n in resolutions]
    for n, got, want in zip(resolutions, report["errors"], own):
        if not abs(got - want) <= tol:
            failures.append(f"ladder: error at n = {n} is {got!r}, expected {want!r} within {tol:.0e}")
    slope = -float(np.polyfit(np.log2(resolutions), np.log2(own), 1)[0])
    if not abs(report["slope"] - slope) <= SLOPE_FIT_TOL:
        failures.append(f"ladder: slope {report['slope']!r} is not the fit {slope!r} of the errors")
    if not abs(slope - rate) <= SLOPE_TOL:
        failures.append(f"ladder: slope {slope:.4f} is not within {SLOPE_TOL} of the rate {rate}")
    return failures
