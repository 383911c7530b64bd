"""The benchmark's workloads: one CLI operation each, its config and its check.

Inputs are fixed.  The fBm seeds below are part of each workload: another
sample changes the number of Picard sweeps by up to a fifth, so a seed
that varied per run would measure the sample rather than the program.
Sizes are fields so that the self-test can run the same operations small.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checks


def fbm_sample(hurst: float, dim: int, n_steps: int, seed: int, method: str) -> np.ndarray:
    """The driver sample the CLI draws for an fbm config, shape (n_steps + 1, dim)."""
    from roughvolterra.algebra import Grid
    from roughvolterra.signals import FbmSpec, generate_fbm

    return generate_fbm(FbmSpec(hurst, dim, Grid(1.0, n_steps), seed, method)).values


@dataclass(frozen=True)
class YoungSolve:
    """`solve`, young regime: sigma = exp_decay(1)(t - u) (sin y + 2) against 1-D fBm."""

    name: str
    n_steps: int
    prefix = "young"
    hurst, seed, gamma, rate, shift, a = 0.75, 31, 0.7, 1.0, 2.0, 1.0

    def cli_args(self, config_path: str, out: str) -> list[str]:
        return ["solve", "--config", config_path, "--out", out]

    def config(self) -> dict:
        return {
            "version": 1,
            "regime": "young",
            "a": self.a,
            "driver": {"kind": "fbm", "hurst": self.hurst, "dim": 1, "seed": self.seed, "method": "circulant"},
            "grid": {"n_steps": self.n_steps, "horizon": 1.0},
            "gamma": self.gamma,
            "kappa": 0.9,
            "coefficient": {
                "family": "separable",
                "params": {"phi": {"name": "exp_decay", "rate": self.rate}, "psi": {"name": "sin_plus", "shift": self.shift}},
            },
            "outputs": {"prefix": self.prefix},
        }

    def reference_driver(self) -> np.ndarray:
        return fbm_sample(self.hurst, 1, self.n_steps, self.seed, "circulant")

    def check(self, out: str, driver: np.ndarray) -> list[str]:
        """Failures of the outputs an operation wrote into ``out``."""
        dx = np.diff(driver, axis=0)
        return checks.check_young(out, self.prefix, dx, self.a, self.gamma, self.rate, self.shift)


@dataclass(frozen=True)
class RoughSolve:
    """`solve`, rough regime: trig sigma against 2-D fBm lifted from a 4x finer grid."""

    name: str
    n_steps: int
    prefix = "rough"
    hurst, seed, refine, gamma, amp, t_freq, u_freq, a = 0.4, 99, 4, 0.38, 0.5, 1.0, 0.5, 0.5

    def cli_args(self, config_path: str, out: str) -> list[str]:
        return ["solve", "--config", config_path, "--out", out]

    def config(self) -> dict:
        return {
            "version": 1,
            "regime": "rough",
            "a": self.a,
            "driver": {"kind": "fbm", "hurst": self.hurst, "dim": 2, "seed": self.seed, "lift_refine": self.refine},
            "grid": {"n_steps": self.n_steps, "horizon": 1.0},
            "gamma": self.gamma,
            "kappa": 0.7,
            "coefficient": {
                "family": "trig",
                "params": {"amp": self.amp, "t_freq": self.t_freq, "u_freq": self.u_freq, "d_dim": 1, "n_dim": 2},
            },
            "outputs": {"prefix": self.prefix},
        }

    def reference_driver(self) -> np.ndarray:
        """The fine-grid sample the lift is built from."""
        return fbm_sample(self.hurst, 2, self.n_steps * self.refine, self.seed, "auto")

    def check(self, out: str, driver: np.ndarray) -> list[str]:
        """Failures of the outputs an operation wrote into ``out``."""
        return checks.check_rough(
            out, self.prefix, driver, self.refine, self.a, self.gamma, self.amp, self.t_freq, self.u_freq
        )


@dataclass(frozen=True)
class SingularRate:
    """`rate` in oracle mode: kernel (t - u)^(-1/4), psi = ones, linear driver, dyadic levels."""

    name: str
    n_steps: int
    refinements: int
    prefix = "singular"
    alpha, gamma, a, tol = 0.25, 1.0, 1.0, 1e-10

    def cli_args(self, config_path: str, out: str) -> list[str]:
        return ["rate", "--config", config_path, "--out", out, "--refinements", str(self.refinements)]

    def config(self) -> dict:
        return {
            "version": 1,
            "regime": "singular",
            "a": self.a,
            "driver": {"kind": "builtin", "name": "linear"},
            "grid": {"n_steps": self.n_steps, "horizon": 1.0},
            "gamma": self.gamma,
            "kernel": {"alpha": self.alpha, "psi": "ones"},
            "solver": {"tol": self.tol},
            "rate": {"mode": "oracle", "oracle": "power_kernel"},
            "outputs": {"prefix": self.prefix},
        }

    def reference_driver(self) -> None:
        return None

    def check(self, out: str, driver: None) -> list[str]:
        """Failures of the outputs an operation wrote into ``out``."""
        resolutions = [self.n_steps << k for k in range(self.refinements)]
        return checks.check_ladder(out, self.prefix, resolutions, self.alpha, self.a, self.tol, self.gamma - self.alpha)


WORKLOADS = {
    w.name: w
    for w in (
        YoungSolve("young-fbm-solve-8k", 8192),
        RoughSolve("rough-fbm2d-solve-2k", 2048),
        SingularRate("singular-rate-512-16k", 512, 6),
    )
}
