"""Weakly singular integrals: kernel bounds, dyadic levels, analytic oracles."""
import numpy as np
import pytest

from roughvolterra.algebra import Grid, Path, delta1, holder_norm
from roughvolterra.coefficients import matrix_func
from roughvolterra.signals import FbmSpec, builtin_path, generate_fbm
from roughvolterra.singular import (
    KernelSpec,
    kernel_increment,
    singular_increment,
    singular_integral_diag,
    singular_integral_offdiag,
)
from roughvolterra.young import YoungIntegrand, young_integral

ONES = matrix_func("ones")


def lacunary_state(t: np.ndarray, kappa: float, lam: float = 1.9, terms: int = 16) -> np.ndarray:
    """Deterministic state of exactly kappa-Hölder regularity.

    A lacunary trigonometric sum with non-dyadic frequency ratio `lam`
    avoids resonance with the dyadic refinement grids, so level-decay
    rates read off it are stable and reproducible.
    """
    rng = np.random.default_rng(97)
    phases = rng.uniform(0.0, 2.0 * np.pi, terms)
    out = np.zeros_like(t)
    for m in range(terms):
        out += lam ** (-m * kappa) * np.sin(lam**m * t + phases[m])
    return out


def brute_force_map(k: KernelSpec, y: Path, x: Path) -> np.ndarray:
    """z_l = sum_{m<l} (t_l - t_m)^(-alpha) psi(y_m) dx_m on the native grid."""
    t = y.grid.times
    dx = x.cells()
    psi = k.psi.value(y.values[:-1])
    n = y.grid.n_steps
    z = np.zeros((n + 1, k.d_dim))
    for l in range(1, n + 1):
        w = (t[l] - t[:l]) ** -k.alpha
        z[l] = np.einsum("m,mdn,mn->d", w, psi[:l], dx[:l])
    return z


def left_point_levels(k: KernelSpec, y: Path, x: Path, weight, lo: int, hi: int) -> list[np.ndarray]:
    """sum over cells [a, b] of weight(t_a) psi(y_a) (x_b - x_a), on every dyadic restriction of [lo, hi].

    Coarsest first: one cell, then 2, 4, ... down to the native cells.
    """
    t = y.grid.times
    levels = []
    stride = hi - lo
    while stride >= 1:
        total = np.zeros(k.d_dim)
        for a in range(lo, hi, stride):
            psi = k.psi.value(y.values[a : a + 1])[0]
            total += weight(t[a]) * psi @ (x.values[a + stride] - x.values[a])
        levels.append(total)
        stride //= 2
    return levels


class TestKernelSpec:
    def test_alpha_constraint_named(self):
        with pytest.raises(ValueError, match="0 < alpha < 1/2"):
            KernelSpec(alpha=0.6, psi=ONES, gamma=0.9)

    def test_theta_constraint_named(self):
        with pytest.raises(ValueError, match="gamma - alpha > 1/2"):
            KernelSpec(alpha=0.3, psi=ONES, gamma=0.7)

    def test_kappa_constraint_named(self):
        with pytest.raises(ValueError, match="kappa < gamma - alpha"):
            KernelSpec(alpha=0.25, psi=ONES, gamma=1.0, kappa=0.8)

    def test_kappa_defaults_to_midpoint(self):
        k = KernelSpec(alpha=0.25, psi=ONES, gamma=0.9)
        assert k.kappa == 0.5

    def test_contraction_exponent(self):
        k = KernelSpec(alpha=0.25, psi=ONES, gamma=0.9, kappa=0.55)
        assert k.contraction_exponent == pytest.approx(0.5 * (0.55 + 0.65))


class TestKernelIncrement:
    def test_direct_value(self):
        got = kernel_increment(1.1, 1.0, 0.0, alpha=0.5)
        assert got == pytest.approx(1.1**-0.5 - 1.0, rel=1e-12)
        assert got == pytest.approx(-0.04653, abs=1e-5)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            u, s, t = np.sort(rng.uniform(0, 2, 3))
            if not (u < s < t):
                continue
            assert kernel_increment(t, s, u, alpha=0.3) <= 0

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="u < s < t"):
            kernel_increment(1.0, 1.0, 0.0, alpha=0.3)
        with pytest.raises(ValueError, match="u < s < t"):
            kernel_increment(2.0, 1.0, 1.5, alpha=0.3)

    def test_two_exponent_bound(self):
        # |increment| <= c_b (s-u)^(-alpha-b) (t-s)^b for b in {kappa, gamma-alpha, 1};
        # interpolating the mean-value bound against the trivial one gives
        # c_b = alpha^b <= 1, so 1.0 is a safe frozen constant
        alpha, gamma, kappa = 0.25, 0.9, 0.5
        us = np.linspace(0.0, 0.8, 5)
        gaps = [0.01, 0.05, 0.2, 1.0]
        for beta in (kappa, gamma - alpha, 1.0):
            worst = 0.0
            for u in us:
                for g1 in gaps:
                    s = u + g1
                    for g2 in gaps:
                        t = s + g2
                        val = abs(kernel_increment(t, s, u, alpha))
                        bound = (s - u) ** (-alpha - beta) * (t - s) ** beta
                        worst = max(worst, val / bound)
            assert worst <= 1.0


class TestDiagonal:
    def test_power_law_oracle(self):
        # psi = 1, x_u = u, alpha = 1/2: integral over [0,1] is 2; the
        # left-point sum sits below by O(1/sqrt(N))
        k = KernelSpec(alpha=0.5 - 1e-12, psi=ONES, gamma=1.0)
        for n in (256, 1024, 4096):
            x = builtin_path("linear", Grid(1.0, n))
            y = Path(x.grid, np.zeros((n + 1, 1)))
            got = singular_integral_diag(k, y, x, 0, n)[0]
            assert got < 2.0
            assert abs(got - 2.0) <= 1.5 / np.sqrt(n)

    def test_vanishing_alpha_reduces_to_young(self):
        k = KernelSpec(alpha=1e-8, psi=matrix_func("sin_plus", shift=2.0), gamma=0.9)
        g = Grid(1.0, 128)
        x = builtin_path("sine", g)
        y = Path(g, np.cos(g.times)[:, None])
        got = singular_integral_diag(k, y, x, 0, 128)[0]
        z = YoungIntegrand(Path(g, k.psi.value(y.values)), rho=1.0)
        want = young_integral(z, x, 0, 128)[0]
        assert got == pytest.approx(want, rel=1e-6)

    def test_constant_driver(self):
        k = KernelSpec(alpha=0.25, psi=ONES, gamma=0.9)
        g = Grid(1.0, 64)
        x = Path(g, np.full((65, 1), 3.3))
        y = Path(g, np.zeros((65, 1)))
        assert np.array_equal(singular_integral_diag(k, y, x, 0, 64), np.zeros(1))

    def test_non_dyadic_interval_rejected(self):
        k = KernelSpec(alpha=0.25, psi=ONES, gamma=0.9)
        x = builtin_path("linear", Grid(1.0, 64))
        y = Path(x.grid, np.zeros((65, 1)))
        with pytest.raises(ValueError, match="power of two"):
            singular_integral_diag(k, y, x, 0, 48)

    def test_level_corrections_decay_smooth(self):
        # successive dyadic corrections settle into geometric decay; the
        # tail ratio stays under 2^(-min(gamma-alpha-kappa, kappa+gamma-1))
        # plus margin (early levels trade quadrature error against the
        # singular-cell term and are not yet geometric)
        k = KernelSpec(alpha=0.25, psi=matrix_func("sin_plus", shift=2.0), gamma=1.0, kappa=0.375)
        g = Grid(1.0, 1024)
        x = builtin_path("linear", g)
        y = Path(g, np.cos(2 * g.times)[:, None])
        _, levels = singular_integral_diag(k, y, x, 0, 1024, return_levels=True)
        corrections = np.array([float(np.linalg.norm(b - a)) for a, b in zip(levels, levels[1:])])
        bound = 2.0 ** -min(k.gamma - k.alpha - k.kappa, k.kappa + k.gamma - 1) + 0.1
        ratios = corrections[1:] / corrections[:-1]
        assert np.exp(np.mean(np.log(ratios[-4:]))) <= bound

    def test_level_corrections_decay_rough_state(self):
        # rough state: single-sample ratios fluctuate, so the geometric
        # rate is read off the tail's mean log-ratio
        k = KernelSpec(alpha=0.25, psi=matrix_func("identity", d_dim=1), gamma=1.0, kappa=0.375)
        g = Grid(1.0, 8192)
        x = builtin_path("linear", g)
        y = generate_fbm(FbmSpec(hurst=0.375, dim=1, grid=g, seed=1))
        _, levels = singular_integral_diag(k, y, x, 0, 8192, return_levels=True)
        corrections = np.array([float(np.linalg.norm(b - a)) for a, b in zip(levels, levels[1:])])
        bound = 2.0 ** -min(k.gamma - k.alpha - k.kappa, k.kappa + k.gamma - 1) + 0.1
        ratios = corrections[1:] / corrections[:-1]
        assert np.exp(np.mean(np.log(ratios[-6:]))) <= bound

    def test_level_corrections_dominated_geometrically(self):
        # corrections are dominated by C 2^(-n (gamma-alpha-kappa)); the
        # constant, measured on a deterministic kappa-Hölder state, is
        # stable across grid sizes and frozen here as a regression bound
        kappa = 0.375
        k = KernelSpec(alpha=0.25, psi=matrix_func("identity", d_dim=1), gamma=1.0, kappa=kappa)
        rate = k.gamma - k.alpha - kappa
        for n in (2048, 8192):
            g = Grid(1.0, n)
            x = builtin_path("linear", g)
            y = Path(g, lacunary_state(g.times, kappa)[:, None])
            _, levels = singular_integral_diag(k, y, x, 0, n, return_levels=True)
            corr = np.array([float(np.linalg.norm(b - a)) for a, b in zip(levels, levels[1:])])
            assert np.max(corr * 2.0 ** (rate * np.arange(len(corr)))) <= 1.6


class TestOffDiagonal:
    def test_empty_past(self):
        k = KernelSpec(alpha=0.25, psi=ONES, gamma=0.9)
        x = builtin_path("linear", Grid(1.0, 64))
        y = Path(x.grid, np.zeros((65, 1)))
        assert np.array_equal(singular_integral_offdiag(k, y, x, 0, 32), np.zeros(1))

    def test_power_law_oracle(self):
        # psi = 1, x_u = u, alpha = 1/2, s = 1/2, t = 1: the kernel increment
        # is nonpositive, so the integral is the negative of the magnitude
        # 2 (2 sqrt(1/2) - 1) quoted for this configuration
        k = KernelSpec(alpha=0.5 - 1e-12, psi=ONES, gamma=1.0)
        want = (1.0 - 2 * np.sqrt(0.5)) / 0.5
        n = 4096
        x = builtin_path("linear", Grid(1.0, n))
        y = Path(x.grid, np.zeros((n + 1, 1)))
        got = singular_integral_offdiag(k, y, x, n // 2, n)[0]
        assert got < 0
        assert got == pytest.approx(want, abs=0.06)
        assert abs(got) == pytest.approx(0.82843, abs=0.06)

    def test_non_dyadic_past_rejected(self):
        k = KernelSpec(alpha=0.25, psi=ONES, gamma=0.9)
        x = builtin_path("linear", Grid(1.0, 64))
        y = Path(x.grid, np.zeros((65, 1)))
        with pytest.raises(ValueError, match="power of two"):
            singular_integral_offdiag(k, y, x, 24, 64)

    def test_level_correction_slope(self):
        # per-level corrections decay like 2^(-n (gamma - alpha - kappa));
        # a deterministic lacunary state of exactly kappa-Hölder regularity
        # keeps the fitted slope stable (a random rough state's slope is
        # noise-dominated at any fixed resolution).  Fit starts at level 2,
        # past the pre-asymptotic transient.
        kappa = 0.375
        k = KernelSpec(alpha=0.25, psi=matrix_func("identity", d_dim=1), gamma=1.0, kappa=kappa)
        g = Grid(1.0, 2048)
        x = builtin_path("linear", g)
        y = Path(g, lacunary_state(g.times, kappa)[:, None])
        _, levels = singular_integral_offdiag(k, y, x, 1024, 2048, return_levels=True)
        corrections = np.array([float(np.linalg.norm(b - a)) for a, b in zip(levels, levels[1:])])
        target = k.gamma - k.alpha - kappa
        lv = np.arange(len(corrections))
        keep = slice(2, None)
        slope = -np.polyfit(lv[keep], np.log2(corrections[keep]), 1)[0]
        assert abs(slope - target) <= 0.25 * target
        # and the same corrections are geometrically dominated at the
        # guaranteed rate with a frozen constant
        assert np.max(corrections * 2.0 ** (target * lv)) <= 0.2


class TestStridedLevels:
    def test_offset_base_levels_match_left_point_sums(self):
        # interval starts that are not multiples of the stride: diag over
        # [t_5, t_13], and the past [0, t_4] of the increment to t_12
        alpha = 0.3
        k = KernelSpec(alpha=alpha, psi=matrix_func("sin_plus", shift=1.0), gamma=0.9)
        g = Grid(1.0, 16)
        x = builtin_path("sine", g)
        y = Path(g, np.cos(3 * g.times)[:, None])
        t = g.times
        cases = [
            (singular_integral_diag(k, y, x, 5, 13, return_levels=True), lambda u: (t[13] - u) ** -alpha, 5, 13),
            (
                singular_integral_offdiag(k, y, x, 4, 12, return_levels=True),
                lambda u: (t[12] - u) ** -alpha - (t[4] - u) ** -alpha,
                0,
                4,
            ),
        ]
        for (value, levels), weight, lo, hi in cases:
            want = left_point_levels(k, y, x, weight, lo, hi)
            assert len(levels) == len(want)
            for got, ref in zip(levels + [value], want + [want[-1]]):
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestIncrement:
    def test_sum_of_parts(self):
        k = KernelSpec(alpha=0.3, psi=matrix_func("sin_plus", shift=1.0), gamma=0.9)
        g = Grid(1.0, 128)
        x = builtin_path("sine", g)
        y = Path(g, np.cos(g.times)[:, None])
        i, j = 32, 64
        got = singular_increment(k, y, x, i, j)
        want = singular_integral_diag(k, y, x, i, j) + singular_integral_offdiag(k, y, x, i, j)
        assert np.array_equal(got, want)

    def test_matches_native_map_at_dyadic_pairs(self):
        # diag + offdiag at the finest level is exactly the difference of
        # left-point sums of the full map
        k = KernelSpec(alpha=0.3, psi=matrix_func("sin_plus", shift=1.0), gamma=0.9)
        g = Grid(1.0, 128)
        x = builtin_path("sine", g)
        y = Path(g, np.cos(3 * g.times)[:, None])
        z = brute_force_map(k, y, x)
        for i, j in [(0, 128), (32, 64), (64, 128), (16, 32), (8, 16)]:
            got = singular_increment(k, y, x, i, j)
            assert np.allclose(got, z[j] - z[i], atol=1e-13)

    def test_full_map_power_oracle(self):
        # psi = 1, x_u = u: z_t - z_s = (t^(1-a) - s^(1-a)) / (1-a)
        alpha = 0.25
        k = KernelSpec(alpha=alpha, psi=ONES, gamma=1.0)
        n = 2048
        x = builtin_path("linear", Grid(1.0, n))
        y = Path(x.grid, np.zeros((n + 1, 1)))
        t_grid = x.grid.times
        for i, j in [(0, n), (n // 2, n), (n // 4, n // 2)]:
            got = singular_increment(k, y, x, i, j)[0]
            want = (t_grid[j] ** 0.75 - t_grid[i] ** 0.75) / 0.75
            assert got == pytest.approx(want, abs=6e-3)

    def test_grid_doubling_self_convergence(self):
        k = KernelSpec(alpha=0.3, psi=matrix_func("sin_plus", shift=2.0), gamma=0.9)
        vals = []
        for n in (64, 128, 256, 512):
            g = Grid(1.0, n)
            x = builtin_path("sine", g)
            y = Path(g, np.cos(g.times)[:, None])
            vals.append(singular_increment(k, y, x, 0, n)[0])
        diffs = np.abs(np.diff(vals))
        assert np.all(diffs[1:] < diffs[:-1])

    def test_holder_ratio_bounded(self):
        # holder_norm(z, kappa) / (T^(gamma-alpha-kappa) (1 + holder_norm(y, kappa)))
        # stays under one frozen constant across randomized states
        k = KernelSpec(alpha=0.25, psi=matrix_func("sin_plus", shift=2.0), gamma=0.85, kappa=0.5)
        g = Grid(1.0, 256)
        x = builtin_path("sine", g)
        ratios = []
        for seed in range(10):
            y = generate_fbm(FbmSpec(hurst=0.6, dim=1, grid=g, seed=300 + seed))
            z = Path(g, brute_force_map(k, y, x))
            nz = holder_norm(delta1(z), k.kappa).value
            ny = holder_norm(delta1(y), k.kappa).value
            ratios.append(nz / (1.0 + ny))
        assert max(ratios) <= 3.0


class TestAdjacentIdentities:
    def test_integration_by_parts(self):
        # d(fg) h = df g h + dg f h for smooth scalar paths, quadrature-limited
        n = 1024
        g = Grid(1.0, n)
        t = g.times
        f = np.sin(1.3 * t + 0.2)
        gg = np.cos(0.7 * t)
        h = np.exp(-0.5 * t) + 0.5
        lhs = young_integral(
            YoungIntegrand.from_scalar_samples(g, h, rho=1.0), Path(g, (f * gg)[:, None]), 0, n
        )[0]
        rhs = (
            young_integral(YoungIntegrand.from_scalar_samples(g, gg * h, rho=1.0), Path(g, f[:, None]), 0, n)[0]
            + young_integral(YoungIntegrand.from_scalar_samples(g, f * h, rho=1.0), Path(g, gg[:, None]), 0, n)[0]
        )
        assert rhs == pytest.approx(lhs, rel=1e-3)

    def test_epsilon_truncation_monotone(self):
        # truncated nonsingular integrals increase monotonically to the
        # left-point value as the cutoff shrinks dyadically
        alpha = 0.3
        k = KernelSpec(alpha=alpha, psi=matrix_func("sin_plus", shift=2.0), gamma=0.9)
        n = 1024
        g = Grid(1.0, n)
        x = builtin_path("sine", g)
        y = Path(g, np.cos(g.times)[:, None])
        full = singular_integral_diag(k, y, x, 0, n)[0]
        t_end = g.times[n]
        weights = np.zeros(n + 1)
        weights[:n] = (t_end - g.times[:n]) ** -alpha
        samples = weights[:, None, None] * k.psi.value(y.values)
        z = YoungIntegrand(Path(g, samples), rho=1.0)
        errors = []
        for m in range(1, 9):
            cut = n - (n >> m)
            errors.append(abs(young_integral(z, x, 0, cut)[0] - full))
        assert all(b < a for a, b in zip(errors, errors[1:]))
