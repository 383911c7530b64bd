"""Driver generation: fBm covariance structure, determinism, exponent fits."""
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

import roughvolterra.signals as signals
from roughvolterra.algebra import Grid, Path
from roughvolterra.signals import (
    BUILTIN_PATHS,
    CirculantEmbeddingWarning,
    FbmSpec,
    builtin_path,
    estimate_holder,
    fbm_covariance,
    fgn_autocovariance,
    generate_fbm,
    generate_fbm_detailed,
)


class TestCovarianceFunctions:
    def test_variance_is_power_law(self):
        for t in (0.25, 0.5, 1.0, 2.0):
            assert fbm_covariance(t, t, 0.75) == pytest.approx(t**1.5)

    def test_symmetry(self):
        assert fbm_covariance(0.3, 0.9, 0.6) == pytest.approx(fbm_covariance(0.9, 0.3, 0.6))

    def test_brownian_case_is_min(self):
        # H = 1/2 reduces to min(s, t)
        for s, t in [(0.2, 0.7), (0.5, 0.5), (1.0, 0.25)]:
            assert fbm_covariance(s, t, 0.5) == pytest.approx(min(s, t))

    def test_white_noise_autocovariance(self):
        r = fgn_autocovariance(np.arange(5), 0.5)
        assert np.allclose(r, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_autocovariance_sign(self):
        # increments are positively correlated above H = 1/2, negatively below
        assert fgn_autocovariance(np.array([1]), 0.75)[0] > 0
        assert fgn_autocovariance(np.array([1]), 0.4)[0] < 0


class TestSpecValidation:
    def test_hurst_range(self):
        g = Grid(1.0, 8)
        with pytest.raises(ValueError, match="hurst"):
            FbmSpec(hurst=0.25, dim=1, grid=g, seed=0)
        with pytest.raises(ValueError, match="hurst"):
            FbmSpec(hurst=1.0, dim=1, grid=g, seed=0)

    def test_method_names(self):
        g = Grid(1.0, 8)
        with pytest.raises(ValueError, match="method"):
            FbmSpec(hurst=0.5, dim=1, grid=g, seed=0, method="magic")

    def test_auto_resolution(self):
        small = FbmSpec(hurst=0.5, dim=1, grid=Grid(1.0, 512), seed=0)
        large = FbmSpec(hurst=0.5, dim=1, grid=Grid(1.0, 1024), seed=0)
        assert small.resolved_method() == "cholesky"
        assert large.resolved_method() == "circulant"


class TestGeneration:
    def test_shape_and_start(self):
        spec = FbmSpec(hurst=0.6, dim=3, grid=Grid(2.0, 64), seed=11)
        p = generate_fbm(spec)
        assert p.values.shape == (65, 3)
        assert np.array_equal(p.values[0], np.zeros(3))

    def test_determinism(self):
        spec = FbmSpec(hurst=0.45, dim=2, grid=Grid(1.0, 128), seed=77, method="cholesky")
        a = generate_fbm(spec)
        b = generate_fbm(spec)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_sample(self):
        g = Grid(1.0, 64)
        a = generate_fbm(FbmSpec(hurst=0.6, dim=1, grid=g, seed=1))
        b = generate_fbm(FbmSpec(hurst=0.6, dim=1, grid=g, seed=2))
        assert not np.allclose(a.values, b.values)

    def test_components_are_independent_streams(self):
        # swapping dim must not perturb the first component's stream
        g = Grid(1.0, 64)
        one = generate_fbm(FbmSpec(hurst=0.6, dim=1, grid=g, seed=5))
        two = generate_fbm(FbmSpec(hurst=0.6, dim=2, grid=g, seed=5))
        assert np.array_equal(one.values[:, 0], two.values[:, 0])

    def test_metadata_echo(self):
        spec = FbmSpec(hurst=0.6, dim=1, grid=Grid(1.0, 32), seed=3, method="circulant")
        _, meta = generate_fbm_detailed(spec)
        assert meta["generator"] == "pcg64"
        assert meta["seed"] == 3
        assert meta["method"] == "circulant"
        assert meta["fallback"] is False

    def test_circulant_fallback_path(self, monkeypatch):
        monkeypatch.setattr(signals, "_fgn_unit_circulant", lambda *a, **k: None)
        spec = FbmSpec(hurst=0.6, dim=1, grid=Grid(1.0, 32), seed=3, method="circulant")
        with pytest.warns(CirculantEmbeddingWarning):
            p, meta = generate_fbm_detailed(spec)
        assert meta["fallback"] is True
        assert meta["method"] == "cholesky"
        assert np.all(np.isfinite(p.values))

    def test_brownian_increment_variance(self):
        # H = 1/2: i.i.d. Gaussian increments with variance T/N
        spec = FbmSpec(hurst=0.5, dim=16, grid=Grid(1.0, 1024), seed=2024)
        p = generate_fbm(spec)
        incr = np.diff(p.values, axis=0).ravel()
        dt = 1.0 / 1024
        se = dt * np.sqrt(2.0 / (incr.size - 1))
        assert abs(incr.var(ddof=1) - dt) <= 5 * se

    def test_cholesky_covariance_monte_carlo(self):
        # 10^4 i.i.d. components at once; empirical covariance at fixed
        # time pairs vs the closed form, within 3 standard errors each
        hurst, n = 0.75, 64
        spec = FbmSpec(hurst=hurst, dim=10_000, grid=Grid(1.0, n), seed=90210, method="cholesky")
        p = generate_fbm(spec)
        t = p.grid.times
        pairs = [(8, 8), (16, 48), (32, 32), (8, 56), (24, 40), (64, 64), (16, 16), (40, 64)]
        for i, j in pairs:
            want = fbm_covariance(t[i], t[j], hurst)
            prod = p.values[i] * p.values[j]
            got = prod.mean()
            # Var(B_s B_t) = cov^2 + var_s var_t for centered jointly Gaussian pairs
            var = want**2 + fbm_covariance(t[i], t[i], hurst) * fbm_covariance(t[j], t[j], hurst)
            se = np.sqrt(var / prod.size)
            assert abs(got - want) <= 3 * se, f"pair ({i},{j}): {got} vs {want} +- {3*se}"

    def test_methods_agree_in_law(self):
        # two-sample KS on endpoint values, below the 1% critical value
        g = Grid(1.0, 64)
        a = generate_fbm(FbmSpec(hurst=0.75, dim=10_000, grid=g, seed=999, method="cholesky"))
        b = generate_fbm(FbmSpec(hurst=0.75, dim=10_000, grid=g, seed=1000, method="circulant"))
        stat = ks_2samp(a.values[-1], b.values[-1]).statistic
        critical = 1.628 * np.sqrt(2.0 / 10_000)
        assert stat < critical


class TestHolderEstimate:
    def test_linear(self):
        p = builtin_path("linear", Grid(1.0, 1024))
        est = estimate_holder(p)
        assert not est.degenerate
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_sqrt(self):
        # maxima sit at the origin where sqrt is exactly 1/2-Hölder
        g = Grid(1.0, 1024)
        p = Path(g, np.sqrt(g.times)[:, None])
        est = estimate_holder(p)
        assert est.value == pytest.approx(0.5, abs=1e-6)

    def test_degenerate_constant(self):
        g = Grid(1.0, 64)
        p = Path(g, np.ones((65, 1)))
        est = estimate_holder(p)
        assert est.degenerate
        assert est.value == np.inf

    def test_huge_finite_path_fits_the_same_exponent(self):
        # increments near 1e160 overflow when squared; their magnitudes do not
        p = generate_fbm(FbmSpec(hurst=0.7, dim=1, grid=Grid(1.0, 1024), seed=3))
        base = estimate_holder(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = estimate_holder(Path(p.grid, 1e160 * p.values))
        assert base.value == pytest.approx(0.5847033847671287, abs=1e-12)
        assert big.value == pytest.approx(base.value, rel=1e-12)  # measured 3e-14

    def test_levels_validation(self):
        p = builtin_path("linear", Grid(1.0, 8))
        with pytest.raises(ValueError, match="levels"):
            estimate_holder(p, levels=12)

    def test_fbm_hurst_recovery(self):
        # Monte Carlo regression: mean estimate over 20 seeds near H
        hurst = 0.7
        g = Grid(1.0, 1 << 14)
        vals = []
        for seed in range(20):
            p = generate_fbm(FbmSpec(hurst=hurst, dim=1, grid=g, seed=seed))
            vals.append(estimate_holder(p).value)
        assert abs(np.mean(vals) - hurst) <= 0.1

    def test_self_similarity_exact_in_sample(self):
        # same seed, rescaled horizon: values scale by c^H, slope unchanged
        hurst, n = 0.6, 1 << 10
        base = estimate_holder(generate_fbm(FbmSpec(hurst=hurst, dim=1, grid=Grid(1.0, n), seed=55)))
        for c in (2.0, 0.5):
            scaled = estimate_holder(generate_fbm(FbmSpec(hurst=hurst, dim=1, grid=Grid(c, n), seed=55)))
            assert scaled.value == pytest.approx(base.value, abs=1e-9)

    def test_self_similarity_in_law(self):
        # independent seed banks at two horizons; dyadic-maxima statistic
        # distributions agree within Monte Carlo error
        hurst, n = 0.6, 1 << 10

        def batch(horizon, seed0):
            return np.array([
                estimate_holder(generate_fbm(FbmSpec(hurst=hurst, dim=1, grid=Grid(horizon, n), seed=seed0 + k))).value
                for k in range(20)
            ])

        base = batch(1.0, 0)
        for c, seed0 in ((2.0, 100), (0.5, 200)):
            other = batch(c, seed0)
            se = np.sqrt(base.var(ddof=1) / 20 + other.var(ddof=1) / 20)
            assert abs(base.mean() - other.mean()) <= 3 * se


class TestBuiltinPaths:
    def test_names(self):
        g = Grid(1.0, 16)
        for name in BUILTIN_PATHS:
            p = builtin_path(name, g, dim=2)
            assert p.values.shape == (17, 2)

    def test_sine_values(self):
        g = Grid(1.0, 16)
        p = builtin_path("sine", g)
        assert np.allclose(p.values[:, 0], np.sin(g.times), atol=1e-15)

    def test_trig_interleaves(self):
        g = Grid(1.0, 8)
        p = builtin_path("trig", g, dim=2)
        assert np.allclose(p.values[:, 0], np.sin(g.times))
        assert np.allclose(p.values[:, 1], np.cos(g.times))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_path("bezier", Grid(1.0, 8))
