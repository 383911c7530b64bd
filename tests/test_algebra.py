"""Increment calculus: coboundaries, Hölder norms, sewing, compensation."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughvolterra.algebra import (
    Grid,
    Path,
    Increment2,
    SewingRegularityWarning,
    delta1,
    delta2,
    holder_norm,
    lambda_of,
    path_holder_norm,
    sew,
    sewing_constant,
    split_holder_norm,
    sup_norm,
    zero_increment2,
)
from roughvolterra.signals import FbmSpec, generate_fbm


def scalar_path(grid: Grid, f) -> Path:
    return Path(grid, f(grid.times)[:, None])


@st.composite
def pruning_cases(draw):
    """A path on n <= 512 steps, so that the bands of lags from 32 up prune, and an exponent.

    Ties come from constant stretches, ramps at exponent one and repeated
    values; ``huge`` entries near 1e200 overflow when squared.
    """
    n = draw(st.sampled_from([1, 8, 32, 64, 128, 256, 512]))
    shape = draw(st.sampled_from([(1,), (2,), (3,), (2, 2)]))
    kind = draw(st.sampled_from(["walk", "constant", "ramp", "repeats", "tail", "huge"]))
    horizon = draw(st.sampled_from([1.0, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.cumsum(rng.standard_normal((n + 1,) + shape), axis=0)
    if kind == "constant":
        values[:] = 0.25
    elif kind == "ramp":
        values = np.multiply.outer(np.arange(n + 1.0), rng.standard_normal(shape))
    elif kind == "repeats":
        values = rng.integers(-2, 3, values.shape).astype(float)
    elif kind == "tail":  # a partial solve: a random prefix, then constant
        cut = draw(st.integers(0, n))
        values[cut:] = values[cut]
    elif kind == "huge":
        values *= 1e200
    mu = 1.0 if kind == "ramp" else draw(st.sampled_from([0.3, 0.38, 0.5, 0.7, 1.0]))
    return Path(Grid(horizon, n), values), mu


def lag_tie():
    # (0, 36) and the seeded (100, 101) both read 96 exactly: the band pair comes first
    v = np.minimum(np.arange(257.0), 36.0)
    v[101:] += 6.0
    return Path(Grid(1.0, 256), v[:, None]), 0.5, (0, 36)


def block_end():
    # a ramp over rows 95..135: the largest ratio, at lag 40 from the last
    # row of block [64, 96), reaches past row 64 + 2 * 32
    v = np.clip(np.arange(257.0), 95.0, 135.0)
    return Path(Grid(1.0, 256), v[:, None]), 0.3, (95, 135)


def inf_ties():
    # increments overflow at (0, 40), (0, 41) and the seeded (50, 51): the
    # block holding (0, 40) has bound inf, equal to the seeded maximum
    v = np.zeros((129, 2))
    v[0, 0], v[40:42, 0] = -1.7e308, 1.7e308
    v[50, 1], v[51, 1] = -1.7e308, 1.7e308
    return Path(Grid(512.0, 128), v), 1.0, (0, 40)


def germ_product(grid: Grid, z: np.ndarray, x: np.ndarray) -> Increment2:
    """Left-point germ z_i * (x_j - x_i) for scalar samples z, x."""

    def fn(i, j):
        return (z[i] * (x[j] - x[i]))[..., None]

    return Increment2(grid, fn, (1,))


class TestGridAndPath:
    def test_grid_times_uniform(self):
        g = Grid(2.0, 8)
        assert g.times[0] == 0.0 and g.times[-1] == 2.0
        assert np.allclose(np.diff(g.times), g.dt)

    def test_grid_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(1.0, 12)

    def test_grid_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            Grid(0.0, 8)

    def test_path_shape_checked(self):
        g = Grid(1.0, 4)
        with pytest.raises(ValueError):
            Path(g, np.zeros((4, 1)))

    def test_path_rejects_nan(self):
        g = Grid(1.0, 4)
        vals = np.zeros((5, 1))
        vals[2] = np.nan
        with pytest.raises(ValueError):
            Path(g, vals)

    def test_path_immutable(self):
        g = Grid(1.0, 4)
        p = Path(g, np.arange(5.0)[:, None])
        with pytest.raises(ValueError):
            p.values[0] = 7.0

    def test_restrict_subsamples(self):
        g = Grid(1.0, 8)
        p = scalar_path(g, lambda t: t**2)
        q = p.restrict(4)
        assert q.grid.n_steps == 2
        assert np.array_equal(q.values[:, 0], p.values[::4, 0])


class TestDelta:
    def test_delta1_of_squares(self):
        g = Grid(1.0, 4)
        f = scalar_path(g, lambda t: t**2)
        inc = delta1(f)
        # 0.75^2 - 0.25^2 = 0.5
        assert inc(1, 3)[0] == pytest.approx(0.5, abs=1e-15)
        assert inc(2, 2)[0] == 0.0

    def test_delta2_kills_path_differences(self):
        rng = np.random.default_rng(0)
        for n in (8, 16, 32):
            g = Grid(1.0, n)
            f = Path(g, rng.standard_normal((n + 1, 3)))
            scale = max(1.0, float(np.max(np.abs(f.values))))
            d2 = delta2(delta1(f))
            idx = np.arange(n + 1)
            i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
            vals = d2.fn(i, j, k)
            assert np.max(np.abs(vals)) <= 1e-12 * scale

    def test_delta2_quadratic_germ_oracle(self):
        # h_st = (t-s)^2 has defect 2(u-s)(t-u); at (0, 1/2, 1) that is 1/2.
        g = Grid(1.0, 8)
        t = g.times
        h = Increment2(g, lambda i, j: np.asarray((t[j] - t[i]) ** 2)[..., None], (1,))
        d2 = delta2(h)
        assert d2(0, 4, 8)[0] == pytest.approx(0.5, abs=1e-14)
        # the full algebraic oracle on every triple
        for i, u, j in [(0, 2, 5), (1, 4, 8), (2, 3, 7)]:
            expect = 2 * (t[u] - t[i]) * (t[j] - t[u])
            assert d2(i, u, j)[0] == pytest.approx(expect, abs=1e-14)

    def test_leibniz_rule(self):
        # delta of a pointwise product splits as (delta g) h_t + g_s (delta h)
        rng = np.random.default_rng(7)
        for n in (8, 16, 32):
            g = Grid(1.0, n)
            gv = rng.standard_normal(n + 1)
            hv = rng.standard_normal(n + 1)
            prod = Path(g, (gv * hv)[:, None])
            lhs = delta1(prod)
            scale = max(1.0, float(np.max(np.abs(gv * hv))))
            for i in range(n):
                for j in range(i + 1, n + 1):
                    rhs = (gv[j] - gv[i]) * hv[j] + gv[i] * (hv[j] - hv[i])
                    assert abs(lhs(i, j)[0] - rhs) <= 1e-12 * scale

    def test_product_germ_defect_identity(self):
        # the defect of the germ z_s (x_t - x_s) is -(z_u - z_s)(x_t - x_u)
        g = Grid(1.0, 8)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(9)
        x = rng.standard_normal(9)
        germ = germ_product(g, z, x)
        d2 = delta2(germ)
        for i in range(9):
            for u in range(i, 9):
                for j in range(u, 9):
                    expect = -(z[u] - z[i]) * (x[j] - x[u])
                    assert d2(i, u, j)[0] == pytest.approx(expect, abs=1e-13)


class TestHolderNorm:
    def test_sqrt_path_attains_at_origin(self):
        g = Grid(1.0, 64)
        p = scalar_path(g, np.sqrt)
        h = path_holder_norm(p, 0.5)
        assert h.value == pytest.approx(1.0, rel=1e-12)
        assert h.arg_pair == (0, 1)

    def test_linear_path_exponent_one(self):
        g = Grid(1.0, 32)
        p = scalar_path(g, lambda t: t)
        h = path_holder_norm(p, 1.0)
        assert h.value == pytest.approx(1.0, rel=1e-12)

    def test_zero_increment(self):
        g = Grid(1.0, 16)
        h = holder_norm(zero_increment2(g), 0.5)
        assert h.value == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        g = Grid(1.0, 16)
        p = Path(g, rng.standard_normal((17, 2)))
        h = path_holder_norm(p, 0.3)
        t = g.times
        brute = 0.0
        for i in range(16):
            for j in range(i + 1, 17):
                r = np.linalg.norm(p.values[j] - p.values[i]) / (t[j] - t[i]) ** 0.3
                brute = max(brute, r)
        assert h.value == pytest.approx(brute, rel=1e-13)

    def test_huge_finite_increments_have_finite_norms(self):
        # squaring 3e200 overflows; the magnitude 5e200 does not
        g = Grid(1.0, 2)
        big = Path(g, np.array([[0.0, 0.0], [3e200, 4e200], [3e200, 4e200]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sup_norm(big) == pytest.approx(5e200, rel=1e-15)
            h = path_holder_norm(big, 1.0)
        assert h.value == pytest.approx(1e201, rel=1e-15)
        assert h.arg_pair == (0, 1)
        # a matrix-valued path: the value axes are summed together
        mats = Path(g, np.array([[[0.0, 0.0]], [[3e200, 4e200]], [[0.0, 0.0]]]))
        assert sup_norm(mats) == pytest.approx(5e200, rel=1e-15)
        # a magnitude past the float ceiling stays inf
        assert sup_norm(Path(g, np.array([[1.5e308, 1.5e308], [0.0, 0.0], [0.0, 0.0]]))) == np.inf
        ramp = Path(g, np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        assert path_holder_norm(ramp, 1.0).value == 2.0 * math.sqrt(2.0)

    def test_nan_ratio_propagates(self):
        # the row (0, .) holds 100 at (0, 1) and nan at (0, 2): the norm is
        # nan at the first nan pair, not 0 from the rows after it
        g = Grid(1.0, 4)
        table = np.zeros((5, 5))
        table[0, 1], table[0, 2] = 100.0, np.nan
        h = holder_norm(Increment2(g, lambda i, j: table[i, j][..., None], (1,)), 1.0)
        assert np.isnan(h.value)
        assert h.arg_pair == (0, 2)
        assert h.arg_times == (0.0, 0.5)

    @given(pruning_cases())
    @settings(max_examples=120, deadline=None)
    def test_pruned_scan_is_the_all_pairs_scan(self, case):
        p, mu = case
        # no warning either: the block bounds of the 1e200 paths overflow when squared
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pruned, full = path_holder_norm(p, mu), holder_norm(delta1(p), mu)
        assert (pruned.value, pruned.arg_pair, pruned.arg_times) == (full.value, full.arg_pair, full.arg_times)

    @pytest.mark.parametrize("case", [lag_tie, block_end, inf_ties], ids=lambda case: case.__name__)
    def test_pruned_scan_edge_cases(self, case):
        p, mu, arg = case()
        with np.errstate(over="ignore"):
            pruned, full = path_holder_norm(p, mu), holder_norm(delta1(p), mu)
        assert full.arg_pair == arg
        assert (pruned.value, pruned.arg_pair) == (full.value, full.arg_pair)

    @pytest.mark.parametrize("n, dim, hurst, mu, seed", [(2048, 2, 0.4, 0.38, 99), (8192, 1, 0.75, 0.7, 31)])
    def test_pruned_scan_is_the_all_pairs_scan_on_fbm(self, n, dim, hurst, mu, seed):
        p = generate_fbm(FbmSpec(hurst=hurst, dim=dim, grid=Grid(1.0, n), seed=seed))
        pruned, full = path_holder_norm(p, mu), holder_norm(delta1(p), mu)
        assert (pruned.value, pruned.arg_pair) == (full.value, full.arg_pair)

    def test_pruned_scan_allocates_in_row_chunks(self):
        # this path evaluates blocks up to L = 1024, where one L x L batch
        # of 2-vectors alone would take 16 MB
        p = generate_fbm(FbmSpec(hurst=0.75, dim=2, grid=Grid(1.0, 8192), seed=5))
        tracemalloc.start()
        try:
            path_holder_norm(p, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize("values", [np.arange(65.0)[:, None], np.zeros((65, 1))], ids=["ramp", "zero"])
    def test_underflowing_gaps_take_the_all_pairs_scan(self, values):
        # (t_j - t_i)^2 underflows to 0 on this grid: ratios are inf, or nan for a zero increment
        p = Path(Grid(1e-300, 64), values)
        with np.errstate(divide="ignore", invalid="ignore"):
            pruned, full = path_holder_norm(p, 2.0), holder_norm(delta1(p), 2.0)
        assert pruned.arg_pair == full.arg_pair == (0, 1)
        assert np.array_equal(pruned.value, full.value, equal_nan=True)

    def test_rejects_nonpositive_exponent(self):
        g = Grid(1.0, 8)
        with pytest.raises(ValueError):
            holder_norm(zero_increment2(g), 0.0)
        with pytest.raises(ValueError):
            path_holder_norm(scalar_path(g, np.sin), 0.0)

    def test_split_norm_matches_brute_force(self):
        rng = np.random.default_rng(5)
        g = Grid(1.0, 16)
        z = rng.standard_normal(17)
        x = rng.standard_normal(17)
        d2 = delta2(germ_product(g, z, x))
        val = split_holder_norm(d2, 0.4, 0.6)
        t = g.times
        brute = 0.0
        for i in range(15):
            for j in range(i + 1, 16):
                for k in range(j + 1, 17):
                    w = (t[j] - t[i]) ** 0.4 * (t[k] - t[j]) ** 0.6
                    brute = max(brute, abs(d2(i, j, k)[0]) / w)
        assert val == pytest.approx(brute, rel=1e-12)


class TestSew:
    def test_left_point_sums_of_identity(self):
        # germ t_i (x_j - x_i) with x_t = t sums to (N-1)/(2N) over [0, 1]
        for n in (16, 64, 256):
            g = Grid(1.0, n)
            t = g.times
            germ = germ_product(g, t, t)
            s = sew(germ, 1.5)
            total = s(0, n)[0]
            assert total == pytest.approx((n - 1) / (2 * n), abs=1e-13)
        # so the sewn value tends to the integral 1/2 at first order
        assert abs(total - 0.5) <= 1.0 / n

    def test_quadratic_germ_collapses(self):
        # g_st = (t-s)^2 summed over m cells of width h gives m h^2
        g = Grid(1.0, 32)
        t = g.times
        inc = Increment2(g, lambda i, j: np.asarray((t[j] - t[i]) ** 2)[..., None], (1,))
        s = sew(inc, 2.0)
        h = g.dt
        assert s(0, 32)[0] == pytest.approx(32 * h**2, rel=1e-12)
        assert s(4, 12)[0] == pytest.approx(8 * h**2, rel=1e-12)

    def test_additive_input_is_fixed_point(self):
        g = Grid(1.0, 16)
        p = scalar_path(g, np.sin)
        inc = delta1(p)
        assert sew(inc, 1.5) is inc
        sewn = sew(germ_product(g, g.times, g.times), 1.5)
        assert sew(sewn, 1.5) is sewn

    def test_sewn_output_is_additive(self):
        g = Grid(1.0, 32)
        rng = np.random.default_rng(2)
        z = rng.standard_normal(33)
        x = rng.standard_normal(33)
        s = sew(germ_product(g, z, x), 1.5, diagnostics=False)
        d2 = delta2(s)
        idx = np.arange(33)
        i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
        assert np.max(np.abs(d2.fn(i, j, k))) <= 1e-12

    def test_warns_on_irregular_germ(self):
        # defect of (t-s)^0.9 decays slower than the interval length
        g = Grid(1.0, 256)
        t = g.times
        inc = Increment2(g, lambda i, j: np.asarray((t[j] - t[i]) ** 0.9)[..., None], (1,))
        with pytest.warns(SewingRegularityWarning):
            sew(inc, 1.5)

    def test_warns_on_exponent_at_most_one(self):
        g = Grid(1.0, 16)
        t = g.times
        inc = Increment2(g, lambda i, j: np.asarray((t[j] - t[i]) ** 2)[..., None], (1,))
        with pytest.warns(SewingRegularityWarning):
            sew(inc, 0.9)

    def test_smooth_germ_no_warning(self):
        g = Grid(1.0, 64)
        germ = germ_product(g, np.sin(g.times), np.cos(g.times))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sew(germ, 1.5)


class TestLambda:
    def test_additive_germ_gives_zero(self):
        g = Grid(1.0, 16)
        p = scalar_path(g, np.cos)
        lam = lambda_of(delta1(p), 1.5)
        for i in range(17):
            for j in range(i, 17):
                assert lam(i, j)[0] == 0.0

    def test_complement_of_sew_exact(self):
        g = Grid(1.0, 32)
        rng = np.random.default_rng(9)
        z = rng.standard_normal(33)
        x = np.cos(g.times) + 0.1 * rng.standard_normal(33)
        germ = germ_product(g, z, x)
        s = sew(germ, 1.5, diagnostics=False)
        lam = lambda_of(germ, 1.5, diagnostics=False)
        for i in range(0, 33, 3):
            for j in range(i, 33, 5):
                # the remainder is defined as germ minus additive part, bitwise
                assert lam(i, j)[0] == germ(i, j)[0] - s(i, j)[0]

    def test_against_fine_riemann_oracle(self):
        # lambda of the germ z_s dx equals z_s dx - integral of z dx;
        # oracle: left-point Riemann sums on a 2^18-point grid
        n_fine = 1 << 18
        tf = np.linspace(0.0, 1.0, n_fine + 1)
        zf = np.sin(tf)
        xf = np.cos(tf)

        def oracle(a: float, b: float) -> float:
            lo = int(round(a * n_fine))
            hi = int(round(b * n_fine))
            return float(np.sum(zf[lo:hi] * np.diff(xf[lo : hi + 1])))

        n = 512
        g = Grid(1.0, n)
        t = g.times
        germ = germ_product(g, np.sin(t), np.cos(t))
        lam = lambda_of(germ, 2.0)
        sewn = sew(germ, 2.0)
        # the realisation itself carries a first-order grid error, so the
        # tolerance scales with the working resolution, not the oracle's
        tol = 2.0 / n
        for (i, j) in [(0, n), (n // 4, 3 * n // 4), (n // 8, 5 * n // 8)]:
            a, b = t[i], t[j]
            expect = math.sin(a) * (math.cos(b) - math.cos(a)) - oracle(a, b)
            assert lam(i, j)[0] == pytest.approx(expect, abs=tol)
            # and the sewn part approximates the integral itself
            assert sewn(i, j)[0] == pytest.approx(oracle(a, b), abs=tol)


class TestSewingBound:
    @staticmethod
    def random_smooth_germ(g: Grid, rng: np.random.Generator) -> Increment2:
        """Germ phi_s (psi_t - psi_s) from random low-frequency trig sums."""
        t = g.times

        def trig_sum():
            coef = rng.standard_normal(3)
            freq = rng.integers(1, 4, size=3)
            phase = rng.uniform(0, 2 * np.pi, size=3)
            return np.sum(coef[:, None] * np.sin(freq[:, None] * t[None, :] + phase[:, None]), axis=0)

        phi, psi = trig_sum(), trig_sum()
        return germ_product(g, phi, psi)

    def test_remainder_bounded_by_constant_times_defect(self):
        mu = 1.5
        c_mu = sewing_constant(mu)
        g = Grid(1.0, 64)
        rng = np.random.default_rng(2024)
        for _ in range(20):
            germ = self.random_smooth_germ(g, rng)
            lam = lambda_of(germ, mu, diagnostics=False)
            lhs = holder_norm(lam, mu).value
            rhs = c_mu * split_holder_norm(delta2(germ), mu / 2, mu / 2)
            assert lhs <= rhs * (1 + 1e-12)

    def test_constant_against_independent_zeta(self):
        from scipy.special import zeta

        for mu in (1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 40.0):
            expect = 2.0 + 2.0**mu * float(zeta(mu))
            assert sewing_constant(mu) == pytest.approx(expect, rel=1e-14)

    def test_constant_rejects_mu_at_most_one(self):
        with pytest.raises(ValueError):
            sewing_constant(1.0)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_delta_delta_zero_property(self, log_n, seed):
        n = 1 << log_n
        g = Grid(1.0, n)
        rng = np.random.default_rng(seed)
        f = Path(g, rng.uniform(-5, 5, size=(n + 1, 2)))
        d2 = delta2(delta1(f))
        idx = np.arange(n + 1)
        i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
        scale = max(1.0, float(np.max(np.abs(f.values))))
        assert np.max(np.abs(d2.fn(i, j, k))) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_sew_complement_property(self, seed):
        g = Grid(1.0, 16)
        rng = np.random.default_rng(seed)
        z = rng.uniform(-2, 2, size=17)
        x = rng.uniform(-2, 2, size=17)
        germ = germ_product(g, z, x)
        s = sew(germ, 1.5, diagnostics=False)
        lam = lambda_of(germ, 1.5, diagnostics=False)
        for i in range(0, 17, 2):
            for j in range(i, 17, 3):
                assert lam(i, j)[0] == germ(i, j)[0] - s(i, j)[0]


class TestIncrementPlumbing:
    def test_call_validates_order(self):
        g = Grid(1.0, 8)
        inc = zero_increment2(g)
        with pytest.raises(ValueError):
            inc(5, 3)

    def test_sup_norm(self):
        g = Grid(1.0, 4)
        p = Path(g, np.array([[0.0], [1.0], [-3.0], [2.0], [0.5]]))
        assert sup_norm(p) == 3.0
