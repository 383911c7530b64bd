"""First-order compensated sums: oracles, sew equivalence, Volterra split."""
import numpy as np
import pytest

from roughvolterra.algebra import Grid, Path, delta1, holder_norm, sew
from roughvolterra.coefficients import (
    Coefficient,
    constant_coefficient,
    linear_coefficient,
    matrix_func,
    scalar_func,
    separable_coefficient,
    trig_coefficient,
)
from roughvolterra.signals import FbmSpec, builtin_path, generate_fbm
from roughvolterra.young import (
    ExponentWarning,
    YoungIntegrand,
    compose_coeff,
    volterra_increment_young,
    young_germ,
    young_integral,
)


def linear_driver(n, horizon=1.0):
    g = Grid(horizon, n)
    return Path(g, g.times[:, None])


class TestYoungIntegral:
    def test_constant_integrand(self):
        x = Path(Grid(1.0, 32), np.sin(np.linspace(0, 2, 33))[:, None])
        z = YoungIntegrand.from_scalar_samples(x.grid, np.full(33, 2.5), rho=1.0)
        got = young_integral(z, x, 4, 20)
        want = 2.5 * (x.values[20, 0] - x.values[4, 0])
        assert got[0] == pytest.approx(want, rel=1e-14)

    def test_identity_left_sum_is_exact(self):
        # sum of t_i (t_{i+1} - t_i) has the closed form (N - 1) / (2 N)
        for n in (16, 64, 256):
            x = linear_driver(n)
            z = YoungIntegrand(Path(x.grid, x.values[:, :, None]), rho=1.0)
            got = young_integral(z, x, 0, n)[0]
            assert got == pytest.approx((n - 1) / (2 * n), rel=1e-14)

    def test_first_order_rate(self):
        # |value - 1/2| <= 2/N and the fitted slope is first order
        errs, sizes = [], []
        for exp in range(6, 13):
            n = 1 << exp
            x = linear_driver(n)
            z = YoungIntegrand(Path(x.grid, x.values[:, :, None]), rho=1.0)
            err = abs(young_integral(z, x, 0, n)[0] - 0.5)
            assert err <= 2.0 / n
            errs.append(err)
            sizes.append(n)
        slope = -np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_equals_sew_of_germ(self):
        rng = np.random.default_rng(7)
        g = Grid(1.0, 64)
        x = Path(g, np.cumsum(rng.standard_normal((65, 2)) * 0.1, axis=0))
        zv = np.stack([np.cos(g.times), np.sin(g.times), g.times, np.ones(65)], axis=1).reshape(65, 2, 2)
        z = YoungIntegrand(Path(g, zv), rho=1.0)
        sewn = sew(young_germ(z, x), mu=1.5, diagnostics=False)
        for i, j in [(0, 64), (3, 40), (17, 18), (5, 5)]:
            direct = young_integral(z, x, i, j)
            assert np.array_equal(direct, sewn(i, j))

    def test_interval_additivity(self):
        x = Path(Grid(1.0, 128), np.sin(3 * np.linspace(0, 1, 129))[:, None])
        z = YoungIntegrand.from_scalar_samples(x.grid, np.exp(x.grid.times), rho=1.0)
        whole = young_integral(z, x, 0, 128)[0]
        parts = sum(young_integral(z, x, a, b)[0] for a, b in [(0, 13), (13, 77), (77, 128)])
        assert parts == pytest.approx(whole, rel=1e-13)

    def test_exponent_warning(self):
        x = linear_driver(16)
        z = YoungIntegrand(Path(x.grid, x.values[:, :, None]), rho=0.4)
        with pytest.warns(ExponentWarning, match="rho \\+ gamma"):
            young_integral(z, x, 0, 16, gamma=0.5)

    def test_no_warning_when_condition_holds(self):
        import warnings

        x = linear_driver(16)
        z = YoungIntegrand(Path(x.grid, x.values[:, :, None]), rho=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            young_integral(z, x, 0, 16, gamma=0.75)

    def test_dimension_mismatch(self):
        x = Path(Grid(1.0, 8), np.zeros((9, 2)))
        z = YoungIntegrand.from_scalar_samples(x.grid, np.zeros(9), rho=1.0)
        with pytest.raises(ValueError, match="columns"):
            young_integral(z, x, 0, 8)

    def test_index_validation(self):
        x = linear_driver(8)
        z = YoungIntegrand.from_scalar_samples(x.grid, np.zeros(9), rho=1.0)
        with pytest.raises(ValueError, match="index pair"):
            young_integral(z, x, 5, 3)

    def test_fbm_self_convergence(self):
        # fixed sample restricted to nested grids; |I_N - I_2N| decays with
        # slope at least 2H - 1 minus margin
        hurst = 0.75
        fine = generate_fbm(FbmSpec(hurst=hurst, dim=1, grid=Grid(1.0, 1 << 12), seed=314))
        vals = []
        for exp in range(7, 13):
            x = fine.restrict(1 << (12 - exp))
            z = YoungIntegrand.from_scalar_samples(x.grid, np.sin(x.values[:, 0]) + 2.0, rho=hurst)
            vals.append(young_integral(z, x, 0, x.grid.n_steps, gamma=hurst)[0])
        diffs = np.abs(np.diff(vals))
        assert np.all(diffs > 0)
        slope = -np.polyfit(np.log([1 << e for e in range(7, 12)]), np.log(diffs), 1)[0]
        assert slope >= 2 * hurst - 1 - 0.15


class TestComposeCoeff:
    def test_identity_coefficient(self):
        y = linear_driver(32)
        z = compose_coeff(linear_coefficient(1.0), t=0.5, y=y)
        assert np.allclose(z.path.values[:, 0, 0], y.grid.times, atol=1e-15)

    def test_affine_kernel(self):
        # sigma(t,u,y) = t - u sampled at t = 1 is u -> 1 - u
        sigma = separable_coefficient(scalar_func("linear"), matrix_func("ones"))
        y = linear_driver(32)
        z = compose_coeff(sigma, t=1.0, y=y)
        assert np.allclose(z.path.values[:, 0, 0], 1.0 - y.grid.times, atol=1e-15)

    def test_default_rho_from_state(self):
        y = linear_driver(256)
        z = compose_coeff(linear_coefficient(1.0), t=0.0, y=y)
        assert z.rho == pytest.approx(1.0, abs=1e-6)
        assert z.empirical_holder is not None

    def test_diagnostics_off(self):
        y = linear_driver(16)
        z = compose_coeff(constant_coefficient(1.0), t=0.0, y=y, rho=1.0, diagnostics=False)
        assert z.empirical_holder is None

    def test_composition_bound_surrogate(self):
        # holder_norm(composed, gamma) <= C (T^(1-gamma) + holder_norm(y, gamma))
        # with one constant across randomized states; C frozen from dev runs
        gamma = 0.7
        families = [
            separable_coefficient(scalar_func("exp_decay", rate=1.0), matrix_func("sin_plus", shift=2.0)),
            trig_coefficient(amp=1.0, t_freq=0.4, u_freq=0.8, y_weights=1.3),
        ]
        ratios = []
        for seed in range(10):
            y = generate_fbm(FbmSpec(hurst=0.75, dim=1, grid=Grid(1.0, 256), seed=seed))
            ny = holder_norm(delta1(y), gamma).value
            for sigma in families:
                z = compose_coeff(sigma, t=0.8, y=y, rho=gamma)
                nz = holder_norm(delta1(z.path), gamma).value
                ratios.append(nz / (1.0 + ny))
        assert max(ratios) <= 2.0


class TestVolterraIncrement:
    @staticmethod
    def brute_force(sigma, y, x, i, j):
        t = x.grid.times
        dx = x.cells()
        total = np.zeros(sigma.d_dim)
        for l in range(j):
            total += sigma.eval(t[j], t[l], y.values[l]) @ dx[l]
        for l in range(i):
            total -= sigma.eval(t[i], t[l], y.values[l]) @ dx[l]
        return total

    def test_no_outer_time_dependence_kills_past(self):
        sigma = linear_coefficient(1.0)
        x = Path(Grid(1.0, 64), np.sin(np.linspace(0, 2, 65))[:, None])
        y = Path(x.grid, np.cos(x.grid.times)[:, None])
        recent, past = volterra_increment_young(sigma, y, x, 20, 50, return_parts=True)
        assert np.array_equal(past, np.zeros(1))

    def test_frozen_time_coefficient(self):
        # sigma(t,u,y) = t against x_u = u: recent = t (t - s), past = (t - s) s
        sigma = Coefficient(
            1, 1,
            eval_many=lambda t, us, ys: np.zeros((len(us), 1, 1)) + np.reshape(t, (-1, 1, 1)),
            d3_many=lambda t, us, ys: np.zeros((len(us), 1, 1, 1)),
            name="outer-time",
        )
        x = linear_driver(64)
        y = Path(x.grid, np.zeros((65, 1)))
        i, j = 16, 48
        s, t = x.grid.times[i], x.grid.times[j]
        recent, past = volterra_increment_young(sigma, y, x, i, j, return_parts=True)
        assert recent[0] == pytest.approx(t * (t - s), rel=1e-13)
        assert past[0] == pytest.approx((t - s) * s, rel=1e-13)

    def test_matches_brute_force(self):
        sigma = trig_coefficient(amp=1.2, t_freq=0.7, u_freq=0.3, y_weights=0.9, phase=0.2)
        g = Grid(1.0, 64)
        rng = np.random.default_rng(5)
        x = Path(g, np.cumsum(rng.standard_normal((65, 1)) * 0.1, axis=0))
        y = Path(g, np.sin(2 * g.times)[:, None])
        for i, j in [(0, 64), (8, 32), (15, 16), (0, 1), (10, 10)]:
            got = volterra_increment_young(sigma, y, x, i, j)
            want = self.brute_force(sigma, y, x, i, j)
            assert np.allclose(got, want, atol=1e-13)

    def test_increments_telescope_to_full_map(self):
        sigma = separable_coefficient(scalar_func("cos", freq=1.5), matrix_func("sin_plus", shift=1.0))
        g = Grid(1.0, 64)
        x = Path(g, np.sin(g.times)[:, None])
        y = Path(g, np.cos(g.times)[:, None])
        direct = volterra_increment_young(sigma, y, x, 0, 64)
        cuts = [0, 9, 21, 40, 64]
        summed = sum(volterra_increment_young(sigma, y, x, a, b) for a, b in zip(cuts, cuts[1:]))
        assert np.allclose(summed, direct, rtol=1e-10)

    def test_frozen_integrand_difference_bound(self):
        # holder norm of u -> sigma(t,u,y_u) - sigma(s,u,y_u) is controlled by
        # |t - s| (1 + holder_norm(y)); one frozen constant per family
        gamma = 0.7
        families = [
            separable_coefficient(scalar_func("cos", freq=1.0), matrix_func("sin_plus", shift=2.0)),
            trig_coefficient(amp=1.0, t_freq=0.4, u_freq=0.8, y_weights=1.3),
        ]
        ratios = []
        for seed in range(10):
            y = generate_fbm(FbmSpec(hurst=0.75, dim=1, grid=Grid(1.0, 256), seed=100 + seed))
            ny = holder_norm(delta1(y), gamma).value
            for sigma in families:
                for s, t in [(0.25, 0.75), (0.5, 0.625), (0.0, 1.0)]:
                    zt = compose_coeff(sigma, t=t, y=y, rho=gamma, diagnostics=False)
                    zs = compose_coeff(sigma, t=s, y=y, rho=gamma, diagnostics=False)
                    diff = Path(y.grid, zt.path.values - zs.path.values)
                    nd = holder_norm(delta1(diff), gamma).value
                    ratios.append(nd / ((t - s) * (1.0 + ny)))
        assert max(ratios) <= 1.5

    def test_grid_mismatch(self):
        sigma = linear_coefficient(1.0)
        x = linear_driver(16)
        y = Path(Grid(1.0, 32), np.zeros((33, 1)))
        with pytest.raises(ValueError, match="different grids"):
            volterra_increment_young(sigma, y, x, 0, 16)


class TestIntegrandValidation:
    def test_shape(self):
        with pytest.raises(ValueError, match="shape"):
            YoungIntegrand(linear_driver(8), rho=1.0)

    def test_rho_range(self):
        p = Path(Grid(1.0, 8), np.zeros((9, 1, 1)))
        with pytest.raises(ValueError, match="exponent"):
            YoungIntegrand(p, rho=1.5)
