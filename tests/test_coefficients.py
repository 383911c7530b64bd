"""Coefficient families: closed-form values, derivative probing, batching."""
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from roughvolterra.coefficients import (
    Coefficient,
    MATRIX_FUNCS,
    SCALAR_FUNCS,
    constant_coefficient,
    linear_coefficient,
    matrix_func,
    scalar_func,
    separable_coefficient,
    trig_coefficient,
)


class TestRegistries:
    def test_scalar_lookup(self):
        # f(v) = Re v^power e^(rate v)
        assert [(f.rate, f.power) for f in (scalar_func("exp_decay", rate=2.0), scalar_func("linear"))] == [
            (-2.0, 0),
            (0.0, 1),
        ]
        assert scalar_func("cos", freq=3.0).rate == 3j

    def test_unknown_scalar_name(self):
        with pytest.raises(ValueError, match="unknown scalar function"):
            scalar_func("nope")

    def test_matrix_lookup(self):
        m = matrix_func("sin_plus", shift=2.0)
        y = np.array([0.3])
        assert m.value(y).shape == (1, 1)
        assert m.value(y)[0, 0] == pytest.approx(np.sin(0.3) + 2.0)
        assert m.jac(y)[0, 0, 0] == pytest.approx(np.cos(0.3))

    def test_unknown_matrix_name(self):
        with pytest.raises(ValueError, match="unknown state-map"):
            matrix_func("nope")

    def test_registry_contents(self):
        assert set(SCALAR_FUNCS) == {"one", "linear", "exp_decay", "cos"}
        assert set(MATRIX_FUNCS) == {"ones", "identity", "sin_plus", "cos"}

    def test_identity_map_is_diagonal_action(self):
        m = matrix_func("identity", d_dim=3)
        y = np.array([1.0, -2.0, 0.5])
        v = np.array([2.0, 3.0, 4.0])
        assert np.allclose(m.value(y) @ v, y * v)

    def test_matrix_funcs_batch(self):
        m = matrix_func("identity", d_dim=2)
        ys = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, -1.0]])
        batched = m.value(ys)
        assert batched.shape == (3, 2, 2)
        for k, y in enumerate(ys):
            assert np.array_equal(batched[k], m.value(y))


def sin_of_state(t, us, ys):
    """sigma(t, u, y) = sin(y) for d = n = 1, batched."""
    return np.sin(ys)[:, :, None]


def wrong_sin_jacobian(t, us, ys):
    return np.ones((len(us), 1, 1, 1))  # should be cos(y)


class TestDerivativeProbe:
    def test_bad_state_derivative_is_caught(self):
        # the first probe point, (t, u) = (0, 0), already disagrees; plain floats in the message
        with pytest.raises(ValueError, match=r"^coefficient 'broken': d3 disagrees with finite differences at \(0\.0, 0\.0\)$"):
            Coefficient(1, 1, eval_many=sin_of_state, d3_many=wrong_sin_jacobian, name="broken")

    def test_non_finite_sigma_is_named(self):
        # e^(1000 t) at u = 0 overflows past t = 0.71: the fourth probe point,
        # (0.75, 0), is the first there, and the probe raises no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^coefficient '\S+': sigma is not finite at \(0\.75, 0\.0\)$"):
                separable_coefficient(scalar_func("exp_decay", rate=-1000.0), matrix_func("sin_plus", shift=1.0))

    def test_validate_false_skips_probe(self):
        c = Coefficient(1, 1, eval_many=sin_of_state, d3_many=wrong_sin_jacobian, name="unchecked", validate=False)
        assert c.eval(2.0, 0.0, np.array([0.5]))[0, 0] == np.sin(0.5)
        with pytest.raises(ValueError, match="d3 disagrees"):
            c.check_derivatives()

    def test_probe_points_are_deterministic(self):
        # unscrambled Halton points, bit for bit, mapped into the probe box
        for d_dim in (1, 2, 3):
            c = constant_coefficient(1.0, d_dim=d_dim)
            p1 = c._probes(16)
            p2 = c._probes(16)
            assert np.array_equal(p1, p2)
            unit = qmc.Halton(d=2 + d_dim, scramble=False).random(16)
            want = np.concatenate([unit[:, :2], -1.0 + 2.0 * unit[:, 2:]], axis=1)
            assert np.array_equal(p1, want)


class TestConstant:
    def test_values_and_derivatives(self):
        c = constant_coefficient([[2.0, -1.0]], d_dim=1, n_dim=2)
        y = np.array([0.7])
        assert np.array_equal(c.eval(0.1, 0.2, y), [[2.0, -1.0]])
        assert np.array_equal(c.d3(0.1, 0.2, y), np.zeros((1, 2, 1)))

    def test_scalar_promotion(self):
        c = constant_coefficient(3.0)
        assert c.eval(0.0, 0.0, np.zeros(1)).shape == (1, 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected a"):
            constant_coefficient(np.ones((2, 2)), d_dim=1, n_dim=2)


class TestLinear:
    def test_scalar_identity(self):
        c = linear_coefficient(1.0)
        assert c.eval(0.0, 0.0, np.array([0.37]))[0, 0] == pytest.approx(0.37)
        assert c.d3(0.0, 0.0, np.array([0.37]))[0, 0, 0] == 1.0

    def test_matrix_action(self):
        a = np.zeros((2, 1, 2))
        a[0, 0] = [1.0, 2.0]
        a[1, 0] = [-3.0, 0.5]
        c = linear_coefficient(a, b=[[0.25], [0.0]], d_dim=2, n_dim=1)
        y = np.array([2.0, -1.0])
        want = np.array([[1.0 * 2.0 + 2.0 * -1.0 + 0.25], [-3.0 * 2.0 + 0.5 * -1.0]])
        assert np.allclose(c.eval(0.3, 0.1, y), want)
        assert np.array_equal(c.d3(0.3, 0.1, y), a)

    def test_eval_many_matches_loop(self):
        a = np.arange(8, dtype=float).reshape(2, 2, 2) / 7.0
        c = linear_coefficient(a, d_dim=2, n_dim=2)
        ys = np.linspace(-1, 1, 10).reshape(5, 2)
        us = np.linspace(0, 1, 5)
        batched = c.eval_many(0.5, us, ys)
        for k in range(5):
            assert np.allclose(batched[k], a @ ys[k])


class TestSeparable:
    def test_values(self):
        c = separable_coefficient(scalar_func("exp_decay", rate=1.5), matrix_func("sin_plus", shift=0.5))
        t, u, y = 0.8, 0.3, np.array([0.2])
        want = np.exp(-1.5 * 0.5) * (np.sin(0.2) + 0.5)
        assert c.eval(t, u, y)[0, 0] == pytest.approx(want)

    def test_d3_many_matches_loop(self):
        c = separable_coefficient(scalar_func("linear"), matrix_func("sin_plus", shift=2.0))
        us = np.linspace(0.0, 0.9, 7)
        ys = np.sin(np.linspace(0, 3, 7)).reshape(7, 1)
        batched = c.d3_many(1.0, us, ys)
        for k in range(7):
            # d/dy [(1 - u) (sin y + 2)] = (1 - u) cos y
            assert np.allclose(batched[k], (1.0 - us[k]) * np.cos(ys[k, 0]))


class TestTrig:
    def test_closed_form(self):
        c = trig_coefficient(amp=2.0, t_freq=0.5, u_freq=1.5, y_weights=0.7, phase=0.1)
        t, u, y = 0.3, 0.6, np.array([-0.4])
        want = 2.0 * np.sin(0.5 * t + 1.5 * u + 0.7 * y[0] + 0.1)
        assert c.eval(t, u, y)[0, 0] == pytest.approx(want)

    def test_multidimensional_shapes(self):
        c = trig_coefficient(
            amp=np.ones((2, 3)),
            t_freq=0.2,
            u_freq=0.4,
            y_weights=[0.3, -0.5],
            phase=np.linspace(0, 1, 6).reshape(2, 3),
            d_dim=2,
            n_dim=3,
        )
        y = np.array([0.1, 0.2])
        assert c.eval(0.0, 0.0, y).shape == (2, 3)
        assert c.d3(0.0, 0.0, y).shape == (2, 3, 2)

    def test_eval_many_matches_loop(self):
        c = trig_coefficient(amp=1.3, t_freq=0.9, u_freq=0.2, y_weights=1.1, phase=0.3)
        us = np.linspace(0, 1, 9)
        ys = np.cos(np.linspace(0, 2, 9)).reshape(9, 1)
        batched = c.eval_many(0.7, us, ys)
        for k in range(9):
            assert np.allclose(batched[k], 1.3 * np.sin(0.9 * 0.7 + 0.2 * us[k] + 1.1 * ys[k, 0] + 0.3))


LIN_A = np.arange(12, dtype=float).reshape(2, 3, 2) / 11.0 - 0.5
LIN_B = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
TRIG_AMP = np.array([[1.0, -0.5, 2.0], [0.3, 1.5, -1.0]])
TRIG_PHASE = np.linspace(0.0, 1.0, 6).reshape(2, 3)

# (builder, closed-form numpy oracle of eval_many), each with a 2-D state
FAMILIES = [
    pytest.param(
        lambda: constant_coefficient(LIN_B, d_dim=2, n_dim=3),
        lambda t, us, ys: np.broadcast_to(LIN_B, (len(us), 2, 3)),
        id="constant",
    ),
    pytest.param(
        lambda: linear_coefficient(LIN_A, b=LIN_B, d_dim=2, n_dim=3),
        lambda t, us, ys: LIN_A[None, :, :, 0] * ys[:, None, None, 0] + LIN_A[None, :, :, 1] * ys[:, None, None, 1] + LIN_B,
        id="linear",
    ),
    pytest.param(
        lambda: separable_coefficient(scalar_func("cos", freq=2.0), matrix_func("identity", d_dim=2)),
        lambda t, us, ys: np.cos(2.0 * (t - us))[:, None, None] * ys[:, :, None] * np.eye(2),
        id="separable",
    ),
    pytest.param(
        lambda: trig_coefficient(
            amp=TRIG_AMP, t_freq=0.7, u_freq=-0.4, y_weights=[0.3, -0.5], phase=TRIG_PHASE, d_dim=2, n_dim=3
        ),
        lambda t, us, ys: TRIG_AMP * np.sin(
            (0.7 * t - 0.4 * us + 0.3 * ys[:, 0] - 0.5 * ys[:, 1])[:, None, None] + TRIG_PHASE
        ),
        id="trig",
    ),
]


class TestBatchingFallbacks:
    @pytest.mark.parametrize("build,oracle", FAMILIES)
    def test_batched_formula(self, build, oracle):
        c = build()
        rng = np.random.default_rng(11)
        us = np.linspace(0.0, 0.9, 7)
        ys = rng.uniform(-1.0, 1.0, (7, c.d_dim))
        assert np.allclose(c.eval_many(0.8, us, ys), oracle(0.8, us, ys), rtol=1e-13, atol=1e-14)
        # the outer time as an array matched with the inner times
        ts = np.linspace(0.1, 1.0, 7)
        diag = c.diagonal_many(ts, ys)
        assert np.allclose(diag, oracle(ts, ts, ys), rtol=1e-13, atol=1e-14)
        for k in range(7):
            assert np.array_equal(diag[k], c.eval_many(ts[k], ts[k : k + 1], ys[k : k + 1])[0])
        c.check_derivatives()

    def test_diagonal_many(self):
        c = trig_coefficient(amp=1.0, t_freq=1.0, u_freq=0.5, y_weights=0.2)
        ts = np.linspace(0, 1, 6)
        ys = np.linspace(-1, 1, 6).reshape(6, 1)
        got = c.diagonal_many(ts, ys)
        for k in range(6):
            assert np.allclose(got[k], c.eval(ts[k], ts[k], ys[k]))


# closed forms of phi(v), and of psi(y) with D_y psi(y) over batched states (m, d), per registry entry
PHI_PARAMS = {"one": {}, "linear": {}, "exp_decay": {"rate": 2.5}, "cos": {"freq": 3.0}}
PHI_ORACLES = {
    "one": np.ones_like,
    "linear": lambda v: v,
    "exp_decay": lambda v: np.exp(-2.5 * v),
    "cos": lambda v: np.cos(3.0 * v),
}
PSI_PARAMS = {"ones": {}, "identity": {"d_dim": 2}, "sin_plus": {"shift": 0.5}, "cos": {}}
EYE2 = np.eye(2)
PSI_ORACLES = {
    "ones": (lambda ys: np.ones((len(ys), 1, 1)), lambda ys: np.zeros((len(ys), 1, 1, 1))),
    "identity": (
        lambda ys: ys[:, :, None] * EYE2,
        lambda ys: np.broadcast_to(EYE2[:, :, None] * EYE2[:, None, :], (len(ys), 2, 2, 2)),
    ),
    "sin_plus": (lambda ys: (np.sin(ys) + 0.5)[:, :, None], lambda ys: np.cos(ys)[:, :, None, None]),
    "cos": (lambda ys: np.cos(ys)[:, :, None], lambda ys: -np.sin(ys)[:, :, None, None]),
}


def trig_angle(t, us, ys):
    return (0.7 * t - 0.4 * us + 0.3 * ys[:, 0] - 0.5 * ys[:, 1])[:, None, None] + TRIG_PHASE


def separable_oracle(phi, psi):
    """(constructor, sigma, D_y sigma) of phi(t - u) psi(y)."""
    value, jac = PSI_ORACLES[psi]
    return (
        lambda: separable_coefficient(scalar_func(phi, **PHI_PARAMS[phi]), matrix_func(psi, **PSI_PARAMS[psi])),
        lambda t, us, ys: PHI_ORACLES[phi](t - us)[:, None, None] * value(ys),
        lambda t, us, ys: PHI_ORACLES[phi](t - us)[:, None, None, None] * jac(ys),
    )


# every built-in family: (constructor, closed-form sigma, closed-form D_y sigma)
ORACLES = [
    pytest.param(
        FAMILIES[0].values[0], FAMILIES[0].values[1], lambda t, us, ys: np.zeros((len(us), 2, 3, 2)), id="constant"
    ),
    pytest.param(
        FAMILIES[1].values[0],
        FAMILIES[1].values[1],
        lambda t, us, ys: np.broadcast_to(LIN_A, (len(us), 2, 3, 2)),
        id="linear",
    ),
    pytest.param(
        *FAMILIES[3].values[:2],
        lambda t, us, ys: (TRIG_AMP * np.cos(trig_angle(t, us, ys)))[..., None] * np.array([0.3, -0.5]),
        id="trig",
    ),
    *(pytest.param(*separable_oracle(phi, psi), id=f"separable-{phi}-{psi}") for phi in SCALAR_FUNCS for psi in MATRIX_FUNCS),
]


class TestModes:
    @pytest.mark.parametrize("build,sigma,jac", ORACLES)
    def test_sigma_and_state_derivative_match_closed_forms(self, build, sigma, jac):
        # eval_many and d3_many are derived from the modes alone: each
        # family's sigma and D_y sigma, written out in numpy, at the probe points
        c = build()
        assert c.modes is not None
        pts = c._probes(16)
        t, u, y = pts[:, 0], pts[:, 1], pts[:, 2:]
        want = sigma(t, u, y)
        scale = np.abs(want).max()
        assert np.abs(c.eval_many(t, u, y) - want).max() <= 1e-14 * scale
        assert np.abs(c.d3_many(t, u, y) - jac(t, u, y)).max() <= 1e-14 * scale
