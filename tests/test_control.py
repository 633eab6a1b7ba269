import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smibctrl.control import (ControllerState, NeuralPlantModel, control_step,
                              linearizing_control, synthesize_poly, u_tilde)
from smibctrl.identify import build_regression_set
from smibctrl.networks import N_LAGS_Y, Mlp, mlp_forward, theta_flatten

PRINTED_SEVENTH = [-4.9, 10.29, -12.005, 8.4035, -3.5295, 0.8235, -0.0824]


def test_seventh_order_expansion_matches_printed_values():
    spec = synthesize_poly([0.7] * 7)
    desc = spec.coeffs[::-1]  # C6 .. C0
    assert np.max(np.abs(np.array(desc) - PRINTED_SEVENTH)) < 5e-4
    assert spec.k1 == pytest.approx(0.3**7, abs=1e-15)


def test_third_order_expansion():
    spec = synthesize_poly([0.7] * 3)
    assert np.allclose(spec.coeffs[::-1], [-2.1, 1.47, -0.343], atol=1e-12)
    assert spec.k1 == pytest.approx(0.027, abs=1e-12)


def test_zeroth_order_is_pass_through():
    spec = synthesize_poly([])
    assert spec.p == 0
    assert spec.coeffs == ()
    assert spec.k1 == 1.0


def test_unstable_pole_rejected():
    with pytest.raises(ValueError):
        synthesize_poly([1.0])
    with pytest.raises(ValueError):
        synthesize_poly([0.5, 1.2])


def test_conjugate_closure_required():
    with pytest.raises(ValueError):
        synthesize_poly([0.5 + 0.2j, 0.5 + 0.2j])
    spec = synthesize_poly([0.5 + 0.2j, 0.5 - 0.2j])
    assert np.allclose(spec.coeffs[::-1], [-1.0, 0.29], atol=1e-12)


@given(st.lists(st.floats(-0.95, 0.95), min_size=0, max_size=6), st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_unity_dc_gain(real_poles, seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.05, 0.9)
    phi = rng.uniform(0.1, 3.0)
    poles = list(real_poles) + [r * np.exp(1j * phi), r * np.exp(-1j * phi)]
    spec = synthesize_poly(poles)
    assert np.polyval(np.concatenate(([1.0], spec.coeffs[::-1])), 1.0) == spec.k1


def test_u_tilde_cases():
    assert u_tilde(0.8, [], synthesize_poly([])) == pytest.approx(0.8)
    spec1 = synthesize_poly([0.7])
    assert u_tilde(1.0, [1.0], spec1) == pytest.approx(1.0, abs=1e-15)
    spec3 = synthesize_poly([0.7] * 3)
    assert u_tilde(1.0, [1.0, 1.0, 1.0], spec3) == pytest.approx(1.0, abs=1e-12)


def test_u_tilde_requires_history():
    with pytest.raises(ValueError):
        u_tilde(1.0, [1.0, 1.0], synthesize_poly([0.7] * 3))


def test_linearizing_control_examples():
    assert linearizing_control(0.0, 1.0, 0.7, 1e-3) == 0.7
    assert linearizing_control(0.5, 0.25, 1.0, 0.01) == 2.0
    assert linearizing_control(0.0, 1e-9, 1.0, 0.01) == pytest.approx(100.0)
    assert linearizing_control(0.0, -1e-9, 1.0, 0.01) == pytest.approx(-100.0)
    assert linearizing_control(0.0, 0.0, 1.0, 0.01) == pytest.approx(100.0)  # sign(0) := +1


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-2, 2))
def test_linearizing_control_finite(f_hat, u_til, g_hat):
    out = linearizing_control(f_hat, g_hat, u_til, 0.05)
    assert np.isfinite(out)
    assert abs(out) <= (abs(f_hat) + abs(u_til)) / 0.05 + 1e-9


def test_pss_gain_value():
    ctrl_a = make_controller(nu=3.0, d0=math.inf)
    ctrl_b = make_controller(nu=3.0, d0=math.inf)
    assert ctrl_a.k_pss == pytest.approx(2.1273, abs=1e-12)
    u_a, _ = control_step(ctrl_a, 1.0, 1.0, 0.1)
    u_b, _ = control_step(ctrl_b, 1.0, 1.0, 0.0)
    assert u_a - u_b == pytest.approx(0.21273, abs=1e-12)
    plain, _ = control_step(make_controller(nu=0.0, d0=math.inf), 1.0, 1.0, 0.0)
    assert u_b == plain


def make_controller(seed=0, nu=0.0, d0=1e-6):
    rng = np.random.default_rng(seed)
    model = NeuralPlantModel(Mlp.random(5, rng=rng), Mlp.random(5, rng=rng))
    return ControllerState.at_equilibrium(model, 1.0, placement=synthesize_poly([0.7]),
                                          nu=nu, d0=d0)


def test_controller_state_rejects_bad_constants():
    with pytest.raises(ValueError):
        make_controller(d0=-1e-6)


@pytest.mark.parametrize("g_eq", [np.inf, -np.inf, np.nan])
def test_non_finite_g_hat_at_the_operating_point_is_named(g_eq):
    with pytest.raises(FloatingPointError, match="at the operating point is not finite"):
        ControllerState.at_equilibrium(SimpleNamespace(g=lambda z: g_eq), 1.1392,
                                       placement=synthesize_poly([]), nu=0.0, d0=math.inf)


def test_floor_is_a_tenth_of_g_hat_at_the_operating_point(shipped_nets):
    f_net, g_net = shipped_nets
    ctrl = ControllerState.at_equilibrium(NeuralPlantModel(f_net, g_net), 1.1392,
                                          placement=synthesize_poly([0.7] * 7),
                                          nu=3.0, d0=0.01)
    z_eq = np.concatenate((np.full(7, 1.1392), np.zeros(6)))
    assert ctrl.g_min == max(0.1 * abs(mlp_forward(g_net, z_eq)), 1e-9)
    assert ctrl.g_min > 1e-9
    flat = ControllerState.at_equilibrium(SimpleNamespace(g=lambda z: 0.0), 1.1392,
                                          placement=synthesize_poly([]),
                                          nu=0.0, d0=math.inf)
    assert flat.g_min == 1e-9


@pytest.mark.parametrize("g_late", [np.nan, np.inf, -np.inf])
def test_non_finite_g_hat_inside_the_loop_is_named(g_late):
    # finite at the operating point, so the floor is set; the floor's sign test
    # would otherwise turn a NaN into -g_min and an infinite g_hat into u = 0
    g_values = iter([1.0])
    model = SimpleNamespace(f=lambda z: 0.5, g=lambda z: next(g_values, g_late))
    ctrl = ControllerState.at_equilibrium(model, 1.1392, placement=synthesize_poly([0.7]),
                                          nu=0.0, d0=math.inf)
    with pytest.raises(FloatingPointError, match=r"g_hat = .* is not finite"):
        control_step(ctrl, 1.1392, 1.1392, 0.0)


@pytest.mark.parametrize("f_late", [np.nan, np.inf])
def test_non_finite_f_hat_is_a_control_input_that_is_not_finite(f_late):
    # g_hat is finite, so only the control input catches the non-finite f_hat
    model = SimpleNamespace(f=lambda z: f_late, g=lambda z: 1.0)
    ctrl = ControllerState.at_equilibrium(model, 1.1392, placement=synthesize_poly([0.7]),
                                          nu=0.0, d0=math.inf)
    with pytest.raises(FloatingPointError, match="^control input is not finite$"):
        control_step(ctrl, 1.1392, 1.1392, 0.0)


def test_histories_stay_tuples_of_python_floats(shipped_nets):
    # the newest-first shifts pay off only while the histories hold Python
    # floats, whatever scalar type the plant hands in
    ctrl = ControllerState.at_equilibrium(NeuralPlantModel(*shipped_nets), np.float64(1.1392),
                                          placement=synthesize_poly([0.7] * 9),
                                          nu=3.0, d0=1e-6)

    def check():
        assert type(ctrl.y_hist) is tuple and len(ctrl.y_hist) == 9
        assert type(ctrl.u_hist) is tuple and len(ctrl.u_hist) == 6
        assert all(type(v) is float for v in ctrl.y_hist + ctrl.u_hist)

    check()
    rng = np.random.default_rng(6)
    for _ in range(10):
        u_before = ctrl.u_hist
        _, ctrl = control_step(ctrl, 1.1392, np.float64(1.1392 + 1e-3 * rng.normal()),
                               np.float64(1e-4 * rng.normal()))
        check()
        z = ctrl.last_regressor
        assert type(z) is np.ndarray and z.shape == (13,) and z.dtype == np.float64
        assert z.tobytes() == np.concatenate((ctrl.y_hist[:7], u_before)).tobytes()
    assert ctrl.last_adapted


def adapting_step(ctrl, e_target):
    """One control_step whose prediction error is about e_target; returns the
    Jacobian the step adapts along, from the previous regressor and input,
    and the next state."""
    jac = ctrl.model.jacobian(ctrl.last_regressor, ctrl.u_hist[0])
    _, ctrl = control_step(ctrl, 1.0, ctrl.last_prediction - e_target, 0.0)
    return jac, ctrl


@pytest.mark.parametrize("e_target", [0.3, -0.3, 2.5e-3, -4.0])
def test_adapting_step_is_the_normalized_deadzone_gradient(e_target):
    ctrl = make_controller(seed=5, d0=1e-3)
    _, ctrl = control_step(ctrl, 1.0, 1.0, 0.0)
    theta0 = ctrl.model.theta.copy()
    jac, ctrl = adapting_step(ctrl, e_target)
    e = ctrl.last_e_star
    assert ctrl.last_adapted and abs(e) > ctrl.d0
    expected = theta0 - (e - np.sign(e) * ctrl.d0) / (1.0 + float(jac @ jac)) * jac
    assert ctrl.model.theta.tobytes() == expected.tobytes()


@given(st.floats(-2, 2), st.floats(0, 0.1), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_adapting_step_is_at_most_half_the_shrunk_error(e_target, d0, seed):
    ctrl = make_controller(seed=seed, d0=d0)
    _, ctrl = control_step(ctrl, 1.0, 1.0, 0.0)
    theta0 = ctrl.model.theta.copy()
    jac, ctrl = adapting_step(ctrl, e_target)
    shrunk = max(abs(ctrl.last_e_star) - d0, 0.0)
    norm_j = np.linalg.norm(jac)
    step = np.linalg.norm(ctrl.model.theta - theta0)
    assert step <= shrunk * norm_j / (1.0 + norm_j**2) + 1e-12
    assert step <= shrunk / 2.0 + 1e-12
    assert ctrl.last_adapted == (shrunk > 0.0)


def test_error_on_the_band_edge_leaves_theta_bitwise_unchanged():
    probe = make_controller(seed=2)
    _, probe = control_step(probe, 1.0, 1.0, 0.0)
    prediction = probe.last_prediction
    for y_meas in (prediction - 0.01, prediction + 0.01):
        # d0 is exactly |e|, so e = +d0 or -d0
        ctrl = make_controller(seed=2, d0=abs(prediction - y_meas))
        _, ctrl = control_step(ctrl, 1.0, 1.0, 0.0)
        theta0 = ctrl.model.theta.copy()
        _, ctrl = control_step(ctrl, 1.0, y_meas, 0.0)
        assert abs(ctrl.last_e_star) == ctrl.d0
        assert not ctrl.last_adapted
        assert ctrl.model.theta.tobytes() == theta0.tobytes()


def test_control_step_no_adaptation_keeps_theta():
    # d0 = inf freezes the weights; the prediction error is still recorded
    ctrl = make_controller(d0=math.inf)
    theta0 = ctrl.model.theta.tobytes()
    rng = np.random.default_rng(3)
    for k in range(300):
        prediction, y_meas = ctrl.last_prediction, 1.0 + rng.normal() * 0.1
        _, ctrl = control_step(ctrl, 1.0, y_meas, 0.0)
        assert not ctrl.last_adapted
        assert ctrl.last_e_star == (0.0 if k == 0 else prediction - y_meas)
    assert ctrl.model.theta.tobytes() == theta0
    assert ctrl.last_e_star != 0.0


def test_control_step_first_step_never_adapts():
    ctrl = make_controller(d0=1e-9)
    theta0 = ctrl.model.theta.copy()
    _, ctrl = control_step(ctrl, 1.0, 55.0, 0.0)
    assert np.array_equal(ctrl.model.theta, theta0)
    assert ctrl.last_e_star == 0.0
    assert not ctrl.last_adapted


def test_control_step_adapts_on_large_error():
    ctrl = make_controller()
    _, ctrl = control_step(ctrl, 1.0, 1.0, 0.0)
    theta0 = ctrl.model.theta.copy()
    _, ctrl = control_step(ctrl, 1.0, 5.0, 0.0)  # big surprise
    assert not np.array_equal(ctrl.model.theta, theta0)
    assert ctrl.last_adapted


def test_adaptation_leaves_the_given_state_and_nets_untouched(shipped_nets):
    f_net, g_net = shipped_nets
    given_theta = theta_flatten(f_net, g_net)
    model = NeuralPlantModel(f_net, g_net)
    ctrl = ControllerState.at_equilibrium(model, 1.1392, placement=synthesize_poly([0.7] * 7),
                                          nu=0.0, d0=1e-6)
    rng = np.random.default_rng(8)
    adapted = 0
    for _ in range(50):
        theta_given = ctrl.model.theta.tobytes()
        given, (_, ctrl) = ctrl, control_step(ctrl, 1.1392, 1.1392 + 1e-3 * rng.normal(), 0.0)
        adapted += ctrl.last_adapted
        assert given.model.theta.tobytes() == theta_given
    assert adapted == 49
    assert model.theta.tobytes() == given_theta.tobytes()
    assert not np.array_equal(ctrl.model.theta, given_theta)
    # the adapted nets are views of the adapted theta, and the caller's nets are not touched
    assert np.array_equal(theta_flatten(ctrl.model.f_net, ctrl.model.g_net), ctrl.model.theta)
    assert all(np.shares_memory(w, ctrl.model.theta) for net in (ctrl.model.f_net, ctrl.model.g_net)
               for w in (net.hidden_w, net.hidden_b, net.out_w, net.out_b))
    assert np.array_equal(theta_flatten(f_net, g_net), given_theta)


def test_neural_model_rejects_unequal_hidden_sizes():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        NeuralPlantModel(Mlp.random(5, rng=rng), Mlp.random(4, rng=rng))


def test_pss_zero_reduces_to_plain_linearizing_loop():
    ctrl_a = make_controller(seed=9, nu=0.0, d0=math.inf)
    ctrl_b = make_controller(seed=9, nu=3.0, d0=math.inf)
    rng = np.random.default_rng(4)
    for _ in range(30):
        y = 1.0 + 0.05 * rng.normal()
        dd = rng.normal()
        u_a, ctrl_a = control_step(ctrl_a, 1.0, y, dd)
        u_b, ctrl_b = control_step(ctrl_b, 1.0, y, 0.0)
        # with nu = 0 the slip input is irrelevant; with zero slip
        # the augmented law collapses to the plain one
        assert u_a == u_b



def state_bytes(ctrl):
    """Every field of a controller state, the floats and arrays as their bytes
    and the model as its theta and its nets."""
    model = ctrl.model
    return (model.theta.tobytes(), theta_flatten(model.f_net, model.g_net).tobytes(),
            ctrl.placement, np.float64([ctrl.k_pss, ctrl.d0, ctrl.g_min]).tobytes(),
            np.float64(ctrl.y_hist).tobytes(), np.float64(ctrl.u_hist).tobytes(),
            np.float64(ctrl.last_prediction).tobytes(),
            None if ctrl.last_regressor is None else ctrl.last_regressor.tobytes(),
            np.float64(ctrl.last_e_star).tobytes(), ctrl.last_adapted)


@pytest.mark.parametrize("surprise", [0.0, 1.0])  # no prediction error, then far beyond d0
def test_control_step_leaves_its_input_state_unchanged(surprise):
    ctrl = make_controller(seed=3, nu=3.0, d0=1e-2)
    given = state_bytes(ctrl)
    _, after = control_step(ctrl, 1.0, 1.0, 0.01)
    assert state_bytes(ctrl) == given
    ctrl, given = after, state_bytes(after)
    _, after = control_step(ctrl, 1.0, ctrl.last_prediction + surprise, 0.01)
    assert state_bytes(ctrl) == given
    assert after.last_adapted == (surprise > 0.0)


@pytest.mark.parametrize("surprise", [0.0, 1.0])
def test_stepping_one_state_twice_gives_the_same_instant(surprise):
    _, ctrl = control_step(make_controller(seed=4, nu=3.0, d0=1e-2), 1.0, 1.0, 0.01)
    y_meas = ctrl.last_prediction + surprise
    u_a, next_a = control_step(ctrl, 1.0, y_meas, 0.02)
    u_b, next_b = control_step(ctrl, 1.0, y_meas, 0.02)
    assert np.float64(u_a).tobytes() == np.float64(u_b).tobytes()
    assert state_bytes(next_a) == state_bytes(next_b)
    assert next_a.last_adapted == (surprise > 0.0)


def test_online_regressor_is_the_training_layout(shipped_nets):
    # instant k's regressor and input are record k - 6 of the regression set
    # that identification builds from the same recorded series
    ctrl = ControllerState.at_equilibrium(NeuralPlantModel(*shipped_nets), 1.1392,
                                          placement=synthesize_poly([0.7] * 7),
                                          nu=3.0, d0=1e-3)
    rng = np.random.default_rng(12)
    y = 1.1392 + 1e-2 * rng.normal(size=80)
    u, z, adapted = [], [], 0
    for y_k in y:
        u_k, ctrl = control_step(ctrl, 1.1392, y_k, 1e-4 * rng.normal())
        u.append(u_k)
        z.append(ctrl.last_regressor)
        adapted += ctrl.last_adapted
    assert adapted > 0
    data = build_regression_set(u, y)
    lag = N_LAGS_Y - 1
    assert len(data) == len(y) - lag - 1
    assert np.array(z[lag:-1]).tobytes() == data.z.tobytes()
    assert np.array(u[lag:-1]).tobytes() == data.u.tobytes()
