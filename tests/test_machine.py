import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smibctrl import machine
from smibctrl.configio import ConfigError
from smibctrl.machine import (MachineParams, derivatives, find_equilibrium, inductance_matrix,
                              linearize, load_machine_config, rk4_step, st1a_control,
                              terminal_voltage)

from conftest import config_path


def dq_currents(lam, params):
    return np.array(machine._assembled(params).currents(machine._floats(lam)))


def dq_voltages(x, params):
    return machine._assembled(params).voltages(machine._floats(x))  # (currents, v_d, v_q)


def diagonal_params():
    # assembled L becomes diag(-1, -1, 1, 1, 1)
    return MachineParams(L_d=1.0, L_q=1.0, L_f=1.0, L_kd=1.0, L_kq=1.0,
                         L_ad=0.0, L_aq=0.0, L_fkd=0.0)


def cramer_solve(L, lam):
    """Determinant-ratio solve, independent of the LU path under test."""
    det = np.linalg.det(L)
    out = np.empty(5)
    for j in range(5):
        Lj = L.copy()
        Lj[:, j] = lam
        out[j] = np.linalg.det(Lj) / det
    return out


def test_dq_currents_zero_flux(ref_params):
    assert np.array_equal(dq_currents(np.zeros(5), ref_params), np.zeros(5))


def test_dq_currents_diagonal_pattern():
    i = dq_currents(np.ones(5), diagonal_params())
    assert np.allclose(i, [-1.0, -1.0, 1.0, 1.0, 1.0], atol=1e-14)


def test_dq_currents_vs_cramer_oracle(ref_params, nominal_eq):
    state, _ = nominal_eq
    i = dq_currents(state[2:], ref_params)
    expected = cramer_solve(inductance_matrix(ref_params), state[2:])
    assert np.max(np.abs(i - expected)) <= 1e-12


def inverse_solve(L_inv, lam):
    """i = L^-1 lam as the array product summed along each row: the oracle of the
    float kernel, which skips the exactly-zero cross-block entries."""
    return (L_inv * lam).sum(axis=1)


D_AXIS, Q_AXIS = [0, 2, 3], [1, 4]  # windings d, f, kd and q, kq
INDUCTANCES = ("L_d", "L_q", "L_ad", "L_aq", "L_f", "L_fkd", "L_kd", "L_kq")


def test_dq_currents_roundtrip_identity(ref_params):
    for case in ORACLE_MACHINES.values():
        params = dataclasses.replace(ref_params, **case)
        L = inductance_matrix(params)
        rng = np.random.default_rng(7)
        for _ in range(50):
            i = rng.uniform(-3, 3, size=5)
            assert np.max(np.abs(dq_currents(L @ i, params) - i)) <= 1e-12


def test_inverse_inductance_keeps_the_dq_block_pattern(ref_params):
    machines = [dataclasses.replace(ref_params, **case) for case in ORACLE_MACHINES.values()]
    machines += [params for params, _ in perturbed_operating_points(ref_params, 40, seed=7)]
    machines += [diagonal_params()]
    rng = np.random.default_rng(13)
    for inductances in rng.uniform(0.05, 2.0, size=(500, 8)):  # L_d, L_q, ..., L_kq at random
        try:
            machines.append(MachineParams(**dict(zip(INDUCTANCES, inductances))))
        except machine.SingularInductanceError:
            pass
    assert len(machines) > 400
    for params in machines:
        L_inv = np.linalg.inv(inductance_matrix(params))
        assert np.all(L_inv[np.ix_(D_AXIS, Q_AXIS)] == 0.0)
        assert np.all(L_inv[np.ix_(Q_AXIS, D_AXIS)] == 0.0)


def test_dq_currents_bitwise_equal_to_inverse_oracle(ref_params):
    for case in ORACLE_MACHINES.values():
        params = dataclasses.replace(ref_params, **case)
        L_inv = np.linalg.inv(inductance_matrix(params))
        rng = np.random.default_rng(17)
        for lam in rng.uniform(-3, 3, size=(2000, 5)):
            assert np.array_equal(dq_currents(lam, params), inverse_solve(L_inv, lam))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_flux_is_divergence(ref_params, nominal_eq, bad):
    state, u_eq = nominal_eq
    x = state.copy()
    x[4] = bad  # lambda_f
    with pytest.raises(machine.DivergenceError):
        dq_currents(x[2:], ref_params)
    with pytest.raises(machine.DivergenceError):
        terminal_voltage(x, ref_params)
    with pytest.raises(machine.DivergenceError):
        derivatives(x, u_eq, ref_params)


def reference_kernel(params, L_inv, x, u):
    """The NumPy array arithmetic the float kernel replaced, with the currents of
    inverse_solve: rates, currents and stator voltages at one state."""
    p = params
    lam = x[2:]
    i = inverse_solve(L_inv, lam)
    sin_d, cos_d = math.sin(x[0]), math.cos(x[0])
    w_d = p.v_inf * (p.A * sin_d + p.B * cos_d)
    w_q = -p.v_inf * (p.B * sin_d - p.A * cos_d)
    v_d = p.r11 * i[0] - p.x11 * i[1] + w_d
    v_q = p.r11 * i[1] + p.x11 * i[0] + w_q
    dlam = np.array([p.r_s, p.r_s, -p.r_f, -p.r_kd, -p.r_kq]) * i
    dlam[0] += lam[1] + v_d
    dlam[1] += -lam[0] + v_q
    dlam[2] += u
    dlam *= p.omega_b
    P_e = lam[0] * i[1] - lam[1] * i[0]
    domega = p.omega_b / (2.0 * p.H) * (p.P_m - P_e - p.D * x[1])
    return np.concatenate(([x[1], domega], dlam)), i, v_d, v_q


def reference_rk4_step(params, L_inv, x, u, dt):
    def f(z):
        return reference_kernel(params, L_inv, z, u)[0]

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


ORACLE_MACHINES = {
    "reference": {},
    "perturbed": {"H": 3.1, "D": 0.07, "r_s": 0.011, "r_f": 4e-3, "r_kd": 0.035, "L_ad": 0.72,
                  "L_fkd": 0.71, "r11": 0.03, "x11": 0.31, "A": 0.95, "B": 0.3, "v_inf": 1.07,
                  "P_m": 0.9, "omega_b": 100.0 * math.pi},
}


@pytest.mark.parametrize("machine_case", sorted(ORACLE_MACHINES))
def test_float_kernel_bitwise_equal_to_array_oracle(ref_params, nominal_eq, machine_case):
    params = dataclasses.replace(ref_params, **ORACLE_MACHINES[machine_case])
    L_inv = np.linalg.inv(inductance_matrix(params))
    state, u_eq = nominal_eq
    rng = np.random.default_rng(23)
    for _ in range(1000):
        x = state + rng.normal(scale=[0.3, 5.0, 0.05, 0.05, 0.05, 0.05, 0.05])
        u = u_eq + rng.normal(scale=0.3)
        dt = rng.uniform(1e-5, 2e-3)
        rates, i, v_d, v_q = reference_kernel(params, L_inv, x, u)
        assert np.array_equal(rk4_step(x, u, dt, params),
                              reference_rk4_step(params, L_inv, x, u, dt))
        assert np.array_equal(derivatives(x, u, params), rates)
        i_new, v_d_new, v_q_new = dq_voltages(x, params)
        assert np.array_equal(i_new, i) and (v_d_new, v_q_new) == (v_d, v_q)
        assert terminal_voltage(x, params) == math.hypot(v_d, v_q)


@pytest.mark.parametrize("machine_case", sorted(ORACLE_MACHINES))
def test_advance_is_micro_steps_chained_rk4_steps(ref_params, nominal_eq, machine_case):
    params = dataclasses.replace(ref_params, **ORACLE_MACHINES[machine_case])
    state, u_eq = nominal_eq
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = state + rng.normal(scale=[0.3, 5.0, 0.05, 0.05, 0.05, 0.05, 0.05])
        u = u_eq + rng.normal(scale=0.3)
        dt = rng.uniform(4e-5, 8e-3)
        chained = x
        for _ in range(machine.MICRO_STEPS):
            chained = rk4_step(chained, u, dt / machine.MICRO_STEPS, params)
        assert np.array_equal(machine.advance(x, u, dt, params), chained)


def test_advance_steps_through_the_module_attribute(ref_params, nominal_eq, monkeypatch):
    # a tracer wraps machine.rk4_step; advance must not hold a private reference
    state, u_eq = nominal_eq
    original = machine.rk4_step
    steps = []

    def counted(x, u, dt, params):
        steps.append(dt)
        return original(x, u, dt, params)

    monkeypatch.setattr(machine, "rk4_step", counted)
    machine.advance(state, u_eq, 2e-3, ref_params)
    assert steps == [2e-3 / machine.MICRO_STEPS] * machine.MICRO_STEPS


def test_plant_state_stays_python_floats(ref_params, nominal_eq):
    # the float kernel runs about three times slower on NumPy scalars
    state, u_eq = nominal_eq
    assert isinstance(state, np.ndarray)
    x = machine.advance(state, u_eq, 2e-3, ref_params)
    assert type(x) is tuple and len(x) == 7
    assert [type(v) for v in x] == [float] * 7
    stepped = [rk4_step(given, u_eq + 0.05, 5e-4, ref_params)
               for given in (x, list(x), np.array(x))]
    assert all(type(v) is float for v in stepped[0])
    assert stepped[0] == stepped[1] == stepped[2]


@pytest.mark.parametrize("dt", [5e-324, 0.0, -2e-3])
def test_advance_rejects_a_period_without_positive_steps(ref_params, nominal_eq, dt):
    state, u_eq = nominal_eq
    with pytest.raises(ValueError, match="dt must be positive"):
        machine.advance(state, u_eq, dt, ref_params)


def test_kernel_constants_belong_to_their_plant(ref_params, nominal_eq):
    # H, P_m, D and x11 leave L unchanged, so one L^-1 serves the oracle
    L_inv = np.linalg.inv(inductance_matrix(ref_params))
    state, u_eq = nominal_eq
    x = state + np.array([0.1, 2.0, 0.01, -0.01, 0.02, 0.0, -0.02])
    scaled = dataclasses.replace(ref_params, H=0.5 * ref_params.H, P_m=0.9)
    for params in [ref_params, scaled] * 3:  # as scale_H and set_Pm events alternate plants
        assert np.array_equal(rk4_step(x, u_eq, 5e-4, params),
                              reference_rk4_step(params, L_inv, x, u_eq, 5e-4))
    many = [dataclasses.replace(ref_params, H=1.0 + 0.1 * j, P_m=0.5 + 0.01 * j,
                                D=0.001 * j, x11=0.1 + 0.001 * j) for j in range(200)]
    for params in many + many[:10]:  # more plants than the compilation cache holds
        assert np.array_equal(rk4_step(x, u_eq, 5e-4, params),
                              reference_rk4_step(params, L_inv, x, u_eq, 5e-4))


def test_equal_params_hash_equal_and_share_one_plant(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    machine._assembled.cache_clear()
    a, b = MachineParams(H=7.25), MachineParams(H=7.25)
    assert a is not b and a == b and hash(a) == hash(b)
    assert np.array_equal(rk4_step(state, u_eq, 5e-4, a), rk4_step(state, u_eq, 5e-4, b))
    assert machine._assembled.cache_info().currsize == 1
    c = dataclasses.replace(a, H=3.5)
    assert c != a and hash(c) != hash(a)
    rk4_step(state, u_eq, 5e-4, c)
    assert machine._assembled.cache_info().currsize == 2


def test_stepping_reads_the_plant_its_params_hold(ref_params, nominal_eq):
    # stepping, rates and the equilibrium search make no cache lookup, so equal
    # but distinct params (a scenario before its event) never pay the 21-field __eq__
    state, u_eq = nominal_eq
    twin = MachineParams()
    assert twin == ref_params and twin is not ref_params
    before = machine._assembled.cache_info()
    x = machine.advance(state, u_eq, 2e-3, twin)
    machine.terminal_voltage(x, ref_params)
    rates = derivatives(x, u_eq, twin)
    x_eq, u_found = find_equilibrium(twin, 1.1392)
    after = machine._assembled.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert x == machine.advance(state, u_eq, 2e-3, ref_params)
    assert np.array_equal(rates, np.array(ref_params._plant.rates(x, u_eq)))
    assert np.array_equal(x_eq, state) and u_found == u_eq


def test_cached_hash_is_the_field_tuple_hash_and_not_a_field():
    p = MachineParams(P_m=1.2, D=0.05)
    assert hash(p) == hash(dataclasses.astuple(p))
    assert "_hash" not in {f.name for f in dataclasses.fields(MachineParams)}
    assert "_hash" not in repr(p)


@pytest.mark.parametrize("index, value, message", [
    (0, math.nan, "power angle"), (0, math.inf, "power angle"), (0, -math.inf, "power angle"),
    (4, math.nan, "winding fluxes"), (4, math.inf, "winding fluxes"),
    (2, -1e306, "winding fluxes"),   # the stage-2 fluxes overflow
    (4, 1e306, "power angle"),       # P_e overflows, so the stage-3 angle is -inf
    (1, 1e308, "rk4_step produced a non-finite state"),  # every stage is finite
    (1, math.inf, "power angle"),    # omega enters the stage-2 angle
    (2, 7e153, "power angle"),       # the stage-4 angle
])
def test_rk4_step_non_finite_is_divergence(ref_params, nominal_eq, index, value, message):
    state, u_eq = nominal_eq
    x = state.copy()
    x[index] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(machine.DivergenceError, match=message):
            rk4_step(x, u_eq, 5e-4, ref_params)
        if index == 0:
            for evaluate in (lambda: terminal_voltage(x, ref_params),
                             lambda: derivatives(x, u_eq, ref_params)):
                with pytest.raises(machine.DivergenceError, match=message):
                    evaluate()


@pytest.mark.parametrize("entries, u, dt, message", [
    # P_e is inf - inf in stage 1, so the stage-2 omega and the stage-3 angle are NaN
    ({2: 1e140, 3: 1e168}, None, 5e-4, "power angle"),
    # the field flux leaves the float range in a later stage of a 0.1 s step
    ({}, 1e305, 0.1, "winding fluxes"),   # the stage-3 fluxes
    ({}, 1e304, 0.1, "winding fluxes"),   # the stage-4 fluxes
])
def test_rk4_step_later_stage_checks(ref_params, nominal_eq, entries, u, dt, message):
    # the stage checks that no state off the operating point in one entry reaches at 5e-4 s
    state, u_eq = nominal_eq
    x = state.copy()
    for index, value in entries.items():
        x[index] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(machine.DivergenceError, match=message):
            rk4_step(x, u_eq if u is None else u, dt, ref_params)


def test_singular_inductance_rejected():
    with pytest.raises(machine.SingularInductanceError):
        MachineParams(L_d=0.0, L_q=0.0, L_ad=0.0, L_aq=0.0, L_f=0.0,
                      L_fkd=0.0, L_kd=0.0, L_kq=0.0)


def test_electrical_interface_345_triangle():
    # A, B chosen so the bus terms alone give v_d = 3, v_q = 4 at delta = 0
    p = MachineParams(A=4.0, B=3.0, r11=0.0, x11=0.0)
    _, v_d, v_q = dq_voltages(np.zeros(7), p)
    assert (v_d, v_q) == (3.0, 4.0)
    assert terminal_voltage(np.zeros(7), p) == 5.0


def test_electrical_interface_zero_voltage():
    p = MachineParams(A=0.0, B=0.0, v_inf=0.0)
    assert terminal_voltage(np.concatenate(([0.3, 0.0], np.zeros(5))), p) == 0.0


def test_equilibrium_terminal_voltage(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    assert abs(terminal_voltage(state, ref_params) - 1.1392) <= 1e-8


def test_derivatives_angle_rate_is_omega(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    for omega in (0.0, 0.37, -2.1):
        st = np.concatenate(([state[0], omega], state[2:]))
        assert derivatives(st, u_eq, ref_params)[0] == omega


def test_derivatives_torque_balance(ref_params, nominal_eq):
    # at equilibrium omega = 0 and P_e = P_m, so the acceleration vanishes
    state, u_eq = nominal_eq
    d = derivatives(state, u_eq, ref_params)
    assert abs(d[1]) <= 1e-9
    i, _, _ = dq_voltages(state, ref_params)
    assert abs(state[2] * i[1] - state[3] * i[0] - ref_params.P_m) <= 1e-8


def test_derivatives_vanish_at_equilibrium(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    assert np.max(np.abs(derivatives(state, u_eq, ref_params))) < 1e-9


def test_winding_power_balance(ref_params, nominal_eq):
    # An oracle independent of the kernel's operation order: it uses only L's symmetry
    # and the winding equations.  With i~ = (-i_d, -i_q, i_f, i_kd, i_kq), the power
    # stored in the windings' fields, i~ . dlam/dt / omega_b, is the air-gap power
    # less the terminal power and the copper losses, plus the field input i_f u; the
    # terminal power is the line loss plus the power into the bus.
    p = ref_params
    state, u_eq = nominal_eq
    r = np.array([p.r_s, p.r_s, p.r_f, p.r_kd, p.r_kq])
    rng = np.random.default_rng(2024)
    worst_windings = worst_terminal = 0.0
    for _ in range(1000):
        x = np.array(state) * (1.0 + 0.05 * rng.normal(size=7))
        x[0] += 0.3 * rng.normal()
        x[1] = rng.normal()
        u = u_eq + rng.uniform(-0.1, 0.1)
        i, v_d, v_q = dq_voltages(x, p)
        i = np.array(i)
        stored = np.array([-i[0], -i[1], i[2], i[3], i[4]]) * derivatives(x, u, p)[2:] / p.omega_b
        P_e = x[2] * i[1] - x[3] * i[0]
        p_t = v_d * i[0] + v_q * i[1]
        losses = r * i * i
        terms = np.concatenate((stored, [P_e, p_t, i[2] * u], losses))
        gap = stored.sum() - (P_e - p_t + i[2] * u - losses.sum())
        worst_windings = max(worst_windings, abs(gap) / np.abs(terms).sum())
        w_d = p.v_inf * (p.A * math.sin(x[0]) + p.B * math.cos(x[0]))
        w_q = -p.v_inf * (p.B * math.sin(x[0]) - p.A * math.cos(x[0]))
        terms = np.array([v_d * i[0], v_q * i[1], p.r11 * i[0] ** 2, p.r11 * i[1] ** 2,
                          w_d * i[0], w_q * i[1]])
        gap = terms[:2].sum() - terms[2:].sum()
        worst_terminal = max(worst_terminal, abs(gap) / np.abs(terms).sum())
    assert worst_windings <= 1e-13
    assert worst_terminal <= 1e-13


def test_rk4_fixed_point(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    stepped = rk4_step(state, u_eq, 5e-4, ref_params)
    assert np.max(np.abs(stepped - state)) <= 1e-12


def test_rk4_requires_positive_dt(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    with pytest.raises(ValueError):
        rk4_step(state, u_eq, 0.0, ref_params)


def integrate(state, u, h, t_total, params):
    for _ in range(int(round(t_total / h))):
        state = np.asarray(rk4_step(state, u, h, params))
    return state


def test_rk4_self_convergence_order(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    u = u_eq + 0.05
    x1 = integrate(state.copy(), u, 1e-3, 0.05, ref_params)
    x2 = integrate(state.copy(), u, 5e-4, 0.05, ref_params)
    x3 = integrate(state.copy(), u, 2.5e-4, 0.05, ref_params)
    order = math.log2(np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x3))
    assert order >= 3.5


def test_rk4_step_doubling(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    u = u_eq + 0.05
    single = rk4_step(state, u, 5e-4, ref_params)
    halved = rk4_step(rk4_step(state, u, 2.5e-4, ref_params), u, 2.5e-4, ref_params)
    diff_h = np.max(np.abs(np.subtract(single, halved)))
    assert diff_h <= 2e-7
    single2 = rk4_step(state, u, 2.5e-4, ref_params)
    halved2 = rk4_step(rk4_step(state, u, 1.25e-4, ref_params), u, 1.25e-4, ref_params)
    diff_h2 = np.max(np.abs(np.subtract(single2, halved2)))
    assert diff_h / diff_h2 >= 12.0  # local error drops at least ~order 3.5


def perturbed_operating_points(ref, n, seed):
    """Seeded machines and voltage targets spread around the reference."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        params = dataclasses.replace(
            ref, P_m=rng.uniform(0.05, 3.0), H=ref.H * rng.uniform(0.05, 5.0),
            D=rng.uniform(0.0, 0.1), r_s=ref.r_s * rng.uniform(0.2, 5.0),
            r11=ref.r11 * rng.uniform(0.2, 5.0), x11=ref.x11 * rng.uniform(0.2, 3.0),
            v_inf=rng.uniform(0.8, 1.2))
        rng.integers(2)  # an unused draw that keeps each seed's sequence of machines
        yield params, rng.uniform(0.8, 2.3)


def test_find_equilibrium_definitional(ref_params):
    cases = [(ref_params, 1.0), (ref_params, 1.5)]
    cases += perturbed_operating_points(ref_params, 40, seed=7)
    for k, (params, v_target) in enumerate(cases):
        try:
            state, u_eq = find_equilibrium(params, v_target)
        except machine.EquilibriumError:
            assert k >= 2, "the reference machine must reach 1.0 and 1.5 pu"
            continue
        resid = np.concatenate((derivatives(state, u_eq, params),
                                [terminal_voltage(state, params) - v_target]))
        assert np.max(np.abs(resid)) <= 1e-10
        assert state[1] == 0.0


def test_find_equilibrium_reports_failure(ref_params):
    for v_target, message in ((0.2, "no stable-branch equilibrium"),
                              (-1.0, "must be positive"), (0.0, "must be positive")):
        with pytest.raises(machine.EquilibriumError, match=message):
            find_equilibrium(ref_params, v_target)


def reference_steady(params, delta, v_target, branch):
    """Steady fluxes and field voltage at v_target by LAPACK solves of
    K lam = -(w(delta) + e3 u), K = (R + M) L^-1 + Z assembled here; None where
    the quadratic v_t(u)^2 = v_target^2 has no real root."""
    p = params
    L_inv = np.linalg.inv(inductance_matrix(p))
    RM = np.diag([p.r_s, p.r_s, -p.r_f, -p.r_kd, -p.r_kq])
    RM[0, :2] += [p.r11, -p.x11]
    RM[1, :2] += [p.x11, p.r11]
    K = RM @ L_inv
    K[0, 1] += 1.0
    K[1, 0] -= 1.0
    w_d = p.v_inf * (p.A * math.sin(delta) + p.B * math.cos(delta))
    w_q = -p.v_inf * (p.B * math.sin(delta) - p.A * math.cos(delta))

    def flux(u):
        return np.linalg.solve(K, -np.array([w_d, w_q, u, 0.0, 0.0]))

    def stator(lam):
        _, _, v_d, v_q = reference_kernel(p, L_inv, np.r_[delta, 0.0, lam], 0.0)
        return np.array([v_d, v_q])

    v0 = stator(flux(0.0))
    vu = stator(flux(1.0)) - v0
    a, b, c = vu @ vu, 2.0 * (v0 @ vu), v0 @ v0 - v_target**2
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    u = (-b + (1.0 if branch else -1.0) * math.sqrt(disc)) / (2.0 * a)
    return flux(u), u


def test_steady_kernel_vs_solve_oracle(ref_params):
    cases = [(dataclasses.replace(ref_params, **case), v_target)
             for case in ORACLE_MACHINES.values() for v_target in (0.3, 1.0, 1.1392, 2.0)]
    cases += perturbed_operating_points(ref_params, 40, seed=7)
    found = missing = 0
    for params, v_target in cases:
        steady = machine._assembled(params).steady
        for delta in np.linspace(0.02, 2.6, 27).tolist():
            for branch in (1, 0):
                point, expected = steady(delta, v_target, branch), reference_steady(
                    params, delta, v_target, branch)
                assert (point is None) == (expected is None), (params, delta, v_target, branch)
                if point is None:
                    missing += 1
                    continue
                found += 1
                P_e, x, u = point
                x = np.array(x)
                lam_ref, u_ref = expected
                scale = max(1.0, np.max(np.abs(x[2:])), abs(u))
                assert x[0] == delta and x[1] == 0.0
                assert np.max(np.abs(derivatives(x, u, params)[2:])) <= 1e-12 * params.omega_b * scale
                assert abs(terminal_voltage(x, params) - v_target) <= 1e-12 * v_target
                i = dq_currents(x[2:], params)
                assert P_e == x[2] * i[1] - x[3] * i[0]
                assert np.max(np.abs(x[2:] - lam_ref)) <= 1e-12 * scale
                assert abs(u - u_ref) <= 1e-12 * scale
    assert found > 2000 and missing > 100


def test_scan_moves_on_when_a_bisected_crossing_has_no_point(ref_params):
    # P_e = delta on both branches, but the overexcited branch has no point when
    # asked twice running at one angle, as happens once its bisection has
    # collapsed to one float: the scan must go on to the underexcited branch
    last = []

    def steady(delta, v_target, branch):
        repeated = last == [delta]
        last[:] = [delta]
        if branch == 1 and repeated:
            return None
        return delta, (delta, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), float(branch)

    params = SimpleNamespace(P_m=ref_params.P_m,
                             _plant=machine._Plant(None, None, None, None, steady))
    x, u = machine._coarse_equilibrium(params, 1.0)
    assert u == 0.0 and abs(x[0] - ref_params.P_m) <= 1e-12


def test_singular_steady_flux_matrix_still_integrates(ref_params, nominal_eq):
    params = dataclasses.replace(ref_params, r_f=0.0)  # L is regular, K has a zero row
    state, u_eq = nominal_eq
    assert np.all(np.isfinite(machine.advance(state, u_eq, 0.002, params)))
    with pytest.raises(machine.EquilibriumError, match="steady-flux matrix .* is singular"):
        find_equilibrium(params, 1.1392)


def test_linearize_angle_row(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    model = linearize(ref_params, state, u_eq)
    assert np.array_equal(model.a_mat[0], np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    assert model.a_mat.shape == (7, 7)
    assert model.b_vec.shape == (7, 1)
    assert model.c_vec.shape == (1, 7)


def test_linearize_rejects_non_equilibrium(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    bad = np.concatenate(([state[0] + 0.2, state[1]], state[2:]))
    with pytest.raises(ValueError):
        linearize(ref_params, bad, u_eq)


def test_linearize_accepts_any_state_sequence(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    zeros = [linearize(ref_params, x, u_eq).zeros for x in (tuple(state), list(state), state)]
    assert zeros[0] == zeros[1] == zeros[2]


def test_zeros_list_each_conjugate_pair_negative_imaginary_part_first(ref_params):
    for v_target in (1.0, 1.1392, 1.5, 2.0):
        zeros = linearize(ref_params, *find_equilibrium(ref_params, v_target)).zeros
        assert zeros == sorted(zeros, key=lambda z: z.real)
        pairs = [z for z in zeros if z.imag != 0.0]
        assert len(pairs) == 4
        for first, second in zip(pairs[::2], pairs[1::2]):
            assert first == second.conjugate() and first.imag < 0.0


def test_relative_degree_one(ref_params, nominal_eq):
    state, u_eq = nominal_eq
    model = linearize(ref_params, state, u_eq)
    assert abs(model.cb) > 1e-6


@pytest.mark.parametrize("v_target", [1.0, 1.1392, 1.5, 2.0])
def test_minimum_phase_and_open_loop_stability(ref_params, v_target):
    state, u_eq = find_equilibrium(ref_params, v_target)
    model = linearize(ref_params, state, u_eq)
    assert len(model.zeros) == 6
    assert all(z.real < 0 for z in model.zeros)
    if v_target == 1.1392:
        eigs = np.linalg.eigvals(model.a_mat)
        assert np.max(eigs.real) <= 0.0


def test_st1a_examples():
    assert st1a_control(1.0, 1.0) == 0.0
    assert abs(st1a_control(1.0, 1.1) - 0.00781) <= 1.5e-6
    assert abs(st1a_control(1.1, 1.0) + 0.00781) <= 1.5e-6


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-10, 10))
def test_st1a_is_linear(v_t, v_ref, alpha):
    lhs = st1a_control(alpha * v_t, alpha * v_ref)
    rhs = alpha * st1a_control(v_t, v_ref)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_machine_config_roundtrip(ref_params):
    loaded = load_machine_config(config_path("machine_ref.cfg"))
    assert loaded == ref_params


def test_machine_config_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    for key in ("frobnicator", "_hash"):  # the cached hash is not a config key
        bad.write_text(f"H = 9.5\n{key} = 1.0\n")
        with pytest.raises(ConfigError):
            load_machine_config(bad)


def test_machine_params_validation():
    with pytest.raises(ValueError):
        MachineParams(H=0.0)
    with pytest.raises(ValueError):
        MachineParams(omega_b=-1.0)
