import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from smibctrl import machine, scenarios
from smibctrl.configio import ConfigError
from smibctrl.control import ControllerState, control_step, synthesize_poly
from smibctrl.identify import ExcitationPlan, excite_and_record
from smibctrl.machine import SynchronismLost
from smibctrl.scenarios import (Event, Trace, UndefinedMetricError,
                                compare_traces, damping_metric,
                                TRACE_COLUMNS, load_controller_config, parse_scenario,
                                run_scenario)

from conftest import config_path, fail_advance_on_call, shipped_plan

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def synthetic_f(z):
    return 0.2 + 0.1 * np.tanh(z[0]) + 0.05 * z[1] - 0.03 * z[8]


def synthetic_g(z):
    return 1.0 + 0.25 * np.tanh(z[0] - 0.5 * z[2] + z[7])


def reference_series(n=500):
    r = np.ones(n)
    r[:50] = 0.0
    r[300:] = 0.4
    return r


def oracle_controller(placement, f, g):
    return ControllerState.at_equilibrium(SimpleNamespace(f=f, g=g), 0.0, placement=placement,
                                          nu=0.0, d0=math.inf)


def run_oracle_loop(placement, f, g, r_series, ctrl=None):
    """Outputs y(0) = 0, ..., y(n-1) of the loop closed around the plant
    y(k+1) = f(z) + g(z) u(k), with f and g known exactly to the controller."""
    if ctrl is None:
        ctrl = oracle_controller(placement, f, g)
    y = [0.0]
    for r in r_series[:-1]:
        u, ctrl = control_step(ctrl, r, y[-1], 0.0)
        z = ctrl.last_regressor
        y.append(f(z) + g(z) * u)
    return np.array(y)


def oracle_residuals(placement, r, y):
    """Per-step defect of the target difference equation y(k+1) = k1 r(k) - sum C_i y(k-i)."""
    res = []
    for k in range(len(y) - 1):
        acc = placement.k1 * r[k]
        for i in range(placement.p):
            if k - i < 0:
                past = 0.0
            else:
                past = y[k - i]
            acc -= placement.coeffs[placement.p - 1 - i] * past
        res.append(y[k + 1] - acc)
    return np.max(np.abs(res)) if res else 0.0


@pytest.mark.parametrize("p", [0, 1, 3, 7])
def test_oracle_loop_satisfies_difference_equation(p):
    placement = synthesize_poly([0.7] * p)
    r = reference_series()
    y = run_oracle_loop(placement, synthetic_f, synthetic_g, r)
    assert oracle_residuals(placement, r, y) <= 1e-12


@pytest.mark.parametrize("p", [0, 1, 3, 7])
def test_oracle_series_do_not_touch_the_floor(p):
    # synthetic_g lies in [0.75, 1.25], so the floor of a tenth of g(z_eq) = 1
    # never binds and the series are those of the old fixed floor 1e-9
    placement = synthesize_poly([0.7] * p)
    ctrl = oracle_controller(placement, synthetic_f, synthetic_g)
    assert ctrl.g_min == 0.1
    r = reference_series()
    y = run_oracle_loop(placement, synthetic_f, synthetic_g, r)
    y_old = run_oracle_loop(placement, synthetic_f, synthetic_g, r, ctrl._replace(g_min=1e-9))
    assert y_old.tobytes() == y.tobytes()


def test_oracle_loop_deadbeat_case():
    placement = synthesize_poly([])
    r = reference_series()
    y = run_oracle_loop(placement, synthetic_f, synthetic_g, r)
    assert np.max(np.abs(y[1:] - r[:-1])) <= 1e-13


def test_oracle_loop_first_order_geometric():
    placement = synthesize_poly([0.7])
    r = np.ones(100)
    y = run_oracle_loop(placement, synthetic_f, synthetic_g, r)
    expected = 1.0 - 0.7 ** np.arange(100)
    assert np.max(np.abs(y - expected)) <= 1e-12


def test_damping_metric_analytic_sinusoid():
    t = np.arange(0.0, 10.0, 0.002)
    delta = np.exp(-t) * np.cos(2 * np.pi * t)
    trace = Trace(t=t, v_ref=np.zeros_like(t), v_t=np.zeros_like(t),
                  v_f=np.zeros_like(t), delta=delta, omega=np.zeros_like(t),
                  e_star=np.zeros_like(t), adapted=np.zeros_like(t))
    metric = damping_metric(trace, 0.0)
    assert metric == pytest.approx(1.0, abs=0.02)


def test_damping_metric_undefined_for_constant():
    t = np.arange(0.0, 5.0, 0.002)
    trace = Trace(t=t, v_ref=np.zeros_like(t), v_t=np.zeros_like(t),
                  v_f=np.zeros_like(t), delta=np.full_like(t, 0.3),
                  omega=np.zeros_like(t), e_star=np.zeros_like(t),
                  adapted=np.zeros_like(t))
    with pytest.raises(UndefinedMetricError):
        damping_metric(trace, 0.0)


@pytest.mark.parametrize("where", [1000, -1])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_damping_metric_rejects_non_finite_angle(where, value):
    t = np.arange(0.0, 5.0, 0.002)
    delta = np.exp(-t) * np.cos(2 * np.pi * t)
    delta[where] = value
    trace = Trace(t=t, v_ref=np.zeros_like(t), v_t=np.zeros_like(t),
                  v_f=np.zeros_like(t), delta=delta, omega=np.zeros_like(t),
                  e_star=np.zeros_like(t), adapted=np.zeros_like(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UndefinedMetricError, match="not finite"):
            damping_metric(trace, 0.0)


def _probe(code, *args):
    """stdout of a fresh interpreter running code with the in-tree package."""
    paths = filter(None, [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip().splitlines()


SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_package_import_skips_scipy_signal():
    probe = ("import sys, smibctrl.cli, smibctrl.scenarios, smibctrl.identify, "
             f"smibctrl.networks, smibctrl.control; print({SCIPY_LOADED})")
    assert _probe(probe) == ["[]"]


def test_scipy_loads_only_for_linearize():
    probe = ("import sys, smibctrl.machine as m; p = m.MachineParams(); "
             "x, u = m.find_equilibrium(p, 1.1392); m.advance(x, u, 2e-3, p); "
             f"print({SCIPY_LOADED}); m.linearize(p, x, u); print('scipy.linalg' in sys.modules)")
    assert _probe(probe) == ["[]", "True"]


def test_scipy_loads_for_damping_metric():
    probe = ("import sys, smibctrl.scenarios as s; "
             f"print({SCIPY_LOADED}); s.damping_metric(s.Trace.from_csv(sys.argv[1]), 2.0); "
             "print('scipy.signal' in sys.modules)")
    trace = os.path.join(REPO, "results", "pss_step_nu3.csv")
    assert _probe(probe, trace) == ["[]", "True"]


@pytest.mark.parametrize("command", ["train", "validate", "compare", "identify", "simulate"])
def test_offline_commands_run_without_scipy(tmp_path, command):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text({
        "train": f"dataset = {config_path('dataset_ref.csv')}\n"
                 f"dataset = {config_path('dataset_dither.csv')}\nmax_iter = 2\n",
        "identify": f"machine = {config_path('machine_ref.cfg')}\nn_samples = 14\n",
        "simulate": f"machine = {config_path('machine_ref.cfg')}\n"
                    f"controller = {config_path('ctrl_st1a.cfg')}\n"
                    "t_end = 0.02\nevent = 0.01 set_vref 1.2\n",
    }.get(command, ""))
    argv = {"train": ["train", "--config", str(cfg), "--out", str(tmp_path / "w.nwt")],
            "validate": ["validate", "--config", config_path("train_ref.cfg"),
                         "--weights", config_path("narx_ref.nwt")],
            "compare": ["compare", os.path.join(REPO, "results", "pss_step_nu0.csv"),
                        os.path.join(REPO, "results", "pss_step_nu3.csv")],
            "identify": ["identify", "--config", str(cfg), "--out", str(tmp_path / "d.csv")],
            "simulate": ["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "trace.csv")]}[command]
    probe = ("import sys; from smibctrl.cli import cli_dispatch; "
             f"code = cli_dispatch(sys.argv[1:]); print(code, {SCIPY_LOADED})")
    assert _probe(probe, *argv)[-1] == "0 []"


def test_trace_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    n = 25
    trace = Trace(t=np.arange(n) * 0.002,
                  v_ref=rng.normal(size=n), v_t=rng.normal(size=n),
                  v_f=rng.normal(size=n), delta=rng.normal(size=n),
                  omega=rng.normal(size=n), e_star=rng.normal(size=n),
                  adapted=(rng.uniform(size=n) > 0.5).astype(float))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,v_ref,v_t,v_f,delta,omega,e_star,adapted"
    loaded = Trace.from_csv(path)
    for name in ("t", "v_ref", "v_t", "v_f", "delta", "omega", "e_star", "adapted"):
        assert np.array_equal(getattr(loaded, name), getattr(trace, name))


def test_scenario_parsing(tmp_path):
    scen = tmp_path / "s.cfg"
    scen.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        f"controller = {config_path('ctrl_none.cfg')}\n"
        "t_end = 0.1\n"
        "event = 0.05 set_vref 1.2\n"
    )
    cfg = parse_scenario(scen)
    assert cfg.t_end == 0.1
    assert cfg.events == [Event(0.05, "set_vref", 1.2)]


def test_scenario_validation(tmp_path):
    scen = tmp_path / "s.cfg"
    scen.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        f"controller = {config_path('ctrl_none.cfg')}\n"
        "t_end = 1.0\nbogus = 1\n"
    )
    with pytest.raises(ConfigError, match="unknown scenario config key 'bogus'"):
        parse_scenario(scen)
    scen.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        f"controller = {config_path('ctrl_none.cfg')}\n"
        "t_end = 1.0\nevent = 0.5 explode 2\n"
    )
    with pytest.raises(ConfigError, match="unknown event action 'explode'"):
        parse_scenario(scen)
    scen.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        f"controller = {config_path('ctrl_none.cfg')}\n"
        "t_end = 1.0\nevent = 2.0 set_vref 1.2\n"
    )
    with pytest.raises(ConfigError, match=r"event times must lie within \[0, 0\.998\]"):
        parse_scenario(scen)
    scen.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        f"controller = {config_path('ctrl_none.cfg')}\n"
        "t_end = 1.0\nevent = 1.0 set_vref 1.2\n"  # after the last instant, 0.998 s
    )
    with pytest.raises(ConfigError, match=r"event times must lie within \[0, 0\.998\]"):
        parse_scenario(scen)


def test_controller_config_parsing():
    cfg = load_controller_config(config_path("ctrl_neural_track.cfg"))
    assert cfg.kind == "neural"
    assert cfg.placement == synthesize_poly((0.7,))
    assert cfg.nu == 0.0 and cfg.d0 == 1e-4
    default = load_controller_config(config_path("ctrl_neural_default.cfg"))
    assert default.placement.p == 7 and default.placement == synthesize_poly((0.7,) * 7)


def test_controller_config_validation(tmp_path):
    bad = tmp_path / "c.cfg"
    bad.write_text("controller = magic\n")
    with pytest.raises(ConfigError):
        load_controller_config(bad)
    bad.write_text("controller = neural\np = 2\n")  # no weights
    with pytest.raises(ConfigError):
        load_controller_config(bad)
    bad.write_text("controller = none\nwhatever = 3\n")
    with pytest.raises(ConfigError):
        load_controller_config(bad)


def test_controller_config_pole_list_infers_order(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("controller = none\npole = 0.5\npole = 0.6\npole = 0.7\n")
    cfg = load_controller_config(cfg_file)
    assert cfg.placement.p == 3 and cfg.placement == synthesize_poly((0.5, 0.6, 0.7))


@pytest.mark.parametrize("pole,p", [(0.9, 13), (0.7, 22)])
def test_controller_config_rejects_ill_conditioned_poles(tmp_path, pole, p):
    # rounding in the expanded coefficients, up to 2 p eps (1 + pole)^p, exceeds
    # k1 = (1 - pole)^p: neither the stored roots nor the sign of k1 are known
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(f"controller = none\np = {p}\npole = {pole}\n")
    with pytest.raises(ConfigError, match="ill-conditioned"):
        load_controller_config(cfg_file)


@pytest.mark.parametrize("pole,p", [(0.9, 9), (0.7, 16), (0.95, 6)])
def test_controller_config_accepts_repeated_stable_poles(tmp_path, pole, p):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(f"controller = none\np = {p}\npole = {pole}\n")
    placement = load_controller_config(cfg_file).placement
    assert placement.p == p
    assert abs(placement.k1 - (1 - pole) ** p) <= 1e-2 * (1 - pole) ** p


def test_uncontrolled_plant_holds_equilibrium(tmp_path):
    scen = tmp_path / "s.cfg"
    scen.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        f"controller = {config_path('ctrl_none.cfg')}\n"
        "t_end = 5.0\nv_ref = 1.1392\n"
    )
    trace = run_scenario(parse_scenario(scen))
    assert np.max(np.abs(trace.v_t - trace.v_t[0])) <= 1e-6
    assert abs(trace.v_t[0] - 1.1392) <= 1e-8


def test_event_applies_at_first_sample_not_before(tmp_path):
    scen = tmp_path / "s.cfg"
    scen.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        f"controller = {config_path('ctrl_none.cfg')}\n"
        "t_end = 0.2\nv_ref = 1.1392\n"
        "event = 0.1 set_vref 1.25\n"
    )
    trace = run_scenario(parse_scenario(scen))
    k = int(round(0.1 / 0.002))
    assert np.all(trace.v_ref[:k] == 1.1392)
    assert np.all(trace.v_ref[k:] == 1.25)


def test_sampled_rows_are_the_trace_and_call_control_step_once_per_row(monkeypatch):
    cfg = parse_scenario(config_path("scen_pss_step.cfg"))
    k = 1050  # past the set_vref event at 2 s
    trace = run_scenario(cfg)
    expected = np.array([getattr(trace, c)[:k] for c in TRACE_COLUMNS]).T
    params = machine.load_machine_config(cfg.machine_path)
    x, u_eq = machine.find_equilibrium(params, cfg.v_ref)
    state, law = scenarios._control_law(load_controller_config(cfg.controller_path),
                                        machine.terminal_voltage(x, params))
    calls = []
    real_step = scenarios.control_step
    monkeypatch.setattr(scenarios, "control_step",
                        lambda *args: calls.append(args) or real_step(*args))
    loop = scenarios.sampled(params, x, u_eq, cfg.dt_control, cfg.n_steps, law, state,
                             cfg.v_ref, cfg.events)
    rows = np.array(list(itertools.islice(loop, k)))
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()
    assert len(calls) == k


def spy_on_sampled(monkeypatch):
    """Record each call of scenarios.sampled as the list of the rows it yields."""
    real, calls = scenarios.sampled, []

    def sampled(*args):
        calls.append([])
        for row in real(*args):
            calls[-1].append(row)
            yield row

    monkeypatch.setattr(scenarios, "sampled", sampled)
    return calls


def test_recording_and_control_step_the_plant_through_one_loop(ref_params, monkeypatch):
    calls = spy_on_sampled(monkeypatch)
    callers, real_advance = [], machine.advance
    monkeypatch.setattr(machine, "advance", lambda *args: callers.append(
        sys._getframe(1).f_code.co_name) or real_advance(*args))
    excite_and_record(ref_params, ExcitationPlan(n_samples=20, seed=5))
    assert [len(rows) for rows in calls] == [20]
    run_scenario(replace(parse_scenario(config_path("scen_step_nominal_st1a.cfg")),
                         t_end=0.02, events=[]))
    assert [len(rows) for rows in calls] == [20, 10]
    assert callers == ["sampled"] * (19 + 9)


def slipping_scenario(tmp_path):
    ctrl = tmp_path / "c.cfg"  # ctrl_neural_default.cfg with nu = 0
    ctrl.write_text(f"controller = neural\nweights = {config_path('narx_ref.nwt')}\n"
                    "p = 7\npole = 0.7\nnu = 0\nd0 = 0.01\n")
    scen = tmp_path / "s.cfg"
    scen.write_text(f"machine = {config_path('machine_ref.cfg')}\ncontroller = {ctrl}\n"
                    "t_end = 0.2\n")
    return parse_scenario(scen)


def test_recorder_steps_through_a_slip_and_the_runner_stops_at_it(tmp_path, monkeypatch):
    # ROADMAP item 18's order rule, until item 2 moves the slip check into the loop
    calls = spy_on_sampled(monkeypatch)
    excite_and_record(*shipped_plan("identify_ref.cfg"))
    slipped = [k for k, row in enumerate(calls[0]) if not abs(row[4]) < math.pi]
    assert len(calls[0]) == 10000 and slipped[0] == 290
    with pytest.raises(SynchronismLost):
        run_scenario(slipping_scenario(tmp_path))
    rows = calls[1]
    assert not abs(rows[-1][4]) < math.pi
    assert all(abs(row[4]) < math.pi for row in rows[:-1])


@pytest.mark.parametrize("kind", ["st1a", "none"])
def test_laws_without_a_model_return_the_state_they_were_given(kind):
    cfg = scenarios.ControllerConfig(kind=kind, placement=synthesize_poly([0.7]), nu=3.0,
                                     d0=0.01, weights_path=None)
    state0, law = scenarios._control_law(cfg, 1.1392)
    state = object()
    assert law(state, 1.2392, 1.1392, 1e-3)[3] is state
    assert law(state0, 1.2392, 1.1392, 1e-3)[3] is state0


def test_slipped_pole_raises_synchronism_lost(tmp_path):
    with pytest.raises(SynchronismLost, match="loss of synchronism at t = 0.1160 s"):
        run_scenario(slipping_scenario(tmp_path))


def test_shipped_scenarios_parse():
    for name in ("scen_step_nominal_neural.cfg", "scen_step_nominal_st1a.cfg",
                 "scen_step_far_neural.cfg", "scen_pss_step.cfg",
                 "scen_pss_step_nu0.cfg", "scen_big_swing.cfg", "scen_h_drift.cfg",
                 "scen_pm_drop.cfg", "scen_baseline_none.cfg"):
        cfg = parse_scenario(config_path(name))
        assert cfg.dt_control == 0.002


def test_far_point_step_tracks():
    trace = run_scenario(parse_scenario(config_path("scen_step_far_neural.cfg")))
    k = trace.at_time(2.0)
    assert abs(trace.v_t[k] - 2.1) / 2.1 <= 1e-3


def test_big_swing_completes_and_returns():
    trace = run_scenario(parse_scenario(config_path("scen_big_swing.cfg")))
    assert np.all(np.isfinite(trace.v_t))
    assert abs(trace.v_t[trace.at_time(2.5)] - 2.0) <= 0.01
    assert abs(trace.v_t[-1] - 1.1392) <= 0.005


def test_scenario_takes_no_step_after_its_last_instant(monkeypatch):
    # n instants need n - 1 periods; a failure in an n-th would discard a complete trace
    cfg = replace(parse_scenario(config_path("scen_step_nominal_st1a.cfg")),
                  t_end=0.02, events=[])
    trace = run_scenario(cfg)
    fail_advance_on_call(monkeypatch, cfg.n_steps)
    again = run_scenario(cfg)
    assert len(again) == cfg.n_steps == 10
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(again, name), getattr(trace, name)), name


def test_scenario_divergence_names_the_sample(monkeypatch):
    # the recorder's message (tests/test_identify.py), from the loop both share
    cfg = replace(parse_scenario(config_path("scen_step_nominal_st1a.cfg")),
                  t_end=0.02, events=[])
    fail_advance_on_call(monkeypatch, 5)
    with pytest.raises(machine.DivergenceError, match="^simulation diverged at sample 4$"):
        run_scenario(cfg)


def test_deadzone_above_every_error_freezes_a_shipped_scenario(tmp_path):
    # the deadzone alone gates adaptation: raising d0 past every prediction
    # error runs the shipped tracking study on frozen weights
    shipped = Trace.from_csv(os.path.join(REPO, "results", "step_nominal_neural.csv"))
    assert shipped.adapted.any()
    with open(config_path("ctrl_neural_track.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    frozen = text.replace("d0 = 0.0001\n", "d0 = 1e9\n").replace(
        "weights = narx_ref.nwt\n", f"weights = {config_path('narx_ref.nwt')}\n")
    assert frozen.count("1e9") == 1 and frozen.count(config_path("narx_ref.nwt")) == 1
    ctrl = tmp_path / "c.cfg"
    ctrl.write_text(frozen)
    cfg = replace(parse_scenario(config_path("scen_step_nominal_neural.cfg")),
                  controller_path=str(ctrl))
    out = tmp_path / "t.csv"
    run_scenario(cfg).to_csv(out)
    trace = Trace.from_csv(out)
    assert len(trace) == len(shipped)
    assert np.all(trace.adapted == 0.0) and np.any(trace.e_star != 0.0)


def test_compare_traces_alignment():
    n = 10
    t = np.arange(n) * 0.002
    mk = lambda off: Trace(t=t, v_ref=np.full(n, off), v_t=np.arange(n) + off,
                           v_f=np.zeros(n), delta=np.zeros(n), omega=np.zeros(n),
                           e_star=np.zeros(n), adapted=np.zeros(n))
    common, diffs, stats = compare_traces(mk(0.0), mk(1.0))
    assert len(common) == n
    assert np.allclose(diffs["v_t"], -1.0)
    assert stats["v_t"] == (1.0, 1.0)


def test_rk4_at_four_micro_steps_is_fourth_order(monkeypatch):
    # the conventional step study at M = 4, 8 and 16 RK4 steps per control period:
    # each halving of the step divides the error by 2**4
    cfg = parse_scenario(config_path("scen_step_nominal_st1a.cfg"))
    runs = []
    for m in (4, 8, 16):
        monkeypatch.setattr(machine, "MICRO_STEPS", m)
        runs.append(run_scenario(cfg))
    for name in ("v_t", "delta"):
        x4, x8, x16 = (getattr(trace, name) for trace in runs)
        order = math.log2(np.max(np.abs(x4 - x8)) / np.max(np.abs(x8 - x16)))
        assert order == pytest.approx(4.0, abs=0.5), name
