"""Acceptance gate: one test per shipped criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Scenario-level checks use the committed reference weights; the
identification-quality check trains from scratch at desk scale.
"""

import filecmp
import os
import shutil
import time

import numpy as np
import pytest

from smibctrl import machine
from smibctrl.cli import cli_dispatch
from smibctrl.configio import read_table, write_table
from smibctrl.control import (ControllerState, NeuralPlantModel, control_step,
                              synthesize_poly)
from smibctrl.identify import (ExcitationPlan, build_regression_set, cross_validate,
                               excite_and_record, split)
from smibctrl.networks import Mlp, lm_train, theta_flatten, theta_unflatten, weight_jacobian
from smibctrl.scenarios import TRACE_COLUMNS, Trace, damping_metric, parse_scenario, run_scenario

from conftest import PIPELINE, config_path, predict_one
from test_scenarios import oracle_residuals, run_oracle_loop, synthetic_f, synthetic_g


def verdict(number, name, detail=""):
    print(f"ACCEPTANCE {number:02d} {name}: PASS {detail}")


@pytest.fixture(scope="module")
def scenario_trace():
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = run_scenario(parse_scenario(config_path(name)))
        return cache[name]

    return run


def rel_error_pct(trace, t_query):
    k = trace.at_time(t_query)
    return 100.0 * abs(trace.v_t[k] - trace.v_ref[k]) / trace.v_ref[k]


def test_criterion_01_pole_synthesis_matches_printed_expansion():
    printed = np.array([-4.9, 10.29, -12.005, 8.4035, -3.5295, 0.8235, -0.0824])
    placement = synthesize_poly([0.7] * 7)
    err = np.max(np.abs(np.array(placement.coeffs[::-1]) - printed))
    assert err < 5e-4
    synthesize_poly([0.7] * 7)  # warm
    t0 = time.perf_counter()
    synthesize_poly([0.7] * 7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3
    verdict(1, "pole synthesis", f"max coeff dev {err:.2e}, runtime {elapsed*1e6:.0f} us")


def test_criterion_02_weight_jacobian_vs_finite_differences():
    rng = np.random.default_rng(2024)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        f_net, g_net = Mlp.random(5, rng=rng), Mlp.random(5, rng=rng)
        z = rng.uniform(-1.5, 1.5, size=13)
        u = rng.uniform(-1.0, 1.0)
        analytic = weight_jacobian(f_net, g_net, z, u)
        theta = theta_flatten(f_net, g_net)
        numeric = np.empty_like(theta)
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            numeric[j] = (predict_one(*theta_unflatten(tp, 5), z, u)
                          - predict_one(*theta_unflatten(tm, 5), z, u)) / (2 * h)
        rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
        worst = max(worst, rel)
    assert worst <= 1e-6
    verdict(2, "weight jacobian", f"max relative error {worst:.2e} over 100 samples")


@pytest.mark.parametrize("p", [0, 1, 3, 7])
def test_criterion_03_exact_model_linear_loop(p):
    placement = synthesize_poly([0.7] * p)
    r = np.ones(500)
    r[:60] = 0.0
    r[350:] = 0.35
    y = run_oracle_loop(placement, synthetic_f, synthetic_g, r)
    residual = oracle_residuals(placement, r, y)
    assert residual <= 1e-12
    verdict(3, f"exact-model loop p={p}", f"max residual {residual:.2e} over 500 steps")


def test_criterion_04_deadzone_halts_adaptation(shipped_nets):
    f_net, g_net = shipped_nets
    model = NeuralPlantModel(f_net, g_net)
    d0 = 0.01
    ctrl = ControllerState.at_equilibrium(model, 1.1392, placement=synthesize_poly([0.7] * 7),
                                          nu=0.0, d0=d0)
    _, ctrl = control_step(ctrl, 1.1392, 1.1392, 0.0)
    theta0 = ctrl.model.theta.copy()
    for _ in range(1000):
        y_meas = ctrl.last_prediction + 0.5 * d0  # error inside the deadzone
        _, ctrl = control_step(ctrl, 1.1392, y_meas, 0.0)
        assert abs(ctrl.last_e_star) <= d0
    assert np.array_equal(ctrl.model.theta, theta0)
    verdict(4, "deadzone halting", "theta bitwise unchanged over 1000 steps")


def test_criterion_05_identification_quality(ref_params):
    t0 = time.perf_counter()
    plan = ExcitationPlan(n_samples=2000, seed=11)
    u, y = excite_and_record(ref_params, plan)
    data = build_regression_set(u, y)
    train, holdout = split(data, 0.5)
    rng = np.random.default_rng(42)
    f_net, g_net, state = lm_train(Mlp.random(5, rng=rng), Mlp.random(5, rng=rng),
                                   train, max_iter=150, cost_tol=0.0)
    final_cost = state.cost_history[-1]
    assert state.iteration <= 150
    assert final_cost <= 1e-4
    report = cross_validate(f_net, g_net, holdout)
    assert report.relative_error_pct <= 5.0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    verdict(5, "identification quality",
            f"cost {final_cost:.2e} after {state.iteration} iters, "
            f"cv {report.relative_error_pct:.2f}%, {elapsed:.1f} s")


def test_criterion_06_closed_loop_tracking(scenario_trace):
    neural = scenario_trace("scen_step_nominal_neural.cfg")
    st1a = scenario_trace("scen_step_nominal_st1a.cfg")
    t_eval = 2.0  # one second after the step
    err_neural = rel_error_pct(neural, t_eval)
    err_st1a = rel_error_pct(st1a, t_eval)
    assert err_neural <= 0.1
    assert 0.2 <= err_st1a <= 1.0
    assert err_neural < err_st1a
    verdict(6, "closed-loop tracking",
            f"neural {err_neural:.4f}% vs st1a {err_st1a:.3f}% at t = +1 s")


def test_criterion_07_pss_damping_ordering(scenario_trace):
    with_pss = scenario_trace("scen_pss_step.cfg")
    without = scenario_trace("scen_pss_step_nu0.cfg")
    m3 = damping_metric(with_pss, 2.0)
    m0 = damping_metric(without, 2.0)
    assert m3 > m0

    def peak_dev(trace):
        mask = trace.t >= 3.5  # past the forced first swing
        return float(np.max(np.abs(trace.delta[mask] - trace.delta[-1])))

    p3, p0 = peak_dev(with_pss), peak_dev(without)
    assert p3 < p0
    verdict(7, "stabilizer damping",
            f"metric {m3:.3f} > {m0:.3f}; peak dev {p3:.4f} < {p0:.4f}")


def test_criterion_08_minimum_phase_over_grid(tmp_path):
    out = tmp_path / "zeros.csv"
    code = cli_dispatch(["minphase", "--config", config_path("minphase_ref.cfg"),
                         "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    targets = set(np.unique(data[:, 0]))
    assert targets == {1.0, 1.1392, 1.5, 2.0}
    assert np.all(data[:, 2] < 0.0)          # every zero strictly in the LHP
    assert np.all(np.abs(data[:, 1]) > 1e-6)  # relative degree one everywhere
    worst = float(np.max(data[:, 2]))
    verdict(8, "minimum phase", f"worst zero real part {worst:.3f} over 4 points")


@pytest.mark.parametrize("scenario,label", [
    ("scen_h_drift.cfg", "inertia drift"),
    ("scen_pm_drop.cfg", "mechanical power drop"),
])
def test_criterion_09_robustness_recovery(scenario_trace, scenario, label):
    trace = scenario_trace(scenario)
    assert np.all(np.isfinite(trace.v_t)) and np.all(np.isfinite(trace.delta))
    settle = trace.t >= 4.0  # event at 1.0 s, three seconds later
    rel = np.abs(trace.v_t[settle] - trace.v_ref[settle]) / trace.v_ref[settle]
    assert np.max(rel) <= 0.01
    verdict(9, f"robustness ({label})", f"max error after recovery {100*np.max(rel):.4f}%")


def test_criterion_10_determinism(tmp_path):
    ident = tmp_path / "ident.cfg"
    ident.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        "n_samples = 600\nhold = 2\nseed = 3\n"
    )
    data = tmp_path / "d.csv"
    assert cli_dispatch(["identify", "--config", str(ident), "--out", str(data)]) == 0
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(f"dataset = {data}\nhidden = 5\nmax_iter = 40\nseed = 17\n")
    w1, w2 = tmp_path / "w1.nwt", tmp_path / "w2.nwt"
    assert cli_dispatch(["train", "--config", str(train_cfg), "--out", str(w1)]) == 0
    assert cli_dispatch(["train", "--config", str(train_cfg), "--out", str(w2)]) == 0
    assert filecmp.cmp(w1, w2, shallow=False)

    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    scen = config_path("scen_step_nominal_neural.cfg")
    assert cli_dispatch(["simulate", "--config", scen, "--out", str(t1)]) == 0
    assert cli_dispatch(["simulate", "--config", scen, "--out", str(t2)]) == 0
    assert filecmp.cmp(t1, t2, shallow=False)
    verdict(10, "determinism", "train and simulate outputs bitwise identical")


def test_shipped_result_traces_reproduced(scenario_trace):
    # the scenarios simulated above, against their committed results/*.csv
    for scenario, csv in PIPELINE.SCENARIOS.items():
        trace = scenario_trace(scenario)
        shipped = Trace.from_csv(os.path.join(PIPELINE.RESULTS, csv))
        assert len(trace) == len(shipped), csv
        worst = max(float(np.max(np.abs(getattr(trace, c) - getattr(shipped, c))))
                    for c in TRACE_COLUMNS)
        assert worst <= PIPELINE.GATE, f"{csv}: max |diff| {worst:.3e}"


def test_pipeline_writes_every_shipped_result():
    # scripts/run_pipeline.py regenerates results/: every gated trace and nothing else
    written = sorted([*PIPELINE.SCENARIOS.values(), PIPELINE.DIFF])
    assert sorted(os.listdir(PIPELINE.RESULTS)) == written


def test_pipeline_reads_every_committed_artifact_before_it_writes_one(tmp_path):
    # a truncated trace is named with the reader's message, not raised mid-run; the
    # other entries read as they are, and a file not there reads as None
    entries = {os.path.basename(entry[2]): entry for entry in PIPELINE.manifest()}
    _, _, trace, columns, kind = entries["big_swing.csv"]
    dataset = entries["dataset_dither.csv"]
    cut = tmp_path / "big_swing.csv"
    with open(trace, encoding="utf-8") as fh:
        cut.write_text(fh.read()[:20000])   # ends mid-row
    missing = str(tmp_path / "missing.csv")
    committed = PIPELINE.read_committed([("simulate", "cfg", str(cut), columns, kind), dataset,
                                         ("simulate", "cfg", missing, columns, kind)])
    assert list(committed) == [str(cut), dataset[2], missing]
    message = committed[str(cut)]
    assert isinstance(message, str)
    assert message.startswith(f"{cut}:") and "malformed trace row" in message
    assert np.array_equal(committed[dataset[2]], read_table(*dataset[2:]))
    assert committed[missing] is None


def test_pipeline_gate_fails_a_lost_row_and_a_moved_value(tmp_path):
    # each artifact read as the pipeline reads it, every column included
    tables = {os.path.basename(path): (path, columns, kind)
              for _, _, path, columns, kind in PIPELINE.manifest()}
    trace, columns, kind = tables["pss_step_nu3.csv"]
    head = tmp_path / "head.csv"
    with open(trace, encoding="utf-8") as fh:
        head.write_text("".join(fh.readlines()[:500]))  # the header and 499 of 4 000 rows
    full = read_table(trace, columns, kind)
    assert PIPELINE.table_gap(read_table(head, columns, kind), full) > PIPELINE.GATE

    dataset, columns, kind = tables["dataset_ref.csv"]
    committed = read_table(dataset, columns, kind)
    copy = tmp_path / "dataset_ref.csv"
    shutil.copyfile(dataset, copy)
    assert PIPELINE.table_gap(read_table(copy, columns, kind), committed) == 0.0
    moved = committed.copy()
    moved[1234, columns.index("y")] += 2e-10
    assert PIPELINE.table_gap(moved, committed) > PIPELINE.GATE


def test_pipeline_goes_through_the_list_when_a_command_fails(tmp_path, monkeypatch, capsys):
    # the failing entry counts over the gate, the entries after it still run, every line
    # is printed, and the studies and the retrain are skipped
    table = [np.arange(3.0)] * len(TRACE_COLUMNS)
    entries = [("simulate", f"{name}.cfg", str(tmp_path / f"{name}.csv"), TRACE_COLUMNS, "trace")
               for name in ("first", "bad", "last")]
    for entry in entries:
        write_table(entry[2], TRACE_COLUMNS, table)
    calls = []

    def cli_dispatch(argv):
        calls.append(argv)
        if argv[2] == "bad.cfg":
            return 2
        write_table(argv[4], TRACE_COLUMNS, table)
        return 0

    monkeypatch.chdir(tmp_path)   # main moves into configs/; this restores the directory
    monkeypatch.setattr(PIPELINE, "manifest", lambda: iter(entries))
    monkeypatch.setattr(PIPELINE, "cli_dispatch", cli_dispatch)
    with pytest.raises(SystemExit) as exit_info:
        PIPELINE.main()
    assert exit_info.value.code == 1
    assert [argv[2] for argv in calls] == ["first.cfg", "bad.cfg", "last.cfg"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("first.csv: max |new - old| = 0.000e+00, within the 1e-10 gate")
    assert lines[1].endswith("bad.csv: not regenerated, `simulate --config bad.cfg` exited 2, "
                             "OVER the 1e-10 gate")
    assert lines[2].endswith("last.csv: max |new - old| = 0.000e+00, within the 1e-10 gate")
    assert lines[3] == "1 command(s) failed: the studies and the retrain are skipped"
