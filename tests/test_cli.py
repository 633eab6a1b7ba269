import filecmp
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smibctrl import cli, identify, networks, scenarios
from smibctrl.blas import BLAS_THREAD_VARS
from smibctrl.cli import cli_dispatch
from smibctrl.machine import MachineParams
from smibctrl.scenarios import EVENT_ACTIONS

from conftest import config_path

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
PIPELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts",
                        "run_pipeline.py")


def write_small_identify(tmp_path, seed=3):
    cfg = tmp_path / "ident.cfg"
    cfg.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        "v_target = 1.1392\n"
        "n_samples = 400\n"
        "hold = 2\n"
        f"seed = {seed}\n"
    )
    return cfg


def write_small_train(tmp_path, dataset):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"dataset = {dataset}\n"
        "hidden = 4\n"
        "max_iter = 25\n"
        "seed = 17\n"
    )
    return cfg


def test_identify_then_train_then_validate(tmp_path, capsys):
    ident = write_small_identify(tmp_path)
    data = tmp_path / "data.csv"
    assert cli_dispatch(["identify", "--config", str(ident), "--out", str(data)]) == 0
    header = data.read_text().splitlines()[0]
    assert header == "k,u,y"

    train = write_small_train(tmp_path, data)
    weights = tmp_path / "w.nwt"
    assert cli_dispatch(["train", "--config", str(train), "--out", str(weights)]) == 0
    assert weights.exists()
    assert (tmp_path / "w_cost.csv").exists()

    err_csv = tmp_path / "errors.csv"
    assert cli_dispatch(["validate", "--config", str(train), "--weights", str(weights),
                         "--out", str(err_csv)]) == 0
    out = capsys.readouterr().out
    assert "relative err" in out and "deadzone" in out
    assert err_csv.read_text().splitlines()[0] == "k,error"


def test_validate_scores_the_holdout_its_train_config_keeps_out(tmp_path, capsys):
    weights = config_path("narx_ref.nwt")
    series = [cli._read_dataset_csv(config_path("dataset_dither.csv"))]
    for fraction in (0.5, 0.7):
        argv = _validate_on(tmp_path, f"train_fraction = {fraction}\n")
        assert cli_dispatch(argv + ["--out", str(tmp_path / "e.csv")]) == 0
        _, holdout = cli._split_datasets(series, fraction)
        expected = identify.cross_validate(*networks.load_weights(weights), holdout)
        assert str(expected) in capsys.readouterr().out
        errors = np.loadtxt(tmp_path / "e.csv", delimiter=",", skiprows=1, usecols=1)
        assert np.array_equal(errors, expected.errors)


def test_validate_config_with_a_weights_key_is_a_config_error(tmp_path, capsys):
    # the weights come from --weights; a config naming them is the retired validate format
    argv = _validate_on(tmp_path, f"weights = {config_path('narx_ref.nwt')}\n")
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'weights'" in err and len(err.splitlines()) == 1


def test_validate_without_weights_exits_2_before_any_work(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before --weights was checked")

    monkeypatch.setattr(cli, "_read_dataset_csv", must_not_run)
    monkeypatch.setattr(identify, "cross_validate", must_not_run)
    assert cli_dispatch(["validate", "--config", config_path("train_ref.cfg")]) == 2
    assert "--weights" in capsys.readouterr().err


def test_train_determinism(tmp_path):
    ident = write_small_identify(tmp_path)
    d1, d2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_dispatch(["identify", "--config", str(ident), "--out", str(d1)]) == 0
    assert cli_dispatch(["identify", "--config", str(ident), "--out", str(d2)]) == 0
    assert filecmp.cmp(d1, d2, shallow=False)

    train = write_small_train(tmp_path, d1)
    w1, w2 = tmp_path / "w1.nwt", tmp_path / "w2.nwt"
    assert cli_dispatch(["train", "--config", str(train), "--out", str(w1)]) == 0
    assert cli_dispatch(["train", "--config", str(train), "--out", str(w2)]) == 0
    assert filecmp.cmp(w1, w2, shallow=False)


def run_python(args, **blas_env):
    """stdout of a fresh interpreter on the in-tree package whose environment
    holds the BLAS thread variables in blas_env and no other."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env, PYTHONPATH=os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=300).stdout


def test_cli_weights_do_not_depend_on_the_blas_thread_variables(tmp_path):
    # the entry point pins BLAS to one thread before numpy loads, so an unpinned
    # shell trains the weights of a pinned one
    lines = []
    with open(config_path("train_ref.cfg"), encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            key, _, value = (part.strip() for part in line.partition("="))
            lines.append({"dataset": f"dataset = {config_path(value)}",
                          "max_iter": "max_iter = 3"}.get(key, line))
    cfg = tmp_path / "train.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert "max_iter = 3" in lines
    for name, blas_env in (("unset", {}), ("one", dict.fromkeys(BLAS_THREAD_VARS, "1"))):
        run_python(["-m", "smibctrl", "train", "--config", str(cfg),
                    "--out", str(tmp_path / f"{name}.nwt")], **blas_env)
    for suffix in (".nwt", "_cost.csv"):
        assert filecmp.cmp(tmp_path / f"unset{suffix}", tmp_path / f"one{suffix}", shallow=False)
    assert len((tmp_path / "one_cost.csv").read_text().splitlines()) == 1 + 4


def test_an_explicit_blas_thread_count_wins_over_the_entry_points_pin():
    # importing the entry point pins the unset variables and runs no command
    code = ("import os, smibctrl.__main__; "
            f"print(*(os.environ.get(var) for var in {BLAS_THREAD_VARS}))")
    assert run_python(["-c", code], OPENBLAS_NUM_THREADS="3").split() == ["3", "1", "1"]


def test_the_pipeline_script_pins_blas_before_numpy_loads():
    # loading scripts/run_pipeline.py runs no stage; a meta-path finder reads the
    # BLAS thread variables at the moment numpy is first imported
    code = "\n".join([
        "import importlib.util, os, sys",
        "seen = []",
        "class Watch:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name == 'numpy':",
        f"            seen.append([os.environ.get(var) for var in {BLAS_THREAD_VARS}])",
        "sys.meta_path.insert(0, Watch())",
        f"spec = importlib.util.spec_from_file_location('pipeline', {PIPELINE!r})",
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))",
        "print(*seen[0])",
    ])
    assert run_python(["-c", code]).split() == ["1", "1", "1"]
    assert run_python(["-c", code], MKL_NUM_THREADS="2").split() == ["1", "1", "2"]


def test_train_ref_retrains_the_committed_weights(tmp_path):
    # the benchmark's train gate: the shipped training config lands within 1e-7 of
    # narx_ref.nwt (2.5e-8, not bit for bit: the file was trained on datasets
    # recorded with LU solves and with J'J and J'e summed in another order) and
    # meets acceptance criterion 5 on the holdout halves
    out = tmp_path / "narx.nwt"
    assert cli_dispatch(["train", "--config", config_path("train_ref.cfg"),
                         "--out", str(out)]) == 0
    trained = networks.load_weights(out)
    ref = networks.theta_flatten(*networks.load_weights(config_path("narx_ref.nwt")))
    assert np.max(np.abs(networks.theta_flatten(*trained) - ref)) <= 1e-7
    costs = np.loadtxt(tmp_path / "narx_cost.csv", delimiter=",", skiprows=1)
    assert costs[-1, 1] <= 1e-4
    # the committed cost history of narx_ref.nwt: the same 151 costs, each within
    # 1e-5 relative (2.5e-7 at most, at iteration 9)
    ref_costs = np.loadtxt(config_path("narx_ref_cost.csv"), delimiter=",", skiprows=1)
    assert ref_costs.shape == costs.shape == (151, 2)
    assert np.array_equal(costs[:, 0], ref_costs[:, 0])
    assert np.max(np.abs(costs[:, 1] / ref_costs[:, 1] - 1.0)) <= 1e-5
    series = [cli._read_dataset_csv(config_path(name))
              for name in ("dataset_ref.csv", "dataset_dither.csv")]
    _, holdout = cli._split_datasets(series, 0.5)
    assert identify.cross_validate(*trained, holdout).relative_error_pct <= 5.0


def test_config_seed_sets_the_recording(tmp_path):
    d3, d99 = tmp_path / "a.csv", tmp_path / "b.csv"
    for seed, out in ((3, d3), (99, d99)):
        ident = write_small_identify(tmp_path, seed=seed)
        assert cli_dispatch(["identify", "--config", str(ident), "--out", str(out)]) == 0
    assert not filecmp.cmp(d3, d99, shallow=False)


@pytest.mark.parametrize("command", ["identify", "train"])
def test_seed_flag_is_a_usage_error(tmp_path, capsys, command):
    # the config's seed key is the one way to set a seed
    cfg = (write_small_identify(tmp_path) if command == "identify"
           else write_small_train(tmp_path, config_path("dataset_dither.csv")))
    out = tmp_path / "out"
    assert cli_dispatch([command, "--config", str(cfg), "--seed", "99", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_writes_trace_contract(tmp_path):
    scen = tmp_path / "s.cfg"
    scen.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        f"controller = {config_path('ctrl_st1a.cfg')}\n"
        "t_end = 0.2\n"
    )
    out = tmp_path / "t.csv"
    assert cli_dispatch(["simulate", "--config", str(scen), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,v_ref,v_t,v_f,delta,omega,e_star,adapted"
    assert len(lines) == 1 + 100


def test_minphase_default_grid(tmp_path, capsys):
    out = tmp_path / "zeros.csv"
    code = cli_dispatch(["minphase", "--config", config_path("minphase_ref.cfg"),
                         "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "v_target,cb,zero_re,zero_im"
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert set(np.unique(data[:, 0])) == {1.0, 1.1392, 1.5, 2.0}
    assert np.all(data[:, 2] < 0.0)


def test_compare_command(tmp_path, capsys):
    scen = tmp_path / "s.cfg"
    scen.write_text(
        f"machine = {config_path('machine_ref.cfg')}\n"
        f"controller = {config_path('ctrl_st1a.cfg')}\n"
        "t_end = 0.1\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_dispatch(["simulate", "--config", str(scen), "--out", str(a)]) == 0
    assert cli_dispatch(["simulate", "--config", str(scen), "--out", str(b)]) == 0
    diff = tmp_path / "d.csv"
    capsys.readouterr()
    assert cli_dispatch(["compare", str(a), str(b), "--out", str(diff)]) == 0
    out = capsys.readouterr().out
    assert "max |diff|" in out
    rows = len(a.read_text().splitlines()) - 1
    assert out.splitlines()[0] == f"{rows} common samples of {rows} and {rows} rows"
    body = diff.read_text().splitlines()
    assert body[0].startswith("t,d_")
    # a truncated copy shares a few samples and differs in none: the counts say so
    head = tmp_path / "head.csv"
    head.write_text("".join(b.read_text().splitlines(keepends=True)[:6]))
    assert cli_dispatch(["compare", str(a), str(head)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"5 common samples of {rows} and 5 rows"


def test_unknown_subcommand_exits_2(capsys):
    assert cli_dispatch(["explode"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert cli_dispatch(["simulate", "--config", "x", "--frobnicate"]) == 2


def test_compare_takes_no_config(capsys):
    traces = [os.path.join(os.path.dirname(__file__), os.pardir, "results",
                           f"pss_step_nu{nu}.csv") for nu in (0, 3)]
    assert cli_dispatch(["compare", *traces]) == 0
    assert cli_dispatch(["compare", "--config", "/nonexistent/x.cfg", *traces]) == 2
    assert "--config" in capsys.readouterr().err


def test_missing_out_exits_2_before_any_work(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(identify, "excite_and_record", must_not_run)
    monkeypatch.setattr(networks, "lm_train", must_not_run)
    monkeypatch.setattr(scenarios, "run_scenario", must_not_run)
    for command, config in (("identify", "identify_ref.cfg"), ("train", "train_ref.cfg"),
                            ("simulate", "scen_step_nominal_neural.cfg")):
        assert cli_dispatch([command, "--config", config_path(config)]) == 2, command
        assert "--out" in capsys.readouterr().err, command


def test_every_command_but_compare_needs_a_config(tmp_path, capsys):
    out = tmp_path / "out.csv"
    for command in ("identify", "train", "validate", "minphase", "simulate"):
        assert cli_dispatch([command, "--out", str(out)]) == 2, command
        assert "--config" in capsys.readouterr().err, command
    assert not out.exists()


def test_out_in_a_missing_directory_is_an_io_error(tmp_path, capsys):
    argv = _simulate(tmp_path, "t_end = 0.02\n")
    argv[-1] = str(tmp_path / "missing" / "t.csv")
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and len(err.splitlines()) == 1


def test_decreasing_event_times_are_a_config_error(tmp_path, capsys):
    argv = _simulate(tmp_path, "t_end = 0.1\nevent = 0.05 set_vref 1.2\n"
                               "event = 0.01 set_vref 1.1\n", config_path("ctrl_st1a.cfg"))
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err == "config error: event times must be non-decreasing\n"


def test_config_error_exits_2(tmp_path, capsys):
    scen = tmp_path / "s.cfg"
    scen.write_text("not a scenario\n")
    assert cli_dispatch(["simulate", "--config", str(scen), "--out",
                         str(tmp_path / "t.csv")]) == 2
    assert cli_dispatch(["simulate", "--config", str(tmp_path / "missing.cfg"),
                         "--out", str(tmp_path / "t.csv")]) == 2


def _simulate(tmp_path, scenario_lines, controller=config_path("ctrl_none.cfg"),
              machine_cfg=config_path("machine_ref.cfg")):
    scen = tmp_path / "s.cfg"
    scen.write_text(f"machine = {machine_cfg}\ncontroller = {controller}\n{scenario_lines}")
    return ["simulate", "--config", str(scen), "--out", str(tmp_path / "t.csv")]


def _controller(tmp_path, neural_lines):
    ctrl = tmp_path / "c.cfg"
    ctrl.write_text(f"controller = neural\nweights = {config_path('narx_ref.nwt')}\n"
                    + neural_lines)
    return ctrl


def _machine(tmp_path, machine_lines):
    machine_cfg = tmp_path / "m.cfg"
    machine_cfg.write_text(machine_lines)
    return machine_cfg


def _minphase(tmp_path, machine_lines):
    _machine(tmp_path, machine_lines)
    cfg = tmp_path / "mp.cfg"
    cfg.write_text("machine = m.cfg\nv_target = 1.1392\n")
    return ["minphase", "--config", str(cfg)]


NUMERICAL_FAILURES = {
    # no synchronized operating point this low
    "scenario v_ref 0.2": lambda tmp: _simulate(tmp, "t_end = 0.5\nv_ref = 0.2\n"),
    "scenario v_ref 1e200": lambda tmp: _simulate(tmp, "t_end = 0.1\nv_ref = 1e200\n"),
    "event set_vref 1e308": lambda tmp: _simulate(
        tmp, "t_end = 0.1\nevent = 0.05 set_vref 1e308\n", config_path("ctrl_st1a.cfg")),
    # loops that slip a pole before any event (|delta| reaches pi)
    "neural p 4 nu 0 slips": lambda tmp: _simulate(tmp, "t_end = 1.0\n", _controller(
        tmp, "p = 4\npole = 0.7\nnu = 0\nd0 = 1e-4\n")),
    "default controller nu 0 slips": lambda tmp: _simulate(tmp, "t_end = 0.2\n", _controller(
        tmp, "p = 7\npole = 0.7\nnu = 0\nd0 = 0.01\n")),
    "machine x11 1e308": lambda tmp: _minphase(tmp, "x11 = 1e308\n"),
    "machine D 1e308": lambda tmp: _minphase(tmp, "D = 1e308\n"),
    # r_f = 0 leaves L regular but the steady-flux matrix singular
    "simulate r_f 0": lambda tmp: _simulate(tmp, "t_end = 0.1\n",
                                            machine_cfg=_machine(tmp, "r_f = 0\n")),
    "identify r_f 0": lambda tmp: _identify_with(tmp, "n_samples = 100\n",
                                                 machine_cfg=_machine(tmp, "r_f = 0\n")),
    # predictions and costs that overflow on finite weights or data
    "validate weights 1e308": lambda tmp: _validate_with_weights(
        tmp, "narx-v1 p=1 in=13\n" + "1e308\n" * 32),
    "simulate weights 1e308": lambda tmp: _simulate_with_weights(
        tmp, "narx-v1 p=1 in=13\n" + "1e308\n" * 32),
    "train records 1e308": lambda tmp: _overflowing_dataset(tmp),
}


def test_numerical_failure_exits_3(tmp_path, capsys):
    for case, argv in NUMERICAL_FAILURES.items():
        assert cli_dispatch(argv(tmp_path)) == 3, case
        assert "numerical failure" in capsys.readouterr().err, case


@pytest.mark.parametrize("case", ["simulate r_f 0", "identify r_f 0"])
def test_singular_steady_flux_matrix_is_named(tmp_path, capsys, case):
    assert cli_dispatch(NUMERICAL_FAILURES[case](tmp_path)) == 3
    assert capsys.readouterr().err == ("numerical failure: the steady-flux matrix "
                                       "K = (R + M) L^-1 + Z is singular or not finite: "
                                       "no operating point\n")


@pytest.mark.parametrize("machine_line",
                         ["x11 = 1e308", "D = 1e308", "H = 5e-324", "r_kd = 1e200",
                          "L_f = 1e200"])
def test_minphase_overflow_is_one_clean_failure_line(tmp_path, capsys, machine_line):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_dispatch(_minphase(tmp_path, machine_line + "\n"))
    out, err = capsys.readouterr()
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure:")


@pytest.mark.parametrize("case", ["validate weights 1e308", "simulate weights 1e308",
                                  "train records 1e308"])
def test_network_overflow_is_one_clean_failure_line(tmp_path, capsys, case):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_dispatch(NUMERICAL_FAILURES[case](tmp_path))
    out, err = capsys.readouterr()
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure:")
    assert not (tmp_path / "w_cost.csv").exists()


def test_overflowing_g_hat_fails_at_the_operating_point(tmp_path, capsys):
    # the floor on |g_hat| would be inf, and the run would fail one instant later
    assert cli_dispatch(NUMERICAL_FAILURES["simulate weights 1e308"](tmp_path)) == 3
    assert capsys.readouterr().err == ("numerical failure: g_hat = inf at the operating point"
                                       " is not finite\n")


def test_subnormal_inductance_exits_2_without_a_warning(tmp_path, capsys):
    argv = _minphase(tmp_path, "L_d = 0\nL_ad = 1e-320\nL_kd = 0\nL_aq = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # det L divides by zero on the subnormal entries
        code = cli_dispatch(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "det L" in err and len(err.splitlines()) == 1


TRACE_HEADER = "t,v_ref,v_t,v_f,delta,omega,e_star,adapted\n"


def _simulate_with_controller(tmp_path, ctrl_text):
    ctrl = tmp_path / "c.cfg"
    ctrl.write_text(ctrl_text)
    return _simulate(tmp_path, "t_end = 0.1\n", ctrl)


def _validate_with_weights(tmp_path, weights_text):
    weights = tmp_path / "w.nwt"
    weights.write_text(weights_text)
    return _validate_on(tmp_path, "", weights)


def _validate_on(tmp_path, extra, weights=config_path("narx_ref.nwt")):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"dataset = {config_path('dataset_dither.csv')}\n{extra}")
    return ["validate", "--config", str(cfg), "--weights", str(weights)]


def _simulate_with_weights(tmp_path, weights_text):
    weights = tmp_path / "w.nwt"
    weights.write_text(weights_text)
    return _simulate_with_controller(tmp_path, f"controller = neural\nweights = {weights}\n")


def _train_on(tmp_path, extra, dataset=None):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"dataset = {dataset or config_path('dataset_dither.csv')}\n{extra}")
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "w.nwt")]


def _compare_trace(tmp_path, body):
    trace = tmp_path / "a.csv"
    trace.write_text(TRACE_HEADER + body)
    return ["compare", str(trace), str(trace)]


def _identify_with(tmp_path, extra, machine_cfg=config_path("machine_ref.cfg")):
    cfg = tmp_path / "i.cfg"
    cfg.write_text(f"machine = {machine_cfg}\n{extra}")
    return ["identify", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]


def _bad_dataset(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("k,u,y\n0,0.1,1.1\n1,abc,1.1\n")
    return _train_on(tmp_path, "", dataset=data)


def _overflowing_dataset(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("k,u,y\n" + "".join(f"{k},1e308,1e308\n" for k in range(40)))
    return _train_on(tmp_path, "", dataset=data)


def _non_utf8_config(tmp_path):
    cfg = tmp_path / "i.cfg"
    cfg.write_bytes(b"hold = 2\n# \xff\n")
    return ["identify", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]


def _non_utf8_dataset(tmp_path):
    data = tmp_path / "d.csv"
    data.write_bytes(b"k,u,y\n0,0.1,1.1\xff\n")
    return _train_on(tmp_path, "", dataset=data)


def _non_utf8_weights(tmp_path):
    weights = tmp_path / "w.nwt"
    weights.write_bytes(b"narx-v1 p=0 in=13\n\xff\n0.0\n")
    return _validate_on(tmp_path, "", weights)


BAD_INPUTS = {
    "identify hold 0": lambda tmp: _identify_with(tmp, "hold = 0\n"),
    "identify seed -1": lambda tmp: _identify_with(tmp, "n_samples = 100\nseed = -1\n"),
    "identify dt underflow": lambda tmp: _identify_with(tmp, "n_samples = 100\ndt = 5e-324\n"),
    "identify u range overflow": lambda tmp: _identify_with(
        tmp, "n_samples = 100\nu_min = -1e308\nu_max = 1e308\n"),
    "train fraction 1.5": lambda tmp: _train_on(tmp, "train_fraction = 1.5\n"),
    "train max_iter 0": lambda tmp: _train_on(tmp, "max_iter = 0\n"),
    "train hidden 1e15 too big": lambda tmp: _train_on(tmp, f"hidden = {10**15}\n"),
    "controller d0 -1": lambda tmp: _simulate_with_controller(
        tmp, f"controller = neural\nweights = {config_path('narx_ref.nwt')}\nd0 = -1\n"),
    "controller g_min -1": lambda tmp: _simulate_with_controller(
        tmp, f"controller = neural\nweights = {config_path('narx_ref.nwt')}\ng_min = -1\n"),
    "controller p 1e9": lambda tmp: _simulate_with_controller(
        tmp, f"controller = neural\nweights = {config_path('narx_ref.nwt')}\np = 1000000000\n"),
    "scenario t_end -1": lambda tmp: _simulate(tmp, "t_end = -1\n"),
    "scenario dt underflow": lambda tmp: _simulate(tmp, "t_end = 5e-324\ndt_control = 5e-324\n"),
    "scenario scale_H 0": lambda tmp: _simulate(tmp, "t_end = 0.1\nevent = 0.05 scale_H 0\n"),
    "scenario t_end 1e12 too long": lambda tmp: _simulate(tmp, "t_end = 1e12\n"),
    "scenario t_end 1e20 too long": lambda tmp: _simulate(tmp, "t_end = 1e20\n"),
    "scenario t_end 1e200 too long": lambda tmp: _simulate(tmp, "t_end = 1e200\n"),
    "identify n_samples 1e15 too long": lambda tmp: _identify_with(
        tmp, "n_samples = 1000000000000000\n"),
    "identify n_samples 1e30 too long": lambda tmp: _identify_with(
        tmp, f"n_samples = {10**30}\n"),
    "scenario v_ref nan": lambda tmp: _simulate(tmp, "t_end = 0.1\nv_ref = nan\n"),
    "scenario v_ref inf": lambda tmp: _simulate(tmp, "t_end = 0.1\nv_ref = inf\n"),
    "scenario set_vref inf": lambda tmp: _simulate(
        tmp, "t_end = 0.1\nevent = 0.05 set_vref inf\n", config_path("ctrl_st1a.cfg")),
    "scenario scale_H inf": lambda tmp: _simulate(tmp, "t_end = 0.1\nevent = 0.05 scale_H inf\n"),
    "scenario scale_H underflow": lambda tmp: _simulate(
        tmp, "t_end = 0.1\nevent = 0.05 scale_H 5e-324\nevent = 0.05 scale_H 5e-324\n"),
    "scenario scale_H overflow": lambda tmp: _simulate(
        tmp, "t_end = 0.1\nevent = 0.05 scale_H 1e200\nevent = 0.05 scale_H 1e200\n"),
    "machine v_inf inf": lambda tmp: _minphase(tmp, "v_inf = inf\n"),
    "machine r11 inf": lambda tmp: _minphase(tmp, "r11 = inf\n"),
    "machine A inf": lambda tmp: _minphase(tmp, "A = inf\n"),
    "machine B nan": lambda tmp: _minphase(tmp, "B = nan\n"),
    "machine H inf": lambda tmp: _minphase(tmp, "H = inf\n"),
    "weight non-numeric": lambda tmp: _validate_with_weights(tmp, "narx-v1 p=0 in=13\n1.0\nabc\n"),
    "weight nan": lambda tmp: _validate_with_weights(tmp, "narx-v1 p=0 in=13\nnan\n0.0\n"),
    "weight in=2": lambda tmp: _validate_with_weights(
        tmp, "narx-v1 p=1 in=2\n" + "0.5\n" * 10),
    "config not UTF-8": _non_utf8_config,
    "dataset not UTF-8": _non_utf8_dataset,
    "weight not UTF-8": _non_utf8_weights,
    "dataset non-numeric": _bad_dataset,
    "trace non-numeric": lambda tmp: _compare_trace(tmp, "0,1,1,1,0,0,0,x\n"),
    "trace short row": lambda tmp: _compare_trace(tmp, "0,1,1\n"),
}


@pytest.mark.parametrize("hold", [10**18, 10**20])
def test_identify_hold_longer_than_the_record_is_one_level(tmp_path, hold):
    # one level held past the end of the record; nothing of size hold is allocated
    assert cli_dispatch(_identify_with(tmp_path, f"n_samples = 50\nhold = {hold}\n")) == 0
    u = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1, usecols=1)
    assert len(u) == 50 and np.all(u == u[0])


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, capsys, case):
    assert cli_dispatch(BAD_INPUTS[case](tmp_path)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("simulate", "adapt"), ("minphase", "speed_coupled_z"),
                                          ("train", "cost_tol")])
def test_retired_switch_is_a_config_error_naming_it(tmp_path, capsys, command, key):
    # no such switch exists: the deadzone gates adaptation, the stator has one
    # coupling, and training stops at max_iter, a zero cost or saturated damping
    if command == "simulate":
        weights = config_path("narx_ref.nwt")
        argv = _simulate_with_controller(
            tmp_path, f"controller = neural\nweights = {weights}\nadapt = false\n")
    elif command == "minphase":
        argv = _minphase(tmp_path, "speed_coupled_z = true\n")
    else:
        argv = _train_on(tmp_path, "cost_tol = 0.0\n")
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err and len(err.splitlines()) == 1


FUZZ_VALUES = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e200", "5e-324",
                               "2.2e-308", "0", "-1", "-0.5", "0.5", "2"])
MACHINE_KEYS = [f.name for f in fields(MachineParams) if f.type == "float"]
FUZZ_CONTROLLERS = ["ctrl_st1a.cfg", "ctrl_none.cfg", "ctrl_neural_default.cfg"]


def test_cli_exit_codes_under_fuzzed_numbers(tmp_path_factory):
    # t_end = 0.02 (ten control instants) caps the time of each simulate run
    tmp = tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.sampled_from(MACHINE_KEYS), FUZZ_VALUES, min_size=1, max_size=3))
    def minphase(machine_values):
        lines = "".join(f"{key} = {value}\n" for key, value in machine_values.items())
        assert cli_dispatch(_minphase(tmp, lines)) in (0, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FUZZ_CONTROLLERS), st.one_of(st.none(), FUZZ_VALUES),
           st.lists(st.tuples(st.sampled_from(EVENT_ACTIONS), FUZZ_VALUES), max_size=2))
    def simulate(controller, v_ref, events):
        lines = "t_end = 0.02\n" + (f"v_ref = {v_ref}\n" if v_ref is not None else "")
        lines += "".join(f"event = 0.01 {action} {value}\n" for action, value in events)
        assert cli_dispatch(_simulate(tmp, lines, config_path(controller))) in (0, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(-2, 1100), st.just(10**9)), FUZZ_VALUES, FUZZ_VALUES,
           FUZZ_VALUES)
    def controller(p, pole, nu, d0):
        ctrl = tmp / "c.cfg"
        ctrl.write_text(f"controller = neural\nweights = {config_path('narx_ref.nwt')}\n"
                        f"p = {p}\npole = {pole}\nnu = {nu}\nd0 = {d0}\n")
        assert cli_dispatch(_simulate(tmp, "t_end = 0.02\n", ctrl)) in (0, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.sampled_from(MACHINE_KEYS), FUZZ_VALUES, max_size=2),
           st.dictionaries(st.sampled_from(["dt", "u_min", "u_max"]), FUZZ_VALUES, max_size=3),
           st.one_of(FUZZ_VALUES, st.integers(-1, 50).map(str)))
    def identification(machine_values, plan_values, hold):
        (tmp / "m.cfg").write_text("".join(f"{k} = {v}\n" for k, v in machine_values.items()))
        cfg = tmp / "i.cfg"
        cfg.write_text("machine = m.cfg\nn_samples = 40\n" + f"hold = {hold}\n"
                       + "".join(f"{k} = {v}\n" for k, v in plan_values.items()))
        argv = ["identify", "--config", str(cfg), "--out", str(tmp / "d.csv")]
        assert cli_dispatch(argv) in (0, 2, 3)

    # hidden has no upper bound, so it stays small here; an omitted key takes
    # its default, so some examples get as far as the LM iterations
    @settings(max_examples=40, deadline=None)
    @given(st.integers(-2, 6), st.integers(-1, 3),
           st.dictionaries(st.sampled_from(["train_fraction", "seed"]), FUZZ_VALUES, max_size=2))
    def training(hidden, max_iter, values):
        argv = _train_on(tmp, f"hidden = {hidden}\nmax_iter = {max_iter}\n"
                              + "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert cli_dispatch(argv) in (0, 2, 3)

    @settings(max_examples=40, deadline=None)
    @given(FUZZ_VALUES)
    def validation(train_fraction):
        argv = _validate_on(tmp, f"train_fraction = {train_fraction}\n")
        assert cli_dispatch(argv) in (0, 2, 3)

    minphase()
    simulate()
    controller()
    identification()
    training()
    validation()
