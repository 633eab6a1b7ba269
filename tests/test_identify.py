import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smibctrl import machine
from smibctrl.cli import DATASET_COLUMNS
from smibctrl.configio import read_table
from smibctrl.identify import (ExcitationPlan, ValidationReport, build_regression_set,
                               cross_validate, excite_and_record, select_deadzone, split)
from smibctrl.machine import DivergenceError
from smibctrl.networks import Dataset, Mlp, lm_train, predict_batch

from conftest import PIPELINE, config_path, fail_advance_on_call, shipped_plan


def test_plan_validation():
    with pytest.raises(ValueError):
        ExcitationPlan(u_min=0.1, u_max=-0.1)
    with pytest.raises(ValueError):
        ExcitationPlan(n_samples=10)
    with pytest.raises(ValueError):
        ExcitationPlan(hold=0)


@pytest.fixture(scope="module")
def short_recording(ref_params):
    plan = ExcitationPlan(n_samples=400, seed=5)
    return excite_and_record(ref_params, plan)


def test_excitation_within_range(short_recording):
    u, y = short_recording
    assert len(u) == len(y) == 400
    assert np.all(u >= -0.1) and np.all(u <= 0.1)


def test_recording_steps_the_plant_on_python_floats(ref_params, monkeypatch):
    # the float kernel runs about three times slower on NumPy scalars, and the
    # state tuple it returns passes to the next micro-step without a copy
    seen, real = [], machine.rk4_step

    def spy(x, u, dt, params):
        seen.append((x, u))
        return real(x, u, dt, params)

    monkeypatch.setattr(machine, "rk4_step", spy)
    excite_and_record(ref_params, ExcitationPlan(n_samples=20, seed=5))
    assert len(seen) == machine.MICRO_STEPS * 19
    assert {type(u) for _, u in seen} == {float}
    assert {type(x) for x, _ in seen[1:]} == {tuple}
    assert all(machine._floats(x) is x for x, _ in seen[1:])


def test_excitation_deterministic(ref_params, short_recording):
    u1, y1 = short_recording
    u2, y2 = excite_and_record(ref_params, ExcitationPlan(n_samples=400, seed=5))
    assert np.array_equal(u1, u2) and np.array_equal(y1, y2)


@pytest.mark.parametrize("cfg", PIPELINE.DATASETS,
                         ids=lambda cfg: cfg.removeprefix("identify_").removesuffix(".cfg"))
def test_recording_reproduces_shipped_dataset(cfg):
    # every sample of a shipped plan against its committed dataset (identify_dither.cfg
    # holds each input for one sample)
    params, plan, v_target = shipped_plan(cfg)
    u, y = excite_and_record(params, plan, v_target)
    shipped = read_table(config_path(PIPELINE.DATASETS[cfg]), DATASET_COLUMNS, "dataset")
    assert len(u) == len(shipped) == plan.n_samples
    assert np.max(np.abs(u - shipped[:, 1])) <= PIPELINE.GATE
    assert np.max(np.abs(y - shipped[:, 2])) <= PIPELINE.GATE


def test_recording_takes_no_step_after_its_last_sample(ref_params, monkeypatch):
    # n samples need n - 1 periods; a failure in an n-th would discard a complete record
    plan = ExcitationPlan(n_samples=14, seed=5)
    u, y = excite_and_record(ref_params, plan)
    fail_advance_on_call(monkeypatch, plan.n_samples)
    u2, y2 = excite_and_record(ref_params, plan)
    assert np.array_equal(u, u2) and np.array_equal(y, y2)


def test_divergence_names_the_sample(ref_params, monkeypatch):
    fail_advance_on_call(monkeypatch, 5)
    with pytest.raises(DivergenceError, match="^simulation diverged at sample 4$"):
        excite_and_record(ref_params, ExcitationPlan(n_samples=14, seed=5))


def test_excitation_hold_pattern(short_recording):
    u, _ = short_recording
    levels = u.reshape(-1, 10)
    assert np.all(levels == levels[:, :1])


def test_zero_amplitude_stays_at_equilibrium(ref_params):
    plan = ExcitationPlan(n_samples=100, u_min=-1e-12, u_max=1e-12, seed=1)
    _, y = excite_and_record(ref_params, plan)
    assert np.max(np.abs(y - 1.1392)) <= 1e-9


def test_regression_set_boundary_count():
    u = np.arange(8.0)
    y = np.arange(8.0) + 100.0
    data = build_regression_set(u, y)
    assert len(data) == 1


def test_regression_set_count_formula():
    n = 10000
    rng = np.random.default_rng(0)
    data = build_regression_set(rng.normal(size=n), rng.normal(size=n))
    assert len(data) == 9993


def test_regression_set_indexing_oracle():
    # hand-checked contents of the first record of a ramp series
    u = np.arange(20.0)
    y = np.arange(20.0) + 100.0
    data = build_regression_set(u, y)
    z, u0, y_next = data.z[0], data.u[0], data.y_next[0]
    assert np.array_equal(z[:7], [106, 105, 104, 103, 102, 101, 100])
    assert np.array_equal(z[7:], [5, 4, 3, 2, 1, 0])
    assert u0 == 6.0
    assert y_next == 107.0
    # self-consistency: every stored slice matches the source series
    for k in range(len(data)):
        zk, uk, yk = data.z[k], data.u[k], data.y_next[k]
        assert np.array_equal(zk[:7], y[k + 6 :: -1][:7])
        assert np.array_equal(zk[7:], u[k + 5 :: -1][:6])
        assert yk == y[k + 7]
        assert uk == u[k + 6]


def test_regression_set_length_guard():
    with pytest.raises(ValueError):
        build_regression_set(np.zeros(7), np.zeros(7))
    with pytest.raises(ValueError):
        build_regression_set(np.zeros(9), np.zeros(8))


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, 13)), rng.normal(size=n), rng.normal(size=n))


def test_split_sizes():
    train, hold = split(make_dataset(100), 0.5)
    assert len(train) == 50 and len(hold) == 50
    train, hold = split(make_dataset(10), 0.9)
    assert len(train) == 9 and len(hold) == 1


def test_split_is_contiguous_partition():
    data = make_dataset(37)
    train, hold = split(data, 0.4)
    assert np.array_equal(np.vstack([train.z, hold.z]), data.z)
    assert np.array_equal(np.concatenate([train.u, hold.u]), data.u)
    assert np.array_equal(np.concatenate([train.y_next, hold.y_next]), data.y_next)


def test_split_rejects_degenerate():
    with pytest.raises(ValueError):
        split(make_dataset(10), 0.0)
    with pytest.raises(ValueError):
        split(make_dataset(3), 0.01)


def test_cross_validate_perfect_model():
    f_net, g_net = Mlp.random(3, rng=1), Mlp.random(3, rng=2)
    data = make_dataset(30, seed=3)
    y = predict_batch(f_net, g_net, data.z, data.u)
    report = cross_validate(f_net, g_net, Dataset(data.z, data.u, y))
    assert report.max_abs_error == 0.0
    assert report.relative_error_pct == 0.0


def test_cross_validate_ratio():
    report = ValidationReport(max_abs_error=0.06, max_abs_output=2.25,
                              relative_error_pct=100 * 0.06 / 2.25, errors=np.array([0.06]))
    assert report.relative_error_pct == pytest.approx(2.6667, abs=1e-3)
    # the quoted two-significant-figure reading of that ratio
    assert round(report.relative_error_pct, 1) == 2.7


def test_cross_validate_matches_scan():
    f_net, g_net = Mlp.random(4, rng=4), Mlp.random(4, rng=5)
    data = make_dataset(50, seed=6)
    report = cross_validate(f_net, g_net, data)
    errs = [predict_batch(f_net, g_net, data.z[k:k+1], data.u[k:k+1])[0] - data.y_next[k]
            for k in range(len(data))]
    assert report.max_abs_error == pytest.approx(max(abs(e) for e in errs), abs=1e-14)
    assert report.max_abs_output == pytest.approx(max(abs(v) for v in data.y_next), abs=1e-14)
    assert np.allclose(report.errors, errs, atol=1e-14)


def test_deadzone_selection_exact_one_sig_fig():
    report = ValidationReport(0.009, 1.0, 0.9, np.full(100, 0.009))
    assert select_deadzone(report) == pytest.approx(0.009, rel=1e-9)


def test_deadzone_selection_paper_like_profile():
    # bulk errors well below 0.01 with a brief excursion to 0.06
    rng = np.random.default_rng(2)
    bulk = np.abs(rng.normal(0.0, 0.004, size=970))
    excursion = np.linspace(0.02, 0.06, 30)
    errors = np.concatenate([bulk, excursion])
    report = ValidationReport(float(np.max(errors)), 2.25,
                              100 * float(np.max(errors)) / 2.25, errors)
    assert select_deadzone(report) == 0.01


def test_deadzone_floor():
    report = ValidationReport(0.0, 1.0, 0.0, np.zeros(50))
    assert select_deadzone(report) == 1e-6


@given(st.floats(1.0 + 1e-6, 50.0), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_deadzone_monotone_under_scaling(alpha, seed):
    rng = np.random.default_rng(seed)
    errors = np.abs(rng.normal(0.0, 0.01, size=64)) + 1e-5
    base = ValidationReport(errors.max(), 1.0, 100 * errors.max(), errors)
    scaled = ValidationReport(alpha * errors.max(), 1.0, 100 * alpha * errors.max(),
                              alpha * errors)
    assert select_deadzone(scaled) >= select_deadzone(base)


def test_training_error_bound_invariant(ref_params):
    # max holdout error on the training set is bounded via the final cost
    plan = ExcitationPlan(n_samples=700, seed=9)
    u, y = excite_and_record(ref_params, plan)
    data = build_regression_set(u, y)
    train, _ = split(data, 0.5)
    rng = np.random.default_rng(10)
    f_net, g_net, state = lm_train(Mlp.random(5, rng=rng), Mlp.random(5, rng=rng),
                                   train, max_iter=40)
    report = cross_validate(f_net, g_net, train)
    bound = np.sqrt(2 * len(train) * state.cost_history[-1])
    assert report.max_abs_error <= bound + 1e-12
