import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smibctrl import cli, networks
from smibctrl.networks import (Dataset, Mlp, _forward_batch, _hidden, _jacobian_batch,
                               _jacobian_factors, lm_train, load_weights, mlp_forward, mse_cost,
                               predict_batch, save_weights, theta_flatten, theta_unflatten,
                               weight_jacobian)

from conftest import config_path, predict_one


def random_net(p=5, seed=0):
    return Mlp.random(p, rng=np.random.default_rng(seed))


def random_regressor(seed=0):
    return np.random.default_rng(seed).uniform(-1.5, 1.5, size=13)


def test_forward_bias_only():
    net = Mlp(np.zeros((5, 13)), np.zeros(5), np.zeros(5), 0.3)
    assert mlp_forward(net, np.ones(13)) == 0.3


def test_forward_single_neuron_zero():
    net = Mlp(np.zeros((1, 13)), np.zeros(1), np.ones(1), 0.0)
    assert mlp_forward(net, random_regressor()) == 0.0


def test_forward_single_neuron_tanh():
    # pre-activation sums to exactly 1
    w = np.zeros((1, 13))
    w[0, 0] = 0.5
    net = Mlp(w, np.array([0.5]), np.array([2.0]), 0.5)
    z = np.zeros(13)
    z[0] = 1.0
    assert mlp_forward(net, z) == pytest.approx(2.0 * math.tanh(1.0) + 0.5, abs=1e-12)
    assert mlp_forward(net, z) == pytest.approx(2.023188, abs=1e-6)


def test_forward_of_one_row_matches_the_batch_of_one(shipped_nets):
    # mlp_forward runs the batch kernel's hidden layer on the 1-D regressor and adds the
    # output bias in Python floats, bitwise the batch kernel on that 1-D regressor; its
    # matrix-vector product may round apart from the one-row matrix product, by an ulp at most
    rng = np.random.default_rng(27)
    Z = 1.1392 + rng.normal(size=(10_000, 13)) * rng.uniform(0.01, 2.0, size=(10_000, 1))
    for net in (*shipped_nets, random_net(p=9, seed=3)):
        single = np.array([mlp_forward(net, z) for z in Z])
        assert np.array_equal(single, [float(_forward_batch(net, z)) for z in Z])
        batch_of_one = np.array([_forward_batch(net, z[None])[0] for z in Z])
        np.testing.assert_array_max_ulp(single, batch_of_one, maxulp=1)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        mlp_forward(random_net(), np.ones(12))


def test_predict_affine_structure():
    f_net, g_net = random_net(seed=1), random_net(seed=2)
    z = random_regressor(3)
    assert predict_one(f_net, g_net, z, 0.0) == mlp_forward(f_net, z)
    zero_f = Mlp(np.zeros((5, 13)), np.zeros(5), np.zeros(5), 0.0)
    u = 0.37
    assert predict_one(zero_f, g_net, z, u) == mlp_forward(g_net, z) * u


def test_predict_matches_manual_expression():
    # straight-line re-evaluation with plain loops
    f_net, g_net = random_net(seed=4), random_net(seed=5)
    z = random_regressor(6)
    u = -0.21

    def manual(net):
        total = float(net.out_b)
        for i in range(net.n_hidden):
            pre = net.hidden_b[i]
            for j in range(13):
                pre += net.hidden_w[i, j] * z[j]
            total += net.out_w[i] * math.tanh(pre)
        return total

    expected = manual(f_net) + manual(g_net) * u
    assert predict_one(f_net, g_net, z, u) == pytest.approx(expected, abs=1e-14)


@given(st.floats(-2, 2), st.floats(-2, 2), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_predict_exactly_affine_in_u(u1, u2, seed):
    f_net, g_net = random_net(seed=seed), random_net(seed=seed + 1)
    z = random_regressor(seed)
    lhs = (predict_one(f_net, g_net, z, u1 + u2)
           - predict_one(f_net, g_net, z, u1)
           - predict_one(f_net, g_net, z, u2)
           + predict_one(f_net, g_net, z, 0.0))
    assert abs(lhs) <= 1e-14


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_forward_bounded_by_output_weights(seed):
    net = random_net(seed=seed)
    z = np.random.default_rng(seed).uniform(-50, 50, size=13)
    bound = np.sum(np.abs(net.out_w)) + abs(net.out_b)
    assert abs(mlp_forward(net, z)) <= bound + 1e-12


@given(st.integers(1, 8), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_theta_roundtrip(p, seed):
    rng = np.random.default_rng(seed)
    f_net, g_net = Mlp.random(p, rng=rng), Mlp.random(p, rng=rng)
    theta = theta_flatten(f_net, g_net)
    assert theta.shape == (2 * (p * 13 + 2 * p + 1),)
    f2, g2 = theta_unflatten(theta, p)
    assert np.array_equal(theta_flatten(f2, g2), theta)


def test_theta_unflatten_nets_are_views_of_theta():
    f_net, g_net = random_net(seed=41), random_net(seed=42)
    theta = theta_flatten(f_net, g_net)
    f2, g2 = theta_unflatten(theta, 5)
    z = random_regressor(43)
    before = predict_one(f2, g2, z, 0.3)
    theta += 0.25
    # every field, the 0-d output biases included, moved with theta
    assert np.array_equal(theta_flatten(f2, g2), theta)
    assert predict_one(f2, g2, z, 0.3) != before
    assert predict_one(f_net, g_net, z, 0.3) == before


def test_network_shape_is_checked():
    with pytest.raises(ValueError):
        Mlp(np.zeros((5, 12)), np.zeros(5), np.zeros(5), 0.0)
    with pytest.raises(ValueError):
        Mlp(np.zeros((5, 13)), np.zeros(5), np.zeros(5), np.zeros(1))
    with pytest.raises(ValueError):
        theta_unflatten(np.zeros(152), 4)


def test_unequal_hidden_sizes_rejected(tmp_path):
    f_net, g_net = random_net(p=5), random_net(p=4, seed=1)
    with pytest.raises(ValueError):
        lm_train(f_net, g_net, make_dataset(10))
    with pytest.raises(ValueError):
        save_weights(tmp_path / "nets.nwt", f_net, g_net)


def test_theta_default_length():
    f_net, g_net = random_net(), random_net(seed=1)
    assert theta_flatten(f_net, g_net).size == 152


def test_jacobian_trivial_components():
    f_net, g_net = random_net(seed=7), random_net(seed=8)
    z = random_regressor(9)
    u = 0.83
    jac = weight_jacobian(f_net, g_net, z, u)
    n_f = theta_flatten(f_net, g_net).size // 2
    assert jac[n_f - 1] == 1.0          # f-net output bias
    assert jac[2 * n_f - 1] == u        # g-net output bias scales with u


def fd_jacobian(f_net, g_net, z, u, h=1e-6):
    theta = theta_flatten(f_net, g_net)
    out = np.empty_like(theta)
    for k in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        fp = predict_one(*theta_unflatten(tp, f_net.n_hidden), z, u)
        fm = predict_one(*theta_unflatten(tm, f_net.n_hidden), z, u)
        out[k] = (fp - fm) / (2.0 * h)
    return out


def jacobian_rows(f_net, g_net, Z, U, out=None):
    """_jacobian_batch on the record-major regressors Z, its factors included; out,
    when given, is the parameter-major (n_theta, N) array."""
    factors = _jacobian_factors(f_net, g_net, U, (_hidden(f_net, Z), _hidden(g_net, Z)))
    return _jacobian_batch(factors, np.ascontiguousarray(Z.T),
                           out=None if out is None else out.reshape(2, -1, Z.shape[0]))


def test_jacobian_matches_finite_differences():
    # the controller's single-row weight_jacobian and LM's multi-row _jacobian_batch
    rng = np.random.default_rng(11)
    others = np.random.default_rng(12)
    worst = worst_single = 0.0
    for _ in range(10):
        f_net, g_net = Mlp.random(5, rng=rng), Mlp.random(5, rng=rng)
        z = rng.uniform(-1.5, 1.5, size=13)
        u = rng.uniform(-1.0, 1.0)
        analytic = weight_jacobian(f_net, g_net, z, u)
        numeric = fd_jacobian(f_net, g_net, z, u)
        worst = max(worst, np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric)))
        Z = np.vstack((others.uniform(-1.5, 1.5, size=13), z, others.uniform(-1.5, 1.5, size=13)))
        U = np.array([others.uniform(-1.0, 1.0), u, others.uniform(-1.0, 1.0)])
        for row, z_k, u_k in zip(jacobian_rows(f_net, g_net, Z, U), Z, U):
            numeric = fd_jacobian(f_net, g_net, z_k, u_k)
            worst = max(worst, np.max(np.abs(row - numeric)) / np.max(np.abs(numeric)))
            single = weight_jacobian(f_net, g_net, z_k, u_k)
            worst_single = max(worst_single, np.max(np.abs(row - single)) / np.max(np.abs(single)))
    assert worst <= 1e-6
    # one row goes through BLAS gemv, several through gemm: equal up to rounding
    assert worst_single <= 1e-14


def hstack_jacobian(f_net, g_net, Z, U):
    """The record-major Jacobian built block by block with np.hstack."""

    def block(net, scale):
        T = np.tanh(Z @ net.hidden_w.T + net.hidden_b)
        S = (1.0 - T * T) * net.out_w
        S *= scale[:, None]
        T *= scale[:, None]
        JW = (S[:, :, None] * Z[:, None, :]).reshape(Z.shape[0], -1)
        return np.hstack((JW, S, T, scale[:, None]))

    return np.hstack((block(f_net, np.ones(Z.shape[0])), block(g_net, U)))


@pytest.mark.parametrize("p", [1, 5])
@pytest.mark.parametrize("n", [1, 3, 257])
def test_jacobian_batch_matches_hstack_construction(p, n):
    rng = np.random.default_rng(100 * p + n)
    f_net, g_net = Mlp.random(p, rng=rng), Mlp.random(p, rng=rng)
    Z = rng.uniform(-1.5, 1.5, size=(n, 13))
    U = rng.uniform(-1.0, 1.0, size=n)
    expected = hstack_jacobian(f_net, g_net, Z, U)
    assert expected.shape == (n, 2 * (15 * p + 1))
    assert np.array_equal(jacobian_rows(f_net, g_net, Z, U), expected)
    out = np.full(expected.T.shape, np.nan)     # parameter-major: one row per weight
    jac = jacobian_rows(f_net, g_net, Z, U, out=out)
    assert jac.shape == expected.shape
    assert np.shares_memory(jac, out)
    assert np.array_equal(out, expected.T)
    assert np.array_equal(jac, expected)


@pytest.mark.parametrize("p", [1, 5])
def test_weight_jacobian_is_the_one_record_hstack_construction(p):
    # bitwise: the controller's Jacobian is the factors and their expansion of one record
    rng = np.random.default_rng(200 + p)
    for _ in range(5):
        f_net, g_net = Mlp.random(p, rng=rng), Mlp.random(p, rng=rng)
        z, u = rng.uniform(-1.5, 1.5, size=13), rng.uniform(-1.0, 1.0)
        expected = hstack_jacobian(f_net, g_net, z[None], np.array([u]))[0]
        assert np.array_equal(weight_jacobian(f_net, g_net, z, u), expected)


def make_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1, 1, size=(n, 13))
    u = rng.uniform(-1, 1, size=n)
    y = rng.uniform(-1, 1, size=n)
    return Dataset(z, u, y)


def test_mse_perfect_predictor():
    f_net, g_net = random_net(seed=1), random_net(seed=2)
    data = make_dataset(25, seed=3)
    y = predict_batch(f_net, g_net, data.z, data.u)
    assert mse_cost(f_net, g_net, Dataset(data.z, data.u, y)) == 0.0


def test_mse_single_record():
    f_net = Mlp(np.zeros((1, 13)), np.zeros(1), np.zeros(1), 0.0)
    g_net = Mlp(np.zeros((1, 13)), np.zeros(1), np.zeros(1), 0.0)
    data = Dataset(np.zeros((1, 13)), np.zeros(1), np.array([0.2]))
    assert mse_cost(f_net, g_net, data) == pytest.approx(0.02, abs=1e-15)


def test_mse_matches_naive_loop():
    f_net, g_net = random_net(seed=4), random_net(seed=5)
    data = make_dataset(31, seed=6)
    total = 0.0
    for k in range(len(data)):
        total += (data.y_next[k] - predict_one(f_net, g_net, data.z[k], data.u[k])) ** 2
    assert mse_cost(f_net, g_net, data) == pytest.approx(total / (2 * len(data)), abs=1e-14)


def test_mse_empty_dataset_rejected():
    f_net, g_net = random_net(), random_net(seed=1)
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 13)), np.zeros(0), np.zeros(0))
        mse_cost(f_net, g_net, Dataset(np.zeros((0, 13)), np.zeros(0), np.zeros(0)))


def test_lm_zero_residual_returns_immediately():
    f_net, g_net = random_net(seed=1), random_net(seed=2)
    data = make_dataset(20, seed=3)
    y = predict_batch(f_net, g_net, data.z, data.u)
    perfect = Dataset(data.z, data.u, y)
    f2, g2, state = lm_train(f_net, g_net, perfect, max_iter=10)
    assert state.cost_history[0] == 0.0
    assert np.array_equal(theta_flatten(f2, g2), theta_flatten(f_net, g_net))


def test_lm_matches_least_squares_on_linear_subproblem():
    # targets generated by a linear readout of fixed tanh features; the
    # least-squares fit through those features is the independent oracle
    rng = np.random.default_rng(12)
    f_net, g_net = Mlp.random(4, rng=rng), Mlp.random(4, rng=rng)
    z = rng.uniform(-1, 1, size=(120, 13))
    u = rng.uniform(-1, 1, size=120)
    feats_f = np.tanh(z @ f_net.hidden_w.T + f_net.hidden_b)
    feats_g = np.tanh(z @ g_net.hidden_w.T + g_net.hidden_b)
    design = np.hstack([feats_f, np.ones((120, 1)), feats_g * u[:, None], u[:, None]])
    coef_true = rng.uniform(-1, 1, size=design.shape[1])
    y = design @ coef_true
    coef_ls, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred_ls = design @ coef_ls

    f_fit, g_fit, state = lm_train(f_net, g_net, Dataset(z, u, y), max_iter=100, cost_tol=1e-16)
    pred_lm = predict_batch(f_fit, g_fit, z, u)
    assert np.max(np.abs(pred_lm - pred_ls)) <= 1e-8


def test_lm_cost_history_non_increasing():
    f_net, g_net = random_net(seed=21), random_net(seed=22)
    data = make_dataset(60, seed=23)
    _, _, state = lm_train(f_net, g_net, data, max_iter=40)
    hist = state.cost_history
    assert all(b <= a + 1e-18 for a, b in zip(hist, hist[1:]))
    assert state.mu > 0


def _lm_case(case):
    if case == "zero residual":
        f_net, g_net = random_net(seed=1), random_net(seed=2)
        data = make_dataset(20, seed=3)
        data = Dataset(data.z, data.u, predict_batch(f_net, g_net, data.z, data.u))
        return lm_train(f_net, g_net, data, max_iter=10)[2], 0
    if case == "cost_tol":
        f_net, g_net = random_net(seed=21), random_net(seed=22)
        data = make_dataset(60, seed=23)
        tol = lm_train(f_net, g_net, data, max_iter=10)[2].cost_history[3]
        return lm_train(f_net, g_net, data, max_iter=10, cost_tol=tol)[2], 3
    if case == "damping saturation":
        # 10 records, 62 weights: the fit reaches rounding level, then no step is accepted
        rng = np.random.default_rng(1)
        state = lm_train(Mlp.random(2, rng=rng), Mlp.random(2, rng=rng), make_dataset(10, seed=2),
                         max_iter=500)[2]
        assert state.mu > 1e15 and state.cost_history[-1] == state.cost_history[-2]
        return state, None
    return lm_train(random_net(seed=21), random_net(seed=22), make_dataset(60, seed=23),
                    max_iter=5)[2], 5


@pytest.mark.parametrize("case", ["zero residual", "cost_tol", "damping saturation", "max_iter"])
def test_lm_iteration_counts_the_steps_taken(case):
    state, expected = _lm_case(case)
    assert len(state.cost_history) == state.iteration + 1
    if expected is not None:
        assert state.iteration == expected


def test_lm_validates_arguments():
    f_net, g_net = random_net(), random_net(seed=1)
    with pytest.raises(ValueError):
        lm_train(f_net, g_net, make_dataset(10), max_iter=0)


def lm_oracle(f_net, g_net, data, max_iter, cost_tol=0.0):
    """lm_train's loop with three forward passes per iteration: the residual
    from predict_batch, the Jacobian rows from _jacobian_batch on hidden
    layers computed afresh, and every trial's cost from mse_cost.  Returns
    theta, the cost history, the iteration count, each trial's cost and
    whether it was accepted, and the final damping."""
    p = f_net.n_hidden
    theta = theta_flatten(f_net, g_net)
    f_net, g_net = theta_unflatten(theta, p)
    mu, cost = networks.LM_MU0, mse_cost(f_net, g_net, data)
    history, trials, iteration = [cost], [], 0
    identity = np.eye(theta.size)
    for it in range(max_iter):
        if cost <= cost_tol:
            break
        iteration = it + 1
        e = predict_batch(f_net, g_net, data.z, data.u) - data.y_next
        jt = jacobian_rows(f_net, g_net, data.z, data.u).T
        jtj, jte = jt @ jt.T, jt @ e
        accepted = False
        for _ in range(60):
            trial = theta + np.linalg.solve(jtj + mu * identity, -jte)
            f_try, g_try = theta_unflatten(trial, p)
            trial_cost = mse_cost(f_try, g_try, data)
            accepted = bool(np.isfinite(trial_cost) and trial_cost < cost)
            trials.append((trial_cost, accepted))
            if accepted:
                theta, cost, f_net, g_net = trial, trial_cost, f_try, g_try
                mu = max(mu / 10.0, 1e-15)
                break
            mu *= 10.0
            if mu > 1e15:
                break
        history.append(cost)
        if not accepted:
            break
    return theta, history, iteration, trials, mu


@pytest.mark.parametrize("start", ["shipped weights", "seed 42"])
def test_lm_forward_is_mse_cost_and_predict_batch_at_full_size(start, shipped_nets):
    # bitwise, on all of train_ref.cfg's training records
    _, train, _ = cli._read_training_config(config_path("train_ref.cfg"))
    assert len(train) == 6992
    f_net, g_net = shipped_nets
    if start == "seed 42":   # the networks train starts from
        rng = np.random.default_rng(42)
        f_net, g_net = Mlp.random(5, rng=rng), Mlp.random(5, rng=rng)
    cost, residual, _ = networks._lm_forward(f_net, g_net, train)
    assert cost == mse_cost(f_net, g_net, train)
    assert np.array_equal(residual, train.y_next - predict_batch(f_net, g_net, train.z, train.u))


def _oracle_case(case):
    """(f_net, g_net, data, max_iter, cost_tol) for one oracle comparison."""
    if case == "damping saturation":   # as in _lm_case: no step is accepted at the end
        rng = np.random.default_rng(1)
        return Mlp.random(2, rng=rng), Mlp.random(2, rng=rng), make_dataset(10, seed=2), 500, 0.0
    if case == "cost_tol":
        f_net, g_net, data = random_net(seed=21), random_net(seed=22), make_dataset(60, seed=23)
        return f_net, g_net, data, 40, lm_oracle(f_net, g_net, data, 10)[1][4]
    p, n, seed = case
    rng = np.random.default_rng(seed)
    return Mlp.random(p, rng=rng), Mlp.random(p, rng=rng), make_dataset(n, seed=seed + 100), 40, 0.0


@pytest.mark.parametrize("case", [(1, 30, 0), (3, 80, 1), (5, 150, 2), (8, 200, 3),
                                  "cost_tol", "damping saturation"],
                         ids=lambda c: c if isinstance(c, str) else "p{} n{} seed{}".format(*c))
def test_lm_matches_the_three_forward_oracle(case, monkeypatch):
    f_net, g_net, data, max_iter, cost_tol = _oracle_case(case)
    theta, history, iteration, trials, mu = lm_oracle(f_net, g_net, data, max_iter, cost_tol)
    # every forward pass lm_train makes after its starting point's is a trial
    forwards = []
    real_forward = networks._lm_forward

    def spy(*args):
        result = real_forward(*args)
        forwards.append(result[0])
        return result

    monkeypatch.setattr(networks, "_lm_forward", spy)
    f_fit, g_fit, state = lm_train(f_net, g_net, data, max_iter=max_iter, cost_tol=cost_tol)
    costs = forwards[1:]
    # a trial is accepted when it lowers the cost; accepted costs make up the history
    accepted, current = [], state.cost_history[0]
    for c in costs:
        accepted.append(bool(np.isfinite(c) and c < current))
        current = c if accepted[-1] else current
    assert state.iteration == iteration
    assert accepted == [a for _, a in trials]
    assert 0 < accepted.count(False) and 0 < accepted.count(True)

    def rel(a, b):
        return np.max(np.abs(np.subtract(a, b))) / np.max(np.abs(b))

    assert rel(costs, [c for c, _ in trials]) <= 1e-12
    assert rel(state.cost_history, history) <= 1e-12
    assert rel(theta_flatten(f_fit, g_fit), theta) <= 1e-12
    assert state.mu == pytest.approx(mu, rel=1e-12)
    if case == "cost_tol":
        assert 0 < iteration < max_iter and history[-1] <= cost_tol < history[-2]
    if case == "damping saturation":
        assert mu > 1e15 and history[-1] == history[-2]


@pytest.mark.parametrize("n", [1, 2, 4095, 6992] + [k * networks.LM_BLOCK_RECORDS + d
                                                    for k, d in ((1, 0), (1, 1), (2, 0),
                                                                 (2, 1), (5, 3))])
def test_blocks_are_contiguous_near_equal_and_cover_the_records(n):
    blocks = networks._blocks(n)
    assert len(blocks) == math.ceil(n / networks.LM_BLOCK_RECORDS)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= networks.LM_BLOCK_RECORDS
    assert all(b.step is None for b in blocks)
    if n <= networks.LM_BLOCK_RECORDS:
        assert blocks == [slice(0, n)]


def blocked_case():
    """Networks and a dataset of two record blocks."""
    rng = np.random.default_rng(7)
    return (Mlp.random(3, rng=rng), Mlp.random(3, rng=rng),
            make_dataset(networks.LM_BLOCK_RECORDS + 1000, seed=8))


def test_lm_result_does_not_depend_on_the_worker_count(monkeypatch):
    f_net, g_net, data = blocked_case()
    assert len(networks._blocks(len(data))) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    f_one, g_one, one = lm_train(f_net, g_net, data, max_iter=6)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    f_two, g_two, two = lm_train(f_net, g_net, data, max_iter=6)
    assert np.array_equal(theta_flatten(f_two, g_two), theta_flatten(f_one, g_one))
    assert two.cost_history == one.cost_history and two.mu == one.mu
    assert two.iteration == 6


def test_more_block_workers_than_cores_lose_no_rows(monkeypatch):
    # four blocks, block 0 on the caller and three on workers, switching threads every
    # microsecond: each block's J_b'J_b and J_b'e_b land in its own buffers
    rng = np.random.default_rng(9)
    f_net, g_net = Mlp.random(2, rng=rng), Mlp.random(2, rng=rng)
    data = make_dataset(3 * networks.LM_BLOCK_RECORDS + 5, seed=10)
    assert len(networks._blocks(len(data))) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    f_one, g_one, one = lm_train(f_net, g_net, data, max_iter=4)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        f_fit, g_fit, state = lm_train(f_net, g_net, data, max_iter=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(theta_flatten(f_fit, g_fit), theta_flatten(f_one, g_one))
    assert state.cost_history == one.cost_history and state.iteration == 4
    assert state.cost_history[-1] == mse_cost(f_fit, g_fit, data)


def test_lm_fills_no_jacobian_wider_than_a_chunk(monkeypatch):
    # three blocks: every buffer lm_train fills holds at most LM_CHUNK_RECORDS records,
    # each block refills one buffer, and each iteration's chunks cover every record once
    rng = np.random.default_rng(13)
    f_net, g_net = Mlp.random(2, rng=rng), Mlp.random(2, rng=rng)
    data = make_dataset(2 * networks.LM_BLOCK_RECORDS + 5, seed=14)
    assert len(networks._blocks(len(data))) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fills, real_jacobian = [], networks._jacobian_batch

    def spy(factors, Zt, out=None):
        fills.append((factors.shape[-1], Zt.shape[1], out.shape[-1],
                      out.__array_interface__["data"][0]))
        return real_jacobian(factors, Zt, out=out)

    monkeypatch.setattr(networks, "_jacobian_batch", spy)
    lm_train(f_net, g_net, data, max_iter=2)
    widths = [width for width, *_ in fills]
    assert all(width <= networks.LM_CHUNK_RECORDS for width in widths)
    assert all(width == zt_width == out_width for width, zt_width, out_width, _ in fills)
    assert sum(widths) == 2 * len(data)
    assert len({start for *_, start in fills}) == 3


def test_block_normal_equations_over_chunks_match_the_one_shot_sums():
    # a block of three full chunks and a short one, not at the start of the records,
    # against J_b'J_b and J_b'e_b of the whole block at once; the buffers start as NaN,
    # so a factor or Jacobian row written to a copy of its buffer shows
    rng = np.random.default_rng(15)
    f_net, g_net = Mlp.random(5, rng=rng), Mlp.random(5, rng=rng)
    chunk = networks.LM_CHUNK_RECORDS
    data = make_dataset(4 * chunk, seed=16)
    rows = slice(37, 37 + 3 * chunk + 101)
    residual = rng.uniform(-1.0, 1.0, size=len(data))
    hidden = (_hidden(f_net, data.z), _hidden(g_net, data.z))
    n_theta = theta_flatten(f_net, g_net).size
    factors = np.full((2, 2 * 5 + 1, len(data)), np.nan)
    jt = np.full(n_theta * chunk, np.nan)
    jtj, jtr = np.full((n_theta, n_theta), np.nan), np.full(n_theta, np.nan)
    zt = np.full(13 * chunk, np.nan)
    result = networks._block_normal_equations(f_net, g_net, data, hidden, residual, factors,
                                              rows, zt, jt, jtj, jtr)
    assert result[0] is jtj and result[1] is jtr
    assert np.array_equal(factors[:, :, rows], _jacobian_factors(
        f_net, g_net, data.u[rows], (hidden[0][rows], hidden[1][rows])))
    J = hstack_jacobian(f_net, g_net, data.z[rows], data.u[rows])

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert rel(jtj, J.T @ J) <= 1e-13
    assert rel(jtr, J.T @ residual[rows]) <= 1e-13


def test_lm_first_step_solves_the_block_summed_normal_equations(monkeypatch):
    # the test-side oracle sums each chunk's J_c'J_c and J_c'e_c in chunk order within
    # a block, and each block's J_b'J_b and J_b'e_b in block order
    f_net, g_net, data = blocked_case()
    half, chunk = len(data) // 2, networks.LM_CHUNK_RECORDS
    assert networks._blocks(len(data)) == [slice(0, half), slice(half, len(data))]
    assert half > chunk and half % chunk   # several chunks per block, the last one short
    e = predict_batch(f_net, g_net, data.z, data.u) - data.y_next
    jtj, jte = 0.0, 0.0
    for start, stop in ((0, half), (half, len(data))):
        block_jtj, block_jte = 0.0, 0.0
        for lo in range(start, stop, chunk):
            rows = slice(lo, min(lo + chunk, stop))
            jt = jacobian_rows(f_net, g_net, data.z[rows], data.u[rows]).T
            block_jtj, block_jte = block_jtj + jt @ jt.T, block_jte + jt @ e[rows]
        jtj, jte = jtj + block_jtj, jte + block_jte
    theta = theta_flatten(f_net, g_net)
    expected = theta + np.linalg.solve(jtj + networks.LM_MU0 * np.eye(theta.size), -jte)

    trials, real_forward = [], networks._lm_forward

    def spy(*args):
        result = real_forward(*args)
        trials.append((theta_flatten(*args[:2]), result[0]))
        return result

    monkeypatch.setattr(networks, "_lm_forward", spy)
    f_fit, g_fit, state = lm_train(f_net, g_net, data, max_iter=1)
    first_trial, first_cost = trials[1]
    assert np.array_equal(first_trial, expected)
    # the trial's forward pass is one full batch: its cost is mse_cost's, bit for bit
    assert first_cost == mse_cost(*theta_unflatten(first_trial, f_net.n_hidden), data)
    assert state.cost_history[1] < state.cost_history[0]
    assert np.array_equal(theta_flatten(f_fit, g_fit), expected)


def test_block_workers_run_under_the_callers_errstate(monkeypatch):
    f_net, g_net, data = blocked_case()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seen, real_jacobian = [], networks._jacobian_batch

    def spy(*args, **kwargs):
        seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
        return real_jacobian(*args, **kwargs)

    monkeypatch.setattr(networks, "_jacobian_batch", spy)
    with np.errstate(over="ignore", divide="ignore"):
        caller = np.geterr()
        lm_train(f_net, g_net, data, max_iter=1)
    in_workers = [err for main, err in seen if not main]
    assert in_workers and all(err == caller for err in in_workers)
    assert caller != np.geterr()


def test_one_block_trains_on_the_calling_thread(monkeypatch):
    # a set of LM_BLOCK_RECORDS records is one block: no pool task, no worker thread
    rng = np.random.default_rng(11)
    f_net, g_net = Mlp.random(2, rng=rng), Mlp.random(2, rng=rng)
    data = make_dataset(networks.LM_BLOCK_RECORDS, seed=12)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    threads, real_jacobian = set(), networks._jacobian_batch

    def spy(*args, **kwargs):
        threads.add(threading.current_thread())
        return real_jacobian(*args, **kwargs)

    monkeypatch.setattr(networks, "_jacobian_batch", spy)
    lm_train(f_net, g_net, data, max_iter=2)
    assert threads == {threading.current_thread()}


def test_block_zero_runs_on_the_calling_thread(monkeypatch):
    # two blocks: block 0's Jacobian chunks fill on the caller, block 1's on the pool's
    # one worker; a set of one block submits no task and starts no thread
    f_net, g_net, data = blocked_case()
    blocks = networks._blocks(len(data))
    assert len(blocks) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    caller, threads = threading.current_thread(), threading.active_count()
    fills, real_jacobian = [], networks._jacobian_batch

    def spy(factors, Zt, *args, **kwargs):
        record = np.flatnonzero((data.z == Zt[:, 0]).all(axis=1))[0]   # the chunk's first
        block = next(b for b, rows in enumerate(blocks) if rows.start <= record < rows.stop)
        fills.append((block, threading.current_thread() is caller, threading.active_count()))
        return real_jacobian(factors, Zt, *args, **kwargs)

    def chunks(rows):
        return math.ceil((rows.stop - rows.start) / networks.LM_CHUNK_RECORDS)

    monkeypatch.setattr(networks, "_jacobian_batch", spy)
    lm_train(f_net, g_net, data, max_iter=2)
    assert sorted(fills) == ([(0, True, threads + 1)] * 2 * chunks(blocks[0])
                             + [(1, False, threads + 1)] * 2 * chunks(blocks[1]))

    data = make_dataset(networks.LM_BLOCK_RECORDS, seed=12)
    blocks, fills[:] = networks._blocks(len(data)), []
    lm_train(f_net, g_net, data, max_iter=2)
    assert fills == [(0, True, threads)] * 2 * chunks(blocks[0])


def test_training_error_closes_the_block_pool(monkeypatch):
    f_net, g_net, data = blocked_case()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    threads = threading.active_count()

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(networks.TrainingError, match="normal-equation solve failed"):
        lm_train(f_net, g_net, data, max_iter=3)
    assert threading.active_count() == threads


def test_weight_file_roundtrip(tmp_path):
    f_net, g_net = random_net(seed=31), random_net(seed=32)
    path = tmp_path / "nets.nwt"
    save_weights(path, f_net, g_net)
    first_line = path.read_text().splitlines()[0]
    assert first_line == "narx-v1 p=5 in=13"
    f2, g2 = load_weights(path)
    assert np.array_equal(theta_flatten(f2, g2), theta_flatten(f_net, g_net))


def test_interrupted_weight_write_leaves_the_file(tmp_path, monkeypatch):
    path = tmp_path / "nets.nwt"
    save_weights(path, random_net(seed=31), random_net(seed=32))
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_weights(path, random_net(seed=33), random_net(seed=34))
    assert path.read_bytes() == before


def test_weight_file_validates_length(tmp_path):
    f_net, g_net = random_net(seed=33), random_net(seed=34)
    path = tmp_path / "nets.nwt"
    save_weights(path, f_net, g_net)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError):
        load_weights(path)


def test_weight_file_rejects_other_formats(tmp_path):
    path = tmp_path / "nets.nwt"
    path.write_text("something-else p=5 in=13\n")
    with pytest.raises(ValueError):
        load_weights(path)
