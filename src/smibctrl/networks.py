"""Two-network affine one-step-ahead plant model and its batch trainer.

The predictor is y_hat(k+1) = f(z) + g(z) u(k) where f and g are
single-hidden-layer tanh networks over the regressor
z = [y(k)..y(k-6), u(k-1)..u(k-6)].  Both networks are trained jointly by
damped Gauss-Newton (Levenberg-Marquardt) on the mean-square one-step
prediction error.
"""

from __future__ import annotations

import contextvars
import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .configio import ConfigError, write_table

N_LAGS_Y = 7
N_LAGS_U = 6
REGRESSOR_LEN = N_LAGS_Y + N_LAGS_U


class TrainingError(RuntimeError):
    """Levenberg-Marquardt inner solve failed."""


@dataclass
class Mlp:
    """One-hidden-layer tanh network with a linear output neuron.

    The four fields are arrays; theta_unflatten makes them views of one
    weight vector.
    """

    hidden_w: np.ndarray   # (p, REGRESSOR_LEN)
    hidden_b: np.ndarray   # (p,)
    out_w: np.ndarray      # (p,)
    out_b: np.ndarray      # ()

    def __post_init__(self):
        self.hidden_w = np.asarray(self.hidden_w, dtype=float)
        self.hidden_b = np.asarray(self.hidden_b, dtype=float)
        self.out_w = np.asarray(self.out_w, dtype=float)
        self.out_b = np.asarray(self.out_b, dtype=float)
        p = self.hidden_w.shape[0] if self.hidden_w.ndim else 0
        if (self.hidden_w.shape != (p, REGRESSOR_LEN) or self.hidden_b.shape != (p,)
                or self.out_w.shape != (p,) or self.out_b.shape != ()):
            raise ValueError("inconsistent network dimensions")

    @property
    def n_hidden(self) -> int:
        return self.hidden_w.shape[0]

    @classmethod
    def random(cls, n_hidden: int, rng=None) -> "Mlp":
        """Weights and biases uniform in [-0.5, 0.5]."""
        rng = np.random.default_rng(rng)
        return cls(
            hidden_w=rng.uniform(-0.5, 0.5, size=(n_hidden, REGRESSOR_LEN)),
            hidden_b=rng.uniform(-0.5, 0.5, size=n_hidden),
            out_w=rng.uniform(-0.5, 0.5, size=n_hidden),
            out_b=rng.uniform(-0.5, 0.5),
        )


def mlp_forward(net: Mlp, z) -> float:
    z = np.asarray(z, dtype=float)
    if z.shape != (REGRESSOR_LEN,):
        raise ValueError(f"regressor shape {z.shape} is not ({REGRESSOR_LEN},)")
    # _forward_batch on one row, with the output bias added in Python floats: the same
    # IEEE sum, without NumPy's scalar-plus-0-d-array dispatch
    return float(_hidden(net, z) @ net.out_w) + float(net.out_b)


# --- flat parameter vector ------------------------------------------------
#
# Layout: [f.hidden_w (row-major), f.hidden_b, f.out_w, f.out_b,
#          g.hidden_w (row-major), g.hidden_b, g.out_w, g.out_b]

def theta_flatten(f_net: Mlp, g_net: Mlp) -> np.ndarray:
    parts = []
    for net in (f_net, g_net):
        parts.extend((net.hidden_w.ravel(), net.hidden_b, net.out_w, net.out_b[None]))
    return np.concatenate(parts)


def theta_unflatten(theta, p: int):
    """The two networks of hidden size p, their fields views of theta (no copies).

    A theta that does not hold two networks of hidden size p is a ValueError.
    """
    theta = np.asarray(theta, dtype=float)
    w_end = p * REGRESSOR_LEN
    if theta.shape != (2 * (w_end + 2 * p + 1),):
        raise ValueError(f"theta shape {theta.shape} does not match two networks of p={p}")
    return tuple(Mlp(row[:w_end].reshape(p, REGRESSOR_LEN), row[w_end:w_end + p],
                     row[w_end + p:-1], row[-1:].reshape(()))
                 for row in theta.reshape(2, -1))


def weight_jacobian(f_net: Mlp, g_net: Mlp, z, u: float) -> np.ndarray:
    """Gradient of the one-step prediction w.r.t. the joint parameter vector."""
    z = np.asarray(z, dtype=float)
    if z.shape != (REGRESSOR_LEN,):
        raise ValueError("regressor length does not match the networks")
    factors = _jacobian_factors(f_net, g_net, np.array([float(u)]),
                                (_hidden(f_net, z[None]), _hidden(g_net, z[None])))
    return _jacobian_batch(factors, z[:, None])[0]


# --- dataset ----------------------------------------------------------------

@dataclass
class Dataset:
    """Training records: regressors (N, 13), inputs (N,) and targets (N,)."""

    z: np.ndarray
    u: np.ndarray
    y_next: np.ndarray

    def __post_init__(self):
        self.z = np.atleast_2d(np.asarray(self.z, dtype=float))
        self.u = np.asarray(self.u, dtype=float)
        self.y_next = np.asarray(self.y_next, dtype=float)
        n = self.z.shape[0]
        if self.u.shape != (n,) or self.y_next.shape != (n,):
            raise ValueError("dataset arrays have inconsistent lengths")
        if not (np.all(np.isfinite(self.z)) and np.all(np.isfinite(self.u))
                and np.all(np.isfinite(self.y_next))):
            raise ValueError("dataset contains non-finite values")

    def __len__(self) -> int:
        return self.z.shape[0]


def _hidden(net: Mlp, Z: np.ndarray) -> np.ndarray:
    """The tanh hidden layer over the regressors Z, one row per record: (N, p)."""
    return np.tanh(Z @ net.hidden_w.T + net.hidden_b)


def _forward_batch(net: Mlp, Z: np.ndarray) -> np.ndarray:
    return _hidden(net, Z) @ net.out_w + net.out_b


def predict_batch(f_net: Mlp, g_net: Mlp, Z: np.ndarray, U: np.ndarray) -> np.ndarray:
    return _forward_batch(f_net, Z) + _forward_batch(g_net, Z) * U


def mse_cost(f_net: Mlp, g_net: Mlp, data: Dataset) -> float:
    """Half mean-square one-step prediction error."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    e = data.y_next - predict_batch(f_net, g_net, data.z, data.u)
    return float(0.5 * np.mean(e * e))


def _jacobian_factors(f_net: Mlp, g_net: Mlp, U: np.ndarray, hidden,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Each network's Jacobian rows that no regressor enters, as a (2, 2p+1, N) array.

    Per network: the p rows of S = d(y_hat)/d(hidden bias), the p output-weight
    rows and the output-bias row, g's scaled by the inputs U.  hidden holds
    each network's _hidden of the N records; out, when given, is the result.
    """
    p = f_net.n_hidden
    factors = np.empty((2, 2 * p + 1, U.shape[0])) if out is None else out
    for net, H, scale, rows in ((f_net, hidden[0].T, None, factors[0]),
                                (g_net, hidden[1].T, U, factors[1])):
        S = rows[:p]
        np.multiply(1.0 - H * H, net.out_w[:, None], out=S)
        if scale is None:   # f's scale is 1: skipping x * 1.0 changes no bits
            rows[p:-1] = H
            rows[-1] = 1.0
        else:
            S *= scale
            np.multiply(H, scale, out=rows[p:-1])
            rows[-1] = scale
    return factors


def _jacobian_batch(factors: np.ndarray, Zt: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Rows of d(y_hat)/d(theta) for N records, as an (N, n_theta) array.

    factors is _jacobian_factors of the records and Zt holds their regressors
    as columns.  The entries live in one C-ordered (2, n_theta / 2, N) array,
    one row per weight, and the result is its (N, n_theta) transpose; out,
    when given, is that array.  A hidden-weight row is S_i z_a, both networks
    in one broadcast product.
    """
    _, q, N = factors.shape
    p = (q - 1) // 2
    w_end = p * REGRESSOR_LEN
    jt = np.empty((2, w_end + q, N)) if out is None else out
    np.multiply(factors[:, :p, None, :], Zt, out=jt[:, :w_end].reshape(2, p, REGRESSOR_LEN, N))
    jt[:, w_end:] = factors
    return jt.reshape(-1, N).T


def _lm_forward(f_net: Mlp, g_net: Mlp, data: Dataset):
    """One full-batch forward pass: (mse_cost, residual y - y_hat, hidden layers)."""
    hidden = (_hidden(f_net, data.z), _hidden(g_net, data.z))
    f, g = (H @ net.out_w + net.out_b for net, H in zip((f_net, g_net), hidden))
    e = data.y_next - (f + g * data.u)
    return float(0.5 * np.mean(e * e)), e, hidden


LM_MU0 = 1e-2   # initial Levenberg-Marquardt damping
LM_BLOCK_RECORDS = 4096   # most records in one of lm_train's record blocks
LM_CHUNK_RECORDS = 512    # most records in one Jacobian chunk of a block


def _blocks(n: int) -> list:
    """ceil(n / LM_BLOCK_RECORDS) contiguous slices of near-equal size covering [0, n)."""
    k = -(-n // LM_BLOCK_RECORDS)
    return [slice(n * b // k, n * (b + 1) // k) for b in range(k)]


def _run_blocks(pool, fn, per_block: list) -> list:
    """[fn(*args) for args in per_block], results in block order.

    The calling thread runs block 0 and pool the rest, each task in a copy
    of the caller's context: NumPy keeps errstate in a contextvar, which a
    new thread does not inherit.
    """
    tasks = [pool.submit(contextvars.copy_context().run, fn, *args) for args in per_block[1:]]
    return [fn(*per_block[0])] + [task.result() for task in tasks]


def _block_normal_equations(f_net: Mlp, g_net: Mlp, data: Dataset, hidden, residual,
                            factors, rows, zt, jt, jtj, jtr):
    """One record block's J_b'J_b and -J_b'e_b, written into jtj and jtr.

    The block first writes its records' _jacobian_factors into its columns
    of factors.  Its records then stream through jt, a buffer of n_theta *
    LM_CHUNK_RECORDS entries, in chunks of at most LM_CHUNK_RECORDS: each
    chunk's regressors are copied as columns into zt, a buffer of
    REGRESSOR_LEN * LM_CHUNK_RECORDS entries, its Jacobian J_c is filled
    from them and the factors, and J_c'J_c and J_c'e_c are added to the
    sums in chunk order, so a block of one chunk is summed as one.  hidden,
    residual and factors are full-length: rows picks the block's records.
    """
    _jacobian_factors(f_net, g_net, data.u[rows], (hidden[0][rows], hidden[1][rows]),
                      out=factors[:, :, rows])
    for start in range(rows.start, rows.stop, LM_CHUNK_RECORDS):
        chunk = slice(start, min(start + LM_CHUNK_RECORDS, rows.stop))
        n = chunk.stop - start
        zc = zt[:REGRESSOR_LEN * n].reshape(REGRESSOR_LEN, n)
        np.copyto(zc, data.z[chunk].T)
        jc = _jacobian_batch(factors[:, :, chunk], zc,
                             out=jt[:jtr.size * n].reshape(2, -1, n)).T
        if start == rows.start:
            np.matmul(jc, jc.T, out=jtj)
            np.matmul(jc, residual[chunk], out=jtr)
        else:
            jtj += jc @ jc.T
            jtr += jc @ residual[chunk]
    return jtj, jtr


@dataclass
class LmState:
    """Optimizer bookkeeping for one training run."""

    mu: float
    cost_history: list = field(default_factory=list)

    @property
    def iteration(self) -> int:
        """Passes that took a step or tried to."""
        return len(self.cost_history) - 1


def lm_train(f_net: Mlp, g_net: Mlp, data: Dataset, max_iter: int = 150,
             cost_tol: float = 0.0):
    """Joint batch training of both networks.

    Iterates theta <- theta + s with (J'J + mu I) s = -J'e over the whole
    batch, where e is the prediction error y_hat - y.  mu is divided by 10
    on an accepted step and multiplied by 10 while a trial step increases
    the cost; training stops once it passes 1e15.  Each trial is one
    full-batch forward pass on the calling thread, and the accepted
    trial's residual and hidden layers give the next iteration's J'e and J.
    J_b'J_b and J_b'e_b are formed per record block of _blocks(N), block 0
    on the calling thread and the rest on a pool, and summed in block
    order, so the weights do not depend on the worker count.  J is never
    held whole: each block computes its records' Jacobian factors once per
    iteration and streams its records through one Jacobian chunk of
    LM_CHUNK_RECORDS.
    Returns (f_net, g_net, LmState), the networks views of the final
    theta.  The accepted-step cost sequence is non-increasing, so a finite
    starting cost, which TrainingError enforces, stays finite.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    from concurrent.futures import ThreadPoolExecutor   # loaded only when a model trains

    p = f_net.n_hidden
    theta = theta_flatten(f_net, g_net)
    f_net, g_net = theta_unflatten(theta, p)   # unequal hidden sizes fail here
    state = LmState(mu=LM_MU0)
    with np.errstate(over="ignore", invalid="ignore"):
        cost = mse_cost(f_net, g_net, data)
    if not np.isfinite(cost):
        raise TrainingError(f"starting cost is not finite: {cost}")
    state.cost_history.append(cost)
    identity = np.eye(theta.size)
    blocks = _blocks(len(data))
    factors = np.empty((2, 2 * p + 1, len(data)))   # each block refills its columns
    # each block's chunk buffers for Z' and J', J_b'J_b and -J_b'e_b
    buffers = [(rows, np.empty(REGRESSOR_LEN * LM_CHUNK_RECORDS),
                np.empty(theta.size * LM_CHUNK_RECORDS), np.empty((theta.size, theta.size)),
                np.empty(theta.size)) for rows in blocks]

    # block 0 runs on this thread, so a one-block set never starts the pool's worker
    with ThreadPoolExecutor(max(1, min(len(blocks) - 1, os.cpu_count() or 1))) as pool:
        # the residual and hidden layers at theta, from the last accepted forward pass
        _, residual, hidden = _lm_forward(f_net, g_net, data)
        for _ in range(max_iter):
            if cost <= cost_tol:
                break
            parts = _run_blocks(pool, functools.partial(
                _block_normal_equations, f_net, g_net, data, hidden, residual, factors), buffers)
            jtj, jtr = parts[0]   # jtr = -J'e
            for block_jtj, block_jtr in parts[1:]:
                jtj += block_jtj
                jtr += block_jtr
            accepted = False
            while not accepted and state.mu <= 1e15:
                try:
                    step = np.linalg.solve(jtj + state.mu * identity, jtr)
                except np.linalg.LinAlgError as exc:
                    cond = np.linalg.cond(jtj + state.mu * identity)
                    raise TrainingError(
                        f"normal-equation solve failed at mu={state.mu:.3e}, cond~{cond:.3e}"
                    ) from exc
                trial = theta + step
                f_try, g_try = theta_unflatten(trial, p)
                trial_cost, trial_residual, trial_hidden = _lm_forward(f_try, g_try, data)
                if np.isfinite(trial_cost) and trial_cost < cost:
                    theta, cost = trial, trial_cost
                    f_net, g_net = f_try, g_try
                    residual, hidden = trial_residual, trial_hidden
                    state.mu = max(state.mu / 10.0, 1e-15)
                    accepted = True
                else:
                    state.mu *= 10.0
            state.cost_history.append(cost)
            if not accepted:
                break  # damping saturated: we are at a (numerical) minimum
    return f_net, g_net, state


# --- weight file ------------------------------------------------------------

WEIGHT_FORMAT = "narx-v1"


def save_weights(path, f_net: Mlp, g_net: Mlp) -> None:
    """Plain-text weight file: header then one value per line in flat order."""
    if f_net.n_hidden != g_net.n_hidden:
        raise ValueError("weight file format requires equally sized networks")
    write_table(path, (f"{WEIGHT_FORMAT} p={f_net.n_hidden} in={REGRESSOR_LEN}",),
                (theta_flatten(f_net, g_net),))


def load_weights(path):
    """Read a save_weights file; a malformed file or a non-finite weight is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            lines = [line for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    if len(header) != 3 or header[0] != WEIGHT_FORMAT:
        raise ConfigError(f"{path}: not a {WEIGHT_FORMAT} weight file")
    try:
        p = int(header[1].removeprefix("p="))
        n_in = int(header[2].removeprefix("in="))
        values = np.array([float(line) for line in lines])
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed weight file: {exc}") from exc
    if n_in != REGRESSOR_LEN:
        raise ConfigError(f"{path}: networks take in={REGRESSOR_LEN} regressor inputs, "
                          f"file has in={n_in}")
    expected = 2 * (p * n_in + 2 * p + 1)
    if p < 0 or len(values) != expected:
        raise ConfigError(f"{path}: expected {expected} values for p={p} in={n_in}, "
                          f"found {len(values)}")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: weight file holds a non-finite value")
    return theta_unflatten(values, p)
