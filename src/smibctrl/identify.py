"""Open-loop excitation, regression-set assembly and model validation.

Identification data is collected by perturbing the field voltage around
its equilibrium value with a held uniform-random signal and sampling the
terminal voltage at the control rate: `scenarios.sampled` under a dither law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import machine, scenarios
from .configio import ConfigError
from .networks import Dataset, Mlp, N_LAGS_U, N_LAGS_Y, REGRESSOR_LEN, predict_batch


@dataclass(frozen=True)
class ExcitationPlan:
    """Held uniform-random perturbation of the field voltage."""

    n_samples: int = 10000
    dt: float = 0.002          # sample period, s
    u_min: float = -0.1        # perturbation range, pu
    u_max: float = 0.1
    hold: int = 10             # samples per random level
    seed: int = 0

    def __post_init__(self):
        if not self.u_min < self.u_max:
            raise ValueError("u_min must be below u_max")
        if not math.isfinite(self.u_max - self.u_min):  # rng.uniform overflows on the span
            raise ValueError(f"u_max - u_min must be finite, got {self.u_max - self.u_min}")
        if self.n_samples <= N_LAGS_Y + N_LAGS_U:
            raise ValueError("n_samples too small to form any regressor")
        if self.hold < 1:
            raise ValueError("hold must be at least 1")
        if not self.dt / machine.MICRO_STEPS > 0.0:  # dt = 5e-324 would give RK4 steps of 0.0
            raise ValueError(f"dt must be positive with dt / {machine.MICRO_STEPS} > 0,"
                             f" got {self.dt}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def excite_and_record(params: machine.MachineParams, plan: ExcitationPlan,
                      v_target: float = machine.V_NOMINAL):
    """Simulate the plant under the excitation plan.

    The simulation starts at the equilibrium for v_target; the recorded
    input series is the perturbation on the equilibrium field voltage and
    the output series is the terminal voltage, both sampled every plan.dt.
    Deterministic for a fixed seed.  The dither law's state is the sample index.
    """
    try:
        y_series = np.empty(plan.n_samples)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"a record of {plan.n_samples} samples does not fit in memory") from exc
    x, u_eq = machine.find_equilibrium(params, v_target)
    rng = np.random.default_rng(plan.seed)
    n_levels = -(-plan.n_samples // plan.hold)
    levels = rng.uniform(plan.u_min, plan.u_max, size=n_levels)
    u_series = levels[np.arange(plan.n_samples) // min(plan.hold, plan.n_samples)]
    dither = u_series.tolist()  # Python floats keep the plant kernel fast
    for k, row in enumerate(scenarios.sampled(
            params, x, u_eq, plan.dt, plan.n_samples,
            lambda i, v_ref, v_t, slip: (dither[i], 0.0, 0.0, i + 1), 0, v_target)):
        y_series[k] = row[2]
    return u_series, y_series


def build_regression_set(u_series, y_series) -> Dataset:
    """One record per admissible instant: z(k), u(k) and target y(k+1)."""
    u_series = np.asarray(u_series, dtype=float)
    y_series = np.asarray(y_series, dtype=float)
    N = len(y_series)
    if len(u_series) != N:
        raise ValueError("input and output series differ in length")
    if N <= N_LAGS_Y:
        raise ValueError(f"need more than {N_LAGS_Y} samples, got {N}")
    ks = np.arange(N_LAGS_Y - 1, N - 1)
    z = np.empty((len(ks), REGRESSOR_LEN))
    for j in range(N_LAGS_Y):
        z[:, j] = y_series[ks - j]
    for j in range(N_LAGS_U):
        z[:, N_LAGS_Y + j] = u_series[ks - 1 - j]
    return Dataset(z=z, u=u_series[ks], y_next=y_series[ks + 1])


def split(data: Dataset, train_fraction: float = 0.5):
    """Contiguous-block split preserving temporal order (first block trains)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    n_train = int(round(train_fraction * len(data)))
    if n_train == 0 or n_train == len(data):
        raise ValueError("degenerate split: one side would be empty")
    train = Dataset(data.z[:n_train], data.u[:n_train], data.y_next[:n_train])
    holdout = Dataset(data.z[n_train:], data.u[n_train:], data.y_next[n_train:])
    return train, holdout


@dataclass
class ValidationReport:
    """One-step-ahead prediction quality over a holdout set."""

    max_abs_error: float
    max_abs_output: float
    relative_error_pct: float
    errors: np.ndarray

    def __str__(self):
        return (
            f"max |error|   = {self.max_abs_error:.6g} pu\n"
            f"max |output|  = {self.max_abs_output:.6g} pu\n"
            f"relative err  = {self.relative_error_pct:.4g} %"
        )


def cross_validate(f_net: Mlp, g_net: Mlp, holdout: Dataset) -> ValidationReport:
    """One-step-ahead errors y_hat - y over the holdout records; a non-finite
    prediction raises FloatingPointError."""
    if len(holdout) == 0:
        raise ValueError("holdout set is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        errors = predict_batch(f_net, g_net, holdout.z, holdout.u) - holdout.y_next
    if not np.all(np.isfinite(errors)):
        raise FloatingPointError("holdout prediction is not finite")
    max_err = float(np.max(np.abs(errors)))
    max_out = float(np.max(np.abs(holdout.y_next)))
    rel = 100.0 * max_err / max_out if max_out > 0 else math.inf
    return ValidationReport(
        max_abs_error=max_err,
        max_abs_output=max_out,
        relative_error_pct=rel,
        errors=errors,
    )


def _ceil_one_sig_fig(x: float) -> float:
    exp = math.floor(math.log10(x))
    mantissa = x / 10.0**exp
    return math.ceil(mantissa * (1.0 - 1e-12)) * 10.0**exp


def select_deadzone(report: ValidationReport) -> float:
    """Adaptation deadzone radius from the validation error profile.

    95th percentile of the absolute error, rounded up to one significant
    figure, floored at 1e-6.
    """
    if len(report.errors) == 0:
        raise ValueError("empty error series")
    q = float(np.percentile(np.abs(report.errors), 95.0))
    if q < 1e-6:
        return 1e-6
    return max(_ceil_one_sig_fig(q), 1e-6)
