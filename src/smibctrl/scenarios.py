"""Event-scripted closed-loop experiments and their trace format.

A scenario couples a machine config, a controller config and a timed
event list.  The plant starts at the equilibrium of the initial reference
voltage; each 2 ms instant applies pending events, evaluates the selected
controller and integrates four RK4 micro-steps.  That loop, `sampled`, also
records the identification data, with an open-loop dither law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import machine
from .configio import (ConfigError, Key, parse_float, parse_int, parse_str,
                       read_config, read_table, resolve_path, write_table)
from .control import (MAX_ORDER, ControllerState, NeuralPlantModel, PolePlacement,
                      control_step, synthesize_poly)
from .networks import load_weights

TRACE_COLUMNS = ("t", "v_ref", "v_t", "v_f", "delta", "omega", "e_star", "adapted")

EVENT_ACTIONS = ("set_vref", "scale_H", "set_Pm")

EVENT_TIME_TOL = 1e-12  # an event applies at the first instant t with time <= t + tol


@dataclass(frozen=True)
class Event:
    time: float
    action: str
    value: float


@dataclass
class ControllerConfig:
    """Parsed controller config: kind plus the neural loop's constants."""

    kind: str                          # neural | st1a | none
    placement: PolePlacement
    nu: float
    d0: float
    weights_path: str | None


@dataclass
class ScenarioConfig:
    machine_path: str
    controller_path: str
    t_end: float
    dt_control: float = 0.002
    v_ref: float = machine.V_NOMINAL
    events: list = field(default_factory=list)

    def __post_init__(self):
        if not self.dt_control / machine.MICRO_STEPS > 0.0:  # 5e-324 would give steps of 0.0
            raise ConfigError(f"dt_control must be positive with dt_control"
                              f" / {machine.MICRO_STEPS} > 0, got {self.dt_control}")
        if not 1.0 <= self.t_end / self.dt_control < math.inf:
            raise ConfigError("t_end must be finite and at least dt_control")
        times = [e.time for e in self.events]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigError("event times must be non-decreasing")
        t_last = (self.n_steps - 1) * self.dt_control  # the last control instant
        if not all(0.0 <= e.time <= t_last + EVENT_TIME_TOL for e in self.events):
            raise ConfigError(f"event times must lie within [0, {t_last:g}]")
        for e in self.events:
            if e.action not in EVENT_ACTIONS:
                raise ConfigError(f"unknown event action {e.action!r}")
            if e.action == "scale_H" and not e.value > 0.0:
                raise ConfigError(f"scale_H factor must be positive, got {e.value}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt_control))


@dataclass
class Trace:
    """Uniform-grid record of one closed-loop run, one row per control instant."""

    t: np.ndarray
    v_ref: np.ndarray
    v_t: np.ndarray
    v_f: np.ndarray
    delta: np.ndarray
    omega: np.ndarray
    e_star: np.ndarray
    adapted: np.ndarray

    def __len__(self):
        return len(self.t)

    def at_time(self, t_query: float) -> int:
        """Index of the sample closest to t_query."""
        return int(np.argmin(np.abs(self.t - t_query)))

    def to_csv(self, path) -> None:
        floats = [getattr(self, c) for c in TRACE_COLUMNS[:-1]]
        write_table(path, TRACE_COLUMNS, (*floats, self.adapted.astype(int)))

    @classmethod
    def from_csv(cls, path) -> "Trace":
        data = read_table(path, TRACE_COLUMNS, "trace")
        if not len(data):
            raise ConfigError(f"{path}: empty trace")
        return cls(**{name: data[:, j] for j, name in enumerate(TRACE_COLUMNS)})


def load_controller_config(path) -> ControllerConfig:
    """Read a controller config and synthesize its pole placement.  Without
    `p` the order is the number of `pole` lines; without them every pole is
    0.7; one pole repeats p times.  The order is at most MAX_ORDER."""
    values = read_config(path, "controller", {
        "controller": Key(parse_str, "neural"),
        "weights": Key(parse_str, None),
        "p": Key(parse_int, None),
        "pole": Key(parse_float, (), repeat=True),
        "nu": Key(parse_float, 3.0),
        "d0": Key(parse_float, 0.01),
    })
    kind, p, poles = values["controller"], values["p"], tuple(values["pole"])
    if kind not in ("neural", "st1a", "none"):
        raise ConfigError(f"controller must be neural|st1a|none, got {kind!r}")
    if p is None:
        p = len(poles) or 7
    if p > MAX_ORDER:
        raise ConfigError(f"controller order p={p} exceeds {MAX_ORDER}")
    if len(poles) <= 1 and p > len(poles):
        poles = (poles or (0.7,)) * p
    if len(poles) != p:
        raise ConfigError(f"{len(poles)} poles given for order p={p}")
    if not values["d0"] >= 0.0:
        raise ConfigError("deadzone radius d0 must be non-negative")
    try:
        placement = synthesize_poly(poles)
    except ValueError as exc:
        raise ConfigError(f"invalid controller config {path}: {exc}") from exc
    weights = values["weights"]
    if kind == "neural" and weights is None:
        raise ConfigError("neural controller config needs a weights file")
    if weights is not None:
        weights = resolve_path(path, weights)
    return ControllerConfig(kind=kind, placement=placement, nu=values["nu"], d0=values["d0"],
                            weights_path=weights)


def _parse_event(key, raw) -> Event:
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError(f"event must be '<time> <action> <value>', got {raw!r}")
    return Event(parse_float("event time", parts[0]), parts[1],
                 parse_float("event value", parts[2]))


def parse_scenario(path) -> ScenarioConfig:
    values = read_config(path, "scenario", {
        "machine": Key(parse_str),
        "controller": Key(parse_str),
        "t_end": Key(parse_float),
        "dt_control": Key(parse_float, ScenarioConfig.dt_control),
        "v_ref": Key(parse_float, ScenarioConfig.v_ref),
        "event": Key(_parse_event, (), repeat=True),
    })
    return ScenarioConfig(machine_path=resolve_path(path, values.pop("machine")),
                          controller_path=resolve_path(path, values.pop("controller")),
                          events=list(values.pop("event")), **values)


def _apply_event(params, v_ref, event: Event):
    if event.action == "scale_H":
        try:
            return replace(params, H=params.H * event.value), v_ref
        except ValueError as exc:  # repeated factors can take H to 0 or inf
            raise ConfigError(f"scale_H at t = {event.time:g} s: {exc}") from exc
    if event.action == "set_Pm":
        return replace(params, P_m=event.value), v_ref
    return params, event.value  # set_vref


def _control_law(ctrl_cfg: ControllerConfig, y_eq: float):
    """The controller as its initial state and one pure law
    (state, v_ref, v_t, slip) -> (u_pert, e_star, adapted, next state)."""
    if ctrl_cfg.kind == "st1a":
        return None, lambda state, v_ref, v_t, slip: (machine.st1a_control(v_t, v_ref),
                                                      0.0, 0.0, state)
    if ctrl_cfg.kind == "none":
        return None, lambda state, v_ref, v_t, slip: (0.0, 0.0, 0.0, state)
    f_net, g_net = load_weights(ctrl_cfg.weights_path)
    state = ControllerState.at_equilibrium(NeuralPlantModel(f_net, g_net), y_eq,
                                           placement=ctrl_cfg.placement, nu=ctrl_cfg.nu,
                                           d0=ctrl_cfg.d0)

    def neural(state, v_ref, v_t, slip):
        u_pert, state = control_step(state, v_ref, v_t, slip)  # a tracer may wrap this name
        return u_pert, state.last_e_star, float(state.last_adapted), state

    return state, neural


def sampled(params, x, u_eq, dt, n, law, state, v_ref, events=()):
    """The plant sampled every dt from state x, as n rows in TRACE_COLUMNS order.  At each
    instant the due events apply, law(state, v_ref, v_t, slip) -> (u_pert, e_star, adapted,
    state) sets the field voltage u_eq + u_pert, and the plant advances one period."""
    events = iter(events)  # in time order, which ScenarioConfig checks
    event = next(events, None)
    for k in range(n):
        t = k * dt
        while event is not None and event.time <= t + EVENT_TIME_TOL:
            params, v_ref = _apply_event(params, v_ref, event)
            event = next(events, None)
        v_t = machine.terminal_voltage(x, params)
        u_pert, e_star, adapted, state = law(state, v_ref, v_t, x[1] / params.omega_b)
        u = u_eq + u_pert
        yield t, v_ref, v_t, u, x[0], x[1], e_star, adapted
        if k == n - 1:  # nothing reads the state after the last instant
            return
        try:
            x = machine.advance(x, u, dt, params)
        except machine.DivergenceError as exc:
            raise machine.DivergenceError(f"simulation diverged at sample {k}") from exc


def run_scenario(cfg: ScenarioConfig) -> Trace:
    """Simulate one scripted closed-loop experiment; SynchronismLost at |delta| >= pi."""
    try:
        table = np.empty((cfg.n_steps, len(TRACE_COLUMNS)))
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"a trace of {cfg.n_steps:.4g} instants ({cfg.t_end:g} s)"
                          " does not fit in memory") from exc
    # an overflowing network gives a non-finite u, which control_step raises by
    # name, so its numpy warnings would only repeat that failure
    with np.errstate(over="ignore", invalid="ignore"):
        params = machine.load_machine_config(cfg.machine_path)
        ctrl_cfg = load_controller_config(cfg.controller_path)
        x, u_eq = machine.find_equilibrium(params, cfg.v_ref)
        state, law = _control_law(ctrl_cfg, machine.terminal_voltage(x, params))
        for k, row in enumerate(sampled(params, x, u_eq, cfg.dt_control, cfg.n_steps, law,
                                        state, cfg.v_ref, cfg.events)):
            if not abs(row[4]) < math.pi:
                raise machine.SynchronismLost(f"loss of synchronism at t = {row[0]:.4f} s:"
                                              f" |delta| = {abs(row[4]):.4g} rad")
            table[k] = row  # one contiguous row per instant; the columns are views
    return Trace(*table.T)


class UndefinedMetricError(RuntimeError):
    """The power-angle trace after t_from has no measurable oscillation decay."""


def damping_metric(trace: Trace, t_from: float) -> float:
    """Log-decrement of the power-angle oscillation after t_from.

    Estimated from successive peaks of |delta - delta_final|; one unit of
    the metric corresponds to an envelope decay of e^-1 per full period.
    """
    mask = trace.t >= t_from
    d = trace.delta[mask]
    if len(d) < 3:
        raise UndefinedMetricError("trace too short after t_from")
    if not np.all(np.isfinite(d)):
        raise UndefinedMetricError("power angle is not finite after t_from")
    x = np.abs(d - d[-1])
    amp = float(np.max(x))
    if amp <= 0.0:
        raise UndefinedMetricError("power angle is constant after t_from")
    from scipy.signal import find_peaks  # SciPy loads only for this metric
    peaks, _ = find_peaks(x, height=1e-3 * amp, prominence=1e-4 * amp)
    if len(peaks) < 2:
        raise UndefinedMetricError(f"found {len(peaks)} oscillation peaks, need at least 2")
    amps = x[peaks]
    ratios = np.log(amps[:-1] / amps[1:])
    return 2.0 * float(np.mean(ratios))


def compare_traces(a: Trace, b: Trace):
    """Align two traces on their common time grid; returns (t, diffs dict, stats)."""
    ta = np.round(a.t, 9)
    tb = np.round(b.t, 9)
    common, ia, ib = np.intersect1d(ta, tb, return_indices=True)
    if len(common) == 0:
        raise ConfigError("traces share no common time samples")
    diffs = {}
    stats = {}
    for name in TRACE_COLUMNS[1:]:
        d = getattr(a, name)[ia] - getattr(b, name)[ib]
        diffs[name] = d
        stats[name] = (float(np.max(np.abs(d))), float(np.sqrt(np.mean(d * d))))
    return common, diffs, stats
