"""In-memory spans around the module-level names each layer is called through.

A span has a name, a start, an end, the span open when it began (its
parent) and the id of the operation it belongs to.  Wrapping happens where
the caller looks the name up, e.g. `machine.rk4_step` as seen by
`scenarios` and `identify`, so the program itself is not edited.  Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter

import numpy as np

from smibctrl import control, identify, machine, networks, scenarios


def _adapted(args, result) -> int:
    return int(result[1].last_adapted)


def _g_floor(args, result) -> int:
    _, g_hat, _, g_min = args
    return int(abs(g_hat) < g_min)


# (namespace, attribute, span name, tag recorded from (args, result))
WRAPS = (
    (scenarios, "run_scenario", "scenarios.run_scenario", None),
    (scenarios.Trace, "to_csv", "scenarios.trace_csv", None),
    (scenarios, "control_step", "control.control_step", _adapted),
    (scenarios, "load_controller_config", "configio.load", None),
    (scenarios, "load_weights", "configio.load", None),
    (machine, "load_machine_config", "configio.load", None),
    (control, "mlp_forward", "networks.mlp_forward", None),
    (control, "weight_jacobian", "networks.weight_jacobian", None),
    (control, "linearizing_control", "control.linearizing_control", _g_floor),
    (machine, "find_equilibrium", "machine.find_equilibrium", None),
    (machine, "rk4_step", "machine.rk4_step", None),
    (machine, "derivatives", "machine.derivatives", None),
    (machine, "terminal_voltage", "machine.terminal_voltage", None),
    (identify, "excite_and_record", "identify.excite_and_record", None),
    (identify, "build_regression_set", "identify.build_regression_set", None),
    (identify, "cross_validate", "identify.cross_validate", None),
    (identify, "predict_batch", "networks.predict_batch", None),
    (networks, "lm_train", "networks.lm_train", None),
    (networks, "predict_batch", "networks.predict_batch", None),
    (networks, "_jacobian_batch", "networks.jacobian_batch", None),
    (networks, "mse_cost", "networks.mse_cost", None),
)


class Tracer:
    """Span store plus the install/remove of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.tag = array("b")
        self.run_id = 0
        self._open: list[int] = []
        self._saved: list = []

    def __len__(self):
        return len(self.names)

    def _wrap(self, name, fn, tag):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._open[-1] if self._open else -1)
            self.run.append(self.run_id)
            self.tag.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if tag is not None:
                self.tag[idx] = tag(args, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, tag in WRAPS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, tag))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def spans(self, first: int, last: int) -> "Spans":
        """The spans recorded between two lengths of the store."""
        cut = slice(first, last)
        return Spans(self.names[cut], self.start[cut], self.end[cut],
                     self.parent[cut], self.tag[cut], first)

    def write(self, path) -> None:
        """All spans as a CSV: id,name,start_s,end_s,parent,run,tag."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,run,tag\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.run[i]},{self.tag[i]}\n")
        os.replace(tmp, path)


class Spans:
    """Array view of a contiguous slice of spans, with self times."""

    def __init__(self, names, start, end, parent, tag, offset):
        self.names = np.array(names, dtype=str)
        self.start = np.array(start, dtype=float)
        self.end = np.array(end, dtype=float)
        self.dur = self.end - self.start
        parent = np.array(parent, dtype=np.int64) - offset
        self.parent = np.where(parent >= 0, parent, -1)
        self.tag = np.array(tag, dtype=np.int8)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def mask(self, name):
        return self.names == name

    def under(self, name, parent_name):
        """Spans called `name` whose direct parent is called `parent_name`."""
        m = self.mask(name) & (self.parent >= 0)
        m[m] = self.names[self.parent[m]] == parent_name
        return m


def _pct(values, q, scale) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def layer_metrics(sp: Spans, counts: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass of `wall_s`, keyed as in BENCHMARK.json."""
    out = {}

    def total(name, key, self_time=False):
        m = sp.mask(name)
        out[key] = float((sp.self_time if self_time else sp.dur)[m].sum())

    def calls(name, key):
        out[key] = int(sp.mask(name).sum())

    # machine
    calls("machine.rk4_step", "machine.rk4_step.calls")
    out["machine.rk4_step.us_p50"] = _pct(sp.dur[sp.mask("machine.rk4_step")], 50, 1e6)
    total("machine.rk4_step", "machine.rk4_step.s")
    total("machine.rk4_step", "machine.rk4_step.self_s", self_time=True)
    out["machine.rk4_step.wall_share"] = out["machine.rk4_step.s"] / wall_s
    calls("machine.derivatives", "machine.derivatives.calls")
    out["machine.derivatives.us_p50"] = _pct(sp.dur[sp.mask("machine.derivatives")], 50, 1e6)
    total("machine.derivatives", "machine.derivatives.s")
    calls("machine.terminal_voltage", "machine.terminal_voltage.calls")
    total("machine.terminal_voltage", "machine.terminal_voltage.s")
    out["machine.assembled_cache.lookups"] = counts["cache_lookups"]
    out["machine.assembled_cache.misses"] = counts["cache_misses"]
    calls("machine.find_equilibrium", "machine.find_equilibrium.calls")
    out["machine.find_equilibrium.ms_p50"] = _pct(
        sp.dur[sp.mask("machine.find_equilibrium")], 50, 1e3)
    out["machine.find_equilibrium.derivative_calls"] = int(
        sp.under("machine.derivatives", "machine.find_equilibrium").sum())

    # control
    step = sp.mask("control.control_step")
    calls("control.control_step", "control.control_step.calls")
    out["control.control_step.us_p50"] = _pct(sp.dur[step], 50, 1e6)
    out["control.control_step.us_p99"] = _pct(sp.dur[step], 99, 1e6)
    total("control.control_step", "control.control_step.self_s", self_time=True)
    out["control.control_step.adapt_us_p50"] = _pct(sp.dur[step & (sp.tag == 1)], 50, 1e6)
    out["control.control_step.noadapt_us_p50"] = _pct(sp.dur[step & (sp.tag == 0)], 50, 1e6)
    out["control.adaptations"] = counts.get("adaptations", 0)
    out["control.deadzone_hits"] = counts.get("deadzone_hits", 0)
    out["control.adapt_base"] = counts.get("adapt_base", 0)
    out["control.adapt_ratio"] = (out["control.adaptations"] / out["control.adapt_base"]
                                  if out["control.adapt_base"] else 0.0)
    out["control.g_floor_hits"] = int(sp.tag[sp.mask("control.linearizing_control")].sum())

    # networks: scalar path
    calls("networks.mlp_forward", "networks.mlp_forward.calls")
    total("networks.mlp_forward", "networks.mlp_forward.s")
    calls("networks.weight_jacobian", "networks.weight_jacobian.calls")
    total("networks.weight_jacobian", "networks.weight_jacobian.s")

    # networks: batch LM.  An iteration starts at the prediction lm_train
    # makes itself; the last one ends with lm_train.
    lm = sp.mask("networks.lm_train")
    own_predict = sp.under("networks.predict_batch", "networks.lm_train")
    iter_s = []
    for i in np.flatnonzero(lm):
        starts = sp.start[own_predict & (sp.parent == i)]
        iter_s.extend(np.diff(np.append(starts, sp.end[i])))
    trial_calls = int(sp.under("networks.mse_cost", "networks.lm_train").sum())
    trials = max(trial_calls - int(lm.sum()), 0)   # the first cost of a run is no trial
    accepted = counts.get("lm_accepted", 0)
    out["networks.lm.records"] = counts.get("lm_records", 0)
    out["networks.lm.iterations"] = counts.get("lm_iterations", 0)
    out["networks.lm.iter_ms_p50"] = _pct(iter_s, 50, 1e3)
    out["networks.lm.iter_ms_p90"] = _pct(iter_s, 90, 1e3)
    out["networks.lm.trials"] = trials
    out["networks.lm.accepted"] = accepted
    out["networks.lm.rejected"] = trials - accepted
    out["networks.lm.accept_ratio"] = accepted / trials if trials else 0.0
    out["networks.lm.jacobian_s"] = float(
        sp.dur[sp.under("networks.jacobian_batch", "networks.lm_train")].sum())
    out["networks.lm.predict_s"] = float(sp.dur[own_predict].sum())
    out["networks.lm.trial_cost_s"] = float(
        sp.dur[sp.under("networks.mse_cost", "networks.lm_train")].sum())
    out["networks.lm.normal_eq_s"] = float(sp.self_time[lm].sum())
    out["networks.lm.s"] = float(sp.dur[lm].sum())
    out["networks.lm.wall_share"] = out["networks.lm.s"] / wall_s

    # identify
    total("identify.excite_and_record", "identify.excite_and_record.s")
    total("identify.build_regression_set", "identify.build_regression_set.s")
    total("identify.cross_validate", "identify.cross_validate.s")
    out["identify.records"] = counts.get("records", 0)

    # scenarios and config loading inside the timed work
    total("scenarios.run_scenario", "scenarios.run_scenario.self_s", self_time=True)
    total("scenarios.trace_csv", "scenarios.trace_csv.s")
    out["scenarios.control_instants"] = counts.get("control_instants", 0)
    total("configio.load", "configio.load_s")
    out["trace.spans"] = len(sp.dur)
    return out
