"""The benchmark's three workloads.

Each workload builds its inputs from the seed (`load`, the timed set-up),
runs one operation at a time through the public smibctrl calls the CLI
makes (`run`), and checks every output (`check`).  Layer entry points are
always called through their module attribute, so that the traced run can
wrap them in place.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time

import numpy as np

from smibctrl import cli, identify, machine, networks, scenarios
from smibctrl.configio import as_map, parse_float, parse_int, read_pairs, resolve_path

from env import OUT, ROOT

CONFIGS = os.path.join(ROOT, "configs")
RESULTS = os.path.join(ROOT, "results")

# The committed traces and datasets were written by the same code, and match
# bitwise today; 1e-10 max abs is the trace gate of the project's roadmap.
REFERENCE_TOL = 1e-10
# Closed-loop recovery bound of acceptance criterion 9, checked from three
# seconds after the scenario's event.
RECOVERY_REL = 0.01
RECOVERY_DELAY_S = 3.0
# Acceptance criterion 5.
FINAL_COST_MAX = 1e-4
HOLDOUT_REL_PCT_MAX = 5.0
# `train` at the shipped seed lands 4.7e-9 (one BLAS thread) from the
# committed narx_ref.nwt: the file is not reproduced bit for bit.
WEIGHT_TOL = 1e-7


def _max_abs_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


@dataclasses.dataclass(frozen=True)
class Scenario:
    config: str
    reference: str
    low: float       # range the event value is drawn from at other seeds
    high: float


class ClosedLoop:
    """The adaptive neural controller on the Park-model plant.

    Three scripted scenarios run parse_scenario -> run_scenario ->
    Trace.to_csv.  The shipped seed runs the committed configs; any other
    seed draws each scenario's event value from its range.  The pss_step
    range is the size of the reference step.
    """

    name = "closed_loop"
    shipped_seed = 0
    rate_name, rate_unit = "sim_rate", "s/s"
    scenarios = (
        Scenario("scen_pss_step.cfg", "pss_step_nu3.csv", 0.05, 0.15),
        Scenario("scen_h_drift.cfg", "h_drift.csv", 0.4, 0.75),
        Scenario("scen_pm_drop.cfg", "pm_drop.csv", 0.9, 1.5),
    )

    def load(self, seed):
        rng = np.random.default_rng(seed)
        cfgs, d0s = [], []
        for sc in self.scenarios:
            cfg = scenarios.parse_scenario(os.path.join(CONFIGS, sc.config))
            if len(cfg.events) != 1:
                raise ValueError(f"{sc.config}: expected exactly one event")
            drawn = rng.uniform(sc.low, sc.high)
            if seed != self.shipped_seed:
                event = cfg.events[0]
                value = cfg.v_ref + drawn if event.action == "set_vref" else drawn
                cfg = dataclasses.replace(cfg, events=[dataclasses.replace(event, value=value)])
            cfgs.append(cfg)
            d0s.append(scenarios.load_controller_config(cfg.controller_path).d0)
        return {"seed": seed, "cfgs": cfgs, "d0": d0s}

    def references(self, inputs):
        if inputs["seed"] != self.shipped_seed:
            return None
        return [scenarios.Trace.from_csv(os.path.join(RESULTS, sc.reference))
                for sc in self.scenarios]

    def ops(self, inputs):
        return range(len(self.scenarios))

    def rate(self, inputs, wall_s, counts) -> float:
        """Simulated plant seconds per wall-clock second."""
        return sum(cfg.t_end for cfg in inputs["cfgs"]) / wall_s

    def run(self, inputs, op):
        trace = scenarios.run_scenario(inputs["cfgs"][op])
        path = os.path.join(OUT, f"closed_loop_{op}.csv")
        trace.to_csv(path)
        return trace, path

    def check(self, inputs, refs, op, output):
        trace, path = output
        cfg = inputs["cfgs"][op]
        problems = []
        columns = scenarios.TRACE_COLUMNS
        if not all(np.all(np.isfinite(getattr(trace, c))) for c in columns):
            return ["trace is not finite"]
        settle = trace.t >= cfg.events[0].time + RECOVERY_DELAY_S
        rel = np.abs(trace.v_t[settle] - trace.v_ref[settle]) / trace.v_ref[settle]
        worst = float(np.max(rel)) if rel.size else math.inf
        if worst > RECOVERY_REL:
            problems.append(f"tracking error {100 * worst:.4f}% after recovery "
                            f"exceeds {100 * RECOVERY_REL}%")
        written = scenarios.Trace.from_csv(path)
        if any(_max_abs_diff(getattr(written, c), getattr(trace, c)) != 0.0 for c in columns):
            problems.append("written trace CSV does not round-trip the trace")
        if refs is not None:
            worst = max(_max_abs_diff(getattr(written, c), getattr(refs[op], c)) for c in columns)
            if worst > REFERENCE_TOL:
                problems.append(f"trace differs from {self.scenarios[op].reference} by {worst:.3e}")
        # With adaptation on, every instant after the first either adapts or
        # sits in the deadzone.
        hits = self._deadzone_hits(trace, inputs["d0"][op])
        if int(trace.adapted.sum()) + hits != len(trace) - 1:
            problems.append("adapted and e_star columns disagree about the deadzone")
        return problems

    @staticmethod
    def _deadzone_hits(trace, d0) -> int:
        return int(np.sum((trace.adapted[1:] == 0) & (np.abs(trace.e_star[1:]) <= d0)))

    def counts(self, inputs, op, output):
        trace, _ = output
        return {
            "control_instants": len(trace),
            "adaptations": int(trace.adapted.sum()),
            "deadzone_hits": self._deadzone_hits(trace, inputs["d0"][op]),
            "adapt_base": len(trace) - 1,
        }


class Identify:
    """Open-loop excitation recording at the nominal point (identify_ref.cfg).

    The seed is the ExcitationPlan seed.  No controller or network runs.
    """

    name = "identify"
    shipped_seed = 11
    rate_name, rate_unit = "sim_rate", "s/s"
    config = os.path.join(CONFIGS, "identify_ref.cfg")
    reference = os.path.join(CONFIGS, "dataset_ref.csv")

    def load(self, seed):
        # The same keys and defaults as `smibctrl identify`.
        values = as_map(read_pairs(self.config))
        params = machine.load_machine_config(resolve_path(self.config, values["machine"]))
        plan = identify.ExcitationPlan(
            n_samples=parse_int("n_samples", values.get("n_samples", "10000")),
            dt=parse_float("dt", values.get("dt", "0.002")),
            u_min=parse_float("u_min", values.get("u_min", "-0.1")),
            u_max=parse_float("u_max", values.get("u_max", "0.1")),
            hold=parse_int("hold", values.get("hold", "10")),
            seed=seed,
        )
        v_target = parse_float("v_target", values.get("v_target", "1.1392"))
        return {"seed": seed, "params": params, "plan": plan, "v_target": v_target}

    def references(self, inputs):
        if inputs["seed"] != self.shipped_seed:
            return None
        return cli._read_dataset_csv(self.reference)

    def ops(self, inputs):
        return range(1)

    def rate(self, inputs, wall_s, counts) -> float:
        """Simulated plant seconds per wall-clock second."""
        return inputs["plan"].n_samples * inputs["plan"].dt / wall_s

    def run(self, inputs, op):
        u, y = identify.excite_and_record(inputs["params"], inputs["plan"], inputs["v_target"])
        return u, y, identify.build_regression_set(u, y)

    def check(self, inputs, refs, op, output):
        u, y, data = output
        n = inputs["plan"].n_samples
        if len(u) != n or len(y) != n or not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            return [f"recording is not {n} finite samples"]
        problems = []
        if len(data) != n - identify.N_LAGS_Y:
            problems.append(f"regression set has {len(data)} records, expected {n - identify.N_LAGS_Y}")
        if refs is not None:
            worst = max(_max_abs_diff(u, refs[0]), _max_abs_diff(y, refs[1]))
            if worst > REFERENCE_TOL:
                problems.append(f"recording differs from dataset_ref.csv by {worst:.3e}")
        return problems

    def counts(self, inputs, op, output):
        return {"records": len(output[2])}


class Train:
    """Joint LM training on the committed datasets, then holdout validation.

    The seed sets the initial weights; the datasets are fixed.
    """

    name = "train"
    shipped_seed = 42
    rate_name, rate_unit = "lm_iters_per_s", "1/s"
    config = os.path.join(CONFIGS, "train_ref.cfg")
    reference = os.path.join(CONFIGS, "narx_ref.nwt")

    def load(self, seed):
        # The same keys and defaults as `smibctrl train`.
        values = as_map(read_pairs(self.config), repeatable=("dataset",))
        return {
            "seed": seed,
            "series": cli._load_datasets(self.config, values),
            "train_fraction": parse_float("train_fraction", values.get("train_fraction", "0.5")),
            "hidden": parse_int("hidden", values.get("hidden", "5")),
            "max_iter": parse_int("max_iter", values.get("max_iter", "150")),
            "cost_tol": parse_float("cost_tol", values.get("cost_tol", "0.0")),
        }

    def references(self, inputs):
        if inputs["seed"] != self.shipped_seed:
            return None
        return networks.theta_flatten(*networks.load_weights(self.reference))

    def rate(self, inputs, wall_s, counts) -> float:
        """LM iterations per second of lm_train, at counts["lm_records"] records."""
        return counts["lm_iterations"] / counts["lm_s"]

    def ops(self, inputs):
        return range(1)

    def run(self, inputs, op):
        train, holdout = cli._split_datasets(inputs["series"], inputs["train_fraction"])
        rng = np.random.default_rng(inputs["seed"])
        f0 = networks.Mlp.random(inputs["hidden"], rng=rng)
        g0 = networks.Mlp.random(inputs["hidden"], rng=rng)
        t0 = time.perf_counter()
        f_net, g_net, state = networks.lm_train(f0, g0, train, max_iter=inputs["max_iter"],
                                                cost_tol=inputs["cost_tol"])
        lm_s = time.perf_counter() - t0
        report = identify.cross_validate(f_net, g_net, holdout)
        return f_net, g_net, state, report, (len(train), len(holdout)), lm_s

    def check(self, inputs, refs, op, output):
        f_net, g_net, state, report, _, _ = output
        problems = []
        costs = np.asarray(state.cost_history)
        if not np.all(np.isfinite(costs)) or np.any(np.diff(costs) > 0.0):
            problems.append("cost history is not finite and non-increasing")
        if not costs[-1] <= FINAL_COST_MAX:
            problems.append(f"final cost {costs[-1]:.3e} above {FINAL_COST_MAX}")
        if not report.relative_error_pct <= HOLDOUT_REL_PCT_MAX:
            problems.append(f"holdout error {report.relative_error_pct:.3f}% above "
                            f"{HOLDOUT_REL_PCT_MAX}%")
        if refs is not None:
            gap = _max_abs_diff(networks.theta_flatten(f_net, g_net), refs)
            if gap > WEIGHT_TOL:
                problems.append(f"weights differ from narx_ref.nwt by {gap:.3e}")
        return problems

    def counts(self, inputs, op, output):
        _, _, state, _, (n_train, n_holdout), lm_s = output
        return {
            "lm_s": lm_s,
            "records": n_train + n_holdout,
            "lm_records": n_train,
            "lm_iterations": state.iteration,
            "lm_accepted": int(np.sum(np.diff(state.cost_history) < 0.0)),
        }


WORKLOADS = {w.name: w for w in (ClosedLoop(), Identify(), Train())}
