#!/usr/bin/env python3
"""Regenerate every committed artifact except the weights, and print the studies.

All seeds are pinned in the config files, so one run reproduces bit for bit:
the two identification datasets in configs/, the eight shipped scenario
traces in results/ and the neural-against-exciter trace difference
results/step_nominal_diff.csv.  It prints the tracking errors one second
after the reference steps, the damping metric with and without the
stabilizer, the recovery errors after the inertia drift and the mechanical
power drop, and the big-swing errors.

DATASETS and SCENARIOS are the one list of the datasets and traces it writes.
It reads every one of those files before the first is overwritten, and prints
each one's largest |new - old|, every column included, against the 1e-10
GATE: tables of different shapes are infinitely far apart, and a file that
was not there before is reported as new.  A committed file that does not
parse is named with the reader's message and counts as over the gate; the
run still regenerates every artifact, so it never stops half way.  A
command that fails counts as its artifact's failure, over the gate: the run
goes on through the list and prints every line, then skips the studies and
the retrain and exits 1.

Then it trains the two-network model into a temporary directory, scores the
retrained weights on the holdout that train_ref.cfg keeps out of training,
and prints their largest weight difference from configs/narx_ref.nwt against
the 1e-7 weight gate; it exits 1 over either gate.  The committed weights
and cost history are never overwritten: the retrained weights land about
2.5e-8 from them, because the committed file was trained on datasets
recorded with LU solves, which differ from today's by up to 2.1e-10, and
with J'J and J'e summed in another order.  That is inside the weight gate,
but the retrained weights would move the closed-loop traces by up to
1.8e-8, over their 1e-10 gate, so commit the regenerated datasets and
traces only.  Like the smibctrl entry point, the script pins BLAS to one
thread unless the environment sets a count.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from smibctrl.blas import pin_blas_threads

pin_blas_threads()   # before numpy loads, as the smibctrl entry point does

import numpy as np  # noqa: E402

from smibctrl.cli import DATASET_COLUMNS, cli_dispatch  # noqa: E402
from smibctrl.configio import ConfigError, read_table  # noqa: E402
from smibctrl.machine import V_NOMINAL  # noqa: E402
from smibctrl.networks import load_weights, theta_flatten  # noqa: E402
from smibctrl.scenarios import TRACE_COLUMNS, Trace, damping_metric  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "results")
GATE = 1e-10  # not bit for bit: the last bits may differ across machines
WEIGHT_GATE = 1e-7

# every committed identification dataset in configs/, by the config that records it
DATASETS = {"identify_ref.cfg": "dataset_ref.csv", "identify_dither.cfg": "dataset_dither.csv"}
# every shipped scenario and its trace in results/
SCENARIOS = {
    "scen_step_nominal_neural.cfg": "step_nominal_neural.csv",
    "scen_step_nominal_st1a.cfg": "step_nominal_st1a.csv",
    "scen_step_far_neural.cfg": "step_far_neural.csv",
    "scen_pss_step.cfg": "pss_step_nu3.csv",
    "scen_pss_step_nu0.cfg": "pss_step_nu0.csv",
    "scen_h_drift.cfg": "h_drift.csv",
    "scen_pm_drop.cfg": "pm_drop.csv",
    "scen_big_swing.cfg": "big_swing.csv",
}
DIFF = "step_nominal_diff.csv"


def manifest():
    """(command, config, path, columns, kind) of every gated artifact, in the order written."""
    for config, csv in DATASETS.items():
        yield "identify", config, os.path.join(ROOT, "configs", csv), DATASET_COLUMNS, "dataset"
    for config, csv in SCENARIOS.items():
        yield "simulate", config, os.path.join(RESULTS, csv), TRACE_COLUMNS, "trace"


def read_committed(entries) -> dict:
    """path -> the committed table of each manifest entry, all read before any is
    rewritten: None for a file that is not there, the reader's message for one
    that cannot be read."""
    committed = {}
    for _, _, path, columns, kind in entries:
        try:
            committed[path] = read_table(path, columns, kind) if os.path.exists(path) else None
        except (ConfigError, OSError) as exc:
            committed[path] = str(exc)
    return committed


def table_gap(new, old) -> float:
    """Largest |new - old| over every cell; inf when the shapes differ."""
    return float(np.max(np.abs(new - old), initial=0.0)) if new.shape == old.shape else np.inf


def run(*argv):
    code = cli_dispatch(list(argv))
    if code != 0:
        raise SystemExit(code)


def main():
    os.chdir(os.path.join(ROOT, "configs"))
    os.makedirs(RESULTS, exist_ok=True)
    committed = read_committed(manifest())
    gaps = {}   # artifact -> its gap, None when new, why it failed when it counts as over the gate
    failed = 0
    for command, config, path, columns, kind in manifest():
        code = cli_dispatch([command, "--config", config, "--out", path])
        old, name = committed[path], os.path.relpath(path, ROOT)
        if code != 0:
            failed += 1
            gaps[name] = f"not regenerated, `{command} --config {config}` exited {code}"
        elif isinstance(old, np.ndarray):
            gaps[name] = table_gap(read_table(path, columns, kind), old)
        else:
            gaps[name] = old if old is None else f"unreadable before this run ({old})"
    for name, artifact_gap in gaps.items():
        if artifact_gap is None:
            print(f"{name}: new, no file before this run")
        elif isinstance(artifact_gap, str):
            print(f"{name}: {artifact_gap}, OVER the {GATE:g} gate")
        else:
            print(f"{name}: max |new - old| = {artifact_gap:.3e}, "
                  f"{'within' if artifact_gap <= GATE else 'OVER'} the {GATE:g} gate")
    if failed:
        print(f"{failed} command(s) failed: the studies and the retrain are skipped")
        raise SystemExit(1)
    traces = {scenario: Trace.from_csv(os.path.join(RESULTS, csv))
              for scenario, csv in SCENARIOS.items()}

    for scenario in list(SCENARIOS)[:3]:  # the three 0.1 pu reference steps at t = 1 s
        trace = traces[scenario]
        k = trace.at_time(2.0)
        err = 100.0 * abs(trace.v_t[k] - trace.v_ref[k]) / trace.v_ref[k]
        print(f"{scenario}: tracking error {err:.4f} % at t = 2.0 s")
    with_pss, without = (damping_metric(traces[scenario], 2.0)
                         for scenario in ("scen_pss_step.cfg", "scen_pss_step_nu0.cfg"))
    print(f"damping metric with stabilizer: {with_pss:.4f}")
    print(f"damping metric without:         {without:.4f}")
    for scenario in ("scen_h_drift.cfg", "scen_pm_drop.cfg"):
        trace = traces[scenario]
        settle = trace.t >= 4.0
        rel = np.abs(trace.v_t[settle] - trace.v_ref[settle]) / trace.v_ref[settle]
        print(f"{scenario}: max tracking error {100 * np.max(rel):.4f} % from 4 s on")
    swing = traces["scen_big_swing.cfg"]
    err_top = 100 * abs(swing.v_t[swing.at_time(2.5)] - 2.0) / 2.0
    err_end = 100 * abs(swing.v_t[-1] - V_NOMINAL) / V_NOMINAL
    print(f"big swing: error {err_top:.4f} % at the 2.0 pu plateau, "
          f"{err_end:.4f} % after the return")
    run("compare", os.path.join(RESULTS, "step_nominal_neural.csv"),
        os.path.join(RESULTS, "step_nominal_st1a.csv"), "--out", os.path.join(RESULTS, DIFF))

    with tempfile.TemporaryDirectory() as tmp:
        weights = os.path.join(tmp, "narx_ref.nwt")
        run("train", "--config", "train_ref.cfg", "--out", weights)
        run("validate", "--config", "train_ref.cfg", "--weights", weights)
        gap = np.max(np.abs(theta_flatten(*load_weights(weights))
                            - theta_flatten(*load_weights("narx_ref.nwt"))))
    verdict = "within" if gap <= WEIGHT_GATE else "OVER"
    print(f"retrained weights: max |dtheta| = {gap:.3e} against narx_ref.nwt, "
          f"{verdict} the {WEIGHT_GATE:g} weight gate")
    if gap > WEIGHT_GATE or any(isinstance(g, str) or g is not None and g > GATE
                                for g in gaps.values()):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
