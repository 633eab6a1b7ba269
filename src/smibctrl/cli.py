"""Command-line entry points for identification, training and simulation.

Exit codes: 0 on success, 2 for config/usage errors, 3 for numerical
failures (divergence, no equilibrium, failed training solve).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import identify, machine, networks, scenarios
from .configio import (ConfigError, Key, fields_schema, parse_float, parse_int,
                       parse_str, read_config, read_table, resolve_path, write_table)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_MINPHASE_GRID = (1.0, machine.V_NOMINAL, 1.5, 2.0)
DATASET_COLUMNS = ("k", "u", "y")


def _read_dataset_csv(path):
    data = read_table(path, DATASET_COLUMNS, "dataset")
    return data[:, 1], data[:, 2]


def _read_identify_config(path):
    """An identify config's machine, excitation plan and operating point."""
    values = read_config(path, "identify", {
        "machine": Key(parse_str),
        "v_target": Key(parse_float, machine.V_NOMINAL),
        **fields_schema(identify.ExcitationPlan),
    })
    params = machine.load_machine_config(resolve_path(path, values.pop("machine")))
    v_target = values.pop("v_target")
    try:
        plan = identify.ExcitationPlan(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid identify config {path}: {exc}") from exc
    return params, plan, v_target


def cmd_identify(args) -> int:
    u_series, y_series = identify.excite_and_record(*_read_identify_config(args.config))
    write_table(args.out, DATASET_COLUMNS, (range(len(u_series)), u_series, y_series))
    print(f"wrote {len(u_series)} samples to {args.out}")
    return EXIT_OK


def _load_datasets(config_path, values):
    return [_read_dataset_csv(resolve_path(config_path, rel)) for rel in values["dataset"]]


def _split_datasets(series, train_fraction):
    trains, holds = [], []
    for u, y in series:
        data = identify.build_regression_set(u, y)
        tr, ho = identify.split(data, train_fraction)
        trains.append(tr)
        holds.append(ho)

    def merge(parts):
        return networks.Dataset(
            np.vstack([p.z for p in parts]),
            np.concatenate([p.u for p in parts]),
            np.concatenate([p.y_next for p in parts]),
        )

    return merge(trains), merge(holds)


def _read_training_config(path):
    """A train config's values and its training and holdout records: `validate`
    reads it too, so it scores weights on the records their training kept out."""
    values = read_config(path, "train", {
        "dataset": Key(parse_str, repeat=True),
        "hidden": Key(parse_int, 5),
        "max_iter": Key(parse_int, 150),
        "train_fraction": Key(parse_float, 0.5),
        "seed": Key(parse_int, 0),
    })
    try:
        train, holdout = _split_datasets(_load_datasets(path, values), values["train_fraction"])
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"invalid train config {path}: {exc}") from exc
    return values, train, holdout


def cmd_train(args) -> int:
    values, train, _ = _read_training_config(args.config)
    # lm_train reports solver failures as TrainingError, bad arguments as ValueError;
    # a network too big to allocate is a config error too.
    try:
        rng = np.random.default_rng(values["seed"])
        f0 = networks.Mlp.random(values["hidden"], rng=rng)
        g0 = networks.Mlp.random(values["hidden"], rng=rng)
        f_net, g_net, state = networks.lm_train(f0, g0, train, max_iter=values["max_iter"])
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"invalid train config {args.config}: {exc}") from exc
    networks.save_weights(args.out, f_net, g_net)
    hist_path = os.path.splitext(args.out)[0] + "_cost.csv"
    write_table(hist_path, ("iteration", "cost"), zip(*enumerate(state.cost_history)))
    print(f"trained on {len(train)} records for {state.iteration} iterations, "
          f"final cost {state.cost_history[-1]:.6e}")
    print(f"wrote weights to {args.out} and cost history to {hist_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    _, _, holdout = _read_training_config(args.config)
    f_net, g_net = networks.load_weights(args.weights)
    report = identify.cross_validate(f_net, g_net, holdout)
    print(report)
    print(f"deadzone d0   = {identify.select_deadzone(report)}")
    if args.out:
        write_table(args.out, ("k", "error"), (range(len(report.errors)), report.errors))
    return EXIT_OK


def cmd_minphase(args) -> int:
    values = read_config(args.config, "minphase", {
        "machine": Key(parse_str),
        "v_target": Key(parse_float, DEFAULT_MINPHASE_GRID, repeat=True),
    })
    params = machine.load_machine_config(resolve_path(args.config, values["machine"]))
    models = [(v_target, machine.linearize(params, *machine.find_equilibrium(params, v_target)))
              for v_target in values["v_target"]]  # a numerical failure prints no partial table
    rows = []
    print(f"{'v_target':>9} {'c.b':>12} {'max Re(zero)':>13}  zeros")
    for v_target, model in models:
        worst = max(z.real for z in model.zeros)
        zs = " ".join(f"{z.real:.4g}{z.imag:+.4g}j" for z in model.zeros)
        print(f"{v_target:9.4f} {model.cb:12.5g} {worst:13.5g}  {zs}")
        for z in model.zeros:
            rows.append((v_target, model.cb, z.real, z.imag))
    if args.out:
        write_table(args.out, ("v_target", "cb", "zero_re", "zero_im"), zip(*rows))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = scenarios.parse_scenario(args.config)
    trace = scenarios.run_scenario(cfg)
    trace.to_csv(args.out)
    print(f"wrote {len(trace)} samples to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    a = scenarios.Trace.from_csv(args.trace_a)
    b = scenarios.Trace.from_csv(args.trace_b)
    t, diffs, stats = scenarios.compare_traces(a, b)
    print(f"{len(t)} common samples of {len(a)} and {len(b)} rows")
    print(f"{'column':>8} {'max |diff|':>13} {'rms diff':>13}")
    for name, (mx, rms) in stats.items():
        print(f"{name:>8} {mx:13.6g} {rms:13.6g}")
    if args.out:
        write_table(args.out, ["t"] + [f"d_{n}" for n in diffs], (t, *diffs.values()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smibctrl",
        description="Neural adaptive excitation control testbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_out=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="config file")
        sp.add_argument("--out", required=needs_out, help="output file")
        sp.set_defaults(func=func)
        return sp

    add("identify", cmd_identify, "record an excitation dataset from the plant", needs_out=True)
    add("train", cmd_train, "fit the two-network model to recorded datasets", needs_out=True)
    scored = add("validate", cmd_validate, "score weights on the holdout of their train config")
    scored.add_argument("--weights", required=True, help="weight file to score")
    add("minphase", cmd_minphase, "tabulate transmission zeros over operating points")
    add("simulate", cmd_simulate, "run a scripted closed-loop scenario", needs_out=True)
    comp = sub.add_parser("compare", help="diff two trace files on their common grid")
    comp.add_argument("trace_a", help="first trace CSV")
    comp.add_argument("trace_b", help="second trace CSV")
    comp.add_argument("--out", help="output file")
    comp.set_defaults(func=cmd_compare)
    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (machine.EquilibriumError, machine.DivergenceError,
            machine.SingularInductanceError, networks.TrainingError,
            FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
