"""The names the benchmark harness under perfbench/ wraps or calls.

perfbench/tracing.py replaces module attributes of smibctrl for the
length of a traced run, and perfbench/run.py reads the cache statistics
of machine._assembled; a refactor that renames one of them breaks the
benchmark, not the program, so these checks pin them here.
"""

import dataclasses
import importlib.util
import os

import numpy as np

from smibctrl import control, identify, machine, networks, scenarios

from conftest import config_path

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_on_its_owner():
    tracing = load_tracing()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.WRAPS
               if attr not in owner.__dict__]
    assert missing == []


def test_assembled_cache_statistics_exist():
    machine._assembled(machine.MachineParams())
    assert machine._assembled.cache_info().currsize >= 1
    machine._assembled.cache_clear()
    assert machine._assembled.cache_info().currsize == 0


def test_tracer_records_a_span_and_restores_the_names():
    tracing = load_tracing()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing.WRAPS]
    net = networks.Mlp.random(5, rng=0)
    with tracing.Tracer() as tracer:
        control.mlp_forward(net, np.zeros(13))
    assert tracer.names == ["networks.mlp_forward"]
    assert tracer.end[0] >= tracer.start[0]
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_excitation_records_every_micro_step():
    # identify's per-layer metrics count one machine.rk4_step span per micro-step
    tracing = load_tracing()
    plan = identify.ExcitationPlan(n_samples=identify.N_LAGS_Y + identify.N_LAGS_U + 1)
    with tracing.Tracer() as tracer:
        identify.excite_and_record(machine.MachineParams(), plan)
    assert tracer.names.count("machine.rk4_step") == machine.MICRO_STEPS * (plan.n_samples - 1)
    assert tracer.names.count("identify.excite_and_record") == 1


def test_traced_closed_loop_records_every_layer_per_instant():
    # closed_loop's per-layer metrics read these spans; one that no longer
    # passes through its wrapped name would read 0 without failing
    tracing = load_tracing()
    cfg = dataclasses.replace(scenarios.parse_scenario(config_path("scen_pss_step.cfg")),
                              t_end=0.2, events=[])
    with tracing.Tracer() as tracer:
        trace = scenarios.run_scenario(cfg)
    n = len(trace)
    assert n == cfg.n_steps == 100
    assert tracer.names.count("control.control_step") == n
    assert tracer.names.count("control.linearizing_control") == n
    assert tracer.names.count("networks.mlp_forward") == 2 * n + 1  # f and g, and the floor
    assert tracer.names.count("machine.rk4_step") == machine.MICRO_STEPS * (n - 1)
    assert tracer.names.count("networks.weight_jacobian") == int(trace.adapted.sum()) > 0
