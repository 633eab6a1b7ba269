import importlib.util
import os

import numpy as np
import pytest

from smibctrl import machine
from smibctrl.cli import _read_identify_config
from smibctrl.networks import load_weights, predict_batch

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
CONFIGS = os.path.join(ROOT, "configs")

# scripts/run_pipeline.py, loaded once: its DATASETS and SCENARIOS list the committed
# artifacts and its GATE bounds how far a regenerated one may land from the committed file
_spec = importlib.util.spec_from_file_location(
    "run_pipeline", os.path.join(ROOT, "scripts", "run_pipeline.py"))
PIPELINE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(PIPELINE)  # runs no stage


def config_path(name: str) -> str:
    return os.path.join(CONFIGS, name)


def shipped_plan(name: str):
    """(params, plan, v_target) of a shipped identify config."""
    return _read_identify_config(config_path(name))


def fail_advance_on_call(monkeypatch, n):
    """Make the n-th call of machine.advance raise DivergenceError."""
    real, calls = machine.advance, [0]

    def advance(*args):
        calls[0] += 1
        if calls[0] == n:
            raise machine.DivergenceError("injected divergence")
        return real(*args)

    monkeypatch.setattr(machine, "advance", advance)


def predict_one(f_net, g_net, z, u: float) -> float:
    """One-step NARX prediction through the batch path on a one-row batch."""
    return float(predict_batch(f_net, g_net, np.asarray(z, dtype=float)[None],
                               np.array([float(u)]))[0])


@pytest.fixture(scope="session")
def ref_params():
    return machine.MachineParams()


@pytest.fixture(scope="session")
def nominal_eq(ref_params):
    """Equilibrium state and field voltage at the nominal operating point."""
    return machine.find_equilibrium(ref_params, 1.1392)


@pytest.fixture(scope="session")
def shipped_nets():
    return load_weights(config_path("narx_ref.nwt"))
