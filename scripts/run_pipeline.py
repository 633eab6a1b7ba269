#!/usr/bin/env python3
"""Regenerate the shipped identification datasets and check the committed weights.

Records both excitation datasets into configs/.  All seeds are pinned in the
config files, so the two datasets are reproduced bit for bit.  Then trains
the two-network model into a temporary directory, validates the retrained
weights on the held-out halves, and prints their largest weight difference
from configs/narx_ref.nwt against the 1e-7 weight gate; the script exits 1
above it.  The committed weights and cost history are never overwritten: the
retrained weights land about 2e-8 from them (2.2e-8 with one BLAS thread),
because the committed file was trained on datasets recorded with LU solves,
which differ from today's by up to 2.1e-10, and with J'e summed in another
order.  That is inside the weight gate, but the retrained weights would move
the closed-loop traces by up to 1.8e-8, over their 1e-10 gate, so commit the
regenerated datasets only.
"""

import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from smibctrl.cli import cli_dispatch
from smibctrl.networks import load_weights, theta_flatten

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
WEIGHT_GATE = 1e-7


def run(argv):
    code = cli_dispatch(argv)
    if code != 0:
        raise SystemExit(code)


def validate_config(path, weights):
    """validate_ref.cfg written to path, with absolute dataset paths and the given weights."""
    lines = []
    with open("validate_ref.cfg", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = (part.strip() for part in line.partition("="))
            if key == "dataset":
                line = f"dataset = {os.path.abspath(value)}\n"
            elif key == "weights":
                line = f"weights = {weights}\n"
            lines.append(line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def main():
    os.chdir(CONFIGS)
    run(["identify", "--config", "identify_ref.cfg", "--out", "dataset_ref.csv"])
    run(["identify", "--config", "identify_dither.cfg", "--out", "dataset_dither.csv"])
    with tempfile.TemporaryDirectory() as tmp:
        weights = os.path.join(tmp, "narx_ref.nwt")
        run(["train", "--config", "train_ref.cfg", "--out", weights])
        validate = os.path.join(tmp, "validate.cfg")
        validate_config(validate, weights)
        run(["validate", "--config", validate])
        gap = np.max(np.abs(theta_flatten(*load_weights(weights))
                            - theta_flatten(*load_weights("narx_ref.nwt"))))
    verdict = "within" if gap <= WEIGHT_GATE else "OVER"
    print(f"retrained weights: max |dtheta| = {gap:.3e} against narx_ref.nwt, "
          f"{verdict} the {WEIGHT_GATE:g} weight gate")
    if gap > WEIGHT_GATE:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
