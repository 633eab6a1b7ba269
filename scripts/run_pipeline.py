#!/usr/bin/env python3
"""Regenerate the shipped identification artifacts.

Records both excitation datasets, trains the two-network model and
validates it on the held-out halves.  All seeds are pinned in the config
files, so the two datasets are reproduced bit for bit.  The retrained
configs/narx_ref.nwt matches the committed file only to about 3e-8
(3.3e-8 with one BLAS thread): the committed file was trained on datasets
recorded with an LU current solve, which differ from today's by up to
2.1e-10, and with J'e summed in another order.  That is inside the 1e-7
weight gate, but the retrained weights move the closed-loop traces by up to
9.3e-9, over their 1e-10 gate, so commit the regenerated datasets only.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from smibctrl.cli import cli_dispatch

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def run(argv):
    code = cli_dispatch(argv)
    if code != 0:
        raise SystemExit(code)


def main():
    os.chdir(CONFIGS)
    run(["identify", "--config", "identify_ref.cfg", "--out", "dataset_ref.csv"])
    run(["identify", "--config", "identify_dither.cfg", "--out", "dataset_dither.csv"])
    run(["train", "--config", "train_ref.cfg", "--out", "narx_ref.nwt"])
    run(["validate", "--config", "validate_ref.cfg"])


if __name__ == "__main__":
    main()
