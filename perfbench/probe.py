"""One timed set-up: imports, config parsing and input loading, then exit.

run.py starts this several times and times each from process start until
the line below arrives on its standard output.

Usage: python3 perfbench/probe.py --workload NAME --seed N
"""

import argparse
import json
import time

import env


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    env.pin_threads()
    t0 = time.perf_counter()
    env.use_checkout_source()
    import workloads

    t1 = time.perf_counter()
    workloads.WORKLOADS[args.workload].load(args.seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}), flush=True)


if __name__ == "__main__":
    main()
