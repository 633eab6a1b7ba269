#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Shows that a corrupted output is counted as a failed operation and is not
used as a timing, and that the unmodified reference outputs pass.

Usage: python3 perfbench/selftest.py    (exit code 0 when every case holds)
"""

import copy
import os
import sys

import env

env.pin_threads()
env.use_checkout_source()
os.makedirs(env.OUT, exist_ok=True)

import run  # noqa: E402
import workloads  # noqa: E402
from smibctrl import identify  # noqa: E402


class Corrupted:
    """A workload whose operations return a damaged output, or raise."""

    def __init__(self, base, damage):
        self.base = base
        self.damage = damage
        self.name = base.name

    def ops(self, inputs):
        return self.base.ops(inputs)

    def run(self, inputs, op):
        return self.damage(self.base.run(inputs, op))

    def check(self, inputs, refs, op, output):
        return self.base.check(inputs, refs, op, output)

    def counts(self, inputs, op, output):
        return self.base.counts(inputs, op, output)


def case(label, ok):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    return ok


def closed_loop_cases():
    wl = workloads.WORKLOADS["closed_loop"]
    inputs = wl.load(wl.shipped_seed)
    refs = wl.references(inputs)
    op = 1
    path = os.path.join(env.OUT, "selftest_trace.csv")
    trace = copy.deepcopy(refs[op])
    trace.to_csv(path)
    results = [case("closed_loop: committed trace passes its checks",
                    wl.check(inputs, refs, op, (trace, path)) == [])]
    trace.v_t[1234] += 1e-9
    trace.to_csv(path)
    results.append(case("closed_loop: trace row perturbed by 1e-9 fails the reference check",
                        any("differs" in p for p in wl.check(inputs, refs, op, (trace, path)))))
    trace = copy.deepcopy(refs[op])
    trace.v_t[-1] *= 1.02
    trace.to_csv(path)
    other = dict(inputs, seed=1)
    results.append(case("closed_loop: 2% tracking error after recovery fails at any seed",
                        any("tracking" in p for p in wl.check(other, None, op, (trace, path)))))
    return results


def identify_cases():
    wl = workloads.WORKLOADS["identify"]
    inputs = wl.load(wl.shipped_seed)
    u, y = wl.references(inputs)
    output = (u, y, identify.build_regression_set(u, y))
    results = [case("identify: committed dataset passes its checks",
                    wl.check(inputs, (u, y), 0, output) == [])]
    y_bad = y.copy()
    y_bad[5000] += 1e-9
    results.append(case("identify: sample perturbed by 1e-9 fails the reference check",
                        wl.check(inputs, (u, y), 0, (u, y_bad, output[2])) != []))
    return results


def train_cases():
    """A full pass through run.run_pass: failures counted, no timing kept."""
    wl = workloads.WORKLOADS["train"]
    inputs = wl.load(wl.shipped_seed)
    refs = wl.references(inputs)

    def nudge_weights(output):
        f_net, *rest = output
        f_net.out_b += 1e-6
        return (f_net, *rest)

    def blow_up(output):
        raise FloatingPointError("injected failure")

    clean = run.run_pass(wl, inputs, refs, None)
    nudged = run.run_pass(Corrupted(wl, nudge_weights), inputs, refs, None)
    raised = run.run_pass(Corrupted(wl, blow_up), inputs, refs, None)
    return [
        case("train: clean pass has no failure and a timing",
             clean["failed"] == 0 and clean["wall_s"] > 0.0),
        case("train: weights nudged by 1e-6 count as failed with no timing",
             nudged["failed"] == 1 and nudged["wall_s"] == 0.0),
        case("train: an operation that raises counts as failed with no timing",
             raised["failed"] == 1 and raised["wall_s"] == 0.0),
    ]


def main() -> int:
    results = closed_loop_cases() + identify_cases() + train_cases()
    print(f"{sum(results)} of {len(results)} self-test cases hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
