#!/usr/bin/env python3
"""smibctrl benchmark: run one workload for a fixed time and report its metrics.

Usage:
    python3 perfbench/run.py --workload {closed_loop,identify,train} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 the workload runs untraced and the end-to-end metrics of
BENCHMARK.json are reported; with --trace 1 untraced and traced passes
alternate and the per-layer metrics are reported.  Every output is checked;
an operation that raises or fails a check counts as failed and its pass is
not used as a timing.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 2 means
the checkout lacks what the benchmark needs, and no result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import env

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-ups timed per run; the median is setup_s.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed_loop", "identify", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload: str, seed: int) -> dict:
    """Time one fresh process from its start until the workload's inputs are ready."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=env.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        total = time.perf_counter() - t0
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line:
        raise env.SetupError(f"set-up probe exited with code {code}")
    return {"total_s": total, **json.loads(line)}


def run_pass(workload, inputs, refs, tracer) -> dict:
    """Run every operation of the workload once; time only the operations."""
    from smibctrl import machine

    rec = {"traced": tracer is not None, "wall_s": 0.0, "attempted": 0, "failed": 0,
           "counts": Counter(), "first_span": len(tracer) if tracer else 0}
    # Each pass starts with the empty plant cache of a fresh CLI process.
    machine._assembled.cache_clear()
    for op in workload.ops(inputs):
        rec["attempted"] += 1
        if tracer is not None:
            tracer.run_id += 1
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                output = workload.run(inputs, op)
                took = time.perf_counter() - t0
            problems = workload.check(inputs, refs, op, output)
        except Exception:  # an operation that raises is a counted failure
            traceback.print_exc()
            rec["failed"] += 1
            continue
        if problems:
            for text in problems:
                print(f"{workload.name} operation {op}: {text}", file=sys.stderr)
            rec["failed"] += 1
            continue
        rec["wall_s"] += took
        rec["counts"].update(workload.counts(inputs, op, output))
    cache = machine._assembled.cache_info()
    rec["counts"]["cache_lookups"] = cache.hits + cache.misses
    rec["counts"]["cache_misses"] = cache.misses
    rec["last_span"] = len(tracer) if tracer else 0
    return rec


def measure(workload, inputs, refs, seconds: float, tracer):
    """Passes until the next one would end past `seconds`.

    With a tracer, untraced and traced passes alternate, starting untraced.
    """
    passes = []
    begin = time.perf_counter()
    need = 2 if tracer is not None else 1
    longest = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(workload, inputs, refs, tracer if traced else None))
        longest = max(longest, time.perf_counter() - t0)
        if len(passes) >= need and time.perf_counter() - begin + longest > seconds:
            return passes


def upper_percentile(samples):
    """Highest of p99.9, p99, p95, p90 and p75 with ten samples above it, or None."""
    import numpy as np

    values = np.asarray(samples, dtype=float)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        v = float(np.percentile(values, q))
        if np.sum(values > v) >= 10:
            return q, v
    return None


def describe_timing(samples) -> str:
    tail = upper_percentile(samples)
    if tail is None:
        return (f"median of n={len(samples)}; no percentile above the median has "
                f"ten samples beyond it")
    return f"median of n={len(samples)}; p{tail[0]:g} {tail[1]:.6g} s"


def in_declared_order(metrics: dict, declared: dict) -> dict:
    """The metrics keyed as BENCHMARK.json declares them; both sets must agree."""
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    return {name: metrics[name] for name in declared}


def end_to_end(workload, inputs, setups, passes, declared) -> tuple[dict, list]:
    ok = [p for p in passes if p["failed"] == 0]
    walls = [p["wall_s"] for p in ok]
    wall = statistics.median(walls)
    rates = [workload.rate(inputs, p["wall_s"], p["counts"]) for p in ok]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    totals = [s["total_s"] for s in setups]
    metrics = {
        "setup_s": statistics.median(totals),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    base = ""
    if workload.rate_name == "lm_iters_per_s":
        base = f"; at {ok[0]['counts']['lm_records']} training records"
    lines = [
        f"setup_s       {metrics['setup_s']:.6g} s  (fresh processes, {describe_timing(totals)}; "
        f"imports {statistics.median(s['import_s'] for s in setups):.4g} s, "
        f"input loading {statistics.median(s['load_s'] for s in setups):.4g} s)",
        f"wall_s        {wall:.6g} s  (passes of {ok[0]['attempted']} operations, "
        f"{describe_timing(walls)}: {' '.join(f'{w:.4g}' for w in walls)})",
        f"{workload.rate_name:<13} {statistics.median(rates):.6g} {workload.rate_unit}  "
        f"(median of n={len(rates)}{base})",
        f"peak_rss_mb   {metrics['peak_rss_mb']:.6g} MB  (ru_maxrss of the measuring process)",
        f"fail_ratio    {failed / attempted:.6g}  ({failed} failed of {attempted} operations)",
    ]
    return in_declared_order(metrics, declared), lines


def per_layer(setups, passes, tracer, declared) -> tuple[dict, list]:
    import tracing

    ok = [p for p in passes if p["failed"] == 0]
    traced = [p for p in ok if p["traced"]]
    untraced = [p for p in ok if not p["traced"]]
    per_pass = [tracing.layer_metrics(tracer.spans(p["first_span"], p["last_span"]),
                                      p["counts"], p["wall_s"]) for p in traced]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["setup.load_s"] = statistics.median(s["load_s"] for s in setups)
    metrics["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    metrics = in_declared_order(metrics, declared)
    lines = [f"{name:<44} {metrics[name]:.6g} {unit}" for name, unit in declared.items()]
    lines.append(f"(medians over {len(traced)} traced and {len(untraced)} untraced passes)")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    env.pin_threads()
    try:
        env.use_checkout_source()
        with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        os.makedirs(env.OUT, exist_ok=True)
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        inputs = workload.load(args.seed)
        refs = workload.references(inputs)
    except (env.SetupError, OSError, ValueError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    passes = measure(workload, inputs, refs, args.seconds, tracer)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info = env.describe()
    print("env " + json.dumps(info, sort_keys=True))
    ok = [p for p in passes if p["failed"] == 0]
    kinds = {p["traced"] for p in ok}
    if kinds != ({False, True} if args.trace else {False}):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, lines = per_layer(setups, passes, tracer, declared)
        tracer.write(os.path.join(env.OUT, f"spans_{workload.name}.csv"))
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, lines = end_to_end(workload, inputs, setups, passes, declared)
    print(f"{workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, BLAS threads {info['blas_threads_runtime']}")
    for line in lines:
        print("  " + line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
