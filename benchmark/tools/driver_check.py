#!/usr/bin/env python3
"""Run the benchmark the way the driver does and judge its steadiness.

From the root of a checkout:

    python3 benchmark/tools/driver_check.py [--runs 10] [--seed0 100] [--workload NAME]...

For every workload of BENCHMARK.json it runs
`<command> --workload W --seed S --seconds <run_seconds> --trace 0` once per
seed, checks each result line against the declared metric names, and prints
for each end-to-end metric the median and the spread — the distance between
the first and third quartile of the runs (`statistics.quantiles(v, n=4)`) as
a share of their median — beside the metric's bound. One `--trace 1` run per
workload checks the per-layer names. Exit status 1 if a result is malformed
or incorrect, or a spread (other than `setup_s`'s) reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    started = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=900)
    elapsed = time.time() - started
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{workload}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1][:200]}")
    return result, elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="write every run's metrics to this JSON file")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command, seconds = bench["command"], bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    chosen = args.workload or workloads
    failed = False
    record = {}
    total_started = time.time()

    for w in chosen:
        values = {name: [] for name in e2e}
        times = []
        for i in range(args.runs):
            result, elapsed = run(command, w, args.seed0 + i, seconds, 0)
            times.append(elapsed)
            got = result["metrics"]
            if sorted(got) != sorted(e2e):
                raise SystemExit(f"{w}: end-to-end names {sorted(got)} != declared {sorted(e2e)}")
            for name, m in got.items():
                if m["unit"] != e2e[name]["unit"] or m["value"] == 0:
                    raise SystemExit(f"{w}: bad metric {name}: {m}")
                values[name].append(m["value"])
        record[w] = values
        print(f"{w}: {args.runs} runs, {statistics.median(times):.1f} s each (max {max(times):.1f} s)")
        for name, v in values.items():
            med = statistics.median(v)
            if len(v) >= 2:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / med
            else:
                spread = 0.0
            bound = e2e[name]["bound"]
            flag = ""
            if name != "setup_s" and spread >= bound:
                flag, failed = "  SPREAD REACHES BOUND", True
            elif spread >= bound / 3:
                flag = "  (above a third of the bound)"
            print(f"  {name:<12} median {med:>14.6f} {e2e[name]['unit']:<5} "
                  f"spread {spread * 100:6.2f} %  bound {bound * 100:4.0f} %{flag}")

        result, elapsed = run(command, w, args.seed0, seconds, 1)
        got = result["metrics"]
        if sorted(got) != sorted(layers):
            raise SystemExit(f"{w}: per-layer names differ from the declared ones")
        nonzero = sum(1 for m in got.values() if m["value"] != 0)
        print(f"  traced pass: {elapsed:.1f} s, {nonzero} of {len(got)} per-layer metrics non-zero")

    print(f"total {time.time() - total_started:.0f} s")
    if args.out:
        json.dump(record, open(args.out, "w"), indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
