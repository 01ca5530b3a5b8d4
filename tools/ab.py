#!/usr/bin/env python3
"""Alternating parent/change runs of one benchmark workload: the claim gate.

From the root of a checkout, with two built benchmark binaries (for example
`cargo build --release --offline --manifest-path benchmark/Cargo.toml` in a
clone of the parent and in the change, each with its own CARGO_TARGET_DIR):

    python3 tools/ab.py PARENT_BIN CHANGE_BIN --workload W[,W...|all] [--seeds 42,7] [--pairs 10]

`--workload` takes one workload, a comma list, or `all` (every workload of
BENCHMARK.json, in its order): the no-regression sweep. Each workload gets
its own table per seed. Each pair runs both binaries once as
`BIN --workload W --seed S --seconds <run_seconds> --trace 0`, and the side
that runs first flips from pair to pair. Every run must read `correct` with
`failed 0`, and the two sides must print the same output digest. For every
end-to-end metric of BENCHMARK.json it prints, per seed, each side's median,
the parent's IQR (the distance between its first and third quartile), the
change's median against the parent's, how many pairs the change won, and the
metric's bound. A metric is flagged `WORSE` when the change's median is
worse than the parent's by more than the bound. It is flagged `GAIN` when
the change won at least nine pairs in ten and its median is better by more
than the parent's IQR and by more than the bound: only such a gain can be
claimed. One that clears the IQR but not the bound reads `below bound`.
Exit status 1 on a failed run, a digest mismatch or a `WORSE` on any
workload.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(binary, workload, seed, seconds):
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{binary} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{binary} {workload} seed {seed}: incorrect result {lines[-1][:200]}")
    digest = next((l.split("output digest ")[1] for l in lines if "output digest " in l), None)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, digest


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, help="W, W1,W2,... or all")
    ap.add_argument("--seeds", default="42,7")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--out", help="write every run's metrics to this JSON file")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        sys.exit(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json has {', '.join(known)}")
    bad = False
    record = {}
    for workload in workloads:
        record[workload] = {}
        for seed in [int(s) for s in args.seeds.split(",")]:
            runs = compare(args, workload, seed, seconds)
            record[workload][seed] = runs
            bad |= report(args, workload, seed, runs, metrics)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(1 if bad else 0)


def compare(args, workload, seed, seconds):
    """`args.pairs` alternating runs of both sides: each side's metrics, and
    the output digests seen."""
    runs = {"parent": [], "change": [], "digests": set()}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            values, digest = run(getattr(args, side), workload, seed, seconds)
            runs[side].append(values)
            runs["digests"].add(digest)
    runs["digests"] = sorted(map(str, runs["digests"]))
    return runs


def judge(runs, metrics, pairs):
    """The gate's verdict on one workload's runs for one seed, as data: per
    end-to-end metric, the row `(name, parent median, parent IQR, change
    median, delta, wins, bound, verdict)`, where the verdict is `WORSE`,
    `GAIN`, `below bound` or empty; and whether the table fails the gate (a
    digest mismatch or a `WORSE`). Pure: `tools/test_ab.py` feeds it
    synthetic runs."""
    bad = len(runs["digests"]) != 1
    rows = []
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        med_b, med_a = statistics.median(before), statistics.median(after)
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        delta = (med_a - med_b) / med_b if med_b else 0.0
        verdict = ""
        if -sign * delta > m["bound"]:
            verdict, bad = "WORSE", True
        elif wins >= 0.9 * pairs and sign * (med_a - med_b) > iqr(before):
            verdict = "GAIN" if sign * delta > m["bound"] else "below bound"
        rows.append((name, med_b, iqr(before), med_a, delta, wins, m["bound"], verdict))
    return rows, bad


def report(args, workload, seed, runs, metrics):
    """Print one workload's table for one seed; whether it holds a digest
    mismatch or a `WORSE`."""
    digests = runs["digests"]
    print(f"{workload} seed {seed}: {args.pairs} pairs, output digests "
          f"{'match' if len(digests) == 1 else 'DIFFER: ' + ' '.join(digests)}")
    print(f"  {'metric':<13} {'parent':>12} {'iqr':>10} {'change':>12} {'delta':>8} "
          f"{'wins':>6} {'bound':>6}")
    rows, bad = judge(runs, metrics, args.pairs)
    for name, med_b, spread, med_a, delta, wins, bound, verdict in rows:
        print(f"  {name:<13} {med_b:>12.6g} {spread:>10.3g} {med_a:>12.6g} "
              f"{delta:>+8.1%} {wins:>3}/{args.pairs:<2} {bound:>6.2f} {verdict}")
    sys.stdout.flush()
    return bad


if __name__ == "__main__":
    main()
