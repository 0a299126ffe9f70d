#!/usr/bin/env python3
"""Measure how steady the benchmark is, the way the driver does.

Runs BENCHMARK.json's command on every workload, once per seed, and prints
for each end-to-end metric the median and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound. Run it from the repository root:

    python3 bench/calibrate.py [--runs 10] [--seed0 1] [--workloads a,b] [--json out.json]

Two invocations with different --seed0 give the two sets whose medians
the README compares.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    for name in names:
        values = {m: [] for m in bounds}
        took = []
        for i in range(args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(args.seed0 + i),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            took.append(time.time() - t0)
            if out.returncode != 0:
                sys.exit(f"{name} seed {args.seed0 + i}: exit {out.returncode}\n{out.stderr}")
            last = json.loads(out.stdout.strip().splitlines()[-1])
            if not last["correct"] or last["failed"]:
                sys.exit(f"{name} seed {args.seed0 + i}: incorrect run")
            for m in bounds:
                values[m].append(last["metrics"][m]["value"])
        results[name] = values
        print(f"{name}: {args.runs} runs, {statistics.median(took):.1f} s each (max {max(took):.1f})")
        for m, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[m] / 3 else ("  > bound/3" if spread < bounds[m] else "  > BOUND")
            print(f"  {m:24s} median {med:14.4f}  spread {spread:7.4f}  bound {bounds[m]:.2f}{flag}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f)


if __name__ == "__main__":
    main()
