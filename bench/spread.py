#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the benchmark driver
judges it: N runs per workload, each with another --seed; spread = distance
between the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median, compared with the metric's bound in BENCHMARK.json.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run it from the repo root. It reads BENCHMARK.json, runs its `command`, and
writes nothing.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
        print(f"{name} ({args.runs} seeds from {args.first_seed})")
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            share = spread / bounds[m]
            worst = max(worst, share) if m != "setup_s" else worst
            same = "  SAME ON EVERY RUN" if len(set(vs)) == 1 else ""
            print(f"  {m:<18} median {med:>14.4f}  spread {spread * 100:6.2f}%  "
                  f"bound {bounds[m] * 100:5.1f}%  spread/bound {share:5.2f}{same}")
    print(f"worst spread/bound (setup_s aside): {worst:.2f} (accepted below 1, aim below 0.33)")


if __name__ == "__main__":
    main()
