#!/usr/bin/env python3
"""Runs one perfbench workload once per seed and prints, for each metric,
its median and the distance between its first and third quartile as a
share of the median (statistics.quantiles(values, n=4)).

    python3 perfbench/spread.py fleet-warm 1,2,3,4,5,6,7,8,9,10 [seconds] [trace]

Run it from the checkout root.
"""
import json
import statistics
import subprocess
import sys
import time


def main():
    workload, seeds = sys.argv[1], [int(s) for s in sys.argv[2].split(",")]
    seconds = sys.argv[3] if len(sys.argv) > 3 else "30"
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    values = {}
    for seed in seeds:
        start = time.time()
        cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {time.time() - start:.1f} s, attempted {res['attempted']}", flush=True)
    print(f"{'metric':40s} {'median':>14s} {'iqr/median':>10s}  values")
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:40s} {med:14.4f} {spread:10.4f}  {' '.join(f'{x:.4g}' for x in xs)}")


if __name__ == "__main__":
    main()
