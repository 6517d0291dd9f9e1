#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and report how far
each end-to-end metric spreads across the runs.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 10
    python3 perfbench/steadiness.py --workloads venue-jobs --seeds 11-20

For every workload and metric it prints the median of the runs, the
first and third quartiles (statistics.quantiles with n=4) and the
spread: the distance between the quartiles as a share of the median.
The runs go one after another, never in parallel, so they do not
disturb each other's timings. It exits 1 if any run fails, prints no
result, reports a failed operation or fails its correctness checks.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ["editor-cold", "venue-warm", "venue-jobs"]


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", default="10")
    args = ap.parse_args()

    ok = True
    for wl in args.workloads.split(","):
        values = {}
        units = {}
        for seed in seed_list(args.seeds):
            start = time.time()
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            try:
                r = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{wl} seed {seed}: exit {p.returncode}, no result\n{p.stderr[-2000:]}")
                ok = False
                continue
            good = p.returncode == 0 and r["correct"] and r["failed"] == 0
            ok = ok and good
            print(f"{wl} seed {seed}: {time.time() - start:.0f}s correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(r["metrics"].items())),
                  flush=True)
            if not good:
                print(p.stderr[-3000:])
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        print(f"\n| {wl} | unit | median | q1 | q3 | spread |\n|---|---|---|---|---|---|")
        for k in sorted(values):
            v = values[k]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {k} | {units[k]} | {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f} |")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
