#!/usr/bin/env python3
"""Prints the per-layer table of WHERE_TIME_GOES.md from one traced run of
each workload:

    python3 perfbench/layer_table.py --seed 1 --seconds 20

Run from the root of a cpclean checkout. Each traced run first measures the
workload untraced, then again with the probes and server scrapes on, so the
trace_overhead.* rows are traced minus untraced within the same run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["clean_converge", "serve_read", "serve_clean"]


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])["stamp"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    results = {}
    for workload in WORKLOADS:
        results[workload], stamp = traced_run(workload, args.seed, args.seconds)
        if not results[workload]["correct"]:
            sys.exit(f"{workload}: traced run failed its checks")
    print(f"Traced runs: seed {args.seed}, {args.seconds} s, commit "
          f"{stamp['commit'][:12]}, {stamp['simd']}, nproc {stamp['nproc']}.\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---:|" * len(WORKLOADS))
    for name, entry in results[WORKLOADS[0]]["metrics"].items():
        cells = []
        for workload in WORKLOADS:
            value = results[workload]["metrics"][name]["value"]
            cells.append("0" if value == 0 else f"{value:.4g}")
        print(f"| `{name}` | {entry['unit']} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
