#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

Run from the root of a cpclean checkout. The first run configures and
builds a Release tree under .bench_build/ (the cpclean libraries, the
shipped cpclean_server and the load generator); later runs rebuild only
what changed. The helper self-tests run before every measurement. The last
line of stdout is the result object; build output goes to stderr.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-release")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(ROOT, "src")):
        fail("no cpclean source tree next to perfbench/; nothing to build")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        [os.path.join(BUILD, "perfbench_selftest")],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("step failed: " + " ".join(step))


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["clean_converge", "serve_read", "serve_clean"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    work_dir = os.path.join(ROOT, ".bench_build", "runs")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--server", os.path.join(BUILD, "cpclean", "examples",
                                        "cpclean_server"),
               "--work-dir", work_dir, "--commit", commit()]
    # Its own process group, so a timeout also takes down the server.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"perfbench exited with {child.returncode}")
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace == "1")
    if declared is not None:
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        if reported != declared:
            sys.stdout.write(out)
            fail("reported metrics differ from BENCHMARK.json")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
