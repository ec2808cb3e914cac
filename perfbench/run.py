#!/usr/bin/env python3
"""fpsched benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. On first use it builds the benchmark
(perfbench/CMakeLists.txt, which compiles the library from src/) in
Release mode into $CARGO_TARGET_DIR (default .bench_build), runs the
benchmark's self-tests, then runs one workload. Scratch files go to
.bench_out. Every line the benchmark prints is passed through; the last
stdout line is one JSON object with the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). The exit
code is 0 only when every output check passed. When a check of the
program's outputs fails the result is still printed, with
"correct": false; when the build or the run itself fails, none is.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the Release benchmark into build_dir."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], cwd=ROOT, env=env,
                   stdout=sys.stderr, check=True, timeout=800)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "fpbench_selftest")], cwd=ROOT,
                       stdout=sys.stderr, check=True, timeout=120)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        log("build or self-test failed: %s" % error)
        return 1

    command = [os.path.join(build_dir, "fpbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        finished = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = finished.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result (exit code %d)" % finished.returncode)
        return 1

    metrics = {}
    for metric in wanted:
        measured = result["metrics"].get(metric["name"])
        if measured is None:
            log("metric %s was not reported" % metric["name"])
            return 1
        if measured["unit"] and measured["unit"] != metric["unit"]:
            log("metric %s measured in %s, BENCHMARK.json says %s"
                % (metric["name"], measured["unit"], metric["unit"]))
            return 1
        metrics[metric["name"]] = {"value": measured["value"], "unit": metric["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if finished.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
