#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the amperebleed library from src/ plus the driver) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. The driver's thread pool is capped at four threads.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit status is 0 only when every
correctness check passed; build output and diagnostics go to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/: run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"] for m in listed}

    out_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        driver = build(os.path.join(out_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    # Scratch state of durable workloads; the driver removes its own, this
    # clears what an interrupted run left behind.
    work_dir = os.path.join(out_dir, "tmp")
    shutil.rmtree(work_dir, ignore_errors=True)
    threads = str(min(4, os.cpu_count() or 1))
    env = dict(os.environ, AMPEREBLEED_THREADS=threads)
    try:
        proc = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {DRIVER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"driver exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    if set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ expected)}")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
