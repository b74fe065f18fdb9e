#!/usr/bin/env python3
"""Build rtbench from source and run one workload.

    python3 rtbench/run.py --workload write_small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The benchmark is configured and
built with CMake under $CARGO_TARGET_DIR (default .bench_build), then
run; the workloads are a table in rtbench/src/main.cpp. The replicas'
logs always go under .bench_build in the checkout, whatever
$CARGO_TARGET_DIR says, so they sit on the checkout's disk. The last line
printed is the result JSON; on a failed build, a failed correctness check
or an invalid run the exit code is non-zero and no result is printed. See
rtbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Logs and span dumps: always in the checkout.
WORK_DIR = os.path.join(ROOT, ".bench_build", "rtbench-work")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the rtbench binary; returns its path."""
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "rtbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(build_dir, "rtbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "rtbench")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    data_dir = os.path.join(WORK_DIR, f"data-{os.getpid()}")
    cmd = [binary,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.trace:
        spans_dir = os.path.join(WORK_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    # rtbench itself clears (and reports) every ZAB_* variable.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines and lines[-1].startswith("{")
                                   else lines) + "\n")
        log(f"rtbench exited with {proc.returncode}")
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("no result line")
        return 1
    if result.get("correct") is not True:
        log("result not marked correct")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
