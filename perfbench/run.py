#!/usr/bin/env python3
"""Builds and runs the fixed-work benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Workloads: mediate, serve_stream, serve_durable, serve_tcp (README.md).
The benchmark package (perfbench/CMakeLists.txt) is configured and built
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench at the root of
the checkout when that variable is unset; build output goes to stderr.
The last line of stdout is the result object. Exits non-zero without a
result when the build fails, and non-zero when an output check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mediate", "serve_stream", "serve_durable", "serve_tcp")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    data_dir = os.path.join(out_dir, "data-%d" % os.getpid())
    cmd = [
        os.path.join(out_dir, "rar_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", os.path.join(out_dir, "trace-%s.tsv" % args.workload),
        "--data-dir", data_dir,
    ]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        rc = 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
