#!/usr/bin/env python3
"""Repository benchmark: build the tibbench binary from source, run one workload.

    python3 tibbench/run.py --workload fig4_fanout --seed 1 --seconds 10 --trace 0

The binary is built with CMake into $CARGO_TARGET_DIR/tibbench (default
.bench_build/tibbench under the checkout root); span files go to .bench_out/.
Its last stdout line is the JSON result. This wrapper checks that line and
passes the binary's exit code through. tibbench/README.md lists the
workloads and metrics.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig4_fanout", "collusion_burst_shadow", "binary_failover")
# A run must end within 180 s; the build before it is not counted here.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "tibbench"


def build(out):
    """Configures once, then builds incrementally. Returns the binary path."""
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    make = ["cmake", "--build", str(out), "--target", "tibbench", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    return out / "tibbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build(build_dir())
    if binary is None:
        print("tibbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workload-dir", str(HERE / "workloads"),
           "--out-dir", str(ROOT / ".bench_out")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tibbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        well_formed = False
    if not well_formed:
        print("tibbench: no result printed", file=sys.stderr)
        return run.returncode or 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
