#!/usr/bin/env python3
"""Runs one workload of the nf2d wire-level benchmark.

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the nf2 library, the nf2d daemon
and the nf2bench driver from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs the workload. The last line
of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "read_mix", "recovery", "sharded_mix")


def build(build_dir):
    """Configures once, then builds incrementally; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "nf2d", "nf2bench"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    if not build(build_dir):
        print("build failed", file=sys.stderr)
        return 1
    bench = os.path.join(build_dir, "nf2bench")
    if args.selftest:
        return subprocess.run([bench, "--selftest"]).returncode

    traces = os.path.join(out_root, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nf2d", os.path.join(build_dir, "nf2d"),
           "--work-dir", os.path.join(out_root, "runs",
                                      "%s-%d" % (args.workload, os.getpid())),
           "--trace-out", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
