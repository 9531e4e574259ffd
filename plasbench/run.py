#!/usr/bin/env python3
"""Build and run the Plasticine simulator benchmark.

    python3 plasbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 plasbench/run.py --self-test

Run from the repository root. The benchmark package (plasbench/) is
built with CMake in Release mode under $CARGO_TARGET_DIR (default
.bench_build), compiling the simulator from src/. The benchmark's last
line of standard output is its JSON result; build logs go to standard
error. A traced run (--trace 1) also writes a Chrome trace to
<build root>/plasbench-traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(target):
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "plasbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", target, "-j", "4"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("plasbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return build_root, os.path.join(build_dir, target)


def main(argv):
    if argv == ["--self-test"]:
        _, exe = build("plasbench_selftest")
        return subprocess.run([exe], timeout=RUN_TIMEOUT_S).returncode

    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds", "--trace"} <= args.keys():
        sys.stderr.write(__doc__)
        return 2
    build_root, exe = build("plasbench")
    cmd = [exe] + argv
    if args["--trace"] == "1":
        trace_dir = os.path.join(build_root, "plasbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        name = "%s-seed%s.json" % (args["--workload"], args["--seed"])
        cmd += ["--trace-out", os.path.join(trace_dir, name)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("plasbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
