#!/usr/bin/env python3
"""Build the FedTiny benchmark from source and run one workload.

    python3 perfbench/run.py --workload fedtiny_serial --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and is reused by later runs; build output
goes to stderr. Traced runs write <workload>-seed<n>.trace.json (Chrome
trace-event JSON) and <workload>-seed<n>.layers.txt under
<build dir>/out. The last line of stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(build_root, "perfbench")
    out_dir = os.path.join(build, "out")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "fedtiny_perfbench", "-j", jobs],
    ]
    if os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(build, "fedtiny_perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
