#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload engine_sweep --seed 1 --seconds 20 --trace 0

Workloads: engine_sweep, routed_reads, routed_mixed (see perfbench/README.md).
The benchmark is compiled from this checkout's src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr. The last line of stdout is the JSON result. The exit code is
0 only when the build succeeded and every correctness check passed.

Extra flags are passed through to the benchmark binary:
  --inject flip|stale   corrupt one answer / one op-log read (must exit 1)
  --self-test           run the checks against corrupted inputs only
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures and builds the benchmark (a no-op when up to date)."""
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", "4"]]
    for step in steps:
        result = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_root):
        target_root = os.path.join(root, target_root)
    build_dir = os.path.join(target_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    if not build(root, build_dir):
        return 1

    binary = os.path.join(build_dir, "receipt_perfbench")
    command = [binary] + sys.argv[1:] + ["--work-dir", target_root]
    try:
        result = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
