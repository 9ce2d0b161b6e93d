#!/usr/bin/env python3
"""Builds the LogBase benchmark from source, then runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <point_read|ingest_recover|htap_transfer>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seed <n>]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root; build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Spans of traced runs are written to
$CARGO_TARGET_DIR/spans. A failed build exits with status 1 and no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        return 1
    spans_dir = os.path.join(target, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    binary = os.path.join(build_dir, "logbase_perfbench")
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--spans-dir", spans_dir]
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
