#!/usr/bin/env python3
"""Build the wall-clock benchmark from source, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload hot-submit --seed 1 --seconds 10 --trace 0

The Rust package in this directory is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root) and run
with the same arguments. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. The exit code is
the benchmark's own, or 1 when the build fails or the run times out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
