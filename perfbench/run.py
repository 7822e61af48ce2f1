#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (its own Cargo package,
depending on the repository's crates by path) in release mode, offline,
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the
same arguments. Build output goes to stderr; the benchmark's standard
output passes through, and its last line is the JSON result. Exits
non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
