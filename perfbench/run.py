#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is built in release mode into $CARGO_TARGET_DIR (or
perfbench/target). Cargo's output goes to stderr, so the last line of stdout
is the benchmark's JSON result. A traced run also writes its spans to
perfbench/out/. The exit code is the benchmark's: 0 only if every output
check passed; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

PACKAGE = os.path.dirname(os.path.abspath(__file__))
# One run must end within three minutes; the measured part is bounded by
# --seconds except on fig8-sm1, whose single pass takes 25-45 s on a 2-core
# Xeon VM (a traced run makes two passes, about 90 s).
RUN_TIMEOUT_S = 175


def main() -> int:
    args = sys.argv[1:]
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(PACKAGE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: build failed with exit code {build.returncode}", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(PACKAGE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "ciao-perfbench")
    if "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]:
        args += ["--spans-dir", os.path.join(PACKAGE, "out")]
    try:
        run = subprocess.run([binary, *args], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s and was stopped", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
