#!/usr/bin/env python3
"""Builds the µBE benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload feedback|selection|churn \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the library from src/ plus perfbench/main.cc) into
$CARGO_TARGET_DIR, or .bench_build/ when that is unset; later runs only
re-check the build. Build output goes to stderr, so the last line of stdout
is always the program's JSON result. Traced runs (--trace 1) also write their
spans to <build dir>/spans/<workload>-seed<N>.jsonl.

Exits non-zero without printing a result when the library sources are
missing, the build fails, or the program fails or times out.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(configured)
    return path if path.is_absolute() else pathlib.Path.cwd() / path


def build(directory):
    """Configures (once) and builds the program; returns the binary path."""
    if not (directory / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(directory),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(directory), "--target",
                    "ube_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return directory / "ube_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["feedback", "selection", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: the library sources (src/) are not in this "
              "checkout; nothing to build", file=sys.stderr)
        return 2
    directory = build_dir()
    try:
        binary = build(directory)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans = directory / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out",
                    str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the benchmark program timed out", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
