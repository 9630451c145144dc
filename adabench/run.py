#!/usr/bin/env python3
"""Builds adabench against the repository's sources and runs one workload.

Run from the repository root:

    python3 adabench/run.py --workload nyc_extend --seed 1 --seconds 15 --trace 0
    python3 adabench/run.py --self-test --seed 1

The build goes to $CARGO_TARGET_DIR/adabench (default .bench_build/adabench)
and is incremental, so only the first run of a checkout compiles. Build
output goes to standard error; standard output carries only the benchmark's
own lines, the last of which is its JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(root), "adabench")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "adabench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(out, "adabench")


def main():
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"adabench: build failed: {err}", file=sys.stderr)
        return 1
    workdir = os.path.join(out, "work")
    os.makedirs(workdir, exist_ok=True)
    # The benchmark measures the shipped defaults: no ADAMOVE_* override
    # from the caller's environment may leak in.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ADAMOVE_")}
    args = [binary, *sys.argv[1:], "--workdir", workdir]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
