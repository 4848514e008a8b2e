#!/usr/bin/env python3
"""Builds xqbench from this checkout's sources and runs it.

    python3 bench/xqbench/run.py --workload select --seed 1 --trace 0
    python3 bench/xqbench/run.py --seed 1 --sets 2

The build tree is $CARGO_TARGET_DIR when set (a relative path is taken from
the repository root), else .bench_build/ at the repository root. Build output
goes to stderr; every argument is passed on to the xqbench program.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no xqmft sources next to bench/xqbench\n")
        return 2
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    steps = [["cmake", "--build", build, "--target", "xqbench", "-j", "4"]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr.fileno()).returncode
        if code != 0:
            return code
    exe = os.path.join(build, "xqbench")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
