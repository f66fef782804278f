#!/usr/bin/env python3
"""Builds the factory benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep|dashboard|ingest \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (and the libraries under
src/ it links) into the build directory: $CARGO_TARGET_DIR when set,
else .bench_build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Spans of a traced run are written
under <build dir>/traces. The exit code is the benchmark's: nonzero when
the build fails or an output check fails.
"""

import os
import subprocess
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)

    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=root).returncode == 0

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if not step(["cmake", "-S", here, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    if not step(["cmake", "--build", build, "--target", "factory_bench",
                 "--parallel", "4"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    traces = os.path.join(build, "traces")
    os.makedirs(traces, exist_ok=True)
    binary = os.path.join(build, "factory_bench")
    return subprocess.run([binary] + argv + ["--trace-dir", traces],
                          cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
