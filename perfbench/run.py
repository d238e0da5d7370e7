#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an icdb source tree. The benchmark executable is built
with dune into the tree's own _build directory (build output goes to
stderr), then run with the given arguments; its last line of standard
output is the result object. Exits non-zero, printing no result, when the
tree holds no icdb sources or the build fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: no icdb source tree here (dune-project and lib/ missing)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
