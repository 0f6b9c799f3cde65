#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <render|stage|elastic|viewer> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles perfbench/CMakeLists.txt (the Colza
libraries from src/ plus the benchmark binary) into .bench_build/perfbench; later calls
only let the build tool confirm it is up to date. Build output goes to
.bench_build/perfbench-build.log, so standard output carries only what the
benchmark binary prints, ending with its one-line JSON result. The exit code
is the binary's, or 2 when the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(LOG, "a") as log:
        def step(cmd):
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode == 0

        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not step(cmd):
                return False
        return step(["cmake", "--build", BUILD, "--target", "perfbench",
                     "--parallel", "4"])


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no Colza sources at src/ beside perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed; see " + LOG, file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
