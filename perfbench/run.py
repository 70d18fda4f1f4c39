#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the garbled ARM processor.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
sources under src/) into .bench_build/perfbench; later calls rebuild
incrementally. Build output goes to stderr; the benchmark's result is the
last line of stdout (see perfbench/main.cpp for its format).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "a2g_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "arm", "arm2gc.h")):
        sys.exit("perfbench: no library sources under %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
