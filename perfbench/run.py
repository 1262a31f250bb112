#!/usr/bin/env python3
"""Builds the perfbench client from this checkout and runs one workload.

    python3 perfbench/run.py --workload compile|apps_interp|apps_c \
        --seed N --seconds S --trace 0|1

The translator and the client are built from source into
.bench_build/perfbench (RelWithDebInfo, the repository's default build
type); later runs only rebuild what changed. Scratch files, the report
(report-<workload>.txt) and the traced run's spans (trace-<workload>.json)
go to the same directory. Build output goes to stderr,
so the last line of stdout is the client's JSON result. Exits non-zero
without a result when the checkout holds no translator sources.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no translator sources next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr,
            check=True,
        )
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", JOBS],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(BUILD, "perfbench")


def main():
    # Compilers write their temporaries under $TMPDIR: keep them, like
    # every other file the benchmark writes, inside the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [binary, "--root", ROOT] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
