#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload stream_seq --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark program (perfbench.cpp) is
built from source with CMake into $CARGO_TARGET_DIR, or .bench_build when
that is unset; build output goes to stderr. All other flags are passed
through to the program, whose last stdout line is the result JSON. Exits
non-zero, printing no result, when the library sources are missing, the
build fails, or the program fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "runtime.hpp")):
        fail(f"library sources not found under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(build_dir, "dtm_perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    proc = subprocess.Popen([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 3)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}",
             proc.returncode if proc.returncode > 0 else 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
