#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload <publish_open|publish_saturate|
        control_churn> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR if set
(relative paths are taken from the checkout root), else to .bench_build.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Exits non-zero without a result when the
library sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "xroute_perfbench"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: %s" % " ".join(step))


def main(argv):
    out = build_dir()
    build(out)
    binary = os.path.join(out, "xroute_perfbench")
    # The XPE corpus is built once per build directory, in its own process.
    made = subprocess.run([binary, "--make-corpus", out], cwd=ROOT,
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("could not build the XPE corpus")
    args = list(argv) + ["--corpus-dir", out]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args else "run"
        args += ["--spans", os.path.join(out, "spans-%s.csv" % workload)]
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
