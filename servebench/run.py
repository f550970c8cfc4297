#!/usr/bin/env python3
"""Builds the served-path benchmark from source and runs one workload.

    python3 servebench/run.py --workload serve_short --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under servebench/, as a Release build of the
repository's own CMake targets; build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. --trace 1 also writes the
span file servebench-<workload>.trace.json into the build directory.
--quick shrinks every workload for smoke tests (see selftest.py).
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return "git-" + out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "servebench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False).returncode:
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args()

    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "servebench")
    if not build(build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", build_dir, "--source", source_id()]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
