#!/usr/bin/env python3
"""hompresd end-to-end benchmark: build, then run one workload.

Run from the repository root:

    python3 hompresd_bench/run.py --workload hom_miss --seed 1 \
        --seconds 10 --trace 0

Builds the hompres library, the hompresd daemon and the benchmark driver
from source with CMake (Release) into $CARGO_TARGET_DIR/hompresd_bench
(default .bench_build/hompresd_bench), then runs the driver, whose last
stdout line is the JSON result. Build output goes to stderr. The exit
code is the driver's: 0 when every request succeeded and every checked
answer matched the reference, 1 otherwise, 2 on a usage or build error.
See hompresd_bench/README.md for the workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-256 (first 16 hex digits) of the sources the benchmark builds."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "examples", "hompresd_main.cpp")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if path.endswith(".pyc"):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    # Only this checkout's own repository counts, never an enclosing one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(build_dir):
    """Configures (once) and builds; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "hompresd_bench", "hompresd"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target_dir)),
                             "hompresd_bench")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2
    # A relative work directory keeps the daemon's socket path short.
    work_dir = os.path.relpath(build_dir, ROOT)
    command = [os.path.join(build_dir, "hompresd_bench"), *sys.argv[1:],
               "--work-dir", work_dir, "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
