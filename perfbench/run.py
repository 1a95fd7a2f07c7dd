#!/usr/bin/env python3
"""Builds and runs the sdfmap performance benchmark.

    python3 perfbench/run.py --workload sweep|multimedia|daemon --seed N \
        --seconds S --trace 0|1

Run it from the root of a source tree. It configures and builds
perfbench/ (Release) into $CARGO_TARGET_DIR or .bench_build, then runs the
perfbench binary with every SDFMAP_* environment variable cleared. The last
line of stdout is the binary's JSON result; build output goes to stderr.
Exit code 0 only when the build succeeded and every op of the run was
correct.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def source_revision():
    """The git SHA of the tree, or a digest of its sources outside git."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir, env):
    """Configures (once) and builds the perfbench target; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("the sdfmap sources (CMakeLists.txt, src/) are not beside perfbench/")
        return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            log("configure failed")
            return None
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        log("build failed")
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "multimedia", "daemon"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("SDFMAP_")}
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_root, "perfbench"))
    binary = build(build_dir, env)
    if binary is None:
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--expected-dir", os.path.join("perfbench", "expected"),
               "--work-dir", os.path.join(".bench_work", args.workload),
               "--sha", source_revision()]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
