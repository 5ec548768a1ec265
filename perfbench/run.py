#!/usr/bin/env python3
"""Builds and runs the CR&P benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/Cargo.toml) and the daemon
(`crpd`, from the repository's workspace) in release mode into
$CARGO_TARGET_DIR (default .bench_build), then runs the benchmark with
the given arguments. Build output goes to stderr; the benchmark's own
output, ending in one JSON result line, goes to stdout. Exits non-zero
without a result when either build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "crp-serve", "--bin", "crpd"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "crp-perfbench"),
        *sys.argv[1:],
        "--crpd", os.path.join(release, "crpd"),
        "--work-dir", os.path.join(target, "perfbench"),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
