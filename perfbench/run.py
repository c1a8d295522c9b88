#!/usr/bin/env python3
"""Builds and runs the mbqao benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `mbqao-serve` binary of the workspace and the benchmark
package (perfbench/Cargo.toml) in release mode, into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the benchmark. Spans, journals and
other run files go under `<target dir>/perfbench`. `--build-only` stops
after building. The exit code is the benchmark's; a failed build exits 3.
"""

import os
import subprocess
import sys


def build(target, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr: stdout carries only the report.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: no workspace to build next to perfbench/", file=sys.stderr)
        return 3
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    manifest = os.path.join(here, "Cargo.toml")
    if not (
        build(target, ["--manifest-path", os.path.join(root, "Cargo.toml"),
                       "-p", "mbqao-bench", "--bin", "mbqao-serve"])
        and build(target, ["--manifest-path", manifest])
    ):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = sys.argv[1:]
    if args == ["--build-only"]:
        return 0
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "mbqao-perfbench"),
        *args,
        "--serve-exe", os.path.join(release, "mbqao-serve"),
        "--work-dir", os.path.join(target, "perfbench"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
