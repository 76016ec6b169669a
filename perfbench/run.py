#!/usr/bin/env python3
"""Builds the end-to-end attestation benchmark from source and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default .bench_build), then run with the given
arguments. Cargo's output goes to stderr, so the last stdout line is the
benchmark's result object. The exit status is the benchmark's, or the
build's when the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; the benchmark's own loops stop long before.
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "sage-perfbench")
    # The run (and every pass it spawns) stays on one CPU. On a small
    # shared host, work spread over two CPUs runs at whatever speed the
    # host grants both at once: unpinned, link-uds ranged 13.5k-27.8k
    # rounds/s between runs on a 2-vCPU VM, pinned 26.2k-28.7k.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Its own process group, so a timeout also stops the passes it spawns.
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
