#!/usr/bin/env python3
"""Build the serving-stack benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-skew --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see README.md). The
package builds in release mode into $CARGO_TARGET_DIR (default
`.bench_build`) and runs it. The binary's last stdout line is the JSON
result; the exit code is nonzero, with no result printed, when the build
fails, the xfm sources are missing, or the run fails its correctness
gate.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 600
# Set-up, warm-up and the correctness sweep take well under this on top
# of the timed phase.
RUN_OVERHEAD_S = 150


def run_bounded(argv, env, timeout_s, stdout=None):
    """Run argv to completion; kill it and wait if it outlives timeout_s."""
    proc = subprocess.Popen(argv, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {argv[0]} exceeded {timeout_s} s", file=sys.stderr)
        return 124


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        print("perfbench: xfm sources not found next to perfbench/", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    code = run_bounded(build, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code or 1
    sys.stdout.flush()
    exe = os.path.join(target, "release", "xfm-perfbench")
    args = sys.argv[1:]
    seconds = args[args.index("--seconds") + 1] if "--seconds" in args[:-1] else "0"
    timeout_s = RUN_OVERHEAD_S + (int(seconds) if seconds.isdigit() else 0)
    return run_bounded([exe] + args, env, timeout_s)


if __name__ == "__main__":
    sys.exit(main())
