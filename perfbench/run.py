#!/usr/bin/env python3
"""Builds and runs the GACT decision-service benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <solve_stream|certify|sweep_all> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --repro-deadlock <passes>

The benchmark is the Rust package next to this script. It is built in
release mode (into $CARGO_TARGET_DIR, or perfbench/target) and then run
with the given arguments; its standard output is passed through, so the
last line is the JSON result. Traced runs write their spans under
perfbench/out/. A run that outlives its time limit is killed and the
script exits non-zero without a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_LIMIT_S = 850
RUN_LIMIT_S = 170


def run_limited(cmd, limit_s, stdout):
    """Runs cmd in its own process group; kills the group after limit_s."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"{cmd[0]}: killed after {limit_s} s", file=sys.stderr)
        return 124


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", manifest]
    code = run_limited(build, BUILD_LIMIT_S, sys.stderr)
    if code != 0:
        print("benchmark build failed", file=sys.stderr)
        return code or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "gact-perfbench")
    args = sys.argv[1:]
    if "--trace" in args:
        args += ["--trace-dir", os.path.join(HERE, "out")]
    sys.stdout.flush()
    return run_limited([binary] + args, RUN_LIMIT_S, None)


if __name__ == "__main__":
    sys.exit(main())
