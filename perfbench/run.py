#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --calib-ref-ms MS --calib-ref-cache-ms MS \
        --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark driver and the daemon it starts with dune, from the
sources of the checkout, then runs one workload. The driver prints the
result as the last line of stdout. Exits non-zero, without a result, when
the checkout holds no buildable repository or the run fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT = 880
RUN_TIMEOUT = 170
TARGETS = ["./perfbench/wbench.exe", "./bin/facade_cli.exe"]
DRIVER = os.path.join("_build", "default", "perfbench", "wbench.exe")


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    try:
        proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    except OSError as e:
        print(f"run.py: cannot start {cmd[0]}: {e}", file=sys.stderr)
        return 127
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("run.py: run from the root of a repository checkout", file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ".", *TARGETS]
    # Build output goes to stderr so the result stays the last stdout line.
    code = run_group(build, BUILD_TIMEOUT, sys.stderr)
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code or 1
    return run_group([DRIVER, *sys.argv[1:]], RUN_TIMEOUT, None)


if __name__ == "__main__":
    sys.exit(main())
