#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a Snorlax checkout:

    python3 perfbench/run.py --workload stream-hot --seed 1 --seconds 10 --trace 0

The arguments go to perfbench/main.exe unchanged (see main.ml).  Build
output goes to standard error, so the last line of standard output is the
benchmark's result object.  The host stamp (nproc, git rev) is handed to
the executable through the environment.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def probe(cmd, env=None):
    """First line of a command's output, or "unknown" if it fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.splitlines()
    return lines[0].strip() if out.returncode == 0 and lines else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a Snorlax checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        return build.returncode
    # Git must not look above the checkout for a repository.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    env["PERFBENCH_NPROC"] = probe(["nproc"])
    env["PERFBENCH_REV"] = probe(["git", "rev-parse", "--short", "HEAD"], git_env)
    try:
        return subprocess.run([EXE] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
