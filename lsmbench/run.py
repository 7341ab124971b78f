#!/usr/bin/env python3
"""Build and run the lsm benchmark from the root of a checkout.

    python3 lsmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `lsmbench` (a package of its own, depending on the repository's
crates by path) with cargo into $CARGO_TARGET_DIR (default
`.bench_build`), then runs it with the given arguments plus the git
revision of the checkout, if it is a git repository. The benchmark's
stdout is passed through: its last line is the JSON result. See
lsmbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

# A run that has not finished by then is stopped; its result is lost.
RUN_TIMEOUT_S = 170


def git_rev(root):
    """The checkout's git revision, or "unknown" outside a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("lsmbench: build failed")
    exe = os.path.join(target, "release", "lsmbench")
    try:
        run = subprocess.run([exe, *sys.argv[1:], "--rev", git_rev(root)], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"lsmbench: no result within {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
