#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload fabric-congested --seed 1 --seconds 10 --trace 0

Run from the repository root. Everything the Go toolchain writes (build
cache, temporary files, the binary) goes under .bench_build/ in the
repository root. The arguments are passed to the binary unchanged; its
standard output ends with the JSON result line. The exit code is the
binary's, or non-zero when the build fails or the run exceeds its time
limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# The first build compiles the whole module; later ones hit the cache.
BUILD_TIMEOUT_S = 850
# A run measures for --seconds plus set-up and checks.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env["GOMODCACHE"] = os.path.join(BUILD, "gopath", "pkg", "mod")
    env["GOFLAGS"] = ""
    env["GOTOOLCHAIN"] = "local"
    env["CGO_ENABLED"] = "0"
    return env


def main():
    env = go_env()
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
