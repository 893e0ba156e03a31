#!/usr/bin/env python3
"""Build and run the GekkoFS end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload mdtest --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory (its own module, which
builds against the repository's packages). This script builds it from
source into .bench_build/ with the Go build cache, module cache and
temporary files kept there too, then runs it with the arguments given and
exits with its status. The program prints its result as the last line of
standard output. When the build fails (for example outside a checkout of
the repository) the script exits non-zero without a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# The benchmark bounds its own run time; these only stop a hung process.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "go-cache"), ("GOPATH", "gopath"),
                      ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOFLAGS="-mod=mod", GOTOOLCHAIN="local", GOPROXY="off",
               GOWORK="off", CGO_ENABLED="0")
    return env


def find_go():
    """The go command on PATH, else in $GOROOT/bin or the Go distribution's
    default install location."""
    for path in (None, os.path.join(os.environ.get("GOROOT", ""), "bin"), "/usr/local/go/bin"):
        go = shutil.which("go", path=path)
        if go:
            return go
    return None


def main():
    go = find_go()
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    env = go_env()
    try:
        build = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
