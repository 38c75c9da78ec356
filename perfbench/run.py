#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in perfbench/).

    python3 perfbench/run.py --workload inmem --seed 1 --seconds 12 --trace 0

Run it from the repository root. The program is built from source into the
build directory ($CARGO_TARGET_DIR, or .bench_build), which also holds the
Go build cache and every temporary file, so a run reads and writes only
inside the checkout. The program prints a human-readable table and ends
with one JSON result line; this script exits with its status, or with 2
when the checkout is incomplete or the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    spec = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(spec) and os.path.isfile(os.path.join(root, "go.mod"))):
        print("perfbench: run from the repository root (BENCHMARK.json and go.mod)", file=sys.stderr)
        return 2

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )

    binary = os.path.join(build, "bin", "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    scratch = os.path.join(build, "scratch")
    ran = subprocess.run([binary, "--spec", spec, "--scratch", scratch] + sys.argv[1:], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
