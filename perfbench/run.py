#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 20 --trace 0

It builds the Go program in perfbench/ (a module of its own that imports
the repository's packages through a `replace` of the parent directory)
into .bench_build/, with every Go cache and temporary directory kept
under .bench_build/ too, then runs it. The program prints a summary and,
as its last line, one JSON result object. Without the repository's
sources next to perfbench/ it exits with status 2 and prints no result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 850  # seconds; a cold build compiles the standard library
RUN_TIMEOUT = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        sys.stderr.write("perfbench: the repository sources (go.mod, internal/) are not next to perfbench/\n")
        return 2

    build = os.path.join(ROOT, ".bench_build", "perfbench")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    out = os.path.join(build, "out")
    for d in (home, tmp, out):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace),
           "-out-dir", os.path.relpath(out, ROOT)]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
