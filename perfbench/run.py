#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

    python3 perfbench/run.py --workload paper-mo --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go program in this directory is a
module of its own that builds against the repository beside it; every
build and run file stays under .bench_build/ in the checkout (Go build
cache, go command config, temporary files, the binary, the run's
artifact stores). All arguments are passed to the benchmark binary; see
README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # The go command keeps its config and telemetry counters here.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
