#!/usr/bin/env python3
"""Build and run the LittleTable end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The Go program in this directory is compiled from source into
.bench_build/ at the repository root (the Go build cache lives there
too, so nothing outside the checkout is written), then run with the
arguments given here. Its standard output is passed through; its last
line is the JSON result. The exit code is the program's, or 2 when the
build fails (for example when the engine sources beside this directory
are missing).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
    })
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no engine sources at %s (go.mod missing)" % ROOT, file=sys.stderr)
        return False
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return False
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    cmd = [go, "build", "-trimpath", "-o", BINARY, "."]
    try:
        res = subprocess.run(cmd, cwd=HERE, env=go_env(), stdout=sys.stderr,
                             stderr=sys.stderr, timeout=850)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return False
    return res.returncode == 0


def main():
    if not build():
        return 2
    args = [BINARY, "-root", ROOT] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait()
    except KeyboardInterrupt:
        proc.terminate()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
