#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-get --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe from the checkout's sources (release profile,
build tree in .bench_build/), then runs it with the given arguments and
exits with its exit code. The benchmark's output is passed through
unchanged; its last line is the JSON result. Build output goes to
standard error.

The child gets an environment without LSM_* variables and without
OCAMLRUNPARAM, so neither can change how the engine or the collector
runs.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def run(cmd, env, timeout, **kw):
    proc = subprocess.Popen(cmd, env=env, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project and lib/ are missing")
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("LSM_") and k != "OCAMLRUNPARAM"
    }
    build = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", TARGET,
    ]
    if run(build, env, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    sys.exit(run([exe] + sys.argv[1:], env, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
