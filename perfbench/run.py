#!/usr/bin/env python3
"""Build the compiler and run one benchmark workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload qaoa-frontend --seed 1 --seconds 20 --trace 0

Builds `perfbench/main.exe` and the `fastsc` CLI with dune, runs the
workload and relays its output.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 1 the span
timeline lands in perfbench/out/.  Exits non-zero when the build fails, an
output check fails, or the checkout holds no compiler sources.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["qaoa-frontend", "nisq-mix", "serve-deadline", "validate"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "main.exe")
FASTSC_EXE = os.path.join("_build", "default", "bin", "fastsc.exe")
OUT_DIR = os.path.join("perfbench", "out")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a source checkout" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    # the shared dune cache lives outside the checkout; keep the build inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/main.exe", "./bin/fastsc.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--fastsc", FASTSC_EXE, "--out", OUT_DIR]
    # its own process group, so a timeout also stops the serve daemon it spawned
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    run = subprocess.CompletedProcess(cmd, proc.returncode, stdout)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the workload printed no result line (exit %d)" % run.returncode)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or not result.get("correct") or result.get("failed") != 0:
        sys.exit(run.returncode or 1)


if __name__ == "__main__":
    main()
