#!/usr/bin/env python3
"""Build the benchmark and omegad from source, then run one workload.

    python3 perfbench/run.py --workload compile_stream --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The build goes to _build/ with dune's
shared cache disabled, so nothing is written outside the checkout. The
benchmark itself (perfbench.exe) prints its info line and, last, the
result object; this wrapper passes both through, stops every process
the benchmark started, and exits non-zero (printing no result) when the
build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("compile_stream", "splinter_tail", "serve_sweep")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return [os.path.join(prefix, "bin", "dune")]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # The program's OMEGA_* settings (jobs, memo, chaos, ...) would change
    # what is measured: every workload runs the documented defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OMEGA_")}
    env["DUNE_CACHE"] = "disabled"

    start = time.monotonic()
    try:
        build = subprocess.run(
            dune_command()
            + ["build", "--root", root, "./perfbench/perfbench.exe", "./bin/omegad.exe"],
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    print(f"perfbench: build {time.monotonic() - start:.1f}s", file=sys.stderr)

    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--omegad", os.path.join("_build", "default", "bin", "omegad.exe")]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # The benchmark stops omegad itself; this catches anything left
        # behind by a crash or a timeout.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail("run timed out")
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"run failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    sys.stdout.write(out.decode())


if __name__ == "__main__":
    main()
