#!/usr/bin/env python3
"""Host-time perf ledger: builds perf_ledger from the repository sources and
runs one workload.

    python3 perfledger/run.py --workload <sort|kmeans|server> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfledger
(default .bench_build/perfledger) and is reused by later runs. The last line
of standard output is the benchmark's JSON result; on a failed build or run
nothing is printed there and the exit code is non-zero.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sort", "kmeans", "server")
RUN_TIMEOUT_S = 170


def fail(msg, output=""):
    if output:
        sys.stderr.write(output[-4000:])
    sys.stderr.write(f"perfledger: {msg}\n")
    sys.exit(1)


def build(build_dir, env):
    """Configures once, then brings perf_ledger up to date; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "perf_ledger",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", proc.stdout)
    return os.path.join(build_dir, "perf_ledger")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfledger")
    # Compiler and run temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(build_dir, env)
    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # The ledger runs on one CPU: its thread pools then cost what their work
    # and hand-offs cost, not however many of a shared host's cores happen to
    # be free at the time.
    cpu = max(os.sched_getaffinity(0))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perf_ledger exited {proc.returncode}", proc.stdout)
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perf_ledger printed no JSON result", proc.stdout)
    print(proc.stdout.strip())


if __name__ == "__main__":
    main()
