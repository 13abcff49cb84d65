#!/usr/bin/env python3
"""Build and run the rawswitch performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a rawswitch checkout. The first call configures and
builds the simulator from ../src together with the benchmark driver, in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only bring that build up to date. The driver's output is passed through, so
the last line of standard output is the result JSON. A traced run
(--trace 1) also writes its spans as Chrome trace JSON under the build
directory's traces/ folder.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "router", "raw_router.h")):
        fail("rawswitch sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    # One build at a time when several runs start together.
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_logged(cmd, BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_logged(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets,
                   BUILD_TIMEOUT_S)
    return bdir


def benchmark_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def selftest():
    bdir = build(["perfbench_selftest", "perfbench_driver"])
    proc = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                          timeout=RUN_TIMEOUT_S, check=False)
    ok = proc.returncode == 0
    # BENCHMARK.json must list exactly the metrics the driver reports (whose
    # names the C++ self-test checks).
    listed = subprocess.run([os.path.join(bdir, "perfbench_driver"),
                             "--list-metrics"], capture_output=True,
                            text=True, timeout=60, check=True).stdout
    reported = {"end_to_end": {}, "per_layer": {}}
    for line in listed.splitlines():
        kind, name, unit = line.split()
        reported[kind][name] = unit
    e2e, layers = benchmark_metrics()
    for kind, declared in (("end_to_end", e2e), ("per_layer", layers)):
        if declared != reported[kind]:
            print("FAIL BENCHMARK.json %s differs from the driver: %s" % (
                kind, sorted(set(declared.items()) ^
                             set(reported[kind].items()))))
            ok = False
    print("selftest: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    bdir = build(["perfbench_driver"])
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
