#!/usr/bin/env python3
"""Same-runner performance gate: perfbench on a base and a head checkout.

    python3 tools/perf_gate.py BASE_CHECKOUT HEAD_CHECKOUT

Builds perfbench in each checkout (each into its own CARGO_TARGET_DIR,
<checkout>/.bench_build) and runs router_64B and soak_rotating untraced at
seed 1, where every pinned digest is checked, in alternating base/head
pairs. Fails (exit 1) when any run reports "correct": false or a failed
operation, or when head's median of an end-to-end metric is worse than
base's by more than that metric's bound in the base's BENCHMARK.json. On a
failure it runs one traced pair of each failing workload and prints the
per-layer metric whose cost rose the most. Exits 0 when the gate passes.
"""
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("router_64B", "soak_rotating")
PAIRS = 3
SECONDS = 3


def run(checkout, workload, trace):
    """One perfbench run; returns its result JSON (failed on any error)."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("FAILED"):
            print("    " + line)
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = {}
    if proc.returncode != 0 or "metrics" not in res:
        print("    perfbench exited %d without a result" % proc.returncode)
        return {"correct": False, "failed": 1, "metrics": {}}
    return res


def worse_by(base, head, better):
    """Relative change of head against base in the bad direction."""
    rise = head - base if better == "lower" else base - head
    if base == 0:
        return float("inf") if rise > 0 else 0.0
    return rise / abs(base)


def metric(res, name):
    return res["metrics"][name]["value"]


def main():
    sys.stdout.reconfigure(line_buffering=True)  # in order with build logs
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, head = (os.path.abspath(p) for p in sys.argv[1:])
    for checkout in (base, head):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            print("perf_gate: no perfbench in " + checkout, file=sys.stderr)
            return 2
    with open(os.path.join(base, "BENCHMARK.json")) as f:
        spec = json.load(f)

    failing = {}  # workload -> reasons
    for workload in WORKLOADS:
        runs = {"base": [], "head": []}
        for pair in range(1, PAIRS + 1):
            for side, checkout in (("base", base), ("head", head)):
                res = run(checkout, workload, 0)
                runs[side].append(res)
                shown = ", ".join(
                    "%s=%.4g" % (m["name"], metric(res, m["name"]))
                    for m in spec["end_to_end"] if m["name"] in res["metrics"])
                print("%s %s pair %d: correct=%s failed=%d %s" % (
                    side, workload, pair, res["correct"], res["failed"], shown))
                if not res["correct"] or res["failed"] > 0:
                    failing.setdefault(workload, []).append(
                        "%s pair %d: correct=%s, %d failed operations" % (
                            side, pair, res["correct"], res["failed"]))
        for m in spec["end_to_end"]:
            name = m["name"]
            vals = {side: [metric(r, name) for r in rs if name in r["metrics"]]
                    for side, rs in runs.items()}
            if len(vals["base"]) < PAIRS or len(vals["head"]) < PAIRS:
                continue
            b, h = (statistics.median(vals[s]) for s in ("base", "head"))
            worse = worse_by(b, h, m["better"])
            verdict = "FAIL" if worse > m["bound"] else "ok"
            print("  %-4s %s %s median: base %.4g, head %.4g (%+.1f%% worse, "
                  "bound %.0f%%)" % (verdict, workload, name, b, h,
                                     100 * worse, 100 * m["bound"]))
            if worse > m["bound"]:
                failing.setdefault(workload, []).append(
                    "%s worse by %.1f%% (bound %.0f%%)" % (
                        name, 100 * worse, 100 * m["bound"]))

    if not failing:
        print("perf gate: passed")
        return 0
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    for workload, reasons in failing.items():
        print("perf gate: %s failed: %s" % (workload, "; ".join(reasons)))
        traced = [run(c, workload, 1) for c in (base, head)]
        rises = sorted(
            ((worse_by(metric(traced[0], n), metric(traced[1], n), better[n]), n)
             for n in better if all(n in t["metrics"] for t in traced)
             and metric(traced[0], n) != 0),
            reverse=True)
        if rises and rises[0][0] > 0:
            worse, name = rises[0]
            print("perf gate: %s layer whose cost rose the most: %s "
                  "(base %.4g, head %.4g, %+.1f%%)" % (
                      workload, name, metric(traced[0], name),
                      metric(traced[1], name), 100 * worse))
        else:
            print("perf gate: %s: no per-layer metric rose" % workload)
    print("perf gate: FAILED")
    return 1


if __name__ == "__main__":
    sys.exit(main())
