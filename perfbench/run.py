#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source, runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload batch_k10 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload serve_poisson --repeat 10 --seed 1

One run prints human-readable `metric` lines and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics (the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1). Repeat mode runs the workload once per
seed (seed, seed+1, ...) and prints each metric's median and quartiles.

The build and every file a run writes live under .bench_build/ in the
checkout. Exits non-zero, without a result, when the repository sources are
not there; exits 1 on any correctness mismatch.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
HARNESS = os.path.join(BUILD, "apss_perfbench")

DEFAULT_SEED = 1
HELD_OUT_SEED = 900001  # never used while tuning; for confirming a claim
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "engine.hpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"perfbench: repository source {needed} is missing; "
                "run from the root of a full checkout")
            sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "apss_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the harness once; returns (exit code, parsed result or None)."""
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", OUT]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench: {workload} seed {seed} timed out")
        return 1, None
    lines = out.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    if echo:
        print("\n".join(body), flush=True)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        if echo and last:
            print(last, flush=True)
        return proc.returncode or 1, None
    return proc.returncode, result


def check_names(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"]
                for m in spec()["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        log(f"perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(got))}, "
            f"extra {sorted(set(got) - set(declared))}, or units differ")
        return False
    return True


def repeat(args):
    rows = {}
    for i in range(args.repeat):
        seed = args.seed + i
        code, result = run_once(args.workload, seed, args.seconds, args.trace,
                                echo=False)
        if code != 0 or result is None or not check_names(result, args.trace):
            log(f"perfbench: run with seed {seed} failed (exit {code})")
            return 1
        line = " ".join(f"{k}={v['value']:.6g}"
                        for k, v in result["metrics"].items())
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              f"{line}", flush=True)
        for name, m in result["metrics"].items():
            rows.setdefault(name, (m["unit"], []))[1].append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    summary = {}
    print(f"{'metric':30s} {'unit':6s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name, (unit, values) in rows.items():
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else (values[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:30s} {unit:6s} {med:14.6f} {q1:14.6f} {q3:14.6f} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": unit}
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "first_seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "metrics": summary}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [w["name"] for w in spec()["workloads"]]
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N times (seeds seed..seed+N-1), print quartiles")
    args = p.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    if args.repeat:
        return repeat(args)
    code, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    if not check_names(result, args.trace):
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
