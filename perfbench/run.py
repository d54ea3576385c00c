#!/usr/bin/env python3
"""Repository benchmark: runs one workload at a seed and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. The first run builds perfbench/ and
the wasp library from src/ into .bench_build/ (RelWithDebInfo); later runs
rebuild only what changed. Build output goes to stderr. The perfbench
binary's report goes to stdout, and its last line is the result JSON
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the run's
Chrome trace is left in .bench_build/trace/ and validated with
wasp_trace_check, expecting every layer span; a failed check makes the
result incorrect. The workloads and metrics are described in
BENCHMARK.json and perfbench/main.cpp.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"wasp sources not found under {ROOT}; run from a full checkout")
    cmake = shutil.which("cmake") or fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = [cmake, "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = [cmake, "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    trace_out = ROOT / ".bench_build" / "trace" / (
        f"{args.workload}-seed{args.seed}.trace.json")
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(ROOT / ".bench_build" / "work")]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    # The provenance git lookup must not wander above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        fail("printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(declared) ^ set(result['metrics']))}")

    if args.trace:
        spans = next((l.split()[1:] for l in lines
                      if l.startswith("expect-spans:")), [])
        check = [str(BUILD / "wasp_trace_check"), str(trace_out)]
        for name in spans:
            check += ["--expect", name]
        res = subprocess.run(check, stdout=subprocess.PIPE, text=True)
        print(f"wasp_trace_check {trace_out.name}: "
              f"{res.stdout.strip() or 'failed'} (exit {res.returncode})")
        if res.returncode != 0 or not spans:
            result["correct"] = False

    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
