#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload replay_full --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 1

Builds the vbatch library and the benchmark runner from source (CMake,
Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
runs the metric self-test, then perfbench_runner once per workload ("all" =
every workload in BENCHMARK.json). The runner's last stdout line is the JSON
result; the exit code is nonzero on any build failure or failed correctness
check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def step(cmd):
    """Runs a build step with its output on stderr; False on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build(out):
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not step(cmd):
            shutil.rmtree(out, ignore_errors=True)  # retry the configure next time
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return step(["cmake", "--build", str(out), "-j", jobs,
                 "--target", "perfbench_runner", "perfbench_selftest"])


def clean_env():
    """The runner's inputs come from its arguments alone: drop the library's
    VBATCH_* environment knobs (threads, ISA, admission, faults, arena)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("VBATCH_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    if not build(out):
        log("build failed")
        return 1
    if subprocess.run([str(out / "perfbench_selftest")], stdout=sys.stderr,
                      env=clean_env()).returncode != 0:
        log("metric self-test failed")
        return 1

    workloads = [args.workload]
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
    # Set-ups and the check passes come on top of the measured seconds.
    timeout = 2 * args.seconds + 60
    status = 0
    for workload in workloads:
        cmd = [str(out / "perfbench_runner"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            spans = out / "spans"
            spans.mkdir(exist_ok=True)
            cmd += ["--spans", str(spans / f"{workload}-seed{args.seed}.jsonl")]
        try:
            rc = subprocess.run(cmd, env=clean_env(), timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            log(f"{workload}: runner exceeded {timeout:g} s")
            rc = 1
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
