#!/usr/bin/env python3
"""Builds and runs the served-stack benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark package
(perfbench/CMakeLists.txt) is configured and built into
.bench_build/perfbench on first use; later runs only re-check the build.
The last line of standard output is the result JSON of served_bench.
The exit code is non-zero when the build fails, the run fails a
correctness check, or its result is malformed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175  # each run must end within 180 s once built


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(base):
        base = ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures (once) and builds served_bench; returns its path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", out_dir, "-j", "4"], check=True,
                   stdout=log, stderr=log)
    return os.path.join(out_dir, "served_bench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(out_dir, f"spans-{args.workload}.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("run.py: served_bench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    print("\n".join(lines[:-1]))
    print(f"run.py: served_bench took {time.monotonic() - started:.1f}s",
          file=sys.stderr)
    if not lines:
        print("run.py: served_bench printed nothing", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print(f"run.py: malformed result line: {lines[-1]}", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            print(f"run.py: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))}, "
                  f"units {[k for k in want if k in got and got[k] != want[k]]}",
                  file=sys.stderr)
            return 1
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
