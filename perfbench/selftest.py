#!/usr/bin/env python3
"""Self-test of the served-stack benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds served_bench like run.py, then runs every workload of
BENCHMARK.json, and mmlu_churn (runnable, but not in BENCHMARK.json;
see README.md), with --tiny for a couple of seconds, untraced and
traced, and checks that each run is correct and prints every metric
BENCHMARK.json names for that kind of run (end_to_end untraced,
per_layer traced) with its unit, and nothing else. Exits non-zero when
any run fails a check. Takes under a minute once built.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build(run.build_dir())
    failures = 0
    workloads = [w["name"] for w in spec["workloads"]] + ["mmlu_churn"]
    for workload in workloads:
        for trace in (0, 1):
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", "7",
                 "--seconds", "2", "--trace", str(trace), "--tiny"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=run.RUN_LIMIT_S)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if not result["correct"] or proc.returncode != 0:
                    problems.append("run reported incorrect output")
                if result["attempted"] < 1:
                    problems.append("nothing attempted")
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in want
                               if k in got and got[k] != want[k])
                if missing:
                    problems.append(f"missing {missing}")
                if extra:
                    problems.append(f"not in BENCHMARK.json {extra}")
                if units:
                    problems.append(f"wrong unit {units}")
            except (IndexError, KeyError, ValueError):
                problems.append("no result line")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:20s} trace={trace} {len(want)} metrics: "
                  f"{status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
