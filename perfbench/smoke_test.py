#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny scale.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. Every workload runs untraced and traced at
20 repositories, one set-up, one pass, one second of reads and one 5-repository
ingest. The test passes when every run exits 0 and prints, as its last line,
the result object with every metric BENCHMARK.json names for that mode (with
its unit) and no failed operation, and when a run given a wrong expected
report digest counts failed operations instead of exiting early.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--smoke"]


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--trace", str(trace),
               *TINY, *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result, done.stdout, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def fail(what):
        failures.append(what)
        print("FAIL", what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, result, _, err = run(workload, trace)
            if code != 0 or result is None:
                fail(f"{label}: exit {code}\n{err[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                fail(f"{label}: missing {missing} extra {extra} unit {wrong}")
            if result["attempted"] < 1 or result["failed"] != 0 \
                    or result["correct"] is not True:
                fail(f"{label}: attempted {result['attempted']} failed "
                     f"{result['failed']} correct {result['correct']}")
            print("ok  ", label, f"({result['attempted']} operations)")

    bad = "sha256:" + "0" * 64
    code, result, out, _ = run("crawl_analyze", 0, "--expect-digest", bad)
    error_rate = [l for l in out.splitlines() if l.startswith("error_rate ")]
    if code != 0 or result is None:
        fail(f"tampered digest: exit {code}")
    elif result["failed"] == 0 or result["correct"] is not False \
            or not error_rate or float(error_rate[-1].split()[1]) <= 0.0:
        fail(f"tampered digest not counted: {result['failed']} failed, "
             f"{error_rate}")
    else:
        print("ok   tampered digest counted:", error_rate[-1])

    print("PASS" if not failures else f"{len(failures)} FAILED")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
