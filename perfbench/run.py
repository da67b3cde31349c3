#!/usr/bin/env python3
"""Build and run the dockmine benchmark.

    python3 perfbench/run.py --workload crawl_analyze --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR
or .bench_build; later runs only check the build is current. Build output
goes to stderr; the binary's output goes to stdout, and its last line is
the result JSON. Traced runs (--trace 1) write their spans to
<build dir>/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("crawl_analyze", "serve_read", "serve_ingest")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure and build the binary (both no-ops when current); returns
    its path or None."""
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "dockmine_perfbench"]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {step[0]}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "dockmine_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20170530)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The smoke test's tiny scale; the defaults are the benchmark.
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expect-digest")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 2

    run_name = f"{args.workload}-seed{args.seed}"
    work_dir = os.path.join(build_dir, "runs", f"{run_name}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(trace_dir, run_name + ".json")]
    if args.smoke:
        command.append("--smoke")
    if args.expect_digest:
        command += ["--expect-digest", args.expect_digest]

    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
