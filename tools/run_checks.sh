#!/usr/bin/env bash
# One-command gate: tier-1 suite, then the concurrency-sensitive suites
# under ThreadSanitizer (including the sharded-dedup suites with a
# pathological spill threshold, driving every run through the spill/merge
# path), then the observability suites with the obs layer compiled out
# (-DDOCKMINE_OBS=OFF) to prove the disabled path builds and records
# nothing.
#
# Usage: tools/run_checks.sh [build-root]     (default: ./build-checks)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_root="${1:-"${repo_root}/build-checks"}"
jobs="$(nproc 2>/dev/null || echo 4)"

configure_and_build() {
  local dir="$1"
  shift
  cmake -B "${dir}" -S "${repo_root}" "$@" >/dev/null
  cmake --build "${dir}" -j "${jobs}"
}

echo "== [1/3] tier-1 suite (default build) =="
configure_and_build "${build_root}/default"
ctest --test-dir "${build_root}/default" -L tier1 --output-on-failure -j "${jobs}"

echo "== [2/3] TSan: pipeline + resilience + obs suites =="
configure_and_build "${build_root}/tsan" -DDOCKMINE_SANITIZE=thread
"${build_root}/tsan/tests/worker_equivalence_test"
"${build_root}/tsan/tests/stream_chaos_test"
"${build_root}/tsan/tests/resilience_test"
"${build_root}/tsan/tests/obs_test"
"${build_root}/tsan/tests/obs_export_test"
"${build_root}/tsan/tests/trace_journal_test"
"${build_root}/tsan/tests/dist_wire_test"
"${build_root}/tsan/tests/dist_chaos_test"
"${build_root}/tsan/tests/serve_test"
"${build_root}/tsan/tests/serve_chaos_test"
"${build_root}/tsan/tests/timeseries_test"
"${build_root}/tsan/tests/arena_test"
"${build_root}/tsan/tests/temporal_test"
# The sharded-dedup suites under maximum spill churn.
DOCKMINE_SHARD_SPILL_BYTES=1 "${build_root}/tsan/tests/shard_test"
DOCKMINE_SHARD_SPILL_BYTES=1 "${build_root}/tsan/tests/shard_pipeline_test"

echo "== [3/3] obs compiled out (-DDOCKMINE_OBS=OFF) =="
configure_and_build "${build_root}/obs-off" -DDOCKMINE_OBS=OFF
"${build_root}/obs-off/tests/obs_test"
"${build_root}/obs-off/tests/obs_export_test"
"${build_root}/obs-off/tests/trace_journal_test"
"${build_root}/obs-off/tests/timeseries_test"

echo "All checks passed."
