#!/usr/bin/env bash
# One-command gate: tier-1 suite, then the concurrency-sensitive suites
# under ThreadSanitizer (including the sharded-dedup suites with a
# pathological spill threshold, driving every run through the spill/merge
# path), then the observability suites with the obs layer compiled out
# (-DDOCKMINE_OBS=OFF) to prove the disabled path builds and records
# nothing, then the byte-level suites under AddressSanitizer and UBSan
# (a UB report fails the run): the DEFLATE encoder's and decoder's
# word-wide reads, the tar parser and the layer pass.
#
# The server suites (http_test, serve_chaos_test, dist_chaos_test) run in
# both: they drive the one server loop serve, the coordinator and the HTTP
# registry gateway share.
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

echo "== [1/4] tier-1 suite (default build) =="
configure_and_build "${build_root}/default"
ctest --test-dir "${build_root}/default" -L tier1 --output-on-failure -j "${jobs}"

echo "== [2/4] TSan: pipeline + resilience + obs + materialize suites =="
configure_and_build "${build_root}/tsan" -DDOCKMINE_SANITIZE=thread
"${build_root}/tsan/tests/worker_equivalence_test"
"${build_root}/tsan/tests/stream_chaos_test"
"${build_root}/tsan/tests/resilience_test"
"${build_root}/tsan/tests/obs_test"
"${build_root}/tsan/tests/obs_export_test"
"${build_root}/tsan/tests/trace_journal_test"
"${build_root}/tsan/tests/http_test"
"${build_root}/tsan/tests/dist_wire_test"
"${build_root}/tsan/tests/dist_chaos_test"
"${build_root}/tsan/tests/serve_test"
"${build_root}/tsan/tests/serve_chaos_test"
"${build_root}/tsan/tests/timeseries_test"
"${build_root}/tsan/tests/temporal_test"
"${build_root}/tsan/tests/synth_test"
"${build_root}/tsan/tests/versions_test"
# The sharded-dedup suites under maximum spill churn.
DOCKMINE_SHARD_SPILL_BYTES=1 "${build_root}/tsan/tests/shard_test"
DOCKMINE_SHARD_SPILL_BYTES=1 "${build_root}/tsan/tests/shard_pipeline_test"

echo "== [3/4] obs compiled out (-DDOCKMINE_OBS=OFF) =="
configure_and_build "${build_root}/obs-off" -DDOCKMINE_OBS=OFF
"${build_root}/obs-off/tests/obs_test"
"${build_root}/obs-off/tests/obs_export_test"
"${build_root}/obs-off/tests/trace_journal_test"
"${build_root}/obs-off/tests/timeseries_test"
"${build_root}/obs-off/tests/shard_pipeline_test"
"${build_root}/obs-off/tests/http_test"
"${build_root}/obs-off/tests/serve_chaos_test"
"${build_root}/obs-off/tests/dist_chaos_test"
# The layer pass's timed branches (gunzip and classify times) read
# obs::now_ms, which obs-off still compiles.
"${build_root}/obs-off/tests/analyzer_test"
"${build_root}/obs-off/tests/fuzz_test"

echo "== [4/4] ASan + UBSan: compress, fuzz, synth, analyzer, http suites =="
configure_and_build "${build_root}/asan" -DDOCKMINE_SANITIZE=address,undefined
"${build_root}/asan/tests/compress_test"
"${build_root}/asan/tests/fuzz_test"
"${build_root}/asan/tests/synth_test"
"${build_root}/asan/tests/analyzer_test"
"${build_root}/asan/tests/http_test"

echo "All checks passed."
