// Distributed run coordinator (DESIGN.md §12): owns the lease table, a
// loopback listener, and one connection per worker process; drives the run
// from "K leases pending" to "every lease done and folded" while surviving
// worker death, hangs, reported failures, and malformed frames.
//
// Robustness machinery, all reused from existing layers:
//   - liveness: workers heartbeat while executing a lease (the obs
//     heartbeat emitter with a socket sink); a running worker that misses
//     `heartbeat_deadline_ms` is declared dead and its leases reassigned.
//     An idle worker's death is detected by its socket closing.
//   - reassignment backoff: decorrelated jitter (registry::decorrelated_
//     jitter) spaces re-dispatches of a failing lease.
//   - retry limits: registry::RetryPolicy caps attempts per lease and a
//     global retry budget across the run; registry::CircuitBreaker per
//     worker stops assigning to a worker that keeps failing leases.
//   - stragglers: once a lease runs longer than
//     max(straggler_floor_ms, straggler_factor * median completed lease
//     wall), a duplicate is dispatched to an idle worker; the first
//     completion wins and the duplicate is discarded after a byte-level
//     comparison (`duplicate_mismatches` must stay 0 — leases are
//     idempotent by construction).
//
// Threading: the shared http::Server runs one thread per connection (one
// stalled mid-frame is dropped after `heartbeat_deadline_ms`; a dropped
// worker's thread and fd go at once, its record stays for DistStats), and
// the scheduler loop runs on the run() caller's thread. All shared state
// lives behind one mutex; a connection's send lock nests inside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dockmine/core/lease.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/http/server.h"
#include "dockmine/obs/export.h"
#include "dockmine/registry/resilient.h"
#include "dockmine/util/error.h"

namespace dockmine::core {

struct CoordinatorOptions {
  JobSpec spec;
  std::uint32_t leases = 3;
  /// Received shard sets land in `<work_dir>/lease-<id>-a<attempt>/`,
  /// per-lease obs exports in `<work_dir>/obs-lease-<id>.json`.
  std::string work_dir;
  std::uint16_t port = 0;  ///< 0: ephemeral (read back via port())

  /// A worker with a running lease that has not heartbeat for this long is
  /// declared dead; its leases are reassigned.
  std::uint64_t heartbeat_deadline_ms = 2000;
  /// Straggler re-dispatch triggers at
  /// max(straggler_floor_ms, straggler_factor * median completed wall).
  /// Disabled when straggler_factor <= 0.
  double straggler_factor = 3.0;
  std::uint64_t straggler_floor_ms = 2000;

  /// max_attempts bounds dispatches per lease; retry_budget bounds
  /// reassignments across the whole run. base/max_delay_ms drive the
  /// decorrelated-jitter backoff between re-dispatches of a lease.
  registry::RetryPolicy retry{.max_attempts = 5,
                              .base_delay_ms = 10.0,
                              .max_delay_ms = 500.0,
                              .retry_budget = 64};
  registry::BreakerPolicy breaker;  ///< per-worker assignment breaker
  std::uint64_t seed = 0x5eed;      ///< backoff jitter stream

  std::uint32_t io_timeout_ms = 250;     ///< connection read poll
  std::uint64_t scheduler_tick_ms = 20;  ///< liveness/assignment cadence
  /// Whole-run wall clamp: exceeded => the run fails with kTimeout instead
  /// of waiting forever on a cluster that cannot converge.
  std::uint64_t max_wall_ms = 10 * 60 * 1000;

  /// Test hook (idempotency proof): dispatch a duplicate of every running
  /// lease as soon as a second worker is idle, regardless of the straggler
  /// threshold. Forces the duplicate-completion path on every run.
  bool duplicate_every_lease = false;
};

/// Counters the chaos tests assert on; also exported as
/// dockmine_coord_* obs counters.
struct DistStats {
  std::uint32_t leases = 0;
  std::uint64_t workers_connected = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t missed_deadlines = 0;      ///< liveness expiries
  std::uint64_t worker_disconnects = 0;    ///< sockets closed before shutdown
  std::uint64_t reassignments = 0;         ///< leases returned to pending
  std::uint64_t straggler_redispatches = 0;
  std::uint64_t duplicate_completions = 0; ///< second result for a done lease
  std::uint64_t duplicate_mismatches = 0;  ///< duplicates that differed (BUG)
  std::uint64_t malformed_frames = 0;      ///< poisoned connections
  std::uint64_t lease_failures = 0;        ///< worker-reported failures
  std::uint64_t files_received = 0;
  std::uint64_t bytes_received = 0;
  double elapsed_ms = 0.0;
  http::ServerStats connections;  ///< the shared server's own counts
};

struct CoordinatorReport {
  /// The folded run — analysis_report_json(combined...) is byte-identical
  /// to a serial single-process run of the same JobSpec.
  PipelineResult combined;
  DistStats stats;
  /// Per-lease obs summaries (straggler deltas), in lease order; empty when
  /// workers ran with obs compiled out.
  std::vector<obs::ObsNodeSummary> node_obs;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Check the job spec (check_job_spec: kInvalidArgument, nothing bound),
  /// then bind the listener (no threads started — safe to fork workers
  /// after).
  util::Status bind();
  std::uint16_t port() const noexcept;

  /// Accept workers and drive the run until every lease is done (fold and
  /// return) or the run cannot converge (attempts/budget exhausted, wall
  /// clamp). Call bind() first.
  util::Result<CoordinatorReport> run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dockmine::core
