// Work leases for real multi-process distribution (DESIGN.md §12).
//
// The coordinator partitions one analysis run into `count` leases using the
// exact deterministic layer-ownership pass of the multi-node split: lease i
// means "run the pipeline as node i of count" (crawl the full snapshot,
// download/analyze/index only the owned partition, export the shard set).
// Because ownership is a pure function of (snapshot, count, i), a lease is
// idempotent — executing it twice, on different workers or after a crash,
// yields byte-identical exports, and the commutative merge_content_entries
// fold makes duplicate completions harmless once deduplicated by lease id.
//
// LeaseTable is the coordinator-side state machine:
//
//     pending ──assign──▶ running ──complete──▶ done
//        ▲                  │  │
//        └──release_owner───┘  └─assign_duplicate (straggler re-dispatch;
//           (worker death,        the lease stays running with two owners,
//            missed deadline,     first completion wins)
//            malformed frame,
//            reported failure)
//
// It is not internally synchronized; the Coordinator guards it with its
// state mutex. Time enters as explicit `now_ms` arguments so transitions
// are unit-testable on a virtual clock.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dockmine/core/pipeline.h"
#include "dockmine/util/error.h"

namespace dockmine::core {

/// What every lease of a distributed run executes: the seed-deterministic
/// pipeline configuration, identical on all workers. Shipped once per lease
/// grant; small enough to re-send on every reassignment.
struct JobSpec {
  std::uint64_t repositories = 300;
  std::uint64_t seed = 20170530;
  bool light_calibration = true;  ///< light vs paper synth calibration
  int gzip_level = compress::kDefaultLevel;
  /// Threads of each pipeline stage (materialize's gzip, download, then
  /// analysis): 0 means every core of the machine that runs the lease,
  /// resolved there by lease_pipeline_options. Registries and reports are
  /// byte-identical for every count.
  std::size_t threads = 0;
  std::uint32_t shards = 4;       ///< sharded dedup store
  std::uint64_t spill_threshold_bytes = 64ull << 20;
};

/// The one range check on a JobSpec. The wire decoder, Coordinator::bind()
/// and ServeDaemon::start() each run it before a spec is used, so a job no
/// worker could execute is refused where it enters. kInvalidArgument names
/// the first field out of range.
util::Status check_job_spec(const JobSpec& spec);

/// Pipeline options for one lease: node `node_index` of `node_count`,
/// spilling and exporting its shard set into `export_dir`. `spec.threads`
/// 0 resolves to std::thread::hardware_concurrency() (at least 1) of this
/// machine; the resolved count sizes both download_workers and
/// analyze_workers, and through the latter materialize's gzip threads.
/// Each stage builds its own pool from it: there is no
/// process-wide pool, because dist_chaos_test and bench_distributed fork
/// without exec, and a pool inherited across fork has no threads.
PipelineOptions lease_pipeline_options(const JobSpec& spec,
                                       std::uint32_t node_index,
                                       std::uint32_t node_count,
                                       const std::string& export_dir);

enum class LeaseState : std::uint8_t { kPending, kRunning, kDone };

struct LeaseStatus {
  std::uint32_t id = 0;          ///< == node_index of the partition
  LeaseState state = LeaseState::kPending;
  std::uint32_t attempts = 0;    ///< dispatches so far (all owners)
  /// Workers currently executing this lease (1, or 2 after a straggler
  /// re-dispatch). Keyed by the coordinator's connection ids.
  std::vector<std::uint64_t> owners;
  double started_ms = 0.0;       ///< first dispatch of the current attempt
  double completed_ms = 0.0;
  /// Earliest time the lease may be re-dispatched after a failure
  /// (decorrelated-jitter backoff, set by the coordinator).
  double not_before_ms = 0.0;
};

class LeaseTable {
 public:
  /// `count` leases; lease i is partition i of count.
  explicit LeaseTable(std::uint32_t count);

  std::uint32_t count() const noexcept {
    return static_cast<std::uint32_t>(leases_.size());
  }
  const LeaseStatus& status(std::uint32_t lease) const {
    return leases_.at(lease);
  }

  /// Lowest pending lease whose backoff window has elapsed.
  std::optional<std::uint32_t> next_pending(double now_ms) const;

  /// pending -> running under `worker`.
  util::Status assign(std::uint32_t lease, std::uint64_t worker,
                      double now_ms);

  /// Add a second owner to a running lease (straggler re-dispatch). The
  /// attempt counter advances; state stays running.
  util::Status assign_duplicate(std::uint32_t lease, std::uint64_t worker);

  /// running -> done. Returns true for the first completion; false for a
  /// duplicate (already done), which the caller must count and discard.
  bool complete(std::uint32_t lease, double now_ms);

  /// Remove `worker` from every lease it owns. Running leases left with no
  /// owner return to pending (their ids are returned — the reassignment
  /// set); leases still covered by a duplicate owner stay running.
  std::vector<std::uint32_t> release_owner(std::uint64_t worker,
                                           double backoff_until_ms);

  /// Remove `worker` from one lease after a reported failure (the worker
  /// itself stays alive). Returns true when the lease returned to pending
  /// (no duplicate owner remained); false when a duplicate owner still runs
  /// it or the worker was not an owner.
  bool fail(std::uint32_t lease, std::uint64_t worker,
            double backoff_until_ms);

  bool all_done() const noexcept { return done_ == leases_.size(); }
  std::uint32_t done() const noexcept { return done_; }

  /// Median wall time of completed leases (0 when none) — the baseline the
  /// straggler detector scales.
  double median_completed_ms() const;

 private:
  std::vector<LeaseStatus> leases_;
  std::vector<double> completed_runtimes_ms_;
  std::uint32_t done_ = 0;
};

}  // namespace dockmine::core
