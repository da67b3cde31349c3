#include "dockmine/core/lease.h"

#include <algorithm>
#include <string>
#include <thread>

namespace dockmine::core {

util::Status check_job_spec(const JobSpec& spec) {
  util::Status status;
  const auto check = [&status](const char* field, auto value,
                               decltype(value) lo, decltype(value) hi) {
    if (status.ok() && (value < lo || value > hi)) {
      status = util::invalid_argument(
          "job spec: " + std::string(field) + " must be in " +
          std::to_string(lo) + ".." + std::to_string(hi) + ", got " +
          std::to_string(value));
    }
  };
  check("repositories", spec.repositories, 1, 100'000'000);
  check("gzip_level", spec.gzip_level, 1, 9);
  check("threads", spec.threads, 0, 256);
  check("shards", spec.shards, 1, 4096);
  return status;
}

PipelineOptions lease_pipeline_options(const JobSpec& spec,
                                       std::uint32_t node_index,
                                       std::uint32_t node_count,
                                       const std::string& export_dir) {
  PipelineOptions options;
  options.scale = synth::Scale{spec.repositories, spec.seed};
  options.calibration = spec.light_calibration ? synth::Calibration::light()
                                               : synth::Calibration::paper();
  options.gzip_level = spec.gzip_level;
  const std::size_t threads =
      spec.threads != 0
          ? spec.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  options.download_workers = threads;
  options.analyze_workers = threads;
  options.shard.shards = spec.shards;
  options.shard.spill_threshold_bytes = spec.spill_threshold_bytes;
  // Spills land next to the exported runs so the whole lease result ships
  // as one file set.
  options.shard.spill_dir = export_dir;
  options.shard_export_dir = export_dir;
  options.node_count = node_count;
  options.node_index = node_index;
  return options;
}

LeaseTable::LeaseTable(std::uint32_t count) {
  leases_.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) leases_[i].id = i;
}

std::optional<std::uint32_t> LeaseTable::next_pending(double now_ms) const {
  for (const LeaseStatus& lease : leases_) {
    if (lease.state == LeaseState::kPending && now_ms >= lease.not_before_ms)
      return lease.id;
  }
  return std::nullopt;
}

util::Status LeaseTable::assign(std::uint32_t lease, std::uint64_t worker,
                                double now_ms) {
  if (lease >= leases_.size())
    return util::invalid_argument("lease table: no such lease");
  LeaseStatus& status = leases_[lease];
  if (status.state != LeaseState::kPending)
    return util::internal("lease table: assign of a non-pending lease");
  status.state = LeaseState::kRunning;
  status.owners.assign(1, worker);
  status.started_ms = now_ms;
  ++status.attempts;
  return util::Status::success();
}

util::Status LeaseTable::assign_duplicate(std::uint32_t lease,
                                          std::uint64_t worker) {
  if (lease >= leases_.size())
    return util::invalid_argument("lease table: no such lease");
  LeaseStatus& status = leases_[lease];
  if (status.state != LeaseState::kRunning)
    return util::internal("lease table: duplicate of a non-running lease");
  if (std::find(status.owners.begin(), status.owners.end(), worker) !=
      status.owners.end())
    return util::internal("lease table: worker already owns this lease");
  status.owners.push_back(worker);
  ++status.attempts;
  return util::Status::success();
}

bool LeaseTable::complete(std::uint32_t lease, double now_ms) {
  LeaseStatus& status = leases_.at(lease);
  if (status.state == LeaseState::kDone) return false;
  status.state = LeaseState::kDone;
  status.completed_ms = now_ms;
  status.owners.clear();
  completed_runtimes_ms_.push_back(now_ms - status.started_ms);
  ++done_;
  return true;
}

std::vector<std::uint32_t> LeaseTable::release_owner(std::uint64_t worker,
                                                     double backoff_until_ms) {
  std::vector<std::uint32_t> reassigned;
  for (LeaseStatus& status : leases_) {
    if (status.state != LeaseState::kRunning) continue;
    auto it = std::find(status.owners.begin(), status.owners.end(), worker);
    if (it == status.owners.end()) continue;
    status.owners.erase(it);
    if (status.owners.empty()) {
      status.state = LeaseState::kPending;
      status.not_before_ms = backoff_until_ms;
      reassigned.push_back(status.id);
    }
  }
  return reassigned;
}

bool LeaseTable::fail(std::uint32_t lease, std::uint64_t worker,
                      double backoff_until_ms) {
  LeaseStatus& status = leases_.at(lease);
  if (status.state != LeaseState::kRunning) return false;
  auto it = std::find(status.owners.begin(), status.owners.end(), worker);
  if (it == status.owners.end()) return false;
  status.owners.erase(it);
  if (!status.owners.empty()) return false;
  status.state = LeaseState::kPending;
  status.not_before_ms = backoff_until_ms;
  return true;
}

double LeaseTable::median_completed_ms() const {
  if (completed_runtimes_ms_.empty()) return 0.0;
  std::vector<double> sorted = completed_runtimes_ms_;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];
}

}  // namespace dockmine::core
