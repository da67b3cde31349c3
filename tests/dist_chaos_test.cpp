// Chaos tests for the coordinator + worker-process distribution layer
// (DESIGN.md §12). Each test forks real worker processes — fork happens
// between Coordinator::bind() (no threads yet) and Coordinator::run(), so
// the children never inherit a running thread — and then injects a
// failure: a SIGKILL mid-lease, a wedged worker that stops heartbeating,
// a forced duplicate completion, a rogue client spraying garbage frames.
//
// The oracle in every case is byte equality: the distributed fold's
// analysis report must match a serial single-process run of the same
// JobSpec exactly, no matter which workers died along the way.

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>

#include <gtest/gtest.h>

#include "dockmine/core/coordinator.h"
#include "dockmine/core/lease.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/worker.h"
#include "dockmine/http/socket.h"
#include "dockmine/obs/obs.h"

namespace core = dockmine::core;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

// Small but real: every lease still crawls, downloads, analyzes, and
// exports a sharded index. Shared by the serial baseline and every
// distributed run, so the byte-equality oracle is meaningful.
core::JobSpec test_spec() {
  core::JobSpec spec;
  spec.repositories = 40;
  spec.seed = 20170530;
  spec.light_calibration = true;
  spec.gzip_level = 1;
  spec.download_workers = 4;
  spec.analyze_workers = 2;
  spec.shards = 4;
  return spec;
}

// Serial single-process report, computed once — the ground truth every
// chaos run must reproduce byte-for-byte.
const std::string& serial_baseline() {
  static const std::string cached = [] {
    TempDir dir("dockmine-dist-serial");
    auto result = core::run_end_to_end(
        core::lease_pipeline_options(test_spec(), 0, 1, dir.str()));
    EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message());
    if (!result.ok()) return std::string();
    return core::analysis_report_json(result.value()).dump();
  }();
  return cached;
}

// Fork one worker process. Called before Coordinator::run(), while the
// parent is still single-threaded. The child never returns.
pid_t spawn_worker(std::uint16_t port, std::uint64_t id,
                   const std::string& scratch,
                   core::WorkerChaos chaos = {}) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  core::WorkerOptions options;
  options.port = port;
  options.worker_id = id;
  options.scratch_dir = scratch + "/worker-" + std::to_string(id);
  options.chaos = chaos;
  dockmine::obs::set_enabled(true);
  (void)core::run_worker(options);
  ::_exit(0);
}

void reap(const std::vector<pid_t>& children) {
  for (pid_t pid : children) {
    ::kill(pid, SIGKILL);  // no-op for the already-exited
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

core::CoordinatorOptions base_options(const TempDir& work) {
  core::CoordinatorOptions options;
  options.spec = test_spec();
  options.leases = 3;
  options.work_dir = work.str();
  options.straggler_factor = 0;  // chaos tests exercise one path at a time
  options.max_wall_ms = 120'000;
  return options;
}

TEST(DistChaos, DistributedMatchesSerialByteForByte) {
  ASSERT_FALSE(serial_baseline().empty());
  TempDir work("dockmine-dist-happy");
  core::Coordinator coordinator(base_options(work));
  ASSERT_TRUE(coordinator.bind().ok());

  std::vector<pid_t> children;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    children.push_back(spawn_worker(coordinator.port(), id, work.str()));
  }
  auto report = coordinator.run();
  reap(children);

  ASSERT_TRUE(report.ok()) << report.error().message();
  const core::DistStats& stats = report.value().stats;
  EXPECT_EQ(stats.workers_connected, 3u);
  EXPECT_GT(stats.heartbeats_received, 0u);
  EXPECT_EQ(stats.reassignments, 0u);
  EXPECT_EQ(stats.duplicate_mismatches, 0u);
  EXPECT_EQ(core::analysis_report_json(report.value().combined).dump(),
            serial_baseline());
}

TEST(DistChaos, SigkilledWorkerIsReassignedAndRunConverges) {
  ASSERT_FALSE(serial_baseline().empty());
  TempDir work("dockmine-dist-kill");
  core::Coordinator coordinator(base_options(work));
  ASSERT_TRUE(coordinator.bind().ok());

  std::vector<pid_t> children;
  core::WorkerChaos die;
  die.die_on_first_lease = true;  // one heartbeat, then raise(SIGKILL)
  children.push_back(spawn_worker(coordinator.port(), 1, work.str(), die));
  children.push_back(spawn_worker(coordinator.port(), 2, work.str()));
  children.push_back(spawn_worker(coordinator.port(), 3, work.str()));
  auto report = coordinator.run();
  reap(children);

  ASSERT_TRUE(report.ok()) << report.error().message();
  const core::DistStats& stats = report.value().stats;
  // SIGKILL is usually seen as a socket reset; a slow kernel may surface
  // it as a missed heartbeat deadline instead. Either way the lease must
  // have been reassigned.
  EXPECT_GE(stats.worker_disconnects + stats.missed_deadlines, 1u);
  EXPECT_GE(stats.reassignments, 1u);
  EXPECT_EQ(stats.duplicate_mismatches, 0u);
  EXPECT_EQ(core::analysis_report_json(report.value().combined).dump(),
            serial_baseline());
}

TEST(DistChaos, HangingWorkerMissesDeadlineAndRunConverges) {
  ASSERT_FALSE(serial_baseline().empty());
  TempDir work("dockmine-dist-hang");
  core::CoordinatorOptions options = base_options(work);
  options.heartbeat_deadline_ms = 800;
  core::Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.bind().ok());

  std::vector<pid_t> children;
  core::WorkerChaos hang;
  hang.hang_on_first_lease = true;  // connection open, heartbeats stop
  hang.hang_ms = 3000;
  children.push_back(spawn_worker(coordinator.port(), 1, work.str(), hang));
  children.push_back(spawn_worker(coordinator.port(), 2, work.str()));
  children.push_back(spawn_worker(coordinator.port(), 3, work.str()));
  auto report = coordinator.run();
  reap(children);

  ASSERT_TRUE(report.ok()) << report.error().message();
  const core::DistStats& stats = report.value().stats;
  EXPECT_GE(stats.missed_deadlines, 1u);
  EXPECT_GE(stats.reassignments, 1u);
  EXPECT_EQ(stats.duplicate_mismatches, 0u);
  EXPECT_EQ(core::analysis_report_json(report.value().combined).dump(),
            serial_baseline());
}

TEST(DistChaos, DuplicateLeaseCompletionIsIdempotent) {
  ASSERT_FALSE(serial_baseline().empty());
  TempDir work("dockmine-dist-dup");
  core::CoordinatorOptions options = base_options(work);
  options.leases = 2;                   // 3 workers > 2 leases: one idle,
  options.duplicate_every_lease = true; // so a duplicate dispatches at once
  options.heartbeat_deadline_ms = 8000; // also bounds the duplicate drain
  core::Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.bind().ok());

  std::vector<pid_t> children;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    children.push_back(spawn_worker(coordinator.port(), id, work.str()));
  }
  auto report = coordinator.run();
  reap(children);

  ASSERT_TRUE(report.ok()) << report.error().message();
  const core::DistStats& stats = report.value().stats;
  EXPECT_GE(stats.straggler_redispatches, 1u);
  // The idempotency proof: at least one lease finished twice, the second
  // result's content digest matched the first, and the fold discarded it
  // without disturbing the byte-identical report.
  EXPECT_GE(stats.duplicate_completions, 1u);
  EXPECT_EQ(stats.duplicate_mismatches, 0u);
  EXPECT_EQ(core::analysis_report_json(report.value().combined).dump(),
            serial_baseline());
}

TEST(DistChaos, GarbageClientPoisonsOnlyItsOwnConnection) {
  ASSERT_FALSE(serial_baseline().empty());
  TempDir work("dockmine-dist-rogue");
  core::Coordinator coordinator(base_options(work));
  ASSERT_TRUE(coordinator.bind().ok());

  std::vector<pid_t> children;
  children.push_back(spawn_worker(coordinator.port(), 1, work.str()));
  children.push_back(spawn_worker(coordinator.port(), 2, work.str()));
  children.push_back(spawn_worker(coordinator.port(), 3, work.str()));

  // A rogue connection sprays non-frame bytes. The coordinator must count
  // one poisoned stream, drop that connection, and converge regardless —
  // garbage can cost nothing but the connection that sent it.
  auto rogue = dockmine::http::Socket::connect_loopback(coordinator.port());
  ASSERT_TRUE(rogue.ok()) << rogue.error().message();
  ASSERT_TRUE(rogue.value()
                  .write_all("XXXX\x07garbage garbage garbage garbage")
                  .ok());

  auto report = coordinator.run();
  reap(children);

  ASSERT_TRUE(report.ok()) << report.error().message();
  const core::DistStats& stats = report.value().stats;
  EXPECT_GE(stats.malformed_frames, 1u);
  EXPECT_EQ(stats.duplicate_mismatches, 0u);
  EXPECT_EQ(core::analysis_report_json(report.value().combined).dump(),
            serial_baseline());
}

}  // namespace
