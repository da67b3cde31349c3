// Chaos tests for the coordinator + worker-process distribution layer
// (DESIGN.md §12). Each test forks real worker processes — fork happens
// between Coordinator::bind() (no threads yet) and Coordinator::run(), so
// the children never inherit a running thread — and then injects a
// failure: a SIGKILL mid-lease, a wedged worker that stops heartbeating,
// a forced duplicate completion, a rogue client spraying garbage frames, a
// connection flood past the cap beside a one-byte dribbler, connect/close
// churn, and descriptor exhaustion.
//
// The oracle in every case is byte equality: the distributed fold's
// analysis report must match a serial single-process run of the same
// JobSpec exactly, no matter which workers died along the way.

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>

#include <gtest/gtest.h>

#include "dockmine/core/coordinator.h"
#include "dockmine/core/lease.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/worker.h"
#include "dockmine/http/server.h"
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
  spec.threads = 2;
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
// parent is still single-threaded. The child never returns. With a `gate`
// descriptor it connects only once a byte arrives there.
pid_t spawn_worker(std::uint16_t port, std::uint64_t id,
                   const std::string& scratch,
                   core::WorkerChaos chaos = {}, int gate = -1) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (gate >= 0) {
    char go = 0;
    if (::read(gate, &go, 1) != 1) ::_exit(1);
  }
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

/// Reaps one forked child however the test ends.
struct ChildGuard {
  pid_t pid;
  ~ChildGuard() { reap({pid}); }
};

/// Entries of a /proc/self directory (descriptors, threads) whose link
/// target starts with `prefix`.
std::size_t proc_entries(const char* dir, const std::string& prefix = "") {
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::error_code ec;
    const fs::path target = fs::read_symlink(entry.path(), ec);
    if (target.string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

/// Poll `done` every 5 ms for up to `limit`; true once it holds.
template <typename Predicate>
bool wait_for(Predicate done, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// How many of `sockets` read EOF (or a reset), waiting until `expected`
/// have or `wait` passes: the ones the server closed at once. Accepted idle
/// connections stay silent.
std::size_t count_closed(const std::vector<dockmine::http::Socket>& sockets,
                         std::size_t expected, std::chrono::milliseconds wait) {
  std::vector<bool> closed(sockets.size(), false);
  std::size_t count = 0;
  const auto deadline = std::chrono::steady_clock::now() + wait;
  while (count < expected && std::chrono::steady_clock::now() < deadline) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> index;
    for (std::size_t i = 0; i < sockets.size(); ++i) {
      if (closed[i]) continue;
      fds.push_back(pollfd{sockets[i].fd(), POLLIN, 0});
      index.push_back(i);
    }
    if (::poll(fds.data(), fds.size(), 50) <= 0) continue;
    for (std::size_t j = 0; j < fds.size(); ++j) {
      if (fds[j].revents == 0) continue;
      char byte = 0;
      const ssize_t n = ::recv(fds[j].fd, &byte, 1, MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        closed[index[j]] = true;
        ++count;
      }
    }
  }
  return count;
}

/// True when `socket` reads EOF or a reset (not a timeout) on its next read.
bool reads_eof(dockmine::http::Socket& socket) {
  auto chunk = socket.read_some();
  if (chunk.ok()) return chunk.value().empty();
  return chunk.error().code() != dockmine::util::ErrorCode::kTimeout;
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

// Descriptor exhaustion: with RLIMIT_NOFILE lowered so every accept fails
// with EMFILE while a connection waits in the backlog, the coordinator
// backs off instead of spinning; once the limit is restored the waiting
// connection is accepted (its garbage poisons it, so it reads EOF). The
// coordinator runs in a forked child so only the child's limit is lowered.
TEST(DistChaos, CoordinatorBacksOffUnderDescriptorExhaustion) {
  TempDir work("dockmine-dist-emfile");
  int to_child[2];
  int to_parent[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(to_parent), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    core::CoordinatorOptions options = base_options(work);
    options.max_wall_ms = 60'000;
    core::Coordinator coordinator(options);
    if (!coordinator.bind().ok()) ::_exit(1);
    const std::uint16_t port = coordinator.port();
    // Every thread starts before descriptors run out (a sanitizer runtime
    // may need one to start a thread).
    const std::size_t threads = proc_entries("/proc/self/task");
    std::thread runner([&coordinator] { (void)coordinator.run(); });
    const auto started = [&] {
      return proc_entries("/proc/self/task") >= threads + 2;  // + acceptor
    };
    if (!wait_for(started, std::chrono::milliseconds(10'000))) ::_exit(1);
    rlimit original{};
    ::getrlimit(RLIMIT_NOFILE, &original);
    const int lowest_free = ::dup(to_parent[1]);
    ::close(lowest_free);
    rlimit exhausted = original;
    exhausted.rlim_cur = static_cast<rlim_t>(lowest_free);
    if (::setrlimit(RLIMIT_NOFILE, &exhausted) != 0) ::_exit(1);
    char go = 0;
    if (::write(to_parent[1], &port, sizeof port) != sizeof port ||
        ::read(to_child[0], &go, 1) != 1) {
      ::_exit(1);
    }
    // The parent's connection now waits in the backlog: every accept
    // fails with EMFILE for the next second.
    const auto cpu_seconds = [] {
      rusage usage{};
      ::getrusage(RUSAGE_SELF, &usage);
      const timeval& user = usage.ru_utime;
      const timeval& sys = usage.ru_stime;
      return static_cast<double>(user.tv_sec + sys.tv_sec) +
             static_cast<double>(user.tv_usec + sys.tv_usec) / 1e6;
    };
    const double before = cpu_seconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const double spent = cpu_seconds() - before;
    ::setrlimit(RLIMIT_NOFILE, &original);
    if (::write(to_parent[1], &spent, sizeof spent) != sizeof spent) ::_exit(1);
    (void)::read(to_child[0], &go, 1);  // until the parent is done
    ::_exit(0);
  }
  const ChildGuard child{pid};
  ::close(to_child[0]);
  ::close(to_parent[1]);

  std::uint16_t port = 0;
  ASSERT_EQ(::read(to_parent[0], &port, sizeof port),
            static_cast<ssize_t>(sizeof port));
  auto waiting = dockmine::http::Socket::connect_loopback(port);
  ASSERT_TRUE(waiting.ok()) << waiting.error().message();
  ASSERT_TRUE(waiting.value().set_timeout_ms(10'000).ok());
  ASSERT_TRUE(waiting.value().write_all("XXXX\x07garbage garbage").ok());
  ASSERT_EQ(::write(to_child[1], "g", 1), 1);

  double spent = -1.0;
  ASSERT_EQ(::read(to_parent[0], &spent, sizeof spent),
            static_cast<ssize_t>(sizeof spent));
  EXPECT_GE(spent, 0.0);
  EXPECT_LE(spent, 0.1) << "CPU seconds over one second of EMFILE";
  EXPECT_TRUE(reads_eof(waiting.value()))
      << "the waiting connection was not served once the limit came back";

  ::close(to_child[1]);
  ::close(to_parent[0]);
}

// 50 connect/close cycles leave the coordinator's descriptor table where it
// started: a closed connection gives back its fd (and thread) at once, not
// at shutdown. The workers connect only after the count is taken.
TEST(DistChaos, ConnectCloseChurnReleasesEveryDescriptor) {
  ASSERT_FALSE(serial_baseline().empty());
  TempDir work("dockmine-dist-churn");
  core::Coordinator coordinator(base_options(work));
  ASSERT_TRUE(coordinator.bind().ok());
  int gate[2];
  ASSERT_EQ(::pipe(gate), 0);
  std::vector<pid_t> children;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    children.push_back(
        spawn_worker(coordinator.port(), id, work.str(), {}, gate[0]));
  }
  ::close(gate[0]);

  std::optional<dockmine::util::Result<core::CoordinatorReport>> report;
  std::thread runner([&] { report.emplace(coordinator.run()); });
  const std::size_t before = proc_entries("/proc/self/fd");
  for (int cycle = 0; cycle < 50; ++cycle) {
    auto socket = dockmine::http::Socket::connect_loopback(coordinator.port());
    EXPECT_TRUE(socket.ok()) << socket.error().message();
    if (!socket.ok()) break;
    socket.value().close();
  }
  const bool released =
      wait_for([&] { return proc_entries("/proc/self/fd") <= before + 1; },
               std::chrono::milliseconds(10'000));
  EXPECT_TRUE(released) << "descriptors: " << before << " before, "
                        << proc_entries("/proc/self/fd") << " after 50 cycles";

  EXPECT_EQ(::write(gate[1], "ggg", 3), 3);
  ::close(gate[1]);
  runner.join();
  reap(children);

  ASSERT_TRUE(report->ok()) << report->error().message();
  const core::DistStats& stats = report->value().stats;
  EXPECT_EQ(stats.workers_connected, 53u);
  EXPECT_EQ(stats.duplicate_mismatches, 0u);
  EXPECT_EQ(core::analysis_report_json(report->value().combined).dump(),
            serial_baseline());
}

// A flood of cap + 16 idle connections and a one-byte dribbler beside three
// workers: the overflow reads EOF at once, the dribbler is dropped after
// heartbeat_deadline_ms, live connections never pass the cap, and the run
// still converges byte-identically. One worker hangs on its lease, so the
// run outlasts the dribbler's deadline.
TEST(DistChaos, FloodPastTheCapAndADribblerBesideWorkers) {
  ASSERT_FALSE(serial_baseline().empty());
  TempDir work("dockmine-dist-flood");
  core::CoordinatorOptions options = base_options(work);
  options.heartbeat_deadline_ms = 1000;
  options.io_timeout_ms = 50;
  core::Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.bind().ok());

  std::vector<pid_t> children;
  core::WorkerChaos hang;
  hang.hang_on_first_lease = true;
  hang.hang_ms = 3000;
  children.push_back(spawn_worker(coordinator.port(), 1, work.str(), hang));
  children.push_back(spawn_worker(coordinator.port(), 2, work.str()));
  children.push_back(spawn_worker(coordinator.port(), 3, work.str()));

  auto dribbler = dockmine::http::Socket::connect_loopback(coordinator.port());
  ASSERT_TRUE(dribbler.ok()) << dribbler.error().message();
  ASSERT_TRUE(dribbler.value().set_timeout_ms(30'000).ok());
  ASSERT_TRUE(dribbler.value().write_all("D").ok());  // then silence
  const std::size_t sockets_before = proc_entries("/proc/self/fd", "socket:");

  std::optional<dockmine::util::Result<core::CoordinatorReport>> report;
  const auto started = std::chrono::steady_clock::now();
  std::thread runner([&] { report.emplace(coordinator.run()); });
  // The dribbler and all three workers hold their slots before the flood.
  EXPECT_TRUE(wait_for(
      [&] {
        return proc_entries("/proc/self/fd", "socket:") >= sockets_before + 4;
      },
      std::chrono::milliseconds(30'000)));

  constexpr std::size_t kFlood = dockmine::http::kMaxConnections + 16;
  std::vector<dockmine::http::Socket> flood;
  for (std::size_t i = 0; i < kFlood; ++i) {
    auto socket = dockmine::http::Socket::connect_loopback(coordinator.port());
    EXPECT_TRUE(socket.ok()) << "flood connection " << i << ": "
                             << socket.error().message();
    if (!socket.ok()) break;
    flood.push_back(std::move(socket).value());
  }
  EXPECT_GE(count_closed(flood, 16, std::chrono::seconds(10)), 16u);

  EXPECT_TRUE(reads_eof(dribbler.value()));
  const double dribbler_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - started)
                                 .count();
  EXPECT_GE(dribbler_ms, static_cast<double>(options.heartbeat_deadline_ms));

  runner.join();
  flood.clear();
  reap(children);

  ASSERT_TRUE(report->ok()) << report->error().message();
  const core::DistStats& stats = report->value().stats;
  EXPECT_GE(stats.connections.rejected, 16u);
  EXPECT_LE(stats.connections.peak_live, dockmine::http::kMaxConnections);
  EXPECT_GE(stats.connections.partial_drops, 1u);
  EXPECT_EQ(stats.duplicate_mismatches, 0u);
  EXPECT_EQ(core::analysis_report_json(report->value().combined).dump(),
            serial_baseline());
}

}  // namespace
