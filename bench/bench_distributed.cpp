// Distributed-run bench: coordinator + K forked worker processes on
// loopback (DESIGN.md §12), K ∈ {1, 2, 4}, against the serial in-process
// pipeline as the baseline and byte-equality oracle. A second phase
// SIGKILLs a worker mid-lease and measures what the recovery machinery
// (liveness detection, lease reassignment, re-execution) costs in wall
// time. Each run also reports its workers' summed CPU time, so scaling can
// be judged by the work K workers do, not only by wall time. Writes
// BENCH_distributed.json (DOCKMINE_BENCH_JSON overrides) for CI trend
// tracking.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>

#include "common.h"
#include "dockmine/core/coordinator.h"
#include "dockmine/core/lease.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/worker.h"
#include "dockmine/json/json.h"
#include "dockmine/util/stopwatch.h"

namespace {

using namespace dockmine;

core::JobSpec bench_spec() {
  const synth::Scale scale =
      core::scale_from_env(synth::Scale{120, 20170530});
  core::JobSpec spec;
  spec.repositories = scale.repositories;
  spec.seed = scale.seed;
  spec.light_calibration = true;
  spec.gzip_level = 1;
  spec.threads = 2;
  spec.shards = 4;
  return spec;
}

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
  obs::set_enabled(true);
  (void)core::run_worker(options);
  ::_exit(0);
}

/// User plus system CPU seconds of every child reaped so far.
double reaped_children_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct DistRun {
  double wall_seconds = 0.0;
  /// CPU the forked workers used, summed: RUSAGE_CHILDREN's growth across
  /// the run, which counts them because they are reaped before it is read.
  double workers_cpu_seconds = 0.0;
  core::DistStats stats;
  std::string report;  ///< analysis_report_json(...).dump()
  bool ok = false;
};

/// One distributed run: `leases` partitions over `workers` forked worker
/// processes; worker index `kill_index` (when >= 0) SIGKILLs itself after
/// its first heartbeat of its first lease.
DistRun run_distributed(const core::JobSpec& spec, std::uint32_t leases,
                        int workers, const std::string& work_dir,
                        int kill_index = -1) {
  DistRun out;
  std::filesystem::remove_all(work_dir);

  core::CoordinatorOptions options;
  options.spec = spec;
  options.leases = leases;
  options.work_dir = work_dir;
  options.straggler_factor = 0;  // measure recovery, not speculation
  core::Coordinator coordinator(options);
  if (!coordinator.bind().ok()) return out;

  const double cpu_before = reaped_children_cpu_seconds();
  std::vector<pid_t> children;
  for (int i = 0; i < workers; ++i) {
    core::WorkerChaos chaos;
    chaos.die_on_first_lease = (i == kill_index);
    children.push_back(spawn_worker(coordinator.port(),
                                    static_cast<std::uint64_t>(i + 1),
                                    work_dir, chaos));
  }

  util::Stopwatch clock;
  auto report = coordinator.run();
  out.wall_seconds = clock.seconds();
  for (pid_t pid : children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  out.workers_cpu_seconds = reaped_children_cpu_seconds() - cpu_before;
  std::filesystem::remove_all(work_dir);
  if (!report.ok()) {
    std::fprintf(stderr, "distributed run failed: %s\n",
                 report.error().to_string().c_str());
    return out;
  }
  out.stats = report.value().stats;
  out.report = core::analysis_report_json(report.value().combined).dump();
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dockmine;
  const bench::MetricsScope metrics(argc, argv);
  const core::JobSpec spec = bench_spec();
  const std::string scratch =
      (std::filesystem::temp_directory_path() / "dockmine-bench-dist")
          .string();

  std::printf("distributed pipeline at %llu repositories "
              "(DOCKMINE_REPOS overrides)\n\n",
              static_cast<unsigned long long>(spec.repositories));

  // Serial baseline: the same job as one in-process pipeline.
  util::Stopwatch serial_clock;
  auto serial = core::run_end_to_end(
      core::lease_pipeline_options(spec, 0, 1, scratch + "/serial"));
  const double serial_wall = serial_clock.seconds();
  std::filesystem::remove_all(scratch + "/serial");
  if (!serial.ok()) {
    std::fprintf(stderr, "serial baseline failed: %s\n",
                 serial.error().to_string().c_str());
    return 1;
  }
  const std::string serial_report =
      core::analysis_report_json(serial.value()).dump();
  std::printf("  serial baseline      %7.2fs\n", serial_wall);

  // Scaling curve: K leases over K worker processes.
  auto scaling = json::Value::array();
  bool all_identical = true;
  for (std::uint32_t k : {1u, 2u, 4u}) {
    const DistRun run = run_distributed(spec, k, static_cast<int>(k),
                                        scratch + "/k" + std::to_string(k));
    if (!run.ok) return 1;
    const bool identical = run.report == serial_report;
    all_identical = all_identical && identical;
    std::printf("  K=%u workers         %7.2fs  (%.2fx vs serial, "
                "%.2fs worker CPU, %llu heartbeats, report %s)\n",
                k, run.wall_seconds, serial_wall / run.wall_seconds,
                run.workers_cpu_seconds,
                static_cast<unsigned long long>(run.stats.heartbeats_received),
                identical ? "identical" : "DIFFERS");
    auto entry = json::Value::object();
    entry.set("workers", std::uint64_t{k});
    entry.set("wall_seconds", run.wall_seconds);
    entry.set("speedup_vs_serial", serial_wall / run.wall_seconds);
    entry.set("workers_cpu_seconds", run.workers_cpu_seconds);
    entry.set("heartbeats", run.stats.heartbeats_received);
    entry.set("files_received", run.stats.files_received);
    entry.set("bytes_received", run.stats.bytes_received);
    entry.set("report_identical", identical);
    scaling.push_back(std::move(entry));
  }

  // Recovery: same K=2 job, but one of the two workers SIGKILLs itself
  // mid-lease — the overhead over the clean K=2 wall is what detection +
  // reassignment + re-execution cost.
  const DistRun clean = run_distributed(spec, 2, 2, scratch + "/clean2");
  if (!clean.ok) return 1;
  const DistRun killed =
      run_distributed(spec, 2, 2, scratch + "/kill2", /*kill_index=*/0);
  if (!killed.ok) return 1;
  const bool recovery_identical = killed.report == serial_report;
  all_identical = all_identical && recovery_identical;
  const double recovery_overhead = killed.wall_seconds - clean.wall_seconds;
  std::printf("\n  K=2 clean            %7.2fs\n", clean.wall_seconds);
  std::printf("  K=2 one SIGKILL      %7.2fs  (+%.2fs recovery, "
              "%llu reassignment(s), report %s)\n",
              killed.wall_seconds, recovery_overhead,
              static_cast<unsigned long long>(killed.stats.reassignments),
              recovery_identical ? "identical" : "DIFFERS");

  auto doc = json::Value::object();
  doc.set("bench", "distributed");
  doc.set("repositories", spec.repositories);
  doc.set("seed", spec.seed);
  doc.set("serial_wall_seconds", serial_wall);
  doc.set("scaling", std::move(scaling));
  auto recovery = json::Value::object();
  recovery.set("clean_wall_seconds", clean.wall_seconds);
  recovery.set("killed_wall_seconds", killed.wall_seconds);
  recovery.set("recovery_overhead_seconds", recovery_overhead);
  recovery.set("reassignments", killed.stats.reassignments);
  recovery.set("worker_disconnects", killed.stats.worker_disconnects);
  recovery.set("missed_deadlines", killed.stats.missed_deadlines);
  recovery.set("report_identical", recovery_identical);
  doc.set("recovery", std::move(recovery));
  doc.set("all_reports_identical", all_identical);

  const char* json_path = std::getenv("DOCKMINE_BENCH_JSON");
  const std::string out_path =
      json_path != nullptr ? json_path : "BENCH_distributed.json";
  std::ofstream out(out_path, std::ios::trunc);
  if (out) {
    out << doc.dump_pretty() << "\n";
    std::printf("\n  wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
  }
  return all_identical ? 0 : 1;
}
