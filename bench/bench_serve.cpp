// Serve-daemon bench: an in-process ServeDaemon answering a mixed query
// workload (report slices, ecdf lookups, per-image reports, type
// breakdowns, status) from C concurrent connections, R requests each
// (DOCKMINE_SERVE_CONNS / DOCKMINE_SERVE_REQS override). Three phases:
// steady state; the same hammer while an ingest batch runs and commits —
// the during-ingest numbers price what snapshot isolation costs readers
// when a writer is folding; and the steady hammer against a
// telemetry-enabled daemon (sampler + latency attribution + slowlog +
// alerts), gated at <=10% p99 overhead vs. plain steady state. Reports
// p50/p90/p99/max latency and aggregate QPS per phase; writes
// BENCH_serve.json (DOCKMINE_BENCH_JSON overrides) for CI trend tracking.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/serve.h"
#include "dockmine/json/json.h"
#include "dockmine/obs/export.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/util/stopwatch.h"

namespace {

using namespace dockmine;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

core::JobSpec bench_spec() {
  const synth::Scale scale = core::scale_from_env(synth::Scale{40, 20170530});
  core::JobSpec spec;
  spec.repositories = scale.repositories;
  spec.seed = scale.seed;
  spec.light_calibration = true;
  spec.gzip_level = 1;
  spec.threads = 2;
  spec.shards = 2;
  return spec;
}

/// The mixed workload: one representative of every read-path query shape.
/// `repository` parameterizes the image lookup from the live snapshot.
std::vector<core::serve::Request> workload(const std::string& repository) {
  using core::serve::Request;
  std::vector<Request> requests;
  auto query = [&requests](const char* q) -> Request& {
    Request request;
    request.q = q;
    requests.push_back(request);
    return requests.back();
  };
  query("status");
  query("report").path = "analysis.dedup";
  query("report").path = "download";
  {
    Request& r = query("ecdf");
    r.name = "layers.cls";
    r.quantile = 0.5;
  }
  query("ecdf").name = "images.cis";
  query("types");
  query("image").repository = repository;
  query("stats");
  return requests;
}

struct PhaseResult {
  std::vector<double> latencies_ms;  ///< one entry per completed request
  double wall_seconds = 0.0;
  std::uint64_t errors = 0;
};

/// C client threads, each on its own connection, issuing `per_conn`
/// requests round-robin over the workload. Latency is per request/response
/// round trip.
PhaseResult hammer(std::uint16_t port, std::size_t connections,
                   std::size_t per_conn,
                   const std::vector<core::serve::Request>& requests) {
  PhaseResult out;
  std::vector<std::vector<double>> lanes(connections);
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  util::Stopwatch clock;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = core::serve::Client::connect(port);
      if (!client.ok()) {
        errors.fetch_add(per_conn, std::memory_order_relaxed);
        return;
      }
      lanes[c].reserve(per_conn);
      for (std::size_t i = 0; i < per_conn; ++i) {
        core::serve::Request request = requests[i % requests.size()];
        request.id = i + 1;
        const auto begin = std::chrono::steady_clock::now();
        auto response = client.value().call(request);
        const auto end = std::chrono::steady_clock::now();
        if (!response.ok() || !response.value().ok) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        lanes[c].push_back(
            std::chrono::duration<double, std::milli>(end - begin).count());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  out.wall_seconds = clock.seconds();
  out.errors = errors.load();
  for (std::vector<double>& lane : lanes) {
    out.latencies_ms.insert(out.latencies_ms.end(), lane.begin(), lane.end());
  }
  std::sort(out.latencies_ms.begin(), out.latencies_ms.end());
  return out;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

json::Value phase_json(const PhaseResult& phase) {
  const std::vector<double>& lat = phase.latencies_ms;
  auto doc = json::Value::object();
  doc.set("requests", static_cast<std::uint64_t>(lat.size()));
  doc.set("errors", phase.errors);
  doc.set("wall_seconds", phase.wall_seconds);
  doc.set("qps", phase.wall_seconds > 0.0
                     ? static_cast<double>(lat.size()) / phase.wall_seconds
                     : 0.0);
  doc.set("p50_ms", percentile(lat, 0.50));
  doc.set("p90_ms", percentile(lat, 0.90));
  doc.set("p99_ms", percentile(lat, 0.99));
  doc.set("max_ms", lat.empty() ? 0.0 : lat.back());
  return doc;
}

void print_phase(const char* name, const PhaseResult& phase) {
  std::printf(
      "  %-14s %7zu requests  %8.1f qps  p50 %7.3f ms  p90 %7.3f ms  "
      "p99 %7.3f ms  max %7.3f ms  (%llu errors)\n",
      name, phase.latencies_ms.size(),
      phase.wall_seconds > 0.0
          ? static_cast<double>(phase.latencies_ms.size()) / phase.wall_seconds
          : 0.0,
      percentile(phase.latencies_ms, 0.50), percentile(phase.latencies_ms, 0.90),
      percentile(phase.latencies_ms, 0.99),
      phase.latencies_ms.empty() ? 0.0 : phase.latencies_ms.back(),
      static_cast<unsigned long long>(phase.errors));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dockmine;
  const bench::MetricsScope metrics(argc, argv);

  const std::size_t connections =
      static_cast<std::size_t>(env_u64("DOCKMINE_SERVE_CONNS", 8));
  const std::size_t per_conn =
      static_cast<std::size_t>(env_u64("DOCKMINE_SERVE_REQS", 500));

  const core::JobSpec spec = bench_spec();
  const std::string state_dir =
      (std::filesystem::temp_directory_path() /
       ("dockmine-bench-serve-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(state_dir);

  core::serve::ServeOptions options;
  options.job = spec;
  options.state_dir = state_dir;
  core::serve::ServeDaemon daemon(options);

  std::printf("serve bench: %llu repositories (seed %llu), %zu connections x "
              "%zu requests\n",
              static_cast<unsigned long long>(spec.repositories),
              static_cast<unsigned long long>(spec.seed), connections,
              per_conn);
  util::Stopwatch start_clock;
  if (auto status = daemon.start(); !status.ok()) {
    std::fprintf(stderr, "daemon start failed: %s\n",
                 status.error().to_string().c_str());
    std::filesystem::remove_all(state_dir);
    return 1;
  }
  const double startup_seconds = start_clock.seconds();
  const auto snapshot = daemon.snapshot();
  std::printf("  started in %.2fs: epoch %llu, %zu images resident\n",
              startup_seconds,
              static_cast<unsigned long long>(snapshot->epoch),
              snapshot->images.size());
  const std::string repository =
      snapshot->images.empty() ? std::string("library/missing")
                               : snapshot->images.begin()->first;
  const std::vector<core::serve::Request> requests = workload(repository);

  // Phase 1: steady state — no writer, every answer from one epoch.
  const PhaseResult steady = hammer(daemon.port(), connections, per_conn,
                                    requests);
  print_phase("steady", steady);

  // Phase 2: the same hammer while an ingest batch runs and commits.
  // Readers are pinned to their snapshot; the fold happens beside them.
  std::atomic<bool> ingest_ok{false};
  std::thread writer([&] {
    auto client = core::serve::Client::connect(daemon.port());
    if (!client.ok()) return;
    (void)client.value().set_timeout_ms(600000);
    core::serve::Request ingest;
    ingest.kind = core::serve::RequestKind::kIngest;
    ingest.id = 1;
    ingest.repositories = std::max<std::uint64_t>(spec.repositories / 4, 2);
    ingest.seed = spec.seed + 1;
    auto response = client.value().call(ingest);
    ingest_ok.store(response.ok() && response.value().ok);
  });
  const PhaseResult during = hammer(daemon.port(), connections, per_conn,
                                    requests);
  writer.join();
  print_phase("during-ingest", during);
  const std::uint64_t final_epoch = daemon.snapshot()->epoch;
  std::printf("  ingest %s; final epoch %llu\n",
              ingest_ok.load() ? "committed" : "did not commit",
              static_cast<unsigned long long>(final_epoch));

  daemon.stop();
  std::filesystem::remove_all(state_dir);

  // Phases 3 and 4: price the continuous-telemetry subsystem. Both run
  // with obs runtime-enabled; phase 3 is the baseline (instrumented serve
  // path, no telemetry machinery), phase 4 turns on everything ISSUE 10
  // added — background sampler, per-request latency attribution, slow-query
  // journal, alert evaluation, trace journal. The gate keeps the
  // telemetry-on p99 within 10% of the obs-baseline p99 (plus a small
  // absolute floor so microsecond-scale baselines don't flap the ratio).
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);

  const auto steady_phase = [&](const core::serve::ServeOptions& serve_options,
                                const char* name,
                                PhaseResult& out) -> bool {
    std::filesystem::remove_all(serve_options.state_dir);
    core::serve::ServeDaemon phase_daemon(serve_options);
    if (auto status = phase_daemon.start(); !status.ok()) {
      std::fprintf(stderr, "%s daemon start failed: %s\n", name,
                   status.error().to_string().c_str());
      return false;
    }
    out = hammer(phase_daemon.port(), connections, per_conn, requests);
    print_phase(name, out);
    phase_daemon.stop();
    std::filesystem::remove_all(serve_options.state_dir);
    return true;
  };

  core::serve::ServeOptions baseline_options;
  baseline_options.job = spec;
  baseline_options.state_dir = state_dir + "-obs-baseline";
  PhaseResult obs_baseline;
  const bool baseline_started =
      steady_phase(baseline_options, "obs-baseline", obs_baseline);
  obs::reset_all();

  obs::set_journal_enabled(true);
  core::serve::ServeOptions telemetry_options;
  telemetry_options.job = spec;
  telemetry_options.state_dir = state_dir + "-telemetry";
  telemetry_options.telemetry.enabled = true;
  telemetry_options.telemetry.sample_interval_ms = 200;
  telemetry_options.telemetry.ring_capacity = 256;
  PhaseResult telemetry;
  const bool telemetry_started =
      steady_phase(telemetry_options, "telemetry", telemetry);
  obs::reset_all();
  obs::set_journal_enabled(false);
  obs::set_enabled(obs_was_enabled);

  const double baseline_p99 = percentile(obs_baseline.latencies_ms, 0.99);
  const double telemetry_p99 = percentile(telemetry.latencies_ms, 0.99);
  const double telemetry_overhead_ratio =
      baseline_p99 > 0.0 ? telemetry_p99 / baseline_p99 : 0.0;
  const bool telemetry_ok = baseline_started && telemetry_started &&
                            obs_baseline.errors == 0 &&
                            telemetry.errors == 0 &&
                            telemetry_p99 <= baseline_p99 * 1.10 + 0.25;
  std::printf("  telemetry p99 overhead: %.2fx vs obs baseline (%s)\n",
              telemetry_overhead_ratio, telemetry_ok ? "ok" : "OVER BUDGET");

  auto doc = json::Value::object();
  doc.set("bench", "serve");
  doc.set("repositories", spec.repositories);
  doc.set("seed", spec.seed);
  doc.set("connections", static_cast<std::uint64_t>(connections));
  doc.set("requests_per_connection", static_cast<std::uint64_t>(per_conn));
  doc.set("startup_seconds", startup_seconds);
  doc.set("steady", phase_json(steady));
  doc.set("during_ingest", phase_json(during));
  doc.set("obs_baseline", phase_json(obs_baseline));
  doc.set("telemetry", phase_json(telemetry));
  doc.set("telemetry_overhead_ratio", telemetry_overhead_ratio);
  doc.set("ingest_committed", ingest_ok.load());
  doc.set("final_epoch", final_epoch);

  const char* json_path = std::getenv("DOCKMINE_BENCH_JSON");
  const std::string out_path =
      json_path != nullptr ? json_path : "BENCH_serve.json";
  std::ofstream out(out_path, std::ios::trunc);
  if (out) {
    out << doc.dump_pretty() << "\n";
    std::printf("\n  wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
  }

  const bool ok = steady.errors == 0 && during.errors == 0 &&
                  ingest_ok.load() && final_epoch == 2 && telemetry_ok;
  return ok ? 0 : 1;
}
