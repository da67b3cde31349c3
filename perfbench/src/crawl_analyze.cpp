// crawl_analyze: materialize a registry once, then run repeated
// crawl -> download -> analyze -> fold -> report passes over it through
// PipelineOptions::external_service. The analyzer does almost all of each
// pass; nothing serves.
#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "common.h"
#include "layers.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kRepositories = 300;

/// Median input size of a 300-repository registry (from the model; see
/// NOTES.md).
const InputSize kTarget{228.9, 61335, 102.8, 5.3};

/// sha256 of the canonical report of the default seed's registry, recorded
/// from a run of this benchmark; a pass that disagrees is a failed
/// operation.
constexpr const char* kDefaultSeedDigest =
    "sha256:0198d787138bc2906a6ef43b169bdc0ec7ecf655d9ab404698d32ede29bbb2e3";

}  // namespace

int run_crawl_analyze(const Args& args, Metrics& metrics, Checks& checks,
                      SpanLog* spans) {
  const std::uint64_t repositories = args.repositories(kRepositories);
  const auto job = job_for(
      repositories, registry_seed(args, 0, repositories, kTarget, 0.02));
  const InputSize input = input_size(job);
  std::cout << "input repositories " << repositories << " registry_seed "
            << job.seed << " content_mb " << input.content_mb << " files "
            << input.files << "\n";

  // Set-up: materialize the registry setups() times, keep the last.
  std::vector<double> setup_seconds;
  double first_setup_peak = 0.0;
  std::unique_ptr<TimedService> registry;
  // The traced run and the smoke test need one untraced pass.
  const std::size_t min_passes = spans == nullptr && !args.smoke ? 3 : 1;
  for (std::uint32_t i = 0; i < args.setups(); ++i) {
    registry.reset();
    reset_peak_rss();
    auto fresh = std::make_unique<TimedService>();
    auto populated = materialize(job, *fresh);
    if (!populated.ok()) {
      std::cerr << "perfbench: materialize failed: "
                << populated.error().to_string() << "\n";
      return 2;
    }
    setup_seconds.push_back(populated.value());
    if (i == 0) first_setup_peak = peak_rss_mb();
    registry = std::move(fresh);
  }

  std::string expected = args.expect_digest;
  if (expected.empty() && args.seed == kDefaultSeed &&
      repositories == kRepositories) {
    expected = kDefaultSeedDigest;
  }
  std::string first_digest;
  const auto check_report = [&](const std::string& report) {
    const std::string digest = sha256_hex(report);
    if (first_digest.empty()) {
      first_digest = digest;
      std::cout << "report sha256 " << digest << "\n";
    }
    if (!expected.empty()) {
      checks.check(digest == expected,
                   "pass report " + digest + " != recorded " + expected);
    } else {
      checks.check(digest == first_digest,
                   "pass report differs from the first pass");
    }
  };

  std::string report;
  std::uint64_t pass_index = 0;
  const auto one_pass = [&]() -> std::optional<double> {
    const std::string dir = (std::filesystem::path(args.work_dir) /
                             ("pass-" + std::to_string(pass_index++)))
                                .string();
    auto pass = untraced_pass(job, *registry, dir);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    if (!pass.ok()) {
      checks.check(false, "pass failed: " + pass.error().to_string());
      return std::nullopt;
    }
    check_report(pass.value().report);
    report = std::move(pass.value().report);
    return pass.value().seconds;
  };

  // One untimed pass first, so allocator growth and first-touch page
  // faults land outside the measurement (the traced run skips it).
  if (spans == nullptr) (void)one_pass();

  // Measured passes: closed loop, one pass at a time. Each pass's peak RSS
  // is read apart; their median is the measured phase's peak.
  std::vector<double> pass_seconds;
  std::vector<double> pass_peaks;
  const auto run_start = std::chrono::steady_clock::now();
  const double budget = spans == nullptr ? args.seconds : 0.0;
  while ((seconds_since(run_start) < budget ||
          pass_seconds.size() < min_passes) &&
         pass_index < 1000) {
    reset_peak_rss();
    if (const auto seconds = one_pass()) {
      pass_seconds.push_back(*seconds);
      pass_peaks.push_back(peak_rss_mb());
    }
  }
  if (pass_seconds.empty()) return 3;  // every pass failed: nothing measured
  const double measured = seconds_since(run_start);

  if (spans == nullptr) {
    metrics.set("setup_s", median(setup_seconds), "s");
    metrics.set("op_p50_ms", median(pass_seconds) * 1e3, "ms");
    std::cout << "passes " << pass_seconds.size() << " per_s "
              << static_cast<double>(pass_seconds.size()) / measured << "\n";
    metrics.set("peak_rss_mb", run_peak_rss_mb(first_setup_peak, median(pass_peaks)),
                "MB");
    return 0;
  }

  // Traced run: the same registry driven layer by layer; its report must
  // equal the untraced passes'. Nothing serves in this workload, so the
  // serve-side layers saw no work.
  if (auto traced = trace_pipeline_layers(job, *registry, args.work_dir, *spans,
                                          metrics, checks, report);
      !traced.ok()) {
    std::cerr << "perfbench: traced pass failed: " << traced.error().to_string()
              << "\n";
    return 2;
  }
  set_zero(metrics, serve_layer_metrics());
  set_zero(metrics, ingest_layer_metrics());
  set_zero(metrics, ladder_metrics());
  metrics.set("obs.lookup_ns", obs_lookup_ns(), "ns");
  return 0;
}

}  // namespace perfbench
