// Temporal bench: prices the incremental DeltaAnalyzer against the
// from-scratch batch pipeline at every epoch of an evolving registry.
//
// Per epoch K: (a) advance the evolving registry and apply the delta —
// timing only the analysis (apply_epoch), not registry materialization;
// (b) rebuild a fresh epoch-K registry and run the ordinary serial batch
// pipeline over it through the external-service hook, again timing only
// the analysis run; (c) assert the two canonical analysis reports are
// byte-identical. The headline number is the delta-vs-full speedup on
// churn epochs (K >= 1): at the calibrated ~14% re-push fraction the
// delta path re-analyzes a small slice of the corpus and must come in at
// >= 3x (the acceptance gate; the exit code enforces it). Writes
// BENCH_temporal.json (DOCKMINE_BENCH_JSON overrides) and publishes the
// speedup as the dockmine_temporal_delta_speedup_x1000 gauge.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/json/json.h"
#include "dockmine/obs/obs.h"
#include "dockmine/temporal/delta_analyzer.h"
#include "dockmine/temporal/epoch_model.h"
#include "dockmine/util/stopwatch.h"

namespace {

using namespace dockmine;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

struct EpochRow {
  std::uint32_t epoch = 0;
  std::uint64_t layers_changed = 0;
  std::uint64_t layers_reused = 0;
  std::uint64_t layers_removed = 0;
  std::uint64_t bytes_fetched = 0;
  double delta_ms = 0.0;
  double full_ms = 0.0;
  double speedup = 0.0;
  bool verified = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dockmine;
  const bench::MetricsScope metrics(argc, argv);

  const synth::Scale scale = core::scale_from_env(synth::Scale{80, 20170530});
  const auto epochs =
      static_cast<std::uint32_t>(env_u64("DOCKMINE_EPOCHS", 4));
  const int gzip_level = 1;
  const synth::Calibration calibration = synth::Calibration::light();

  synth::HubModel hub(calibration, scale);
  temporal::EpochModel model(hub);
  temporal::EvolvingRegistry evolving(model, gzip_level);
  registry::Service service;
  temporal::DeltaAnalyzer analyzer;

  std::printf("temporal bench: %llu repositories (seed %llu), %u epochs, "
              "repush fraction %.2f\n",
              static_cast<unsigned long long>(scale.repositories),
              static_cast<unsigned long long>(scale.seed), epochs,
              model.config().repush_fraction);

  std::vector<EpochRow> rows;
  for (std::uint32_t epoch = 0; epoch <= epochs; ++epoch) {
    // Incremental side: registry advance is the workload, apply_epoch is
    // what we time (both sides time analysis only).
    auto pushed = evolving.advance(service);
    if (!pushed.ok()) {
      std::fprintf(stderr, "advance failed: %s\n",
                   pushed.error().to_string().c_str());
      return 1;
    }
    auto delta = analyzer.apply_epoch(service, pushed.value().epoch,
                                      pushed.value().repushed);
    if (!delta.ok()) {
      std::fprintf(stderr, "apply_epoch(%u) failed: %s\n", epoch,
                   delta.error().to_string().c_str());
      return 1;
    }

    // Batch oracle: fresh epoch-K registry (build excluded from timing),
    // one worker per pipeline stage so both sides are single-threaded
    // apples-to-apples.
    registry::Service oracle_service;
    auto built = temporal::build_registry_at_epoch(model, epoch, gzip_level,
                                                   oracle_service);
    if (!built.ok()) {
      std::fprintf(stderr, "oracle build failed: %s\n",
                   built.error().to_string().c_str());
      return 1;
    }
    core::PipelineOptions options;
    options.scale = scale;
    options.calibration = calibration;
    options.gzip_level = gzip_level;
    options.download_workers = 1;
    options.analyze_workers = 1;
    options.external_service = &oracle_service;
    util::Stopwatch full_clock;
    auto batch = core::run_end_to_end(options);
    const double full_ms = full_clock.seconds() * 1000.0;
    if (!batch.ok()) {
      std::fprintf(stderr, "oracle run failed: %s\n",
                   batch.error().to_string().c_str());
      return 1;
    }

    auto incremental = analyzer.report();
    if (!incremental.ok()) {
      std::fprintf(stderr, "report failed: %s\n",
                   incremental.error().to_string().c_str());
      return 1;
    }
    EpochRow row;
    row.epoch = epoch;
    row.layers_changed = delta.value().layers_changed;
    row.layers_reused = delta.value().layers_reused;
    row.layers_removed = delta.value().layers_removed;
    row.bytes_fetched = delta.value().bytes_fetched;
    row.delta_ms = delta.value().wall_ms;
    row.full_ms = full_ms;
    row.speedup = row.delta_ms > 0.0 ? full_ms / row.delta_ms : 0.0;
    row.verified = incremental.value().dump() ==
                   core::analysis_report_json(batch.value()).dump();
    rows.push_back(row);
    std::printf("  epoch %u: %5llu changed %5llu reused %4llu retired | "
                "delta %8.1f ms  full %8.1f ms  speedup %5.2fx  %s\n",
                epoch, static_cast<unsigned long long>(row.layers_changed),
                static_cast<unsigned long long>(row.layers_reused),
                static_cast<unsigned long long>(row.layers_removed),
                row.delta_ms, full_ms, row.speedup,
                row.verified ? "byte-identical" : "REPORT MISMATCH");
  }

  // The gate applies to churn epochs only: epoch 0 is the initial full
  // ingest and its speedup is ~1x by construction.
  bool verified_all = true;
  double min_speedup = 0.0;
  double sum_speedup = 0.0;
  std::uint64_t churn_epochs = 0;
  for (const EpochRow& row : rows) {
    verified_all = verified_all && row.verified;
    if (row.epoch == 0) continue;
    min_speedup = churn_epochs == 0 ? row.speedup
                                    : std::min(min_speedup, row.speedup);
    sum_speedup += row.speedup;
    ++churn_epochs;
  }
  const double mean_speedup =
      churn_epochs > 0 ? sum_speedup / static_cast<double>(churn_epochs) : 0.0;
  obs::Registry::global()
      .gauge("dockmine_temporal_delta_speedup_x1000")
      .set(static_cast<std::int64_t>(mean_speedup * 1000.0));
  std::printf("  churn-epoch speedup: min %.2fx  mean %.2fx  (gate: >= 3x)\n",
              min_speedup, mean_speedup);

  auto doc = json::Value::object();
  doc.set("bench", "temporal");
  doc.set("repositories", scale.repositories);
  doc.set("seed", scale.seed);
  doc.set("epochs", static_cast<std::uint64_t>(epochs));
  {
    auto churn = json::Value::object();
    churn.set("repush_fraction", model.config().repush_fraction);
    churn.set("churn_layers",
              static_cast<std::uint64_t>(model.config().churn_layers));
    doc.set("churn", std::move(churn));
  }
  {
    auto per_epoch = json::Value::array();
    for (const EpochRow& row : rows) {
      auto entry = json::Value::object();
      entry.set("epoch", static_cast<std::uint64_t>(row.epoch));
      entry.set("layers_changed", row.layers_changed);
      entry.set("layers_reused", row.layers_reused);
      entry.set("layers_removed", row.layers_removed);
      entry.set("bytes_fetched", row.bytes_fetched);
      entry.set("delta_ms", row.delta_ms);
      entry.set("full_ms", row.full_ms);
      entry.set("speedup", row.speedup);
      entry.set("verified", row.verified);
      per_epoch.push_back(std::move(entry));
    }
    doc.set("per_epoch", std::move(per_epoch));
  }
  doc.set("speedup_min", min_speedup);
  doc.set("speedup_mean", mean_speedup);
  doc.set("verified_all", verified_all);

  const char* json_path = std::getenv("DOCKMINE_BENCH_JSON");
  const std::string out_path =
      json_path != nullptr ? json_path : "BENCH_temporal.json";
  std::ofstream out(out_path, std::ios::trunc);
  if (out) {
    out << doc.dump_pretty() << "\n";
    std::printf("\n  wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
  }

  const bool ok = verified_all && churn_epochs > 0 && min_speedup >= 3.0;
  return ok ? 0 : 1;
}
