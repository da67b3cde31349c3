// dockmine::temporal — epoch model + incremental delta analysis
// (DESIGN.md §15).
//
// The suite pins the subsystem's one contract from three directions:
//
//   1. The churn process is a deterministic, calibrated function of
//      (seed, epoch, image): same inputs, same churn set, base layers
//      never move, and the re-push fraction sits in the configured band.
//   2. Epoch equivalence: after apply_epoch(K), the incrementally
//      maintained analysis report is byte-identical to a from-scratch
//      batch run over the epoch-K registry — for every seed and epoch
//      depth, with the monolithic and the sharded dedup backend, because
//      the canonical serializer is shared and built from order-independent
//      aggregates only.
//   3. Crash shapes: a canceled epoch commits nothing; a re-applied epoch
//      resumes verified blobs from the checkpoint; a full restart-replay
//      (fresh analyzer, same checkpoint) reproduces the same bytes. The
//      serve daemon's ingest-epoch path inherits all of it through
//      restart-replay of state.json v2.
//
// Monolithic (one ctest entry): the evolving registries are shared
// fixtures and the serve tests mutate daemon state in a fixed order.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dockmine/core/pipeline.h"
#include "dockmine/core/serve.h"
#include "dockmine/downloader/checkpoint.h"
#include "dockmine/json/json.h"
#include "dockmine/registry/service.h"
#include "dockmine/synth/generator.h"
#include "dockmine/temporal/delta_analyzer.h"
#include "dockmine/temporal/epoch_model.h"
#include "dockmine/temporal/trend.h"

namespace core = dockmine::core;
namespace serve = dockmine::core::serve;
namespace synth = dockmine::synth;
namespace temporal = dockmine::temporal;
namespace registry = dockmine::registry;
namespace downloader = dockmine::downloader;
namespace json = dockmine::json;
namespace util = dockmine::util;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kRepos = 12;
constexpr int kGzip = 1;

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

/// One evolving registry plus its delta analyzer — the incremental side of
/// every equivalence below.
struct Stack {
  synth::HubModel hub;
  temporal::EpochModel model;
  registry::Service service;
  temporal::EvolvingRegistry evolving;
  temporal::DeltaAnalyzer analyzer;

  explicit Stack(std::uint64_t seed, std::uint64_t repos = kRepos,
                 temporal::DeltaOptions options = {})
      : hub(synth::Calibration::light(), synth::Scale{repos, seed}),
        model(hub),
        evolving(model, kGzip),
        analyzer(std::move(options)) {}

  std::vector<std::string> all_repositories() const {
    std::vector<std::string> names;
    names.reserve(hub.repositories().size());
    for (const auto& repo : hub.repositories()) names.push_back(repo.name);
    return names;
  }

  util::Result<temporal::EpochDelta> advance() {
    if (!analyzer.initialized()) {
      auto pushed = evolving.initialize(service);
      if (!pushed.ok()) return std::move(pushed).error();
      return analyzer.apply_epoch(service, 0, all_repositories());
    }
    auto pushed = evolving.advance(service);
    if (!pushed.ok()) return std::move(pushed).error();
    return analyzer.apply_epoch(service, evolving.epoch(),
                                pushed.value().repushed);
  }

  std::string report_dump() {
    auto report = analyzer.report();
    if (!report.ok()) {
      ADD_FAILURE() << report.error().to_string();
      return std::string();
    }
    return report.value().dump();
  }
};

/// The from-scratch side: rebuild the epoch-K registry and run the batch
/// pipeline over it through the external-service hook.
std::string batch_oracle_dump(std::uint64_t seed, std::uint32_t epoch,
                              std::uint32_t shards = 0,
                              std::uint64_t repos = kRepos) {
  synth::HubModel hub(synth::Calibration::light(), synth::Scale{repos, seed});
  temporal::EpochModel model(hub);
  registry::Service service;
  auto built = temporal::build_registry_at_epoch(model, epoch, kGzip, service);
  EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().to_string());
  if (!built.ok()) return std::string();

  core::PipelineOptions options;
  options.scale = synth::Scale{repos, seed};
  options.calibration = synth::Calibration::light();
  options.gzip_level = kGzip;
  options.download_workers = 2;
  options.analyze_workers = 2;
  options.shard.shards = shards;
  options.external_service = &service;
  auto run = core::run_end_to_end(options);
  EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.error().to_string());
  if (!run.ok()) return std::string();
  return core::analysis_report_json(run.value()).dump();
}

// ---- 1. the churn process ----------------------------------------------

TEST(EpochModel, ChurnIsDeterministicAndOrdered) {
  Stack a(20170530);
  Stack b(20170530);
  for (std::uint32_t epoch = 1; epoch <= 6; ++epoch) {
    const auto lhs = a.model.churned_repositories(epoch);
    const auto rhs = b.model.churned_repositories(epoch);
    EXPECT_EQ(lhs, rhs) << "epoch " << epoch;
    // Churn sets never repeat a repository within an epoch.
    const std::set<std::string> unique(lhs.begin(), lhs.end());
    EXPECT_EQ(unique.size(), lhs.size());
  }
}

TEST(EpochModel, RepushFractionSitsInTheCalibratedBand) {
  // Aggregate over many epochs of a larger population so the binomial
  // noise shrinks: 60 images x 20 epochs at p = 0.14 => mean 168,
  // sigma ~ 12. A +/- 5-sigma band still rejects a broken generator.
  Stack stack(991, /*repos=*/60);
  std::uint64_t repushes = 0;
  const std::uint32_t epochs = 20;
  for (std::uint32_t epoch = 1; epoch <= epochs; ++epoch) {
    repushes += stack.model.churned_repositories(epoch).size();
  }
  const double expected =
      60.0 * epochs * stack.model.config().repush_fraction;
  EXPECT_GT(static_cast<double>(repushes), expected * 0.6);
  EXPECT_LT(static_cast<double>(repushes), expected * 1.4);
}

TEST(EpochModel, RebuildsTouchOnlyTheTopOfStack) {
  Stack stack(20170530, /*repos=*/40);
  const std::uint32_t churn_layers = stack.model.config().churn_layers;
  bool saw_repush = false;
  // Not every repository carries an image; iterate the image population.
  const std::uint64_t images = stack.hub.images().size();
  for (std::uint64_t image = 0; image < images; ++image) {
    const synth::ImageSpec base = stack.model.image_at(image, 0);
    const synth::ImageSpec evolved = stack.model.image_at(image, 5);
    ASSERT_EQ(base.layers.size(), evolved.layers.size());
    const std::size_t depth = base.layers.size();
    const std::size_t churned =
        std::min<std::size_t>(churn_layers, depth);
    // The base of the stack (FROM lines) never moves...
    for (std::size_t k = 0; k + churned < depth; ++k) {
      EXPECT_EQ(base.layers[k], evolved.layers[k]) << "image " << image;
    }
    // ...and a re-pushed image differs exactly in its top layers.
    if (stack.model.effective_epoch(image, 5) != 0) {
      saw_repush = true;
      for (std::size_t k = depth - churned; k < depth; ++k) {
        EXPECT_NE(base.layers[k], evolved.layers[k]) << "image " << image;
      }
    } else {
      EXPECT_EQ(base.layers, evolved.layers);
    }
  }
  EXPECT_TRUE(saw_repush);
}

TEST(EpochModel, EvolvingRegistryReusesUnchangedBlobs) {
  Stack stack(20170530);
  auto init = stack.evolving.initialize(stack.service);
  ASSERT_TRUE(init.ok()) << init.error().to_string();
  // One manifest per repository that carries an image (repos without one
  // exist in the search index but push nothing).
  EXPECT_GT(init.value().manifests, 0u);
  EXPECT_LE(init.value().manifests, kRepos);
  EXPECT_GT(init.value().layers_materialized, 0u);

  std::uint64_t repushed = 0;
  for (std::uint32_t epoch = 1; epoch <= 4; ++epoch) {
    auto advanced = stack.evolving.advance(stack.service);
    ASSERT_TRUE(advanced.ok()) << advanced.error().to_string();
    repushed += advanced.value().manifests;
    // A re-push re-materializes only rebuilt layers; the rest of the
    // stack is served from the persistent blob cache.
    EXPECT_EQ(advanced.value().repushed.size(), advanced.value().manifests);
    if (advanced.value().manifests > 0) {
      EXPECT_GT(advanced.value().layers_reused, 0u);
    }
  }
  EXPECT_GT(repushed, 0u);
}

// ---- 2. epoch equivalence ----------------------------------------------

TEST(EpochEquivalence, IncrementalMatchesBatchForEverySeedAndDepth) {
  const std::uint64_t seeds[] = {20170530, 777, 424242};
  const std::uint32_t checkpoints[] = {1, 3, 8};
  for (const std::uint64_t seed : seeds) {
    Stack stack(seed);
    std::uint32_t next = 0;
    for (const std::uint32_t epoch : checkpoints) {
      for (; next <= epoch; ++next) {
        auto delta = stack.advance();
        ASSERT_TRUE(delta.ok()) << delta.error().to_string();
      }
      const std::string incremental = stack.report_dump();
      ASSERT_FALSE(incremental.empty());
      EXPECT_EQ(incremental, batch_oracle_dump(seed, epoch))
          << "seed " << seed << " epoch " << epoch;
    }
  }
}

TEST(EpochEquivalence, HoldsAgainstTheShardedDedupBackend) {
  Stack stack(20170530);
  for (std::uint32_t epoch = 0; epoch <= 3; ++epoch) {
    auto delta = stack.advance();
    ASSERT_TRUE(delta.ok()) << delta.error().to_string();
  }
  EXPECT_EQ(stack.report_dump(),
            batch_oracle_dump(20170530, 3, /*shards=*/2));
}

TEST(EpochEquivalence, DeltasActuallyShrinkTheWork) {
  Stack stack(20170530, /*repos=*/40);
  auto initial = stack.advance();
  ASSERT_TRUE(initial.ok()) << initial.error().to_string();
  const std::uint64_t full = initial.value().layers_changed;
  ASSERT_GT(full, 0u);
  std::uint64_t churn_total = 0;
  std::uint64_t retired_total = 0;
  for (std::uint32_t epoch = 1; epoch <= 4; ++epoch) {
    auto delta = stack.advance();
    ASSERT_TRUE(delta.ok()) << delta.error().to_string();
    EXPECT_LT(delta.value().layers_changed, full / 2)
        << "a churn epoch re-analyzed most of the corpus";
    churn_total += delta.value().layers_changed;
    retired_total += delta.value().layers_removed;
  }
  EXPECT_GT(churn_total, 0u);
  EXPECT_GT(retired_total, 0u);  // superseded rebuilds actually retire
}

TEST(EpochEquivalence, TrendReportTracksTheSeries) {
  Stack stack(20170530);
  temporal::TrendReport trend;
  for (std::uint32_t epoch = 0; epoch <= 2; ++epoch) {
    ASSERT_TRUE(stack.advance().ok());
    ASSERT_TRUE(trend.observe(stack.analyzer).ok());
  }
  const json::Value doc = trend.to_json();
  EXPECT_EQ(doc["epochs"].as_uint(), 3u);
  const json::Value& series = doc["series"];
  for (const char* column :
       {"epoch", "images", "distinct_layers", "layers_changed",
        "total_files", "unique_files", "total_bytes", "unique_bytes",
        "count_ratio", "capacity_ratio", "sharing_ratio",
        "unique_bytes_growth"}) {
    ASSERT_TRUE(series[column].is_array()) << column;
    EXPECT_EQ(series[column].items().size(), 3u) << column;
  }
  // Epoch 0 carries the full corpus; its growth entry is the whole store.
  EXPECT_GT(series["unique_bytes_growth"].items()[0].as_uint(), 0u);
}

// ---- 3. crash shapes ----------------------------------------------------

TEST(EpochChaos, CanceledEpochCommitsNothingAndResumesFromCheckpoint) {
  TempDir dir("dockmine-temporal-chaos");
  auto checkpoint = downloader::Checkpoint::open(dir.path / "ckpt");
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.error().to_string();

  // The trigger cancels after the first analyzed layer, but only once
  // armed — epochs 0 and 1 run uninterrupted, epoch 2 gets killed.
  std::atomic<bool> cancel{false};
  std::atomic<bool> armed{false};
  temporal::DeltaOptions chaos;
  chaos.checkpoint = &checkpoint.value();
  chaos.cancel = &cancel;
  chaos.on_layer_analyzed = [&cancel, &armed](std::uint64_t analyzed) {
    if (armed.load() && analyzed >= 1) cancel.store(true);
  };
  Stack victim(20170530, /*repos=*/24, std::move(chaos));
  Stack oracle(20170530, /*repos=*/24);

  for (std::uint32_t epoch = 0; epoch <= 1; ++epoch) {
    ASSERT_TRUE(victim.advance().ok());
    ASSERT_TRUE(oracle.advance().ok());
  }
  const std::string before = victim.report_dump();
  EXPECT_EQ(before, oracle.report_dump());

  // Kill epoch 2 after one analyzed layer.
  auto pushed = victim.evolving.advance(victim.service);
  ASSERT_TRUE(pushed.ok()) << pushed.error().to_string();
  ASSERT_FALSE(pushed.value().repushed.empty())
      << "seed produced an empty churn set; pick another seed";
  armed.store(true);
  auto killed = victim.analyzer.apply_epoch(victim.service, 2,
                                            pushed.value().repushed);
  ASSERT_TRUE(killed.ok()) << killed.error().to_string();
  ASSERT_TRUE(killed.value().canceled);

  // Nothing committed: resident state and report are still epoch 1.
  EXPECT_EQ(victim.analyzer.epoch(), 1u);
  EXPECT_EQ(victim.report_dump(), before);

  // Retry with the trigger disarmed: verified blobs stream from the
  // checkpoint, and the result is byte-identical to the uninterrupted run.
  armed.store(false);
  cancel.store(false);
  auto resumed = victim.analyzer.apply_epoch(victim.service, 2,
                                             pushed.value().repushed);
  ASSERT_TRUE(resumed.ok()) << resumed.error().to_string();
  EXPECT_FALSE(resumed.value().canceled);
  EXPECT_GT(resumed.value().layers_resumed, 0u);

  ASSERT_TRUE(oracle.advance().ok());
  EXPECT_EQ(victim.report_dump(), oracle.report_dump());
}

TEST(EpochChaos, RestartReplayReproducesTheResidentStateByteForByte) {
  TempDir dir("dockmine-temporal-replay");
  auto checkpoint = downloader::Checkpoint::open(dir.path / "ckpt");
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.error().to_string();

  std::string before;
  {
    temporal::DeltaOptions options;
    options.checkpoint = &checkpoint.value();
    Stack first(777, kRepos, std::move(options));
    for (std::uint32_t epoch = 0; epoch <= 3; ++epoch) {
      ASSERT_TRUE(first.advance().ok());
    }
    before = first.report_dump();
  }

  // "Restart": a fresh analyzer over a fresh registry, same checkpoint.
  // Every verified blob streams from disk, none from the network.
  temporal::DeltaOptions options;
  options.checkpoint = &checkpoint.value();
  Stack second(777, kRepos, std::move(options));
  std::uint64_t resumed = 0;
  std::uint64_t fetched = 0;
  for (std::uint32_t epoch = 0; epoch <= 3; ++epoch) {
    auto delta = second.advance();
    ASSERT_TRUE(delta.ok()) << delta.error().to_string();
    resumed += delta.value().layers_resumed;
    fetched += delta.value().layers_changed;
  }
  EXPECT_EQ(resumed, fetched);
  EXPECT_EQ(second.report_dump(), before);
}

TEST(EpochGuards, SequencingAndRangeViolationsAreRejected) {
  Stack stack(20170530);
  // Epoch 1 before epoch 0:
  auto out_of_order = stack.analyzer.apply_epoch(stack.service, 1, {});
  EXPECT_FALSE(out_of_order.ok());
  ASSERT_TRUE(stack.advance().ok());
  // Skipping an epoch:
  auto skipped = stack.analyzer.apply_epoch(stack.service, 2, {});
  EXPECT_FALSE(skipped.ok());
  // Beyond the version-space ceiling:
  auto too_deep = stack.analyzer.apply_epoch(
      stack.service, temporal::EpochModel::kMaxEpoch + 1, {});
  EXPECT_FALSE(too_deep.ok());
}

// ---- 4. serve: ingest-epoch + restart replay ---------------------------

serve::ServeOptions temporal_serve_options(
    const std::shared_ptr<Stack>& stack, const std::string& state_dir) {
  serve::ServeOptions options;
  options.job.repositories = kRepos;
  options.job.seed = 20170530;
  options.job.shards = 1;
  options.state_dir = state_dir;
  options.temporal_advance =
      [stack](std::uint32_t epoch) -> util::Result<core::PipelineResult> {
    if (epoch != (stack->analyzer.initialized()
                      ? stack->analyzer.epoch() + 1
                      : 0)) {
      return util::invalid_argument("temporal_advance: unexpected epoch");
    }
    auto delta = stack->advance();
    if (!delta.ok()) return std::move(delta).error();
    return stack->analyzer.result();
  };
  return options;
}

TEST(ServeTemporal, IngestEpochAdvancesAndMatchesTheBatchOracle) {
  TempDir dir("dockmine-temporal-serve");
  auto stack = std::make_shared<Stack>(20170530);
  serve::ServeDaemon daemon(temporal_serve_options(stack, dir.str()));
  ASSERT_TRUE(daemon.start().ok());

  auto snapshot = daemon.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->temporal);
  EXPECT_EQ(snapshot->epoch, 0u);
  EXPECT_NE(snapshot->resident, nullptr);
  EXPECT_EQ(snapshot->images.size(), snapshot->repo_metrics.size());

  auto client = serve::Client::connect(daemon.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().set_timeout_ms(600000).ok());

  // Regular batch ingest is rejected in temporal mode.
  serve::Request ingest;
  ingest.kind = serve::RequestKind::kIngest;
  ingest.id = 1;
  ingest.repositories = 4;
  ingest.seed = 99;
  auto rejected = client.value().call(ingest);
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected.value().ok);

  // Two epoch advances through the wire.
  for (std::uint64_t id = 2; id <= 3; ++id) {
    serve::Request advance;
    advance.kind = serve::RequestKind::kIngestEpoch;
    advance.id = id;
    auto response = client.value().call(advance);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response.value().ok) << response.value().error;
    EXPECT_EQ(response.value().body["epoch"].as_uint(), id - 1);
  }
  EXPECT_EQ(daemon.snapshot()->epoch, 2u);

  // The served analysis slice is byte-identical to a from-scratch batch
  // run over the epoch-2 registry.
  serve::Request report;
  report.q = "report";
  report.path = "analysis";
  report.id = 4;
  auto served = client.value().call(report);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(served.value().ok) << served.value().error;
  EXPECT_EQ(served.value().body.dump(),
            batch_oracle_dump(20170530, 2));

  // Restart replay: a second daemon over the same state dir and a fresh
  // stack must reproduce the full pre-crash report byte-for-byte
  // (pipeline_report_json, download accounting included).
  const std::string before = daemon.snapshot()->report.dump();
  daemon.stop();

  auto replay_stack = std::make_shared<Stack>(20170530);
  serve::ServeDaemon replayed(temporal_serve_options(replay_stack, dir.str()));
  ASSERT_TRUE(replayed.start().ok());
  EXPECT_EQ(replayed.snapshot()->epoch, 2u);
  EXPECT_EQ(replayed.snapshot()->report.dump(), before);
  replayed.stop();
}

TEST(ServeTemporal, BatchStateDirIsNotAdoptedByATemporalDaemon) {
  TempDir dir("dockmine-temporal-mismatch");
  {
    serve::ServeOptions options;
    options.job.repositories = 4;
    options.job.seed = 20170530;
    options.job.shards = 1;
    options.job.download_workers = 2;
    options.job.analyze_workers = 2;
    options.state_dir = dir.str();
    serve::ServeDaemon batch_daemon(options);
    ASSERT_TRUE(batch_daemon.start().ok());
    batch_daemon.stop();
  }
  auto stack = std::make_shared<Stack>(20170530);
  serve::ServeDaemon temporal_daemon(
      temporal_serve_options(stack, dir.str()));
  auto status = temporal_daemon.start();
  EXPECT_FALSE(status.ok());
}

}  // namespace
