// Equivalence property for the sharded dedup backend: the pipeline's
// canonical reports are byte-identical whether file observations go through
// the monolithic FileDedupIndex or the hash-partitioned, disk-spilling
// dockmine::shard backend — across shard counts, spill pressure (none /
// some / everything), execution modes, seeds, and K-way multi-node splits.
// Sharding changes *where* aggregation state lives, never *what* the
// dataset looks like.
//
// DOCKMINE_SHARD_SPILL_BYTES overrides the forced-spill thresholds, which
// the CI low-spill job uses to drive every run through the spill path.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "dockmine/core/multi_node.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/obs/obs.h"

namespace dockmine::core {
namespace {

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

PipelineOptions small_options(std::uint64_t seed) {
  PipelineOptions options;
  // Light calibration: bytes-mode runs materialize every file for real, so
  // the paper-scale file populations would swamp a unit test.
  options.calibration = synth::Calibration::light();
  options.scale = synth::Scale{40, seed};
  options.gzip_level = 1;
  return options;
}

// Spill pressure levels for the grid. `kAll` clamps to the index's spill
// floor, so effectively every insertion wave freezes a run; `kSome` spills
// the hot shards a few times and leaves the rest resident.
enum class Spill { kNone, kSome, kAll };

std::uint64_t spill_threshold(Spill spill) {
  const char* env = std::getenv("DOCKMINE_SHARD_SPILL_BYTES");
  if (env != nullptr) return std::strtoull(env, nullptr, 10);
  return spill == Spill::kAll ? 1 : 16ull << 10;
}

PipelineResult run_sharded(const PipelineOptions& base, std::uint32_t shards,
                           Spill spill, const std::string& spill_dir,
                           ExecutionMode mode) {
  PipelineOptions options = base;
  options.mode = mode;
  options.shard.shards = shards;
  if (spill != Spill::kNone) {
    options.shard.spill_dir = spill_dir;
    options.shard.spill_threshold_bytes = spill_threshold(spill);
    // Small initial maps keep the spill floor low enough that a unit-test
    // population genuinely cycles through the spill path.
    options.shard.expected_contents_per_shard = 4;
  }
  auto result = run_end_to_end(options);
  EXPECT_TRUE(result.ok()) << result.error().message();
  return std::move(result).value();
}

TEST(ShardPipelineTest, ShardAndSpillGridMatchesMonolithicByteForByte) {
  const std::uint64_t seed = 20170530;
  TempDir dir("dockmine_shard_grid");
  PipelineOptions base = small_options(seed);

  auto monolithic = run_end_to_end(base);
  ASSERT_TRUE(monolithic.ok()) << monolithic.error().message();
  ASSERT_TRUE(monolithic.value().file_index != nullptr);
  const std::string golden = pipeline_report_json(monolithic.value()).dump();
  ASSERT_FALSE(golden.empty());

  int case_id = 0;
  for (std::uint32_t shards : {1u, 4u, 16u}) {
    for (Spill spill : {Spill::kNone, Spill::kSome, Spill::kAll}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " spill " +
                   std::to_string(static_cast<int>(spill)));
      const std::string spill_dir =
          (dir.path / ("case-" + std::to_string(case_id++))).string();
      PipelineResult sharded = run_sharded(base, shards, spill, spill_dir,
                                           ExecutionMode::kStaged);
      EXPECT_EQ(golden, pipeline_report_json(sharded).dump());
      EXPECT_TRUE(sharded.shard_summary.enabled);
      EXPECT_TRUE(sharded.file_index == nullptr);
      EXPECT_GT(sharded.shard_summary.observations, 0u);
      EXPECT_GT(sharded.shard_summary.distinct_contents, 0u);
      EXPECT_GT(sharded.shard_summary.runs_merged, 0u);
      if (spill == Spill::kAll) {
        EXPECT_GT(sharded.shard_summary.spills, 0u);
        EXPECT_GT(sharded.shard_summary.spilled_bytes, 0u);
      }
    }
  }

  // Execution modes route observations through different thread structures
  // (single writer / staged pool / streamed consumers); all fold the same.
  for (ExecutionMode mode : {ExecutionMode::kSerial, ExecutionMode::kStreamed}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    const std::string spill_dir =
        (dir.path / ("mode-" + std::to_string(static_cast<int>(mode))))
            .string();
    PipelineResult sharded =
        run_sharded(base, 4, Spill::kSome, spill_dir, mode);
    EXPECT_EQ(golden, pipeline_report_json(sharded).dump());
  }
}

TEST(ShardPipelineTest, DiagonalSeedsMatchUnderMaxSpillStreamed) {
  for (std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{99991}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir("dockmine_shard_seed_" + std::to_string(seed));
    PipelineOptions base = small_options(seed);

    auto monolithic = run_end_to_end(base);
    ASSERT_TRUE(monolithic.ok()) << monolithic.error().message();
    const std::string golden = pipeline_report_json(monolithic.value()).dump();

    PipelineResult sharded = run_sharded(base, 16, Spill::kAll,
                                         dir.path.string(),
                                         ExecutionMode::kStreamed);
    EXPECT_EQ(golden, pipeline_report_json(sharded).dump());
    EXPECT_GT(sharded.shard_summary.spills, 0u);
  }
}

TEST(ShardPipelineTest, MultiNodeSplitReproducesSingleNodeReportExactly) {
  const std::uint64_t seed = 20170530;
  TempDir dir("dockmine_shard_nodes");
  PipelineOptions base = small_options(seed);
  base.shard.shards = 4;
  base.shard.spill_threshold_bytes = spill_threshold(Spill::kSome);

  // Single-node sharded run: the reference the K-way splits must reproduce.
  PipelineOptions single = base;
  single.shard.spill_dir = (dir.path / "single").string();
  std::filesystem::create_directories(single.shard.spill_dir);
  auto single_run = run_end_to_end(single);
  ASSERT_TRUE(single_run.ok()) << single_run.error().message();
  const std::string golden = analysis_report_json(single_run.value()).dump();
  ASSERT_FALSE(golden.empty());

  for (std::uint32_t nodes : {2u, 3u}) {
    SCOPED_TRACE("nodes " + std::to_string(nodes));
    MultiNodeOptions options;
    options.base = base;
    options.nodes = nodes;
    options.export_root =
        (dir.path / ("split-" + std::to_string(nodes))).string();
    auto result = run_multi_node(options);
    ASSERT_TRUE(result.ok()) << result.error().message();
    const MultiNodeResult& mn = result.value();
    ASSERT_EQ(mn.node_results.size(), nodes);
    ASSERT_EQ(mn.shard_set_dirs.size(), nodes);

    // Each unique layer is owned by exactly one node, so the folded union
    // is the single-node dataset — byte for byte.
    EXPECT_EQ(golden, analysis_report_json(mn.combined).dump());
    EXPECT_TRUE(mn.combined.shard_summary.enabled);
    EXPECT_GT(mn.combined.shard_summary.runs_merged, 0u);
    EXPECT_EQ(mn.combined.shard_summary.observations,
              single_run.value().shard_summary.observations);
    EXPECT_EQ(mn.combined.shard_summary.distinct_contents,
              single_run.value().shard_summary.distinct_contents);
    // Every node did real work: delivered images partition the full set.
    std::size_t images = 0;
    for (const auto& node : mn.node_results) {
      EXPECT_GT(node.images.size(), 0u);
      images += node.images.size();
    }
    EXPECT_EQ(images, single_run.value().images.size());
  }
}

TEST(ShardPipelineTest, ForcedSpillKeepsPeakResidencyUnderConfiguredBound) {
  TempDir dir("dockmine_shard_bound");
  PipelineOptions options = small_options(20170530);
  options.mode = ExecutionMode::kStreamed;
  options.shard.shards = 4;
  options.shard.spill_dir = dir.path.string();
  options.shard.spill_threshold_bytes = spill_threshold(Spill::kAll);

  obs::set_enabled(true);

  // The spill trigger is max(threshold, spill floor); read the floor off a
  // probe index with the same config instead of hardcoding internals.
  std::uint64_t floor = 0;
  {
    const shard::ShardedDedupIndex probe(options.shard);
    floor = probe.spill_floor();
  }
  ASSERT_GT(floor, 0u);
  const std::uint64_t trigger =
      std::max<std::uint64_t>(options.shard.spill_threshold_bytes, floor);
  // Every (writer, shard) store spills before exceeding its trigger, and a
  // map table only grows by doubling, so the instantaneous peak per store
  // is < 2x the trigger. Allow one writer per worker on either side of the
  // queue plus the main thread.
  const std::uint64_t writers =
      options.download_workers + options.analyze_workers + 1;
  const std::uint64_t bound = writers * options.shard.shards * 2 * trigger;

  auto run = run_end_to_end(options);
  obs::set_enabled(false);
  ASSERT_TRUE(run.ok()) << run.error().message();

  const ShardedDedupSummary& summary = run.value().shard_summary;
  EXPECT_GT(summary.spills, 0u);
  EXPECT_GT(summary.peak_resident_bytes, 0u);
  EXPECT_LE(summary.peak_resident_bytes, bound);

  // The obs gauge carries the same high-water mark for live monitoring.
  const std::int64_t gauge =
      obs::Registry::global().gauge("dockmine_shard_resident_peak_bytes")
          .value();
  EXPECT_EQ(static_cast<std::uint64_t>(gauge), summary.peak_resident_bytes);
  EXPECT_GT(
      obs::Registry::global().counter("dockmine_shard_spills_total").value(),
      0u);
}

TEST(ShardPipelineTest, PipelineExportedShardSetMergesToReportedTotals) {
  TempDir dir("dockmine_shard_pipeexport");
  PipelineOptions options = small_options(20170530);
  options.shard.shards = 4;
  options.shard_export_dir = (dir.path / "set").string();

  auto run = run_end_to_end(options);
  ASSERT_TRUE(run.ok()) << run.error().message();
  ASSERT_TRUE(run.value().shard_dedup.has_value());
  ASSERT_FALSE(run.value().shard_summary.export_manifest.empty());
  EXPECT_TRUE(
      std::filesystem::exists(run.value().shard_summary.export_manifest));

  // A second process folding the exported set reaches the same totals the
  // in-process merge reported.
  shard::ShardMerger merger;
  ASSERT_TRUE(merger.add_shard_set(options.shard_export_dir).ok());
  auto aggregates = merger.merge_aggregates();
  ASSERT_TRUE(aggregates.ok()) << aggregates.error().message();
  const auto& reported = run.value().shard_dedup->totals;
  EXPECT_EQ(aggregates.value().totals.total_files, reported.total_files);
  EXPECT_EQ(aggregates.value().totals.unique_files, reported.unique_files);
  EXPECT_EQ(aggregates.value().totals.total_bytes, reported.total_bytes);
  EXPECT_EQ(aggregates.value().totals.unique_bytes, reported.unique_bytes);
  EXPECT_EQ(aggregates.value().distinct_contents,
            run.value().shard_summary.distinct_contents);
}

}  // namespace
}  // namespace dockmine::core
