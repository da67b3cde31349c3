// Equivalence property: the end-to-end pipeline produces byte-identical
// canonical reports for a fixed seed whatever its worker counts. One
// download worker and one analyze worker is the reference ordering; more
// workers change *when* work happens, never *what* the dataset looks like.
// 0 is the all-cores default, and a JobSpec's one `threads` count reaches
// the pipeline through lease_pipeline_options.
#include <cstddef>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "dockmine/core/lease.h"
#include "dockmine/core/pipeline.h"

namespace dockmine::core {
namespace {

PipelineResult run_workers(std::uint64_t seed, std::size_t download_workers,
                           std::size_t analyze_workers) {
  PipelineOptions options;
  // Light calibration: bytes-mode runs materialize every file for real, so
  // the paper-scale file populations would swamp a unit test.
  options.calibration = synth::Calibration::light();
  options.scale = synth::Scale{60, seed};
  options.gzip_level = 1;
  options.download_workers = download_workers;
  options.analyze_workers = analyze_workers;
  auto result = run_end_to_end(options);
  EXPECT_TRUE(result.ok()) << result.error().message();
  return std::move(result).value();
}

PipelineResult run_job(std::uint64_t seed, std::size_t threads) {
  JobSpec spec;
  spec.repositories = 60;
  spec.seed = seed;
  spec.threads = threads;
  const PipelineOptions options = lease_pipeline_options(spec, 0, 1, "");
  // 0 resolves on this machine, to a count perfbench's traced pass can use.
  EXPECT_GE(options.download_workers, 1u);
  EXPECT_EQ(options.download_workers, options.analyze_workers);
  if (threads != 0) {
    EXPECT_EQ(options.analyze_workers, threads);
  }
  auto result = run_end_to_end(options);
  EXPECT_TRUE(result.ok()) << result.error().message();
  return std::move(result).value();
}

TEST(WorkerEquivalenceTest, WorkerCountsProduceByteIdenticalReports) {
  const std::uint64_t seeds[] = {20170530, 7, 99991};
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    PipelineResult reference = run_workers(seed, 1, 1);
    const std::string golden = pipeline_report_json(reference).dump();
    ASSERT_FALSE(golden.empty());
    ASSERT_GT(reference.images.size(), 0u);
    ASSERT_GT(reference.layer_profiles.size(), 0u);

    const std::size_t grid[][2] = {{1, 1}, {4, 2}, {2, 4}, {0, 0}};
    for (const auto& [download, analyze] : grid) {
      SCOPED_TRACE("download " + std::to_string(download) + " analyze " +
                   std::to_string(analyze));
      PipelineResult run = run_workers(seed, download, analyze);
      EXPECT_EQ(golden, pipeline_report_json(run).dump());
      // Only the delivered manifests' unique layers are analyzed, each once.
      EXPECT_EQ(run.layer_profiles.size(), reference.layer_profiles.size());
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
      SCOPED_TRACE("job threads " + std::to_string(threads));
      PipelineResult run = run_job(seed, threads);
      EXPECT_EQ(golden, pipeline_report_json(run).dump());
      EXPECT_EQ(run.layer_profiles.size(), reference.layer_profiles.size());
    }
  }
}

}  // namespace
}  // namespace dockmine::core
