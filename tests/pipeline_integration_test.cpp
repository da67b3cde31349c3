// End-to-end integration: the full Fig.-2 pipeline in bytes mode, checked
// for internal consistency and against metadata mode on the same snapshot.
#include <gtest/gtest.h>

#include "dockmine/core/dataset.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/dedup/by_type.h"

namespace dockmine::core {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions options;
    options.calibration = synth::Calibration::light();
    options.scale = synth::Scale{120, 2024};
    options.download_workers = 4;
    options.analyze_workers = 2;
    options.gzip_level = 1;
    auto run = run_end_to_end(options);
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    result = new PipelineResult(std::move(run).value());
    hub = new synth::HubModel(synth::Calibration::light(), options.scale);
  }
  static void TearDownTestSuite() {
    delete result;
    delete hub;
    result = nullptr;
    hub = nullptr;
  }

  static PipelineResult* result;
  static synth::HubModel* hub;
};

PipelineResult* PipelineFixture::result = nullptr;
synth::HubModel* PipelineFixture::hub = nullptr;

TEST_F(PipelineFixture, CrawlerFoundEveryRepository) {
  EXPECT_EQ(result->crawl.repositories.size(), hub->repositories().size());
  EXPECT_GT(result->crawl.raw_hits, result->crawl.repositories.size());
}

TEST_F(PipelineFixture, DownloadMatchesFailureModel) {
  const auto& dl = result->download;
  EXPECT_EQ(dl.attempted, hub->repositories().size());
  EXPECT_EQ(dl.succeeded, hub->downloadable_images());
  EXPECT_EQ(dl.succeeded + dl.failed_auth + dl.failed_no_tag +
                dl.failed_missing + dl.failed_other,
            dl.attempted);
  EXPECT_EQ(dl.failed_other, 0u);
  EXPECT_EQ(dl.failed_missing, 0u);
}

TEST_F(PipelineFixture, AnalyzerProfiledEveryDownloadedImage) {
  EXPECT_EQ(result->images.size(), result->download.succeeded);
  EXPECT_EQ(result->layer_profiles.size(), result->download.layers_fetched);
  for (const auto& image : result->images) {
    EXPECT_GT(image.layer_count, 0u);
  }
}

TEST_F(PipelineFixture, BytesModeMatchesMetadataModeExactly) {
  // The strongest equivalence claim: the dedup index built from real
  // gunzipped tar bytes equals the metadata-mode index on every aggregate.
  DatasetOptions options;
  options.file_dedup = true;
  const DatasetStats meta = DatasetStats::compute(*hub, options);

  ASSERT_TRUE(result->shard_dedup.has_value());
  const dedup::DedupTotals& measured = result->shard_dedup->totals;
  const auto expected = meta.file_index->totals();
  EXPECT_EQ(measured.total_files, expected.total_files);
  EXPECT_EQ(measured.unique_files, expected.unique_files);
  EXPECT_EQ(measured.total_bytes, expected.total_bytes);
  EXPECT_EQ(measured.unique_bytes, expected.unique_bytes);

  // Per-group instance counts agree too (classifier vs model labels).
  const dedup::TypeBreakdown& bytes_breakdown = result->shard_dedup->by_type;
  const dedup::TypeBreakdown meta_breakdown(*meta.file_index);
  for (std::size_t g = 0; g < filetype::kGroupCount; ++g) {
    const auto group = static_cast<filetype::Group>(g);
    EXPECT_EQ(bytes_breakdown.by_group(group).count,
              meta_breakdown.by_group(group).count)
        << filetype::to_string(group);
    EXPECT_EQ(bytes_breakdown.by_group(group).bytes,
              meta_breakdown.by_group(group).bytes)
        << filetype::to_string(group);
  }
}

TEST_F(PipelineFixture, LayerSharingConsistentWithModel) {
  DatasetOptions options;
  options.file_dedup = false;
  const DatasetStats meta = DatasetStats::compute(*hub, options);
  EXPECT_EQ(result->sharing.images_seen(), meta.sharing.images_seen());
  EXPECT_EQ(result->sharing.distinct_layers(), meta.sharing.distinct_layers());
  EXPECT_GT(result->sharing.sharing_ratio(), 1.0);
  // Reference-count distributions must be identical (same lineage).
  const auto bytes_cdf = result->sharing.reference_count_cdf();
  const auto meta_cdf = meta.sharing.reference_count_cdf();
  EXPECT_DOUBLE_EQ(bytes_cdf.fraction_equal(1), meta_cdf.fraction_equal(1));
  EXPECT_DOUBLE_EQ(bytes_cdf.max(), meta_cdf.max());
}

TEST_F(PipelineFixture, ServiceSawExpectedTraffic) {
  EXPECT_GT(result->service.manifest_requests, 0u);
  EXPECT_GT(result->service.blob_requests, 0u);
  EXPECT_GT(result->service.bytes_served, 0u);
  EXPECT_EQ(result->service.unauthorized, result->download.failed_auth);
}

}  // namespace
}  // namespace dockmine::core
