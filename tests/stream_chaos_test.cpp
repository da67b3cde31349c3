// Chaos for the end-to-end pipeline: kill it mid-download and resume from
// the checkpoint; run it over a faulty transport; in every case the
// converged canonical analysis report must be byte-identical to an
// undisturbed run.
//
// Mirrors the paper's operational reality — a weeks-long crawl that was
// killed, resumed, and rate-limited — on top of the seeded fault injector,
// so every scenario replays deterministically.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "dockmine/core/pipeline.h"
#include "dockmine/downloader/checkpoint.h"
#include "dockmine/synth/materialize.h"

namespace dockmine::core {
namespace {

constexpr std::uint64_t kSeed = 20170530;

PipelineOptions chaos_options() {
  PipelineOptions options;
  // Light calibration: bytes-mode runs materialize every file for real.
  options.calibration = synth::Calibration::light();
  options.scale = synth::Scale{60, kSeed};
  options.gzip_level = 1;
  return options;
}

/// A registry that sets `cancel` once it has served `limit` blob fetches:
/// the kill lands while downloads are still in flight.
class KillAfterFetches : public registry::Service {
 public:
  KillAfterFetches(std::atomic<bool>& cancel, std::uint64_t limit)
      : cancel_(cancel), limit_(limit) {}

  util::Result<blob::BlobPtr> fetch_blob(
      const digest::Digest& digest) override {
    if (fetches_.fetch_add(1, std::memory_order_relaxed) + 1 >= limit_) {
      cancel_.store(true, std::memory_order_relaxed);
    }
    return Service::fetch_blob(digest);
  }

 private:
  std::atomic<bool>& cancel_;
  const std::uint64_t limit_;
  std::atomic<std::uint64_t> fetches_{0};
};

std::string fault_free_report() {
  static const std::string* report = [] {
    auto result = run_end_to_end(chaos_options());
    EXPECT_TRUE(result.ok());
    return new std::string(analysis_report_json(result.value()).dump());
  }();
  return *report;
}

TEST(StreamChaosTest, KillMidDownloadThenResumeMatchesUninterruptedRun) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "stream_chaos_ckpt";
  std::filesystem::remove_all(dir);

  {
    auto checkpoint = downloader::Checkpoint::open(dir);
    ASSERT_TRUE(checkpoint.ok());

    // Kill: cancel the run once the registry has served 25 blobs, while
    // downloads are still in flight.
    std::atomic<bool> cancel{false};
    PipelineOptions options = chaos_options();
    KillAfterFetches service(cancel, 25);
    const synth::HubModel hub(options.calibration, options.scale);
    ASSERT_TRUE(
        synth::Materializer(hub, options.gzip_level).populate(service).ok());
    options.external_service = &service;
    options.checkpoint = &checkpoint.value();
    options.cancel = &cancel;

    auto interrupted = run_end_to_end(options);
    ASSERT_TRUE(interrupted.ok());
    EXPECT_GT(interrupted.value().download.repos_canceled, 0u)
        << "the kill fired too late to cancel anything";
    EXPECT_GT(interrupted.value().download.succeeded, 0u)
        << "the kill fired before any repository completed";
  }

  // Resume: a fresh process reopens the checkpoint. Completed repositories
  // replay from the journal + disk store (no re-transfer); the rest
  // download normally. The rebuilt report must match a never-killed run.
  {
    auto checkpoint = downloader::Checkpoint::open(dir);
    ASSERT_TRUE(checkpoint.ok());
    PipelineOptions options = chaos_options();
    options.checkpoint = &checkpoint.value();

    auto resumed = run_end_to_end(options);
    ASSERT_TRUE(resumed.ok());
    const PipelineResult& result = resumed.value();
    EXPECT_GT(result.download.repos_resumed, 0u);
    EXPECT_GT(result.download.layers_resumed, 0u);
    EXPECT_EQ(analysis_report_json(result).dump(), fault_free_report());
  }
  std::filesystem::remove_all(dir);
}

TEST(StreamChaosTest, TransientFaultsAndCorruptionConvergeToFaultFreeReport) {
  // ~25% of requests fail transiently; ~1% of blob fetches are delivered
  // corrupted (truncated or bit-flipped). Retry/backoff handles the former
  // below the downloader, digest verification + re-fetch the latter above
  // the cache.
  registry::FaultSpec faults;
  faults.seed = 20170530;
  faults.p_unavailable = 0.15;
  faults.p_reset = 0.10;
  faults.p_slow = 0.05;
  faults.p_truncate = 0.005;
  faults.p_bitflip = 0.005;

  PipelineOptions options = chaos_options();
  options.faults = &faults;
  options.retry = {/*max_attempts=*/8, /*base_delay_ms=*/0.01,
                   /*max_delay_ms=*/0.5, /*retry_budget=*/1'000'000};
  options.breaker = {/*failure_threshold=*/12, /*cooldown_ms=*/1.0,
                     /*close_threshold=*/1};

  auto chaos = run_end_to_end(options);
  ASSERT_TRUE(chaos.ok()) << chaos.error().message();
  const PipelineResult& result = chaos.value();

  // The chaos was real...
  EXPECT_GT(result.fault_stats.total_injected(), 50u);
  EXPECT_GT(result.resilience.retries, 0u);
  // ...every corrupt blob was caught by digest verification (zero corrupt
  // profiles reached the analyzer)...
  EXPECT_EQ(result.download.failed_digest, 0u);
  // ...and the converged dataset is byte-identical to the fault-free run.
  EXPECT_EQ(analysis_report_json(result).dump(), fault_free_report());
}

TEST(StreamChaosTest, CorruptionIsAccountedNotSilentlyAnalyzed) {
  registry::FaultSpec faults;
  faults.seed = 42;
  faults.p_truncate = 0.02;
  faults.p_bitflip = 0.02;

  PipelineOptions options = chaos_options();
  options.faults = &faults;

  auto chaos = run_end_to_end(options);
  ASSERT_TRUE(chaos.ok()) << chaos.error().message();
  const PipelineResult& result = chaos.value();
  EXPECT_GT(result.fault_stats.injected_truncate +
                result.fault_stats.injected_bitflip,
            0u);
  // Corrupt transfers were detected and discarded; whatever was analyzed
  // came from verified bytes only: exactly the unique layers the delivered
  // manifests reference, each a layer of the fault-free dataset.
  EXPECT_GT(result.download.bytes_discarded, 0u);
  std::unordered_set<digest::Digest, digest::DigestHash> delivered;
  for (const auto& manifest : result.manifests) {
    for (const auto& ref : manifest.layers) delivered.insert(ref.digest);
  }
  EXPECT_EQ(result.layer_profiles.size(), delivered.size());
}

// Permanent corruption makes some images fail after their first layers
// were already downloaded. Those files must not reach the dedup index: the
// report has to equal the one-worker one, for both the monolithic and the
// sharded index.
TEST(StreamChaosTest, FilesOfUndeliveredImagesStayOutOfDedup) {
  registry::FaultSpec faults;
  faults.seed = 3;
  faults.p_truncate = 0.15;
  faults.p_bitflip = 0.15;

  PipelineOptions reference_options = chaos_options();
  reference_options.download_workers = 1;
  reference_options.analyze_workers = 1;
  reference_options.faults = &faults;
  auto reference = run_end_to_end(reference_options);
  ASSERT_TRUE(reference.ok()) << reference.error().message();
  const std::string golden = analysis_report_json(reference.value()).dump();

  for (std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    PipelineOptions options = chaos_options();
    options.download_workers = 1;
    options.faults = &faults;
    options.shard.shards = shards;
    auto run = run_end_to_end(options);
    ASSERT_TRUE(run.ok()) << run.error().message();
    const PipelineResult& result = run.value();

    // The faults were permanent for some images, and only the layers the
    // delivered manifests reference were analyzed.
    ASSERT_LT(result.download.succeeded, result.download.attempted);
    std::unordered_set<digest::Digest, digest::DigestHash> delivered;
    std::uint64_t delivered_files = 0;
    for (const auto& manifest : result.manifests) {
      for (const auto& ref : manifest.layers) {
        if (!delivered.insert(ref.digest).second) continue;
        const auto profile = result.layer_profiles.find(ref.digest);
        ASSERT_TRUE(profile.has_value());
        delivered_files += profile->file_count;
      }
    }
    EXPECT_EQ(result.layer_profiles.size(), delivered.size());

    ASSERT_TRUE(result.shard_dedup.has_value());
    EXPECT_EQ(result.shard_dedup->totals.total_files, delivered_files);
    EXPECT_EQ(analysis_report_json(result).dump(), golden);
  }
}

}  // namespace
}  // namespace dockmine::core
