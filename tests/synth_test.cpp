#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <unordered_set>

#include "dockmine/compress/gzip.h"
#include "dockmine/digest/sha256.h"
#include "dockmine/filetype/classifier.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/synth/popularity.h"

// Sanitizer shadow memory and quarantine make RSS meaningless.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DOCKMINE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DOCKMINE_TEST_SANITIZED 1
#endif
#endif

namespace dockmine::synth {
namespace {

Scale tiny() { return Scale{200, 99}; }

/// A field of /proc/self/status in kB ("VmHWM:", "VmRSS:"); 0 if absent.
std::uint64_t status_kb(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stoull(line.substr(field.size()));
    }
  }
  return 0;
}

// First in this file, so it runs first in the suite's process: VmHWM only
// shows growth above the process's earlier peak.
TEST(MaterializerTest, PopulateHoldsLittleBeyondTheBlobsItPushes) {
  const HubModel hub(Calibration::light(), Scale{300, 20170530});
  registry::Service service;
  const Materializer materializer(hub, /*gzip_level=*/1, /*threads=*/4);
  const std::uint64_t rss_before_kb = status_kb("VmRSS:");
  const std::uint64_t hwm_before_kb = status_kb("VmHWM:");
  auto pushed = materializer.populate(service);
  const std::uint64_t hwm_after_kb = status_kb("VmHWM:");
  ASSERT_TRUE(pushed.ok()) << pushed.error().to_string();
  const std::uint64_t logical_kb = service.blob_stats().logical_bytes >> 10;

#ifndef DOCKMINE_TEST_SANITIZED
  // The registry keeps every blob it was pushed; the gzip threads' buffers,
  // the window's work-ahead and allocator slack must fit in 16 MiB on top.
  ASSERT_GT(hwm_after_kb, 0u) << "no VmHWM in /proc/self/status";
  EXPECT_LT(hwm_after_kb - std::min(rss_before_kb, hwm_after_kb),
            logical_kb + (16u << 10))
      << "VmRSS before " << rss_before_kb << " kB, VmHWM " << hwm_before_kb
      << " -> " << hwm_after_kb << " kB, blobs " << logical_kb << " kB";
#else
  (void)rss_before_kb;
  (void)hwm_before_kb;
  (void)hwm_after_kb;
  (void)logical_kb;
#endif
}

// ---------- FileModel ----------

class FileModelTest : public ::testing::Test {
 protected:
  Calibration cal = Calibration::paper();
  FileModel model{cal, 1'000'000, 42};
};

TEST_F(FileModelTest, ContentAttributesAreDeterministic) {
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const ContentId id = model.draw_content(rng);
    EXPECT_EQ(model.size_of(id), model.size_of(id));
    EXPECT_EQ(model.type_of(id), model.type_of(id));
    EXPECT_EQ(model.gzip_ratio_of(id), model.gzip_ratio_of(id));
  }
}

TEST_F(FileModelTest, EmptyContentHasZeroSize) {
  EXPECT_EQ(model.size_of(FileModel::kEmptyContentId), 0u);
  EXPECT_EQ(model.type_of(FileModel::kEmptyContentId), filetype::Type::kEmpty);
  EXPECT_TRUE(model.materialize(FileModel::kEmptyContentId).empty());
}

TEST_F(FileModelTest, EmptyFileFrequencyMatchesCalibration) {
  util::Rng rng(2);
  int empty = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    empty += FileModel::is_empty(model.draw_content(rng));
  }
  EXPECT_NEAR(empty / double(kDraws), cal.empty_file_prob, 0.002);
}

TEST_F(FileModelTest, PoolDrawsRepeatFreshDrawsDoNot) {
  util::Rng rng(3);
  std::unordered_set<ContentId> fresh_seen;
  std::unordered_set<ContentId> pool_seen;
  std::uint64_t pool_repeats = 0;
  for (int i = 0; i < 100000; ++i) {
    const ContentId id = model.draw_content(rng);
    if (FileModel::is_empty(id)) continue;
    if (FileModel::is_fresh(id)) {
      EXPECT_TRUE(fresh_seen.insert(id).second) << "fresh id repeated";
    } else if (!pool_seen.insert(id).second) {
      ++pool_repeats;
    }
  }
  EXPECT_GT(pool_repeats, 20000u);  // pool hits repeat heavily
  EXPECT_GT(fresh_seen.size(), 100u);
}

TEST_F(FileModelTest, MaterializedBytesMatchSizeAndType) {
  util::Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    const ContentId id = model.draw_content(rng);
    const std::string bytes = model.materialize(id);
    EXPECT_EQ(bytes.size(), model.size_of(id));
    const std::string path = model.path_for(id, i);
    // Only look at a classifier-sized prefix, as the analyzer does.
    const auto type = filetype::classify(
        path, std::string_view(bytes).substr(0, std::max<std::size_t>(512, 262)));
    EXPECT_EQ(type, model.type_of(id))
        << "path=" << path << " want=" << filetype::to_string(model.type_of(id))
        << " got=" << filetype::to_string(type);
  }
}

TEST_F(FileModelTest, MaterializeIsDeterministic) {
  util::Rng rng(5);
  const ContentId id = model.draw_content(rng);
  EXPECT_EQ(model.materialize(id), model.materialize(id));
}

TEST_F(FileModelTest, BigBiasProducesLargerFiles) {
  util::Rng rng(6);
  double big_bytes = 0, small_bytes = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    big_bytes += model.size_of(model.draw_content(rng, SizeBias::kBigFiles));
    small_bytes += model.size_of(model.draw_content(rng, SizeBias::kSmallFiles));
  }
  EXPECT_GT(big_bytes / kDraws, 3.0 * small_bytes / kDraws);
}

TEST_F(FileModelTest, PoolSizesFollowHeapsBudget) {
  const FileModel small_model(cal, 100'000, 42);
  const FileModel large_model(cal, 100'000'000, 42);
  EXPECT_GT(large_model.total_pool_entries(),
            small_model.total_pool_entries() * 5);
  // Sub-linear: x1000 instances should NOT mean x1000 contents.
  EXPECT_LT(large_model.total_pool_entries(),
            small_model.total_pool_entries() * 200);
}

// ---------- LayerModel ----------

TEST(LayerModelTest, SpecsDeterministicAndValid) {
  const Calibration cal = Calibration::paper();
  const FileModel files(cal, 1'000'000, 7);
  const LayerModel layers(cal, files, 7);
  for (LayerId id = 100; id < 400; ++id) {
    const LayerSpec a = layers.make_spec(id, LayerKind::kApp);
    const LayerSpec b = layers.make_spec(id, LayerKind::kApp);
    EXPECT_EQ(a.file_count, b.file_count);
    EXPECT_EQ(a.dir_count, b.dir_count);
    EXPECT_EQ(a.max_depth, b.max_depth);
    EXPECT_GE(a.dir_count, 1u);
    EXPECT_GE(a.max_depth, 1u);
    EXPECT_LE(a.max_depth, a.dir_count);
    EXPECT_LE(a.file_count, cal.files_max);
  }
}

TEST(LayerModelTest, EmptyLayerSpec) {
  const Calibration cal = Calibration::paper();
  const FileModel files(cal, 1'000'000, 7);
  const LayerModel layers(cal, files, 7);
  const LayerSpec spec =
      layers.make_spec(LayerModel::kEmptyLayerId, LayerKind::kEmpty);
  EXPECT_EQ(spec.file_count, 0u);
  EXPECT_EQ(spec.dir_count, 1u);
  const LayerSizes sizes = layers.sizes(spec);
  EXPECT_EQ(sizes.fls, 0u);
  EXPECT_GT(sizes.cls, 0u);  // even an empty gzip'd tar has bytes
}

TEST(LayerModelTest, FileStreamIsReplayable) {
  const Calibration cal = Calibration::paper();
  const FileModel files(cal, 1'000'000, 7);
  const LayerModel layers(cal, files, 7);
  const LayerSpec spec = layers.make_spec(12345, LayerKind::kApp);
  std::vector<ContentId> first, second;
  layers.for_each_file(spec, [&](const FileInstance& f) {
    first.push_back(f.content);
  });
  layers.for_each_file(spec, [&](const FileInstance& f) {
    second.push_back(f.content);
  });
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), spec.file_count);
}

TEST(LayerModelTest, SizesAccumulateFiles) {
  const Calibration cal = Calibration::paper();
  const FileModel files(cal, 1'000'000, 7);
  const LayerModel layers(cal, files, 7);
  const LayerSpec spec = layers.make_spec(777, LayerKind::kApp);
  std::uint64_t sum = 0;
  layers.for_each_file(spec, [&](const FileInstance& f) { sum += f.size; });
  const LayerSizes sizes = layers.sizes(spec);
  EXPECT_EQ(sizes.fls, sum);
  EXPECT_GE(sizes.cls, LayerModel::kGzipBaseOverhead);
  if (sum > 0) EXPECT_LT(sizes.cls, sizes.fls + spec.file_count * 100 + 64);
}

// ---------- LineageModel ----------

TEST(LineageTest, ComposeDeterministicAndBounded) {
  const Calibration cal = Calibration::paper();
  const LineageModel lineage(cal, 10000, 5);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const ImageSpec a = lineage.compose(0, i);
    const ImageSpec b = lineage.compose(0, i);
    EXPECT_EQ(a.layers, b.layers);
    EXPECT_GE(a.layers.size(), 1u);
    EXPECT_LE(a.layers.size(), cal.layers_max);
    std::set<LayerId> unique(a.layers.begin(), a.layers.end());
    EXPECT_EQ(unique.size(), a.layers.size()) << "duplicate layer in image";
  }
}

TEST(LineageTest, KindRecoverableFromId) {
  EXPECT_EQ(LineageModel::kind_of(LayerModel::kEmptyLayerId),
            LayerKind::kEmpty);
  EXPECT_EQ(LineageModel::kind_of(LineageModel::base_layer_id(3, 1)),
            LayerKind::kBase);
  EXPECT_EQ(LineageModel::kind_of(LineageModel::app_layer_id(9, 2)),
            LayerKind::kApp);
}

TEST(LineageTest, TwinsShareLayersWithClusterHead) {
  const Calibration cal = Calibration::paper();
  const LineageModel lineage(cal, 10000, 5);
  int twins_checked = 0;
  for (std::uint64_t i = 1; i < 4000 && twins_checked < 20; ++i) {
    if (!lineage.is_twin(i)) continue;
    const std::uint64_t head = i - i % cal.twin_cluster_size;
    const ImageSpec twin = lineage.compose(0, i);
    const ImageSpec head_image = lineage.compose(0, head);
    std::set<LayerId> head_layers(head_image.layers.begin(),
                                  head_image.layers.end());
    std::size_t shared = 0;
    for (LayerId id : twin.layers) shared += head_layers.count(id);
    EXPECT_GT(shared, 0u) << "twin " << i << " shares nothing with head";
    ++twins_checked;
  }
  EXPECT_GE(twins_checked, 10);
}

TEST(LineageTest, EmptyLayerAppearsInAboutHalfOfImages) {
  const Calibration cal = Calibration::paper();
  const LineageModel lineage(cal, 10000, 5);
  int with_empty = 0;
  constexpr int kImages = 4000;
  for (std::uint64_t i = 0; i < kImages; ++i) {
    const ImageSpec image = lineage.compose(0, i);
    for (LayerId id : image.layers) {
      if (id == LayerModel::kEmptyLayerId) {
        ++with_empty;
        break;
      }
    }
  }
  EXPECT_NEAR(with_empty / double(kImages), cal.empty_layer_prob, 0.05);
}

// ---------- PopularityModel ----------

TEST(PopularityTest, TopRepositoriesMatchPaper) {
  const auto top = PopularityModel::top_repositories();
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].name, "nginx");
  EXPECT_EQ(top[0].pulls, 650000000u);
  EXPECT_EQ(top[4].name, "ubuntu");
}

TEST(PopularityTest, MedianNearPaper) {
  const Calibration cal = Calibration::paper();
  const PopularityModel model(cal);
  util::Rng rng(8);
  std::vector<double> pulls;
  for (int i = 0; i < 50000; ++i) {
    pulls.push_back(static_cast<double>(model.sample(rng)));
  }
  std::sort(pulls.begin(), pulls.end());
  const double median = pulls[pulls.size() / 2];
  EXPECT_GT(median, 20);   // paper: 40
  EXPECT_LT(median, 80);
  EXPECT_LE(pulls.back(), cal.pulls_max);
}

// ---------- HubModel ----------

TEST(HubModelTest, DeterministicAcrossConstructions) {
  const HubModel a(Calibration::paper(), tiny());
  const HubModel b(Calibration::paper(), tiny());
  ASSERT_EQ(a.repositories().size(), b.repositories().size());
  ASSERT_EQ(a.images().size(), b.images().size());
  EXPECT_EQ(a.unique_layers(), b.unique_layers());
  for (std::size_t i = 0; i < a.repositories().size(); ++i) {
    EXPECT_EQ(a.repositories()[i].name, b.repositories()[i].name);
    EXPECT_EQ(a.repositories()[i].pull_count, b.repositories()[i].pull_count);
  }
}

TEST(HubModelTest, RepositoryNamesUniqueAndValid) {
  const HubModel hub(Calibration::paper(), tiny());
  std::set<std::string> names;
  for (const RepoSpec& repo : hub.repositories()) {
    EXPECT_TRUE(registry::is_valid_repository_name(repo.name)) << repo.name;
    EXPECT_TRUE(names.insert(repo.name).second) << "duplicate " << repo.name;
  }
  EXPECT_EQ(names.size(), tiny().repositories);
}

TEST(HubModelTest, FailureClassesRoughlyMatchPaperRates) {
  const HubModel hub(Calibration::paper(), Scale{4000, 11});
  std::uint64_t auth = 0, no_latest = 0;
  for (const RepoSpec& repo : hub.repositories()) {
    auth += repo.requires_auth;
    no_latest += !repo.has_latest;
  }
  const double n = static_cast<double>(hub.repositories().size());
  // Paper: 23.9% failures split 13% auth / 87% no-latest.
  EXPECT_NEAR(auth / n, 0.239 * 0.13, 0.02);
  EXPECT_NEAR(no_latest / n, 0.239 * 0.87, 0.03);
  EXPECT_EQ(hub.downloadable_images(),
            static_cast<std::uint64_t>(std::count_if(
                hub.repositories().begin(), hub.repositories().end(),
                [](const RepoSpec& r) {
                  return r.has_latest && !r.requires_auth;
                })));
}

TEST(HubModelTest, UniqueLayersCoverDownloadableImagesOnly) {
  const HubModel hub(Calibration::paper(), tiny());
  std::set<LayerId> expected;
  for (const RepoSpec& repo : hub.repositories()) {
    if (repo.image_index < 0 || repo.requires_auth) continue;
    const ImageSpec& image = hub.images()[repo.image_index];
    expected.insert(image.layers.begin(), image.layers.end());
  }
  std::set<LayerId> actual(hub.unique_layers().begin(),
                           hub.unique_layers().end());
  EXPECT_EQ(actual, expected);
}

// ---------- Materializer ----------

TEST(MaterializerTest, LayerBlobIsValidGzipTar) {
  const HubModel hub(Calibration::paper(), tiny());
  const Materializer materializer(hub);
  // Find a modest layer to keep the test fast.
  LayerSpec spec;
  for (LayerId id : hub.unique_layers()) {
    spec = hub.layer_spec(id);
    if (spec.file_count >= 3 && spec.file_count <= 50) break;
  }
  ASSERT_GE(spec.file_count, 3u);
  auto blob = materializer.layer_blob(spec);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob.value().substr(0, 2), "\x1f\x8b");
  // Deterministic bytes => deterministic digest (layer identity).
  auto again = materializer.layer_blob(spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(blob.value(), again.value());
  // Streamed through deflate, the blob is the whole tar gzipped at once,
  // and the bytes the whole-tar materializer produced.
  EXPECT_EQ(blob.value(),
            compress::gzip_compress(materializer.layer_tar(spec)).value());
  EXPECT_EQ(digest::Digest::of(blob.value()).to_string(),
            "sha256:d11dd4367d4abae09dba4cd0b596ba8fd97c2e0dc4408ffe7135ab25845011b5");
}

TEST(MaterializerTest, PopulateIsByteIdenticalAtEveryThreadCount) {
  const HubModel hub(Calibration::light(), Scale{30, 123});
  for (const std::size_t threads : {1, 2, 4, 0}) {
    registry::Service service;
    auto pushed = Materializer(hub, /*gzip_level=*/1, threads).populate(service);
    ASSERT_TRUE(pushed.ok()) << pushed.error().to_string();
    EXPECT_EQ(pushed.value(), 23u) << threads;
    // Every manifest in hub order names every layer digest and size.
    digest::Sha256 manifests;
    for (const RepoSpec& repo : hub.repositories()) {
      if (repo.image_index < 0) continue;
      auto body = service.get_manifest(repo.name, "latest",
                                       /*authenticated=*/true);
      ASSERT_TRUE(body.ok()) << repo.name;
      manifests.update(body.value());
    }
    // The bytes the one-thread, whole-tar materializer pushed.
    EXPECT_EQ(digest::Digest(manifests.finish()).to_string(),
              "sha256:71a32c1b6285adba80e9cbb452a92c071a940f31c140f9c6eeea19679cc1e478")
        << threads;
    const blob::StoreStats stats = service.blob_stats();
    EXPECT_EQ(stats.puts, 212u) << threads;
    EXPECT_EQ(stats.unique_blobs, 212u) << threads;
    EXPECT_EQ(stats.logical_bytes, 10089515u) << threads;
  }
}

TEST(MaterializerTest, PopulateFailsCleanlyWhenABlobCannotBeBuilt) {
  // Gzip level 0 fails every blob: the first failure ends populate and
  // every gzip thread is joined before it returns.
  const HubModel hub(Calibration::light(), Scale{20, 3});
  registry::Service service;
  auto pushed = Materializer(hub, /*gzip_level=*/0, /*threads=*/4).populate(service);
  ASSERT_FALSE(pushed.ok());
  EXPECT_EQ(pushed.error().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(service.blob_stats().puts, 0u);
}

TEST(MaterializerTest, PopulatePushesEveryTaggedImage) {
  const Scale scale{60, 123};
  const HubModel hub(Calibration::light(), scale);
  registry::Service service;
  const Materializer materializer(hub, /*gzip_level=*/1);
  auto pushed = materializer.populate(service);
  ASSERT_TRUE(pushed.ok());
  std::uint64_t tagged = 0;
  for (const RepoSpec& repo : hub.repositories()) tagged += repo.has_latest;
  EXPECT_EQ(pushed.value(), tagged);
  EXPECT_EQ(service.repository_count(), scale.repositories);

  // Auth-gated repos exist but refuse anonymous pulls.
  for (const RepoSpec& repo : hub.repositories()) {
    if (!repo.has_latest) continue;
    auto body = service.get_manifest(repo.name, "latest");
    if (repo.requires_auth) {
      EXPECT_FALSE(body.ok());
    } else {
      ASSERT_TRUE(body.ok()) << repo.name;
    }
  }
}

}  // namespace
}  // namespace dockmine::synth
