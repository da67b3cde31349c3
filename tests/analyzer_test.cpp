#include <gtest/gtest.h>
#include <zlib.h>

#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <set>

#include "dockmine/analyzer/image_analyzer.h"
#include "dockmine/analyzer/layer_analyzer.h"
#include "dockmine/analyzer/pipeline.h"
#include "dockmine/compress/crc32.h"
#include "dockmine/compress/gzip.h"
#include "dockmine/digest/sha256.h"
#include "dockmine/registry/service.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/tar/writer.h"

// Sanitizer shadow memory and quarantine make RSS meaningless.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DOCKMINE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DOCKMINE_TEST_SANITIZED 1
#endif
#endif

namespace dockmine::analyzer {
namespace {

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

/// A gzip layer holding one regular file of `size` zero bytes, deflated
/// (level 1) from a 64 KiB zero buffer so the raw layer is never held.
std::string zero_file_layer(std::uint64_t size) {
  std::string head;
  tar::Header header;
  header.name = "zeros.bin";
  header.size = size;
  tar::encode_header(header, head);
  // Body, its padding, and the two-block end marker are all zeros.
  const std::uint64_t zeros =
      size + tar::padding_for(size) + 2 * tar::kBlockSize;

  std::string blob("\x1f\x8b\x08\x00\x00\x00\x00\x00\x04\xff", 10);
  z_stream zs{};
  EXPECT_EQ(deflateInit2(&zs, 1, Z_DEFLATED, -15, 8, Z_DEFAULT_STRATEGY), Z_OK);
  compress::Crc32 crc;
  char out[64 * 1024];
  const auto feed = [&](std::string_view raw, bool last) {
    crc.update(raw);
    zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(raw.data()));
    zs.avail_in = static_cast<uInt>(raw.size());
    do {
      zs.next_out = reinterpret_cast<Bytef*>(out);
      zs.avail_out = sizeof out;
      deflate(&zs, last ? Z_FINISH : Z_NO_FLUSH);
      blob.append(out, sizeof out - zs.avail_out);
    } while (zs.avail_out == 0);
  };
  feed(head, false);
  const std::string chunk(64 * 1024, '\0');
  for (std::uint64_t left = zeros; left > 0;) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, chunk.size()));
    left -= take;
    feed(std::string_view(chunk).substr(0, take), left == 0);
  }
  deflateEnd(&zs);
  const std::uint64_t raw_size = head.size() + zeros;
  for (const std::uint32_t word :
       {crc.value(), static_cast<std::uint32_t>(raw_size & 0xffffffffULL)}) {
    for (int shift = 0; shift < 32; shift += 8) {
      blob += static_cast<char>((word >> shift) & 0xff);
    }
  }
  return blob;
}

// First in this file, so it runs first in the suite's process: VmHWM only
// shows growth above the process's earlier peak.
TEST(LayerAnalyzerTest, AHugeLayerIsAnalyzedInBoundedMemory) {
  constexpr std::uint64_t kFileBytes = 256ull << 20;
  const std::string blob = zero_file_layer(kFileBytes);
  ASSERT_LT(blob.size(), 4u << 20);

  std::vector<FileRecord> records;
  const FileVisitor visitor = [&](std::string_view path,
                                  const FileRecord& record) {
    EXPECT_EQ(path, "zeros.bin");
    records.push_back(record);
  };
  const LayerAnalyzer analyzer;
  const std::uint64_t rss_before_kb = status_kb("VmRSS:");
  const std::uint64_t hwm_before_kb = status_kb("VmHWM:");
  auto profile = analyzer.analyze_blob(blob, &visitor);
  const std::uint64_t hwm_after_kb = status_kb("VmHWM:");
  ASSERT_TRUE(profile.ok()) << profile.error().message();

  EXPECT_EQ(profile.value().file_count, 1u);
  EXPECT_EQ(profile.value().fls, kFileBytes);
  EXPECT_EQ(profile.value().cls, blob.size());
  EXPECT_EQ(profile.value().digest, digest::Digest::of(blob));
  digest::Sha256 zeros;
  const std::string chunk(1 << 20, '\0');
  for (std::uint64_t done = 0; done < kFileBytes; done += chunk.size()) {
    zeros.update(chunk);
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].size, kFileBytes);
  EXPECT_EQ(records[0].digest, digest::Digest(zeros.finish()));

#ifndef DOCKMINE_TEST_SANITIZED
  // The peak during the call, over the resident set before it, bounds the
  // pass's memory from above; whole-layer inflate would add 256 MiB.
  ASSERT_GT(hwm_after_kb, 0u) << "no VmHWM in /proc/self/status";
  EXPECT_LT(hwm_after_kb - std::min(rss_before_kb, hwm_after_kb), 32u << 10)
      << "VmRSS before " << rss_before_kb << " kB, VmHWM " << hwm_before_kb
      << " -> " << hwm_after_kb << " kB";
#else
  (void)rss_before_kb;
  (void)hwm_before_kb;
  (void)hwm_after_kb;
#endif
}

TEST(LayerAnalyzerTest, AVerifiedDigestGivesTheProfileTheBlobHashGives) {
  const synth::HubModel hub(synth::Calibration::light(), synth::Scale{20, 5});
  const synth::Materializer materializer(hub, /*gzip_level=*/1);
  const LayerAnalyzer analyzer;
  int checked = 0;
  for (const synth::LayerId id : hub.unique_layers()) {
    const std::string blob =
        materializer.layer_blob(hub.layer_spec(id)).value();
    const digest::Digest verified = digest::Digest::of(blob);
    std::vector<std::string> hashed_files, verified_files;
    const auto collect = [](std::vector<std::string>& into) {
      return FileVisitor([&into](std::string_view path, const FileRecord& r) {
        into.push_back(std::string(path) + "|" + r.digest.to_string() + "|" +
                       std::to_string(r.size) + "|" +
                       std::to_string(static_cast<int>(r.type)));
      });
    };
    const FileVisitor hashed_visitor = collect(hashed_files);
    const FileVisitor verified_visitor = collect(verified_files);
    auto hashed = analyzer.analyze_blob(blob, &hashed_visitor);
    auto given = analyzer.analyze_blob(blob, &verified_visitor, nullptr,
                                       nullptr, &verified);
    ASSERT_TRUE(hashed.ok()) << hashed.error().message();
    ASSERT_TRUE(given.ok()) << given.error().message();
    const LayerProfile& a = hashed.value();
    const LayerProfile& b = given.value();
    EXPECT_EQ(a.digest, verified);
    EXPECT_EQ(b.digest, verified);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.fls, b.fls);
    EXPECT_EQ(a.file_count, b.file_count);
    EXPECT_EQ(a.dir_count, b.dir_count);
    EXPECT_EQ(a.max_depth, b.max_depth);
    EXPECT_EQ(hashed_files, verified_files);
    if (++checked == 8) break;
  }
  EXPECT_EQ(checked, 8);
}

TEST(LayerAnalyzerTest, TrailerFaultsFailLikeGunzipAndRouteNothing) {
  const synth::HubModel hub(synth::Calibration::light(), synth::Scale{20, 5});
  const synth::Materializer materializer(hub, /*gzip_level=*/1);
  // A layer past two windows, so the walk has seen files when the pass
  // reaches the trailer.
  std::string blob;
  for (const synth::LayerId id : hub.unique_layers()) {
    const synth::LayerSpec spec = hub.layer_spec(id);
    if (spec.file_count < 3 ||
        materializer.layer_tar(spec).size() < 2 * LayerAnalyzer::kWindowBytes) {
      continue;
    }
    blob = materializer.layer_blob(spec).value();
    break;
  }
  ASSERT_FALSE(blob.empty());
  ASSERT_TRUE(compress::gzip_decompress(blob).ok());

  // CRC-32 is the trailer's first word, ISIZE its second.
  for (const std::size_t from_end : {std::size_t{8}, std::size_t{4}}) {
    SCOPED_TRACE(from_end == 8 ? "CRC" : "ISIZE");
    std::string bad = blob;
    bad[bad.size() - from_end] ^= 0x01;
    const auto reference = compress::gzip_decompress(bad);
    ASSERT_FALSE(reference.ok());

    // The visitor sees the layer's files before the trailer is checked...
    std::size_t visited = 0;
    const FileVisitor visitor = [&](std::string_view, const FileRecord&) {
      ++visited;
    };
    const LayerAnalyzer analyzer;
    auto profile = analyzer.analyze_blob(bad, &visitor);
    ASSERT_FALSE(profile.ok());
    EXPECT_EQ(profile.error().code(), reference.error().code());
    EXPECT_EQ(profile.error().message(), reference.error().message());
    EXPECT_GT(visited, 0u);

    // ...so the pipeline holds them, and a failed layer routes nothing.
    registry::Manifest manifest;
    manifest.repository = "corrupt/layer";
    manifest.layers.push_back({digest::Digest::of(bad), bad.size()});
    const blob::BlobPtr shared = std::make_shared<const std::string>(bad);
    std::atomic<std::size_t> delivered{0};
    AnalysisPipeline::Sink sink;
    sink.on_layer_files = [&](const digest::Digest&,
                              std::span<const FileRecord> records) {
      delivered += records.size() + 1;
    };
    const AnalysisPipeline pipeline;
    auto run = pipeline.run(
        {manifest},
        [&](const digest::Digest&) -> util::Result<blob::BlobPtr> {
          return shared;
        },
        sink);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().code(), reference.error().code());
    EXPECT_EQ(delivered.load(), 0u);
  }
}

TEST(LayerAnalyzerTest, ProfilesHandcraftedTar) {
  tar::Writer writer;
  writer.add_directory("usr");
  writer.add_directory("usr/lib");
  writer.add_directory("usr/lib/python");
  writer.add_file("usr/lib/python/mod.py", "#!/usr/bin/env python\npass\n");
  writer.add_file("usr/lib/libz.so",
                  std::string("\x7f" "ELF\x02\x01\x01\x00"
                              "\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00", 18) +
                      std::string(100, 'b'));
  writer.add_file("README", "plain text here\n");
  writer.add_symlink("usr/lib/alias", "libz.so");
  writer.add_whiteout("usr", "deleted.bin");

  std::map<std::string, filetype::Type> seen;
  FileVisitor visitor = [&](std::string_view path, const FileRecord& record) {
    seen[std::string(path)] = record.type;
  };
  const LayerAnalyzer analyzer;
  auto profile = analyzer.analyze_tar(writer.finish(), &visitor);
  ASSERT_TRUE(profile.ok());

  // Whiteouts and symlinks are not regular files.
  EXPECT_EQ(profile.value().file_count, 3u);
  EXPECT_EQ(profile.value().dir_count, 3u);
  EXPECT_EQ(profile.value().max_depth, 3u);
  EXPECT_EQ(profile.value().fls, 27u + 118u + 16u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.at("usr/lib/python/mod.py"), filetype::Type::kPythonScript);
  EXPECT_EQ(seen.at("usr/lib/libz.so"), filetype::Type::kElfSharedObject);
  EXPECT_EQ(seen.at("README"), filetype::Type::kAsciiText);
}

TEST(LayerAnalyzerTest, DirectoryMetadataMatchesPaperProfile) {
  // Paper §III-C: "directory metadata (for every directory in the layer):
  // directory name; directory depth; file count".
  tar::Writer writer;
  writer.add_directory("usr");
  writer.add_directory("usr/lib");
  writer.add_file("usr/lib/a.so", "xx");
  writer.add_file("usr/lib/b.so", "yy");
  writer.add_file("usr/top.txt", "top level text");
  writer.add_file("rootfile", "at the root");

  std::map<std::string, DirectoryRecord> dirs;
  DirectoryVisitor dir_visitor = [&](const DirectoryRecord& record) {
    dirs[record.path] = record;
  };
  const LayerAnalyzer analyzer;
  auto profile = analyzer.analyze_tar(writer.finish(), nullptr, &dir_visitor);
  ASSERT_TRUE(profile.ok());
  ASSERT_EQ(dirs.size(), 3u);  // usr, usr/lib, and the implicit root
  EXPECT_EQ(dirs.at("usr/lib").file_count, 2u);
  EXPECT_EQ(dirs.at("usr/lib").depth, 2u);
  EXPECT_EQ(dirs.at("usr").file_count, 1u);
  EXPECT_EQ(dirs.at("usr").depth, 1u);
  EXPECT_EQ(dirs.at(".").file_count, 1u);
}

TEST(LayerAnalyzerTest, EmptyTarHasImplicitRoot) {
  tar::Writer writer;
  const LayerAnalyzer analyzer;
  auto profile = analyzer.analyze_tar(writer.finish(), nullptr);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile.value().file_count, 0u);
  EXPECT_EQ(profile.value().dir_count, 1u);
  EXPECT_EQ(profile.value().max_depth, 1u);
  EXPECT_DOUBLE_EQ(profile.value().compression_ratio(), 0.0);
}

TEST(LayerAnalyzerTest, BlobPathSetsClsAndDigest) {
  tar::Writer writer;
  writer.add_file("f", std::string(5000, 'x'));
  auto blob = compress::gzip_compress(writer.finish());
  ASSERT_TRUE(blob.ok());
  const LayerAnalyzer analyzer;
  auto profile = analyzer.analyze_blob(blob.value(), nullptr);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile.value().cls, blob.value().size());
  EXPECT_EQ(profile.value().digest, digest::Digest::of(blob.value()));
  EXPECT_EQ(profile.value().fls, 5000u);
  EXPECT_GT(profile.value().compression_ratio(), 3.0);
}

TEST(LayerAnalyzerTest, RejectsCorruptInputs) {
  const LayerAnalyzer analyzer;
  EXPECT_FALSE(analyzer.analyze_blob("not gzip at all", nullptr).ok());
  std::string garbage_tar(512, 'Z');
  auto blob = compress::gzip_compress(garbage_tar);
  ASSERT_TRUE(blob.ok());
  EXPECT_FALSE(analyzer.analyze_blob(blob.value(), nullptr).ok());
}

TEST(ImageProfileTest, AccumulateSumsLayers) {
  LayerProfile a;
  a.fls = 100;
  a.cls = 40;
  a.file_count = 3;
  a.dir_count = 2;
  LayerProfile b;
  b.fls = 50;
  b.cls = 30;
  b.file_count = 1;
  b.dir_count = 1;
  ImageProfile image;
  image.accumulate(a);
  image.accumulate(b);
  EXPECT_EQ(image.fis, 150u);
  EXPECT_EQ(image.cis, 70u);
  EXPECT_EQ(image.file_count, 4u);
  EXPECT_EQ(image.dir_count, 3u);
  EXPECT_EQ(image.layer_count, 2u);
  EXPECT_NEAR(image.compression_ratio(), 150.0 / 70.0, 1e-12);
}

TEST(ProfileStoreTest, PutFindAndMissingLayer) {
  ProfileStore store;
  LayerProfile p;
  p.digest = digest::Digest::of("layer");
  p.fls = 9;
  store.put(p);
  EXPECT_TRUE(store.contains(p.digest));
  EXPECT_EQ(store.find(p.digest)->fls, 9u);

  registry::Manifest manifest;
  manifest.repository = "a/b";
  manifest.layers.push_back({digest::Digest::of("other"), 1});
  auto image = build_image_profile(manifest, store);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.error().code(), util::ErrorCode::kNotFound);
}

// ---- The cornerstone equivalence property: bytes-mode analysis of a
// materialized layer must reproduce the metadata-mode spec exactly. ----

TEST(EquivalenceTest, MaterializedLayersMatchModelSpecs) {
  const synth::HubModel hub(synth::Calibration::paper(), synth::Scale{120, 31});
  const synth::Materializer materializer(hub, /*gzip_level=*/1);
  const LayerAnalyzer analyzer;

  int checked = 0;
  for (synth::LayerId id : hub.unique_layers()) {
    const synth::LayerSpec spec = hub.layer_spec(id);
    if (spec.file_count > 4000) continue;  // keep runtime modest
    // Model-side expectations.
    std::vector<std::pair<std::uint64_t, filetype::Type>> model_files;
    hub.layers().for_each_file(spec, [&](const synth::FileInstance& f) {
      model_files.emplace_back(f.size, f.type);
    });

    // Bytes-side measurement.
    std::vector<std::pair<std::uint64_t, filetype::Type>> measured_files;
    FileVisitor visitor = [&](std::string_view, const FileRecord& record) {
      measured_files.emplace_back(record.size, record.type);
    };
    auto profile = analyzer.analyze_tar(materializer.layer_tar(spec), &visitor);
    ASSERT_TRUE(profile.ok());

    EXPECT_EQ(profile.value().file_count, spec.file_count) << "layer " << id;
    EXPECT_EQ(profile.value().dir_count, spec.dir_count) << "layer " << id;
    EXPECT_EQ(profile.value().max_depth, spec.max_depth) << "layer " << id;
    ASSERT_EQ(measured_files.size(), model_files.size());
    for (std::size_t i = 0; i < model_files.size(); ++i) {
      EXPECT_EQ(measured_files[i].first, model_files[i].first);
      EXPECT_EQ(measured_files[i].second, model_files[i].second)
          << "layer " << id << " file " << i << ": want "
          << filetype::to_string(model_files[i].second) << " got "
          << filetype::to_string(measured_files[i].second);
    }
    if (++checked >= 40) break;
  }
  EXPECT_GE(checked, 20);
}

TEST(PipelineTest, AnalyzesUniqueLayersOnceAndBuildsImages) {
  const synth::HubModel hub(synth::Calibration::light(), synth::Scale{60, 17});
  registry::Service service;
  const synth::Materializer materializer(hub, 1);
  ASSERT_TRUE(materializer.populate(service).ok());

  // Collect the public manifests.
  std::vector<registry::Manifest> manifests;
  for (const synth::RepoSpec& repo : hub.repositories()) {
    if (!repo.has_latest || repo.requires_auth) continue;
    auto body = service.get_manifest(repo.name, "latest");
    ASSERT_TRUE(body.ok());
    manifests.push_back(registry::manifest_from_json(body.value()).value());
  }

  AnalysisPipeline::Options options;
  options.workers = 3;
  AnalysisPipeline pipeline(options);
  std::size_t layer_events = 0, image_events = 0;
  std::atomic<std::size_t> file_events{0};
  AnalysisPipeline::Sink sink;
  sink.on_layer = [&](const LayerProfile&) { ++layer_events; };
  sink.on_layer_files = [&](const digest::Digest&,
                            std::span<const FileRecord> records) {
    file_events += records.size();
  };
  sink.on_image = [&](const ImageProfile& image) {
    EXPECT_FALSE(image.repository.empty());
    ++image_events;
  };
  auto store = pipeline.run(
      manifests,
      [&](const digest::Digest& d) { return service.get_blob(d); }, sink);
  ASSERT_TRUE(store.ok());

  std::set<std::string> unique_digests;
  for (const auto& m : manifests) {
    for (const auto& ref : m.layers) unique_digests.insert(ref.digest.to_string());
  }
  EXPECT_EQ(layer_events, unique_digests.size());
  EXPECT_EQ(store.value().size(), unique_digests.size());
  EXPECT_EQ(image_events, manifests.size());
  EXPECT_GT(file_events.load(), 0u);
}

TEST(PipelineTest, PropagatesFetchErrors) {
  registry::Manifest manifest;
  manifest.repository = "x/y";
  manifest.layers.push_back({digest::Digest::of("gone"), 5});
  AnalysisPipeline pipeline;
  auto result = pipeline.run(
      {manifest},
      [&](const digest::Digest&) -> util::Result<blob::BlobPtr> {
        return util::not_found("no such blob");
      },
      {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), util::ErrorCode::kNotFound);
}

}  // namespace
}  // namespace dockmine::analyzer
