// dockmine::shard unit tests: run-format round trips and strict-validation
// rejections, sharded-vs-monolithic equivalence (resident, spilled, and
// concurrent), shard-set export/import, and deterministic conflict folding.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dockmine/compress/crc32.h"
#include "dockmine/dedup/by_type.h"
#include "dockmine/dedup/file_dedup.h"
#include "dockmine/shard/merger.h"
#include "dockmine/shard/run_format.h"
#include "dockmine/shard/sharded_index.h"
#include "dockmine/synth/generator.h"

namespace dockmine::shard {
namespace {

using dedup::ContentEntry;
using dedup::FileDedupIndex;
using filetype::Type;

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

RunEntry make_entry(std::uint64_t key, std::uint64_t count, std::uint64_t size,
                    Type type, std::uint32_t first_layer = 0,
                    bool multi = false) {
  RunEntry e;
  e.key = key;
  e.entry.count = count;
  e.entry.size = size;
  e.entry.type = type;
  e.entry.first_layer = first_layer;
  e.entry.multi_layer = multi;
  return e;
}

// Keys for shard 2 of 4: top two bits == 10.
std::vector<RunEntry> sample_entries() {
  const std::uint64_t base = 0x8000000000000000ULL;
  return {
      make_entry(base + 1, 3, 10, Type::kAsciiText, 0, true),
      make_entry(base + 7, 1, 0, Type::kEmpty, 2),
      make_entry(base + 0x100, 12, 4096, Type::kElfExecutable, 1, true),
  };
}

// Recompute the payload CRC after a deliberate payload mutation, so the
// validator under test is the semantic check, not the checksum.
void patch_crc(std::string& bytes) {
  const std::uint32_t crc =
      compress::Crc32::of(std::string_view(bytes).substr(kRunHeaderBytes));
  bytes[20] = static_cast<char>(crc & 0xff);
  bytes[21] = static_cast<char>((crc >> 8) & 0xff);
  bytes[22] = static_cast<char>((crc >> 16) & 0xff);
  bytes[23] = static_cast<char>((crc >> 24) & 0xff);
}

// ---------- run format ----------

TEST(RunFormatTest, EncodeDecodeRoundTrip) {
  const auto entries = sample_entries();
  const std::string bytes = encode_run(4, 2, entries);
  EXPECT_EQ(bytes.size(), kRunHeaderBytes + entries.size() * kRunEntryBytes);

  std::uint32_t shard_count = 0, shard_index = 0;
  auto decoded = decode_run(bytes, &shard_count, &shard_index);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(shard_count, 4u);
  EXPECT_EQ(shard_index, 2u);
  ASSERT_EQ(decoded.value().size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].key, entries[i].key);
    EXPECT_EQ(decoded.value()[i].entry.count, entries[i].entry.count);
    EXPECT_EQ(decoded.value()[i].entry.size, entries[i].entry.size);
    EXPECT_EQ(decoded.value()[i].entry.type, entries[i].entry.type);
    EXPECT_EQ(decoded.value()[i].entry.first_layer,
              entries[i].entry.first_layer);
    EXPECT_EQ(decoded.value()[i].entry.multi_layer,
              entries[i].entry.multi_layer);
  }
}

TEST(RunFormatTest, EmptyRunRoundTrips) {
  const std::string bytes = encode_run(1, 0, {});
  EXPECT_EQ(bytes.size(), kRunHeaderBytes);
  auto decoded = decode_run(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(RunFormatTest, FileWriteAndStreamingReaderRoundTrip) {
  TempDir dir("dockmine_shard_runfmt");
  const auto entries = sample_entries();
  const std::string path = (dir.path / "shard.dmrun").string();
  ASSERT_TRUE(write_run_file(path, 4, 2, entries).ok());

  auto reader = RunReader::open(path);
  ASSERT_TRUE(reader.ok()) << reader.error().message();
  EXPECT_EQ(reader.value().shard_count(), 4u);
  EXPECT_EQ(reader.value().shard_index(), 2u);
  EXPECT_EQ(reader.value().entry_count(), entries.size());

  RunEntry e;
  std::size_t i = 0;
  while (reader.value().next(e)) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(e.key, entries[i].key);
    EXPECT_EQ(e.entry.count, entries[i].entry.count);
    ++i;
  }
  EXPECT_EQ(i, entries.size());
  EXPECT_TRUE(reader.value().exhausted());
}

TEST(RunFormatTest, RejectsHeaderDamage) {
  const std::string good = encode_run(4, 2, sample_entries());

  {
    std::string bad = good;
    bad[0] = 'X';  // magic
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {
    std::string bad = good;
    bad[8] = 9;  // version
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {
    std::string bad = good;
    bad[12] = 3;  // shard_count not a power of two
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {
    std::string bad = good;
    bad[16] = 4;  // shard_index >= shard_count
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {
    std::string bad = good;
    bad[24] = 2;  // entry_count disagrees with the file size
    EXPECT_FALSE(decode_run(bad).ok());
  }
  EXPECT_FALSE(decode_run(good.substr(0, good.size() - 1)).ok());  // truncated
  EXPECT_FALSE(decode_run(good + "x").ok());                       // trailing
  EXPECT_FALSE(decode_run(good.substr(0, 16)).ok());  // partial header
}

TEST(RunFormatTest, RejectsPayloadBitFlipViaChecksum) {
  std::string bad = encode_run(4, 2, sample_entries());
  bad[kRunHeaderBytes + 9] ^= 0x40;  // flip one payload bit
  auto decoded = decode_run(bad);
  ASSERT_FALSE(decoded.ok());
}

TEST(RunFormatTest, RejectsSemanticDamageEvenWithValidChecksum) {
  const std::uint64_t base = 0x8000000000000000ULL;

  {  // descending keys
    std::string bad = encode_run(
        4, 2, {make_entry(base + 9, 1, 1, Type::kPng),
               make_entry(base + 9, 1, 1, Type::kPng)});  // duplicate == not
    patch_crc(bad);                                       // strictly ascending
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {  // key outside the declared partition
    std::string bad =
        encode_run(4, 2, {make_entry(base + 1, 1, 1, Type::kPng)});
    bad[16] = 3;  // claim shard 3; key's top bits still say shard 2
    patch_crc(bad);
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {  // zero key
    std::string bad =
        encode_run(4, 2, {make_entry(base + 1, 1, 1, Type::kPng)});
    for (int i = 0; i < 8; ++i) bad[kRunHeaderBytes + i] = 0;
    bad[12] = 1;  // single shard so the partition check cannot mask it
    bad[16] = 0;
    patch_crc(bad);
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {  // zero count
    std::string bad =
        encode_run(4, 2, {make_entry(base + 1, 0, 1, Type::kPng)});
    patch_crc(bad);
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {  // type out of range
    std::string bad =
        encode_run(4, 2, {make_entry(base + 1, 1, 1, Type::kPng)});
    bad[kRunHeaderBytes + 28] = static_cast<char>(filetype::kTypeCount);
    patch_crc(bad);
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {  // reserved flag bits
    std::string bad =
        encode_run(4, 2, {make_entry(base + 1, 1, 1, Type::kPng)});
    bad[kRunHeaderBytes + 29] = 0x02;
    patch_crc(bad);
    EXPECT_FALSE(decode_run(bad).ok());
  }
  {  // nonzero padding
    std::string bad =
        encode_run(4, 2, {make_entry(base + 1, 1, 1, Type::kPng)});
    bad[kRunHeaderBytes + 31] = 0x01;
    patch_crc(bad);
    EXPECT_FALSE(decode_run(bad).ok());
  }
}

TEST(RunFormatTest, ReaderOpenRejectsTruncatedFile) {
  TempDir dir("dockmine_shard_trunc");
  const std::string path = (dir.path / "t.dmrun").string();
  ASSERT_TRUE(write_run_file(path, 4, 2, sample_entries()).ok());
  std::error_code ec;
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7, ec);
  ASSERT_FALSE(ec);
  EXPECT_FALSE(RunReader::open(path).ok());
  EXPECT_FALSE(RunReader::open((dir.path / "missing.dmrun").string()).ok());
}

// ---------- sharded index vs monolithic ----------

struct Population {
  FileDedupIndex monolithic{1 << 12};
  std::vector<std::vector<synth::FileInstance>> layer_files;

  explicit Population(std::uint64_t seed) {
    const synth::HubModel hub(synth::Calibration::paper(),
                              synth::Scale{80, seed});
    const auto& layers = hub.unique_layers();
    layer_files.resize(layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const synth::LayerSpec spec = hub.layer_spec(layers[i]);
      hub.layers().for_each_file(spec, [&](const synth::FileInstance& f) {
        layer_files[i].push_back(f);
        monolithic.add(f.content, f.size, f.type,
                       static_cast<std::uint32_t>(i));
      });
    }
  }
};

void expect_index_equals(const FileDedupIndex& merged,
                         const FileDedupIndex& expected) {
  EXPECT_EQ(merged.distinct_contents(), expected.distinct_contents());
  const auto a = merged.totals();
  const auto b = expected.totals();
  EXPECT_EQ(a.total_files, b.total_files);
  EXPECT_EQ(a.unique_files, b.unique_files);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.unique_bytes, b.unique_bytes);
  std::size_t mismatches = 0;
  expected.for_each([&](std::uint64_t key, const ContentEntry& entry) {
    const ContentEntry* other = merged.find(key);
    if (other == nullptr || other->count != entry.count ||
        other->size != entry.size || other->type != entry.type ||
        other->first_layer != entry.first_layer ||
        other->multi_layer != entry.multi_layer) {
      ++mismatches;
    }
  });
  EXPECT_EQ(mismatches, 0u);
}

TEST(ShardedIndexTest, ResidentEquivalenceAcrossShardCounts) {
  const Population pop(21);
  for (std::uint32_t shards : {1u, 4u, 16u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Config config;
    config.shards = shards;
    ShardedDedupIndex index(config);
    auto& writer = index.local_writer();
    for (std::size_t i = 0; i < pop.layer_files.size(); ++i) {
      for (const auto& f : pop.layer_files[i]) {
        writer.add(f.content, f.size, f.type, static_cast<std::uint32_t>(i));
      }
    }
    ShardMerger merger;
    { auto seal_status = index.seal_into(merger); ASSERT_TRUE(seal_status.ok()) << seal_status.error().message(); }
    auto merged = merger.merge_to_index(1 << 12);
    ASSERT_TRUE(merged.ok()) << merged.error().message();
    expect_index_equals(merged.value(), pop.monolithic);
    EXPECT_EQ(index.stats().spills, 0u);  // no spill dir configured
  }
}

TEST(ShardedIndexTest, ForcedSpillEquivalenceAndMemoryBound) {
  const Population pop(22);
  TempDir dir("dockmine_shard_spill");
  Config config;
  config.shards = 4;
  config.spill_dir = dir.path.string();
  config.spill_threshold_bytes = 1;  // clamped up to the floor; spills a lot
  ShardedDedupIndex index(config);
  auto& writer = index.local_writer();
  for (std::size_t i = 0; i < pop.layer_files.size(); ++i) {
    for (const auto& f : pop.layer_files[i]) {
      writer.add(f.content, f.size, f.type, static_cast<std::uint32_t>(i));
    }
  }
  const SpillStats stats = index.stats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.spilled_entries, 0u);
  EXPECT_GT(stats.spilled_bytes, 0u);
  // Out-of-core contract: the peak resident table footprint stays far below
  // the monolithic index, bounded per (writer, shard) by the spill trigger.
  EXPECT_LT(stats.peak_resident_bytes, pop.monolithic.memory_bytes());

  ShardMerger merger;
  { auto seal_status = index.seal_into(merger); ASSERT_TRUE(seal_status.ok()) << seal_status.error().message(); }
  EXPECT_GT(merger.stats().file_runs, 0u);
  auto merged = merger.merge_to_index(1 << 12);
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  expect_index_equals(merged.value(), pop.monolithic);
}

TEST(ShardedIndexTest, ConcurrentWritersMatchMonolithic) {
  const Population pop(23);
  TempDir dir("dockmine_shard_mt");
  Config config;
  config.shards = 8;
  config.spill_dir = dir.path.string();
  config.spill_threshold_bytes = 1;
  ShardedDedupIndex index(config);

  const std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& writer = index.local_writer();
      for (std::size_t i = t; i < pop.layer_files.size(); i += kThreads) {
        for (const auto& f : pop.layer_files[i]) {
          writer.add(f.content, f.size, f.type, static_cast<std::uint32_t>(i));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(index.observations(), pop.monolithic.totals().total_files);
  ShardMerger merger;
  { auto seal_status = index.seal_into(merger); ASSERT_TRUE(seal_status.ok()) << seal_status.error().message(); }
  auto merged = merger.merge_to_index(1 << 12);
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  expect_index_equals(merged.value(), pop.monolithic);
}

// A single bit flip anywhere in a run file the store froze gets the file
// rejected.
TEST(ShardedIndexTest, StoreWrittenRunsRejectBitFlips) {
  const Population pop(34);
  TempDir dir("dockmine_shard_eq_flip");
  Config config;
  config.shards = 4;
  ShardedDedupIndex index(config);
  auto& writer = index.local_writer();
  for (std::size_t i = 0; i < pop.layer_files.size(); ++i) {
    for (const auto& f : pop.layer_files[i]) {
      writer.add(f.content, f.size, f.type, static_cast<std::uint32_t>(i));
    }
  }
  ASSERT_TRUE(index.export_shard_set(dir.path.string()).ok());

  std::size_t runs_checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().extension() != ".dmrun") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    ASSERT_TRUE(decode_run(bytes).ok()) << "pristine run must validate";
    // Walk a bit position across files so the corpus collectively covers
    // header, key, and payload offsets.
    const std::size_t byte_pos = (runs_checked * 13) % bytes.size();
    const char flipped = static_cast<char>(
        bytes[byte_pos] ^ static_cast<char>(1u << (runs_checked % 8)));
    std::string damaged = bytes;
    damaged[byte_pos] = flipped;
    EXPECT_FALSE(decode_run(damaged).ok())
        << "bit flip at byte " << byte_pos << " must be rejected";
    ++runs_checked;
  }
  EXPECT_GT(runs_checked, 0u);
}

TEST(ShardedIndexTest, MergedAggregatesMatchMonolithicBreakdown) {
  const Population pop(24);
  Config config;
  config.shards = 4;
  ShardedDedupIndex index(config);
  auto& writer = index.local_writer();
  for (std::size_t i = 0; i < pop.layer_files.size(); ++i) {
    for (const auto& f : pop.layer_files[i]) {
      writer.add(f.content, f.size, f.type, static_cast<std::uint32_t>(i));
    }
  }
  ShardMerger merger;
  { auto seal_status = index.seal_into(merger); ASSERT_TRUE(seal_status.ok()) << seal_status.error().message(); }
  auto aggregates = merger.merge_aggregates();
  ASSERT_TRUE(aggregates.ok()) << aggregates.error().message();
  const MergedAggregates& agg = aggregates.value();

  const auto expected = pop.monolithic.totals();
  EXPECT_EQ(agg.totals.total_files, expected.total_files);
  EXPECT_EQ(agg.totals.unique_files, expected.unique_files);
  EXPECT_EQ(agg.totals.total_bytes, expected.total_bytes);
  EXPECT_EQ(agg.totals.unique_bytes, expected.unique_bytes);
  EXPECT_EQ(agg.distinct_contents, pop.monolithic.distinct_contents());
  EXPECT_EQ(agg.metadata_conflicts, 0u);

  const auto expected_cdf = pop.monolithic.repeat_count_cdf();
  EXPECT_EQ(agg.repeat_counts.size(), expected_cdf.size());
  EXPECT_DOUBLE_EQ(agg.repeat_counts.max(), expected_cdf.max());
  EXPECT_DOUBLE_EQ(agg.repeat_counts.quantile(0.5),
                   expected_cdf.quantile(0.5));

  EXPECT_EQ(agg.max_repeat.count, pop.monolithic.max_repeat().count);

  const dedup::TypeBreakdown expected_types(pop.monolithic);
  EXPECT_EQ(agg.by_type.overall().count, expected_types.overall().count);
  EXPECT_EQ(agg.by_type.overall().bytes, expected_types.overall().bytes);
  for (std::size_t t = 0; t < filetype::kTypeCount; ++t) {
    const Type type = static_cast<Type>(t);
    EXPECT_EQ(agg.by_type.by_type(type).count,
              expected_types.by_type(type).count);
    EXPECT_EQ(agg.by_type.by_type(type).unique_bytes,
              expected_types.by_type(type).unique_bytes);
  }
}

// ---------- shard set export / import ----------

TEST(ShardedIndexTest, ExportedShardSetMergesBackExactly) {
  const Population pop(25);
  TempDir dir("dockmine_shard_export");
  Config config;
  config.shards = 4;
  ShardedDedupIndex index(config);
  auto& writer = index.local_writer();
  for (std::size_t i = 0; i < pop.layer_files.size(); ++i) {
    for (const auto& f : pop.layer_files[i]) {
      writer.add(f.content, f.size, f.type, static_cast<std::uint32_t>(i));
    }
  }
  auto manifest = index.export_shard_set((dir.path / "set").string());
  ASSERT_TRUE(manifest.ok()) << manifest.error().message();
  EXPECT_TRUE(std::filesystem::exists(manifest.value()));

  ShardMerger merger;
  ASSERT_TRUE(merger.add_shard_set((dir.path / "set").string()).ok());
  auto merged = merger.merge_to_index(1 << 12);
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  expect_index_equals(merged.value(), pop.monolithic);
}

TEST(ShardMergerTest, ShardSetWithDamagedRunFailsTheAdd) {
  const Population pop(26);
  TempDir dir("dockmine_shard_damaged");
  Config config;
  config.shards = 2;
  ShardedDedupIndex index(config);
  auto& writer = index.local_writer();
  for (std::size_t i = 0; i < pop.layer_files.size(); ++i) {
    for (const auto& f : pop.layer_files[i]) {
      writer.add(f.content, f.size, f.type, static_cast<std::uint32_t>(i));
    }
  }
  const std::string set_dir = (dir.path / "set").string();
  ASSERT_TRUE(index.export_shard_set(set_dir).ok());

  // Flip one byte in the first run file: the set must be rejected outright,
  // never partially aggregated.
  for (const auto& entry : std::filesystem::directory_iterator(set_dir)) {
    if (entry.path().extension() != ".dmrun") continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                     std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kRunHeaderBytes + 3));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(kRunHeaderBytes + 3));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(static_cast<std::streamoff>(kRunHeaderBytes + 3));
    f.write(&byte, 1);
    break;
  }
  ShardMerger merger;
  EXPECT_FALSE(merger.add_shard_set(set_dir).ok());
}

TEST(ShardMergerTest, MissingManifestFailsCleanly) {
  TempDir dir("dockmine_shard_nomanifest");
  ShardMerger merger;
  EXPECT_FALSE(merger.add_shard_set(dir.path.string()).ok());
}

// ---------- fold semantics through the merger ----------

TEST(ShardMergerTest, ConflictingMetadataFoldsDeterministicallyBothOrders) {
  const std::uint64_t key = 0x4000000000000001ULL;  // shard 1 of 4
  const RunEntry small = make_entry(key, 2, 10, Type::kAsciiText, 3);
  const RunEntry large = make_entry(key, 5, 99, Type::kPng, 7);

  for (bool swap : {false, true}) {
    SCOPED_TRACE(swap ? "large first" : "small first");
    ShardMerger merger;
    merger.add_memory_run({swap ? large : small});
    merger.add_memory_run({swap ? small : large});
    std::vector<std::pair<std::uint64_t, ContentEntry>> seen;
    ASSERT_TRUE(merger
                    .merge([&](std::uint64_t k, const ContentEntry& e) {
                      seen.emplace_back(k, e);
                    })
                    .ok());
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].first, key);
    EXPECT_EQ(seen[0].second.count, 7u);
    // Deterministic winner: lexicographically smallest (size, type).
    EXPECT_EQ(seen[0].second.size, 10u);
    EXPECT_EQ(seen[0].second.type, Type::kAsciiText);
    EXPECT_EQ(seen[0].second.first_layer, 3u);
    EXPECT_TRUE(seen[0].second.multi_layer);  // differing first layers
    EXPECT_EQ(merger.stats().metadata_conflicts, 1u);
    EXPECT_EQ(merger.stats().distinct_contents, 1u);
    EXPECT_EQ(merger.stats().entries_read, 2u);
  }
}

TEST(ShardMergerTest, EmptyMergerYieldsEmptyAggregates) {
  ShardMerger merger;
  auto aggregates = merger.merge_aggregates();
  ASSERT_TRUE(aggregates.ok());
  EXPECT_EQ(aggregates.value().totals.total_files, 0u);
  EXPECT_EQ(aggregates.value().distinct_contents, 0u);
  EXPECT_EQ(aggregates.value().repeat_counts.size(), 0u);
}

TEST(ShardMergerTest, SingleEntryRunSurvivesUnchanged)
{
  const std::uint64_t key = 0x123456789abcdefULL;  // shard 0 of 4
  ShardMerger merger;
  merger.add_memory_run({make_entry(key, 4, 77, Type::kJpeg, 9, true)});
  auto merged = merger.merge_to_index(16);
  ASSERT_TRUE(merged.ok());
  const ContentEntry* entry = merged.value().find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 4u);
  EXPECT_EQ(entry->size, 77u);
  EXPECT_EQ(entry->type, Type::kJpeg);
  EXPECT_EQ(entry->first_layer, 9u);
  EXPECT_TRUE(entry->multi_layer);
  EXPECT_EQ(merged.value().metadata_conflicts(), 0u);
}

}  // namespace
}  // namespace dockmine::shard
