// Robustness fuzzing: the parsers and the classifier must never crash or
// loop on arbitrary input — they sit on the pipeline's untrusted side
// (the paper's analyzer ingested whatever Docker Hub served).
#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>
#include <zlib.h>

#include "dockmine/analyzer/layer_analyzer.h"
#include "dockmine/compress/content_gen.h"
#include "dockmine/compress/gzip.h"
#include "dockmine/core/serve.h"
#include "dockmine/core/wire.h"
#include "dockmine/filetype/classifier.h"
#include "dockmine/http/message.h"
#include "dockmine/json/json.h"
#include "dockmine/registry/http_gateway.h"
#include "dockmine/shard/merger.h"
#include "dockmine/shard/run_format.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/tar/reader.h"
#include "dockmine/tar/writer.h"
#include "dockmine/util/rng.h"

namespace dockmine {
namespace {

std::string random_blob(util::Rng& rng, std::size_t max_size) {
  std::string out;
  const std::size_t size = rng.uniform(max_size);
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    // Mix of printable and arbitrary bytes.
    out += rng.chance(0.5) ? static_cast<char>(32 + rng.uniform(95))
                           : static_cast<char>(rng.uniform(256));
  }
  return out;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, ClassifierTotalOnArbitraryBytes) {
  util::Rng rng(GetParam() * 2654435761ULL);
  for (int i = 0; i < 200; ++i) {
    const std::string content = random_blob(rng, 600);
    const std::string path = random_blob(rng, 80);
    const auto type = filetype::classify(path, content);
    EXPECT_LT(static_cast<std::size_t>(type), filetype::kTypeCount);
    // And deterministic.
    EXPECT_EQ(filetype::classify(path, content), type);
  }
}

TEST_P(FuzzTest, JsonParserNeverCrashes) {
  util::Rng rng(GetParam() * 40503);
  for (int i = 0; i < 200; ++i) {
    const std::string text = random_blob(rng, 300);
    auto doc = json::parse(text);
    if (doc.ok()) {
      // Whatever parsed must re-serialize and re-parse.
      EXPECT_TRUE(json::parse(doc.value().dump()).ok());
    }
  }
}

TEST_P(FuzzTest, TarReaderTerminatesOnGarbage) {
  util::Rng rng(GetParam() * 97);
  for (int i = 0; i < 50; ++i) {
    const std::string archive = random_blob(rng, 4096);
    tar::Reader reader(archive);
    int entries = 0;
    auto status = reader.for_each([&](const tar::Entry&) { ++entries; });
    (void)status;           // error or success both fine
    EXPECT_LT(entries, 10);  // garbage can't produce a long valid archive
  }
}

TEST_P(FuzzTest, GzipDecompressorRejectsGarbage) {
  util::Rng rng(GetParam() * 131);
  for (int i = 0; i < 50; ++i) {
    const std::string member = random_blob(rng, 2048);
    auto result = compress::gzip_decompress(member);
    // Random bytes essentially never form a valid member (magic + CRC).
    EXPECT_FALSE(result.ok());
  }
}

TEST_P(FuzzTest, HttpParserErrorsOrWaitsNeverCrashes) {
  util::Rng rng(GetParam() * 1009);
  for (int i = 0; i < 100; ++i) {
    http::MessageReader reader;
    reader.feed(random_blob(rng, 512));
    http::Request request;
    auto result = reader.next_request(request);
    (void)result;  // kCorrupt or "need more" are both acceptable
  }
}

TEST_P(FuzzTest, GatewayRepliesToArbitraryRequests) {
  registry::Service service;
  registry::HttpGateway gateway(service);
  util::Rng rng(GetParam() * 8191);
  for (int i = 0; i < 100; ++i) {
    http::Request request;
    request.method = rng.chance(0.5) ? "GET" : random_blob(rng, 6);
    request.target = "/" + random_blob(rng, 60);
    const http::Response response = gateway.handle(request);
    EXPECT_GE(response.status, 200);
    EXPECT_LT(response.status, 600);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Regression corpus replay. tests/corpus/ holds committed inputs (generated
// by make_corpus.py, byte-reproducible) that exercise the parser edge cases
// random fuzzing rarely hits: truncated gzip members, torn GNU long-name
// headers, degenerate ustar blocks, and every `.wh.` whiteout spelling.
// Each file is replayed twice so flaky (input-order- or state-dependent)
// parsing shows up as a diff, not a shrug.
// ---------------------------------------------------------------------------

std::string read_corpus(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(DOCKMINE_CORPUS_DIR) / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

struct TarReplay {
  bool ok = false;
  int entries = 0;
  int whiteouts = 0;
};

TarReplay replay_tar(const std::string& archive) {
  TarReplay replay;
  tar::Reader reader(archive);
  replay.ok = reader
                  .for_each([&](const tar::Entry& entry) {
                    ++replay.entries;
                    if (entry.is_whiteout()) ++replay.whiteouts;
                  })
                  .ok();
  return replay;
}

TEST(CorpusTest, TruncatedGzipMemberIsRejected) {
  const std::string blob = read_corpus("gzip_truncated_member.bin");
  ASSERT_FALSE(blob.empty());
  EXPECT_FALSE(compress::gzip_decompress(blob).ok());
  EXPECT_FALSE(compress::gzip_decompress(blob).ok());  // deterministic
}

TEST(CorpusTest, BadCrcGzipMemberIsRejected) {
  const std::string blob = read_corpus("gzip_bad_crc.bin");
  ASSERT_FALSE(blob.empty());
  EXPECT_FALSE(compress::gzip_decompress(blob).ok());
}

TEST(CorpusTest, TornGnuLongNameHeaderTerminates) {
  const std::string archive = read_corpus("tar_torn_longname.bin");
  ASSERT_FALSE(archive.empty());
  const TarReplay first = replay_tar(archive);
  // The archive ends inside the long-name payload: no entry can complete.
  EXPECT_EQ(first.entries, 0);
  const TarReplay again = replay_tar(archive);
  EXPECT_EQ(first.ok, again.ok);
  EXPECT_EQ(first.entries, again.entries);
}

TEST(CorpusTest, ZeroLengthUstarEntryTerminates) {
  const std::string archive = read_corpus("tar_zero_length_ustar.bin");
  ASSERT_EQ(archive.size(), 1536u);  // one header + end-of-archive marker
  const TarReplay first = replay_tar(archive);
  EXPECT_LE(first.entries, 1);  // nameless zero-size file or rejection
  const TarReplay again = replay_tar(archive);
  EXPECT_EQ(first.ok, again.ok);
  EXPECT_EQ(first.entries, again.entries);
}

TEST(CorpusTest, WhiteoutSpellingsClassifyConsistently) {
  const std::string archive = read_corpus("tar_whiteout_edges.bin");
  const TarReplay replay = replay_tar(archive);
  EXPECT_TRUE(replay.ok);
  EXPECT_EQ(replay.entries, 6);
  // `.wh.removed`, `.wh..wh..opq`, bare `.wh.`, `.wh..wh.double` are
  // whiteouts; `file.wh.inside` (mid-name) and `etc/config` are not.
  EXPECT_EQ(replay.whiteouts, 4);
}

TEST_P(FuzzTest, ShardRunDecoderRejectsGarbage) {
  util::Rng rng(GetParam() * 523);
  for (int i = 0; i < 100; ++i) {
    const std::string bytes = random_blob(rng, 512);
    auto decoded = shard::decode_run(bytes);
    // A random blob essentially never carries the magic, the exact size,
    // and a matching CRC at once.
    EXPECT_FALSE(decoded.ok());
  }
}

// ---------------------------------------------------------------------------
// Shard-run corpus: a valid spill run plus truncated and bit-flipped copies.
// The decoder and the merger must reject damage with a clean error — a
// corrupt run may fail a merge, but it must never crash the process or
// contribute a single entry to an aggregate.
// ---------------------------------------------------------------------------

// Write a corpus blob to a temp file so the streaming RunReader/merger path
// sees exactly the committed bytes.
std::string corpus_as_file(const std::string& name, const std::string& blob) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / ("dockmine_fuzz_" + name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << blob;
  out.close();
  return path.string();
}

TEST(CorpusTest, ValidShardRunDecodesAndMergesExactly) {
  const std::string blob = read_corpus("shard_run_valid.bin");
  ASSERT_EQ(blob.size(), 128u);  // 32-byte header + 3 * 32-byte entries

  std::uint32_t shard_count = 0, shard_index = 0;
  auto decoded = shard::decode_run(blob, &shard_count, &shard_index);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(shard_count, 4u);
  EXPECT_EQ(shard_index, 2u);
  ASSERT_EQ(decoded.value().size(), 3u);

  // Both ingestion paths (in-memory decode, streaming file reader) must
  // fold to the numbers make_corpus.py encodes: 16 instances, 3 contents.
  for (bool via_file : {false, true}) {
    SCOPED_TRACE(via_file ? "file run" : "memory run");
    shard::ShardMerger merger;
    if (via_file) {
      const std::string path = corpus_as_file("valid.dmrun", blob);
      ASSERT_TRUE(merger.add_run_file(path).ok());
      std::filesystem::remove(path);
    } else {
      merger.add_memory_run(decoded.value());
    }
    auto aggregates = merger.merge_aggregates();
    ASSERT_TRUE(aggregates.ok()) << aggregates.error().message();
    EXPECT_EQ(aggregates.value().totals.total_files, 16u);
    EXPECT_EQ(aggregates.value().totals.unique_files, 3u);
    EXPECT_EQ(aggregates.value().totals.total_bytes, 49182u);
    EXPECT_EQ(aggregates.value().totals.unique_bytes, 4106u);
    EXPECT_EQ(aggregates.value().max_repeat.count, 12u);
  }
}

TEST(CorpusTest, TruncatedShardRunIsRejectedWithoutSkewingAggregates) {
  const std::string good = read_corpus("shard_run_valid.bin");
  const std::string bad = read_corpus("shard_run_truncated.bin");
  ASSERT_LT(bad.size(), good.size());
  EXPECT_FALSE(shard::decode_run(bad).ok());
  EXPECT_FALSE(shard::decode_run(bad).ok());  // deterministic

  // A merger that already holds the good run refuses the damaged file at
  // add time; what it then merges is exactly the good run — nothing more.
  shard::ShardMerger merger;
  const std::string good_path = corpus_as_file("good.dmrun", good);
  const std::string bad_path = corpus_as_file("trunc.dmrun", bad);
  ASSERT_TRUE(merger.add_run_file(good_path).ok());
  EXPECT_FALSE(merger.add_run_file(bad_path).ok());
  auto aggregates = merger.merge_aggregates();
  ASSERT_TRUE(aggregates.ok());
  EXPECT_EQ(aggregates.value().totals.total_files, 16u);
  EXPECT_EQ(aggregates.value().totals.unique_files, 3u);
  std::filesystem::remove(good_path);
  std::filesystem::remove(bad_path);
}

TEST(CorpusTest, BitflippedShardRunIsRejectedByChecksum) {
  const std::string good = read_corpus("shard_run_valid.bin");
  const std::string bad = read_corpus("shard_run_bitflip.bin");
  ASSERT_EQ(bad.size(), good.size());
  ASSERT_NE(bad, good);
  EXPECT_FALSE(shard::decode_run(bad).ok());

  const std::string path = corpus_as_file("flip.dmrun", bad);
  EXPECT_FALSE(shard::RunReader::open(path).ok());
  shard::ShardMerger merger;
  EXPECT_FALSE(merger.add_run_file(path).ok());
  std::filesystem::remove(path);
}

TEST(CorpusTest, EveryPossibleSingleBitFlipOfAValidRunIsRejected) {
  // The format has no slack: the CRC covers the whole entry section and
  // every header field is range-checked, so no single-bit flip anywhere in
  // the file can survive validation.
  const std::string good = read_corpus("shard_run_valid.bin");
  ASSERT_TRUE(shard::decode_run(good).ok());
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = good;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_FALSE(shard::decode_run(flipped).ok())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST_P(FuzzTest, WireFrameBufferTotalOnArbitraryBytes) {
  util::Rng rng(GetParam() * 6151);
  for (int i = 0; i < 100; ++i) {
    core::wire::FrameBuffer buffer;
    buffer.feed(random_blob(rng, 512));
    core::wire::Frame frame;
    auto polled = buffer.poll(frame);
    // Random bytes essentially never form the magic + a matching CRC:
    // the only outcomes are "need more" (a short buffer) or a poisoned
    // stream — and a poisoned stream must stay poisoned.
    if (!polled.ok()) {
      EXPECT_TRUE(buffer.corrupt());
      buffer.feed(core::wire::encode_frame(core::wire::FrameKind::kJson, "{}"));
      EXPECT_FALSE(buffer.poll(frame).ok());
    } else {
      EXPECT_FALSE(polled.value());
    }
  }
}

TEST_P(FuzzTest, WireFrameSurvivesRandomTearAndFlip) {
  util::Rng rng(GetParam() * 26227);
  for (int i = 0; i < 50; ++i) {
    const std::string payload = random_blob(rng, 256);
    const auto kind = rng.chance(0.5) ? core::wire::FrameKind::kJson
                                      : core::wire::FrameKind::kBinary;
    const std::string encoded = core::wire::encode_frame(kind, payload);

    // Tear at a random point: must read as incomplete, then complete
    // exactly once the remainder arrives.
    core::wire::FrameBuffer torn;
    const std::size_t cut = rng.uniform(encoded.size());
    torn.feed(std::string_view(encoded).substr(0, cut));
    core::wire::Frame frame;
    auto first = torn.poll(frame);
    ASSERT_TRUE(first.ok());
    EXPECT_FALSE(first.value());
    torn.feed(std::string_view(encoded).substr(cut));
    auto second = torn.poll(frame);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second.value());
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(frame.kind, kind);

    // Flip a random bit: the altered frame must never be delivered.
    std::string flipped = encoded;
    const std::size_t byte = rng.uniform(flipped.size());
    flipped[byte] =
        static_cast<char>(flipped[byte] ^ (1 << rng.uniform(8)));
    core::wire::FrameBuffer damaged;
    damaged.feed(flipped);
    auto polled = damaged.poll(frame);
    EXPECT_FALSE(polled.ok() && polled.value())
        << "delivered a frame with byte " << byte << " flipped";
  }
}

// ---------------------------------------------------------------------------
// Wire-frame corpus: a committed coordinator<->worker control frame plus
// torn and bit-flipped copies (make_corpus.py). A malformed frame may cost
// the connection — and with it a lease — but must never crash the process
// or deliver altered bytes into a merged report.
// ---------------------------------------------------------------------------

TEST(CorpusTest, ValidWireFrameDecodesExactly) {
  const std::string blob = read_corpus("wire_frame_valid.bin");
  ASSERT_EQ(blob.size(), core::wire::kFrameHeaderBytes + 50);
  for (int replay = 0; replay < 2; ++replay) {
    core::wire::FrameBuffer buffer;
    buffer.feed(blob);
    core::wire::Frame frame;
    auto polled = buffer.poll(frame);
    ASSERT_TRUE(polled.ok()) << polled.error().message();
    ASSERT_TRUE(polled.value());
    EXPECT_EQ(frame.kind, core::wire::FrameKind::kJson);
    EXPECT_EQ(frame.payload,
              "{\"type\":\"heartbeat\",\"worker\":3,\"lease\":1,\"obs\":{}}");
    EXPECT_EQ(buffer.buffered(), blob.size());  // consumed, compacted lazily
  }
}

TEST(CorpusTest, TruncatedWireFrameWaitsWithoutPoisoning) {
  const std::string good = read_corpus("wire_frame_valid.bin");
  const std::string torn = read_corpus("wire_frame_truncated.bin");
  ASSERT_LT(torn.size(), good.size());
  ASSERT_EQ(torn, good.substr(0, torn.size()));

  core::wire::FrameBuffer buffer;
  buffer.feed(torn);
  core::wire::Frame frame;
  auto polled = buffer.poll(frame);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(polled.value());  // a read boundary, not corruption
  EXPECT_FALSE(buffer.corrupt());

  buffer.feed(good.substr(torn.size()));
  auto completed = buffer.poll(frame);
  ASSERT_TRUE(completed.ok());
  EXPECT_TRUE(completed.value());
}

TEST(CorpusTest, BitflippedWireFramePoisonsTheStream) {
  const std::string good = read_corpus("wire_frame_valid.bin");
  const std::string bad = read_corpus("wire_frame_bitflip.bin");
  ASSERT_EQ(bad.size(), good.size());
  ASSERT_NE(bad, good);

  core::wire::FrameBuffer buffer;
  buffer.feed(bad);
  core::wire::Frame frame;
  auto polled = buffer.poll(frame);
  ASSERT_FALSE(polled.ok());  // CRC mismatch
  EXPECT_TRUE(buffer.corrupt());
  // No resynchronization: a subsequent pristine frame stays undelivered.
  buffer.feed(good);
  EXPECT_FALSE(buffer.poll(frame).ok());
}

// ---------------------------------------------------------------------------
// Serve-request corpus: the daemon's query protocol rides the same DMWF
// framing, so the replay mirrors the wire-frame trio (valid/torn/flipped)
// plus the serve-specific layer: a perfectly framed document that is not a
// request, which the total parser must reject — the daemon turns that
// rejection into an error response while the connection lives on.
// ---------------------------------------------------------------------------

TEST(CorpusTest, ValidServeRequestDecodesParsesAndRoundtrips) {
  namespace serve = core::serve;
  const std::string blob = read_corpus("serve_request_valid.bin");
  for (int replay = 0; replay < 2; ++replay) {
    core::wire::FrameBuffer buffer;
    buffer.feed(blob);
    core::wire::Frame frame;
    auto polled = buffer.poll(frame);
    ASSERT_TRUE(polled.ok()) << polled.error().message();
    ASSERT_TRUE(polled.value());
    ASSERT_EQ(frame.kind, core::wire::FrameKind::kJson);

    auto doc = json::parse(frame.payload);
    ASSERT_TRUE(doc.ok());
    auto request = serve::request_from_json(doc.value());
    ASSERT_TRUE(request.ok()) << request.error().to_string();
    EXPECT_EQ(request.value().kind, serve::RequestKind::kQuery);
    EXPECT_EQ(request.value().q, "ecdf");
    EXPECT_EQ(request.value().name, "layers.cls");
    EXPECT_EQ(request.value().quantile, 0.5);
    // The committed payload is in canonical field order: re-encoding the
    // parsed request reproduces it byte for byte.
    EXPECT_EQ(serve::request_to_json(request.value()).dump(), frame.payload);
  }
}

TEST(CorpusTest, TruncatedServeRequestIsAReadBoundary) {
  const std::string good = read_corpus("serve_request_valid.bin");
  const std::string torn = read_corpus("serve_request_truncated.bin");
  ASSERT_EQ(torn, good.substr(0, torn.size()));

  core::wire::FrameBuffer buffer;
  buffer.feed(torn);
  core::wire::Frame frame;
  auto polled = buffer.poll(frame);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(polled.value());
  EXPECT_FALSE(buffer.corrupt());
  buffer.feed(good.substr(torn.size()));
  auto completed = buffer.poll(frame);
  ASSERT_TRUE(completed.ok());
  EXPECT_TRUE(completed.value());
}

TEST(CorpusTest, BitflippedServeRequestPoisonsOnlyItsStream) {
  const std::string good = read_corpus("serve_request_valid.bin");
  const std::string bad = read_corpus("serve_request_bitflip.bin");
  ASSERT_EQ(bad.size(), good.size());
  ASSERT_NE(bad, good);

  core::wire::FrameBuffer buffer;
  buffer.feed(bad);
  core::wire::Frame frame;
  EXPECT_FALSE(buffer.poll(frame).ok());
  EXPECT_TRUE(buffer.corrupt());
  // A fresh stream (a new connection) is unaffected.
  core::wire::FrameBuffer fresh;
  fresh.feed(good);
  auto polled = fresh.poll(frame);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value());
}

TEST(CorpusTest, ValidMetricsRequestDecodesParsesAndRoundtrips) {
  namespace serve = core::serve;
  const std::string blob = read_corpus("serve_request_metrics_valid.bin");
  for (int replay = 0; replay < 2; ++replay) {
    core::wire::FrameBuffer buffer;
    buffer.feed(blob);
    core::wire::Frame frame;
    auto polled = buffer.poll(frame);
    ASSERT_TRUE(polled.ok()) << polled.error().message();
    ASSERT_TRUE(polled.value());
    ASSERT_EQ(frame.kind, core::wire::FrameKind::kJson);

    auto doc = json::parse(frame.payload);
    ASSERT_TRUE(doc.ok());
    auto request = serve::request_from_json(doc.value());
    ASSERT_TRUE(request.ok()) << request.error().to_string();
    EXPECT_EQ(request.value().kind, serve::RequestKind::kQuery);
    EXPECT_EQ(request.value().q, "metrics");
    EXPECT_EQ(request.value().name, "dockmine_serve_requests_total");
    EXPECT_EQ(request.value().op, "rate");
    EXPECT_EQ(request.value().window_ms, 60000u);
    EXPECT_EQ(serve::request_to_json(request.value()).dump(), frame.payload);
  }
}

TEST(CorpusTest, TruncatedMetricsRequestIsAReadBoundary) {
  const std::string good = read_corpus("serve_request_metrics_valid.bin");
  const std::string torn = read_corpus("serve_request_metrics_truncated.bin");
  ASSERT_EQ(torn, good.substr(0, torn.size()));

  core::wire::FrameBuffer buffer;
  buffer.feed(torn);
  core::wire::Frame frame;
  auto polled = buffer.poll(frame);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(polled.value());
  EXPECT_FALSE(buffer.corrupt());
  buffer.feed(good.substr(torn.size()));
  auto completed = buffer.poll(frame);
  ASSERT_TRUE(completed.ok());
  EXPECT_TRUE(completed.value());
}

TEST(CorpusTest, BitflippedMetricsRequestPoisonsOnlyItsStream) {
  const std::string good = read_corpus("serve_request_metrics_valid.bin");
  const std::string bad = read_corpus("serve_request_metrics_bitflip.bin");
  ASSERT_EQ(bad.size(), good.size());
  ASSERT_NE(bad, good);

  core::wire::FrameBuffer buffer;
  buffer.feed(bad);
  core::wire::Frame frame;
  EXPECT_FALSE(buffer.poll(frame).ok());
  EXPECT_TRUE(buffer.corrupt());
  core::wire::FrameBuffer fresh;
  fresh.feed(good);
  auto polled = fresh.poll(frame);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled.value());
}

TEST(CorpusTest, WellFramedNonRequestIsRejectedByTheTotalParser) {
  const std::string blob = read_corpus("serve_request_bad_doc.bin");
  core::wire::FrameBuffer buffer;
  buffer.feed(blob);
  core::wire::Frame frame;
  auto polled = buffer.poll(frame);
  ASSERT_TRUE(polled.ok());  // framing layer accepts it
  ASSERT_TRUE(polled.value());
  auto doc = json::parse(frame.payload);
  ASSERT_TRUE(doc.ok());  // JSON layer accepts it
  auto request = core::serve::request_from_json(doc.value());
  ASSERT_FALSE(request.ok());  // request layer rejects it
  EXPECT_EQ(request.error().code(), util::ErrorCode::kCorrupt);
}

// Mutate a valid serve request document at random: the parser must accept
// or reject with kCorrupt — never crash — and everything it accepts must
// survive a re-encode/re-parse round trip.
TEST_P(FuzzTest, ServeRequestParserTotalUnderRandomMutation) {
  namespace serve = core::serve;
  util::Rng rng(GetParam() * 48611);
  const std::string seed_doc =
      R"({"type":"query","id":7,"q":"ecdf","name":"layers.cls","quantile":0.5})";
  for (int i = 0; i < 200; ++i) {
    std::string text = seed_doc;
    const int mutations = 1 + static_cast<int>(rng.uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t at = rng.uniform(text.size());
      if (rng.chance(0.5)) {
        text[at] = static_cast<char>(rng.uniform(256));
      } else {
        text.erase(at, 1);
      }
    }
    auto doc = json::parse(text);
    if (!doc.ok()) continue;  // the JSON layer already rejected it
    auto request = serve::request_from_json(doc.value());
    if (!request.ok()) {
      EXPECT_EQ(request.error().code(), util::ErrorCode::kCorrupt);
      continue;
    }
    // Accepted: the codec must round-trip it losslessly.
    auto again =
        serve::request_from_json(serve::request_to_json(request.value()));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(serve::request_to_json(again.value()).dump(),
              serve::request_to_json(request.value()).dump());
  }
}

TEST(CorpusTest, WhiteoutLayerBlobAnalyzesDeterministically) {
  const std::string blob = read_corpus("layer_whiteout_edges.bin");
  const analyzer::LayerAnalyzer layer_analyzer;

  std::vector<std::string> paths;
  analyzer::FileVisitor visitor =
      [&](std::string_view path, const analyzer::FileRecord&) {
        paths.emplace_back(path);
      };
  auto profile = layer_analyzer.analyze_blob(blob, &visitor);
  ASSERT_TRUE(profile.ok()) << profile.error().message();
  // Whiteout markers are metadata, not content: only the two real files
  // survive into the profile.
  EXPECT_EQ(profile.value().file_count, 2u);
  EXPECT_EQ(paths, (std::vector<std::string>{"etc/config", "srv/file.wh.inside"}));

  auto again = layer_analyzer.analyze_blob(blob);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(profile.value().digest, again.value().digest);
  EXPECT_EQ(profile.value().fls, again.value().fls);
}

// ---------------------------------------------------------------------------
// Differential oracle for the bounded pass. analyze_blob walks a layer in
// one pass over an inflate window; the reference is gunzip-then-walk:
// gzip_decompress, analyze_tar over the whole tar, and the blob's size and
// digest. Both must succeed or fail together with the same ErrorCode, and
// on success agree on every profile field and on the file and directory
// visitors' sequences.
// ---------------------------------------------------------------------------

struct Analysis {
  bool ok = false;
  util::Error error;
  analyzer::LayerProfile profile;
  std::vector<std::string> files;        ///< path|digest|size|type
  std::vector<std::string> directories;  ///< path|depth|file count
};

using AnalyzerOptions = analyzer::LayerAnalyzer::Options;

Analysis analyze(std::string_view blob, const AnalyzerOptions& options,
                 bool one_pass) {
  const analyzer::LayerAnalyzer layer_analyzer(options);
  Analysis out;
  const analyzer::FileVisitor visitor =
      [&](std::string_view path, const analyzer::FileRecord& record) {
        out.files.push_back(std::string(path) + "|" +
                            record.digest.to_string() + "|" +
                            std::to_string(record.size) + "|" +
                            std::string(filetype::to_string(record.type)));
      };
  const analyzer::DirectoryVisitor dir_visitor =
      [&](const analyzer::DirectoryRecord& dir) {
        out.directories.push_back(dir.path + "|" + std::to_string(dir.depth) +
                                  "|" + std::to_string(dir.file_count));
      };
  util::Result<analyzer::LayerProfile> profile = util::internal("unset");
  if (one_pass) {
    profile = layer_analyzer.analyze_blob(blob, &visitor, &dir_visitor);
  } else if (auto tar = compress::gzip_decompress(blob, options.max_uncompressed);
             !tar.ok()) {
    profile = std::move(tar).error();
  } else {
    profile = layer_analyzer.analyze_tar(tar.value(), &visitor, &dir_visitor);
    if (profile.ok()) {
      profile.value().cls = blob.size();
      profile.value().digest = digest::Digest::of(blob);
    }
  }
  out.ok = profile.ok();
  if (out.ok) {
    out.profile = profile.value();
  } else {
    out.error = profile.error();
  }
  return out;
}

AnalyzerOptions capped(std::uint64_t cap) {
  AnalyzerOptions options;
  options.max_uncompressed = cap;
  return options;
}

/// Analyze `blob` both ways; returns whether it analyzed.
bool expect_one_pass_matches(std::string_view blob, const std::string& label,
                             const AnalyzerOptions& options = {}) {
  const Analysis pass = analyze(blob, options, /*one_pass=*/true);
  const Analysis reference = analyze(blob, options, /*one_pass=*/false);
  EXPECT_EQ(pass.ok, reference.ok) << label;
  if (pass.ok != reference.ok) return false;
  if (!reference.ok) {
    // Same code, and the same fault: one parser and one inflater, so the
    // messages match too unless the fault order differs.
    EXPECT_EQ(pass.error.code(), reference.error.code()) << label;
    EXPECT_EQ(pass.error.message(), reference.error.message()) << label;
    return false;
  }
  const analyzer::LayerProfile& a = pass.profile;
  const analyzer::LayerProfile& b = reference.profile;
  EXPECT_EQ(a.digest, b.digest) << label;
  EXPECT_EQ(a.fls, b.fls) << label;
  EXPECT_EQ(a.cls, b.cls) << label;
  EXPECT_EQ(a.file_count, b.file_count) << label;
  EXPECT_EQ(a.dir_count, b.dir_count) << label;
  EXPECT_EQ(a.max_depth, b.max_depth) << label;
  EXPECT_EQ(pass.files, reference.files) << label;
  EXPECT_EQ(pass.directories, reference.directories) << label;
  return true;
}

TEST(CorpusTest, OnePassMatchesGunzipThenWalkOnEveryLayerInput) {
  // gzip and layer files as they are, tar files wrapped in a valid member.
  int checked = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(DOCKMINE_CORPUS_DIR)) {
    const std::string name = file.path().filename().string();
    std::string blob = read_corpus(name);
    if (name.rfind("tar_", 0) == 0) {
      auto wrapped = compress::gzip_compress(blob);
      ASSERT_TRUE(wrapped.ok());
      blob = std::move(wrapped).value();
    } else if (name.rfind("gzip_", 0) != 0 && name.rfind("layer_", 0) != 0) {
      continue;
    }
    expect_one_pass_matches(blob, name);
    ++checked;
  }
  EXPECT_EQ(checked, 7);
}

TEST(CorpusTest, LongNameOverTheCapIsCorruptForBothReaders) {
  const std::string blob = read_corpus("layer_long_name_over_cap.bin");
  const analyzer::LayerAnalyzer layer_analyzer;
  auto profile = layer_analyzer.analyze_blob(blob);
  ASSERT_FALSE(profile.ok());
  EXPECT_EQ(profile.error().code(), util::ErrorCode::kCorrupt);

  auto tar_bytes = compress::gzip_decompress(blob);
  ASSERT_TRUE(tar_bytes.ok());
  tar::Reader reader(tar_bytes.value());
  auto entry = reader.next();
  ASSERT_FALSE(entry.ok());
  EXPECT_EQ(entry.error().code(), util::ErrorCode::kCorrupt);
}

/// `bytes` cut short or with one byte changed, chosen by `rng`.
std::string mutate(std::string bytes, util::Rng& rng) {
  if (rng.chance(0.5)) {
    bytes.resize(rng.uniform(bytes.size()));
  } else {
    bytes[rng.uniform(bytes.size())] ^=
        static_cast<char>(1 + rng.uniform(255));
  }
  return bytes;
}

TEST(DifferentialTest, OnePassMatchesGunzipThenWalkOnMutatedLayers) {
  // Four materialized layers, each spanning a few inflate windows.
  const synth::HubModel hub(synth::Calibration::light(), synth::Scale{60, 11});
  const synth::Materializer materializer(hub, /*gzip_level=*/1);
  std::vector<std::string> tars;
  for (const synth::LayerId id : hub.unique_layers()) {
    std::string tar = materializer.layer_tar(hub.layer_spec(id));
    if (tar.size() < 2 * analyzer::LayerAnalyzer::kWindowBytes ||
        tar.size() > 4 * analyzer::LayerAnalyzer::kWindowBytes) {
      continue;
    }
    tars.push_back(std::move(tar));
    if (tars.size() == 4) break;
  }
  ASSERT_EQ(tars.size(), 4u);

  // A mutant's ISIZE is garbage, and gunzip sizes its first allocation by
  // it (up to 1032x the body); a cap well past every layer keeps that small.
  constexpr std::uint64_t kCap = 16 * analyzer::LayerAnalyzer::kWindowBytes;
  util::Rng rng(20170530);
  int analyzed = 0;
  for (std::size_t layer = 0; layer < tars.size(); ++layer) {
    const std::string& tar = tars[layer];
    auto blob = compress::gzip_compress(tar, 1);
    ASSERT_TRUE(blob.ok());
    const std::string label = "layer " + std::to_string(layer);
    EXPECT_TRUE(expect_one_pass_matches(blob.value(), label));
    // The cap: exactly the tar passes; one byte less, or a cap inside the
    // first window, stops both.
    EXPECT_TRUE(
        expect_one_pass_matches(blob.value(), label, capped(tar.size())));
    EXPECT_FALSE(
        expect_one_pass_matches(blob.value(), label, capped(tar.size() - 1)));
    EXPECT_FALSE(expect_one_pass_matches(blob.value(), label, capped(1000)));

    // A tar fault in the first window with a gzip fault after it: the
    // gzip fault must win, as when the layer was inflated before the walk.
    std::string bad_header = tar;
    bad_header[0] ^= 0x20;  // the first header's name: checksum mismatch
    auto torn = compress::gzip_compress(bad_header, 1);
    ASSERT_TRUE(torn.ok());
    EXPECT_FALSE(expect_one_pass_matches(torn.value(), label + " torn, capped",
                                         capped(tar.size() - 1)));
    std::string torn_bad_crc = torn.value();
    torn_bad_crc[torn_bad_crc.size() - 8] ^= 0x01;
    EXPECT_FALSE(
        expect_one_pass_matches(torn_bad_crc, label + " torn, bad CRC"));

    for (int i = 0; i < 25; ++i) {
      // Gzip-level faults: the member itself damaged.
      const std::string bad_blob = mutate(blob.value(), rng);
      analyzed += expect_one_pass_matches(
          bad_blob, label + " blob mutant " + std::to_string(i), capped(kCap));

      // Tar-level faults in a valid member, then the same with a cap that
      // may fall after the fault: the cap must still win.
      auto bad_tar = compress::gzip_compress(mutate(tar, rng), 1);
      ASSERT_TRUE(bad_tar.ok());
      const std::string tar_label = label + " tar mutant " + std::to_string(i);
      analyzed +=
          expect_one_pass_matches(bad_tar.value(), tar_label, capped(kCap));
      expect_one_pass_matches(bad_tar.value(), tar_label + " capped",
                              capped(rng.uniform(tar.size())));
    }
  }
  // Some mutants still analyze (a flipped byte inside a file body).
  EXPECT_GT(analyzed, 0);
}

TEST(DifferentialTest, ClassifierPrefixJoinsAcrossWindows) {
  // The default 512-byte prefix never spans windows (a window is a whole
  // number of tar blocks), so take a longer one. b's body starts 512 bytes
  // before the first window ends: text there, control bytes after, so a
  // prefix cut at the window would read as text.
  constexpr std::size_t kWindow = analyzer::LayerAnalyzer::kWindowBytes;
  tar::Writer writer;
  writer.add_file("a", std::string(kWindow - 3 * tar::kBlockSize, 'a'));
  writer.add_file("b", std::string(tar::kBlockSize, 't') +
                           std::string(4096, '\x01'));
  auto blob = compress::gzip_compress(writer.finish(), 1);
  ASSERT_TRUE(blob.ok());
  AnalyzerOptions options;
  options.classify_prefix = 4096;
  EXPECT_TRUE(expect_one_pass_matches(blob.value(), "spanning prefix", options));
}


// ---------------------------------------------------------------------------
// Differential test of the DEFLATE decoder against zlib. The reference is
// zlib's inflate (raw, windowBits -15) under the gzip framing and fault
// order GzipReader had when it delegated decoding to zlib: the cap, checked
// after each inflate call, then zlib's error, then "truncated deflate
// stream" once the input is spent with output still wanted, then CRC-32 and
// ISIZE. The decoder reports zlib's messages for DEFLATE faults, so both
// sides must agree on accept or reject, on the bytes, and on the fault
// (truncated versus corrupt included) to the message.
// ---------------------------------------------------------------------------

util::Result<std::string> zlib_gunzip(std::string_view member,
                                      std::uint64_t max_output) {
  auto info = compress::gzip_probe(member);
  if (!info.ok()) return std::move(info).error();
  const std::size_t header = info.value().header_size;
  if (member.size() < header + 8) return util::corrupt("gzip member too short");
  const std::string_view body = member.substr(header, member.size() - header - 8);
  const auto* trailer =
      reinterpret_cast<const unsigned char*>(member.data() + member.size() - 8);
  const auto le32 = [](const unsigned char* p) {
    return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
           (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
  };
  z_stream zs{};
  if (inflateInit2(&zs, -15) != Z_OK) return util::internal("inflateInit2");
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(body.data()));
  zs.avail_in = static_cast<uInt>(body.size());
  std::string out;
  std::string chunk(compress::GzipReader::kWindowBytes, '\0');
  util::Status status;
  for (;;) {
    zs.next_out = reinterpret_cast<Bytef*>(chunk.data());
    zs.avail_out = static_cast<uInt>(chunk.size());
    const int rc = inflate(&zs, Z_NO_FLUSH);
    out.append(chunk.data(), chunk.size() - zs.avail_out);
    if (out.size() > max_output) {
      status = util::out_of_range("decompressed size exceeds cap");
    } else if (rc == Z_STREAM_END) {
      break;
    } else if (rc != Z_OK && rc != Z_BUF_ERROR) {
      status = util::corrupt(zs.msg != nullptr ? zs.msg : "inflate failed");
    } else if (zs.avail_out != 0 && zs.avail_in == 0) {
      status = util::corrupt("truncated deflate stream");
    } else {
      continue;
    }
    break;
  }
  inflateEnd(&zs);
  if (!status.ok()) return status.error();
  if (crc32_z(0, reinterpret_cast<const Bytef*>(out.data()), out.size()) !=
      le32(trailer)) {
    return util::corrupt("gzip CRC mismatch");
  }
  if (static_cast<std::uint32_t>(out.size()) != le32(trailer + 4)) {
    return util::corrupt("gzip ISIZE mismatch");
  }
  return out;
}

/// Decode `member` with both; returns the shared outcome's message ("" when
/// both accepted it), or "disagree" after reporting the difference. Ours
/// reads an exactly sized copy, so AddressSanitizer catches any read past
/// the member.
std::string expect_same_as_zlib(std::string_view member,
                                const std::string& label,
                                std::uint64_t max_output = 1ULL << 34) {
  const auto exact = std::make_unique<char[]>(member.size());
  std::copy(member.begin(), member.end(), exact.get());
  const auto ours = compress::gzip_decompress(
      std::string_view(exact.get(), member.size()), max_output);
  const auto zlib = zlib_gunzip(member, max_output);
  if (ours.ok() != zlib.ok()) {
    ADD_FAILURE() << label << ": ours "
                  << (ours.ok() ? "accepted" : ours.error().message())
                  << ", zlib "
                  << (zlib.ok() ? "accepted" : zlib.error().message());
    return "disagree";
  }
  if (ours.ok()) {
    if (ours.value() != zlib.value()) {
      ADD_FAILURE() << label << ": different bytes (" << ours.value().size()
                    << " vs " << zlib.value().size() << ")";
      return "disagree";
    }
    return "";
  }
  if (ours.error().code() != zlib.error().code() ||
      ours.error().message() != zlib.error().message()) {
    ADD_FAILURE() << label << ": ours " << ours.error().message() << ", zlib "
                  << zlib.error().message();
    return "disagree";
  }
  return ours.error().message();
}

/// A gzip member around a raw DEFLATE body, its trailer from `payload`.
std::string gzip_member(std::string_view body, std::string_view payload) {
  std::string member("\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff", 10);
  member.append(body);
  const auto crc = static_cast<std::uint32_t>(crc32_z(
      0, reinterpret_cast<const Bytef*>(payload.data()), payload.size()));
  const auto size = static_cast<std::uint32_t>(payload.size());
  for (const std::uint32_t word : {crc, size}) {
    for (int shift = 0; shift < 32; shift += 8) {
      member += static_cast<char>((word >> shift) & 0xff);
    }
  }
  return member;
}

/// `raw` deflated by zlib at `level` (0 = stored blocks) with `strategy`.
std::string zlib_deflate(std::string_view raw, int level, int strategy) {
  z_stream zs{};
  EXPECT_EQ(deflateInit2(&zs, level, Z_DEFLATED, -15, 8, strategy), Z_OK);
  std::string body(deflateBound(&zs, raw.size()), '\0');
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(raw.data()));
  zs.avail_in = static_cast<uInt>(raw.size());
  zs.next_out = reinterpret_cast<Bytef*>(body.data());
  zs.avail_out = static_cast<uInt>(body.size());
  EXPECT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
  body.resize(zs.total_out);
  deflateEnd(&zs);
  return body;
}

/// A DEFLATE bit stream written least significant bit first; Huffman codes
/// go most significant bit first, as RFC 1951 packs them.
class BitWriter {
 public:
  BitWriter& bits(std::uint32_t value, int count) {
    for (int i = 0; i < count; ++i) push((value >> i) & 1);
    return *this;
  }
  BitWriter& code(std::uint32_t value, int length) {
    for (int i = length - 1; i >= 0; --i) push((value >> i) & 1);
    return *this;
  }
  BitWriter& align() {
    while (used_ != 0) push(0);
    return *this;
  }
  BitWriter& byte(std::uint8_t value) { return bits(value, 8); }
  std::string done() const {
    std::string out = bytes_;
    if (used_ != 0) out += static_cast<char>(partial_);
    return out;
  }

 private:
  void push(std::uint32_t bit) {
    partial_ |= static_cast<std::uint8_t>(bit << used_);
    if (++used_ == 8) {
      bytes_ += static_cast<char>(partial_);
      partial_ = 0;
      used_ = 0;
    }
  }
  std::string bytes_;
  std::uint8_t partial_ = 0;
  int used_ = 0;
};

/// A dynamic block header: code-length code `precode` (19 lengths, symbol
/// order), then `lens` (literal/length then distance lengths, `nlen` of
/// them literal/length) written with it as plain 0..15 symbols.
void dynamic_header(BitWriter& w, bool final_block,
                    const std::vector<std::uint8_t>& lens, unsigned nlen,
                    const std::array<std::uint8_t, 19>& precode) {
  static constexpr std::uint8_t kOrder[19] = {16, 17, 18, 0, 8,  7, 9,
                                              6,  10, 5,  11, 4, 12, 3,
                                              13, 2,  14, 1,  15};
  w.bits(final_block ? 1 : 0, 1).bits(2, 2);
  const auto ndist = static_cast<std::uint32_t>(lens.size() - nlen);
  w.bits(nlen - 257, 5).bits(ndist - 1, 5);
  w.bits(19 - 4, 4);
  for (const std::uint8_t symbol : kOrder) w.bits(precode[symbol], 3);
  // Canonical codes of the code-length code.
  std::array<std::uint32_t, 19> codes{};
  std::uint32_t next = 0;
  for (int len = 1; len <= 7; ++len, next <<= 1) {
    for (int s = 0; s < 19; ++s) {
      if (precode[s] == len) codes[s] = next++;
    }
  }
  for (const std::uint8_t len : lens) w.code(codes[len], precode[len]);
}

/// The code-length code with symbols 0..15 at four bits (complete).
std::array<std::uint8_t, 19> plain_precode() {
  std::array<std::uint8_t, 19> precode{};
  for (int s = 0; s < 16; ++s) precode[s] = 4;
  return precode;
}

/// Lengths (258 literal/length, then one distance) for a small complete
/// code: end of block '0', 'A' '10', length 3 (symbol 257) '11'; one
/// distance code, distance 1, '0' (the legal single-code distance tree).
std::vector<std::uint8_t> small_code_lens() {
  std::vector<std::uint8_t> lens(258 + 1, 0);
  lens[256] = 1;
  lens['A'] = 2;
  lens[257] = 2;
  lens[258] = 1;  // the distance code
  return lens;
}

TEST(InflateDifferentialTest, CorpusAgreesWithZlib) {
  // The deflate_ files' outcomes ("" = accepted), pinned so that each keeps
  // reaching the case it was made for.
  const std::map<std::string, std::string> deflate_outcomes = {
      {"deflate_stored_blocks.bin", ""},
      {"deflate_fixed_huffman.bin", ""},
      {"deflate_single_distance_code.bin", ""},
      {"deflate_distance_too_far.bin", "invalid distance too far back"},
      {"deflate_truncated_dynamic_header.bin", "truncated deflate stream"}};
  int checked = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(DOCKMINE_CORPUS_DIR)) {
    const std::string name = file.path().filename().string();
    if (name.rfind("gzip_", 0) != 0 && name.rfind("layer_", 0) != 0 &&
        name.rfind("deflate_", 0) != 0) {
      continue;
    }
    const std::string blob = read_corpus(name);
    const std::string outcome = expect_same_as_zlib(blob, name);
    if (name.rfind("deflate_", 0) == 0) {
      ASSERT_EQ(deflate_outcomes.count(name), 1u) << name;
      EXPECT_EQ(outcome, deflate_outcomes.at(name)) << name;
    }
    // Every shorter member: the decoder must call truncation where zlib
    // does, whatever the missing bits would have decoded to.
    for (std::size_t keep = 0; keep < blob.size(); ++keep) {
      expect_same_as_zlib(std::string_view(blob).substr(0, keep),
                          name + " cut to " + std::to_string(keep));
    }
    ++checked;
  }
  EXPECT_EQ(checked, 9);
}

TEST(InflateDifferentialTest, EveryLevelAndStrategyAgreesWithZlib) {
  util::Rng rng(0xDEF1A7E);
  std::string mixed = compress::generate(96 * 1024, 2.6, rng);
  mixed.append(std::string(40 * 1024, '\0'));
  std::string noise;
  compress::append_random(noise, 24 * 1024, rng);
  mixed.append(noise);
  mixed.append(compress::generate(160 * 1024, 30.0, rng, /*ascii_safe=*/true));
  const std::string inputs[] = {std::string(), "a", std::string(300, 'z'),
                                mixed};
  int members = 0;
  for (const std::string& raw : inputs) {
    for (int level = 0; level <= 9; ++level) {
      for (const int strategy : {Z_DEFAULT_STRATEGY, Z_FILTERED,
                                 Z_HUFFMAN_ONLY, Z_RLE, Z_FIXED}) {
        const std::string member =
            gzip_member(zlib_deflate(raw, level, strategy), raw);
        const std::string label =
            std::to_string(raw.size()) + " bytes, level " +
            std::to_string(level) + ", strategy " + std::to_string(strategy);
        EXPECT_EQ(expect_same_as_zlib(member, label), "") << label;
        // The cap at, and one byte under, the payload's size.
        EXPECT_EQ(expect_same_as_zlib(member, label + ", capped", raw.size()),
                  "");
        if (!raw.empty()) {
          EXPECT_EQ(expect_same_as_zlib(member, label + ", capped short",
                                        raw.size() - 1),
                    "decompressed size exceeds cap");
        }
        ++members;
      }
    }
  }
  EXPECT_EQ(members, 4 * 10 * 5);
}

TEST(InflateDifferentialTest, EachFaultClassAgreesWithZlib) {
  struct Case {
    std::string name;
    std::string body;
    std::string payload;  ///< what the trailer describes
    std::string expect;   ///< the message both must give ("" = accepted)
  };
  std::vector<Case> cases;
  const auto add = [&](std::string name, const BitWriter& w,
                       std::string expect, std::string payload = "") {
    cases.push_back({std::move(name), w.done(), std::move(payload),
                     std::move(expect)});
  };

  {  // The small dynamic code: 'A', then a 3-byte match at distance 1.
    BitWriter w;
    dynamic_header(w, true, small_code_lens(), 258, plain_precode());
    w.code(0b10, 2).code(0b11, 2).code(0, 1).code(0, 1);
    add("single distance code", w, "", "AAAA");
  }
  {  // The same code, but the distance tree's unused one-bit pattern.
    BitWriter w;
    dynamic_header(w, true, small_code_lens(), 258, plain_precode());
    w.code(0b10, 2).code(0b11, 2).code(1, 1).code(0, 1);
    add("unused distance code", w, "invalid distance code");
  }
  {  // No distance codes at all: legal until a match needs one.
    std::vector<std::uint8_t> lens = small_code_lens();
    lens[258] = 0;
    BitWriter w;
    dynamic_header(w, true, lens, 258, plain_precode());
    w.code(0b10, 2).code(0, 1);
    add("empty distance tree, literals", w, "", "A");
    BitWriter m;
    dynamic_header(m, true, lens, 258, plain_precode());
    m.code(0b10, 2).code(0b11, 2).code(0, 1);
    add("empty distance tree, a match", m, "invalid distance code");
  }
  {
    BitWriter w;
    w.bits(1, 1).bits(3, 2);
    add("block type 3", w, "invalid block type");
  }
  {
    BitWriter w;
    w.bits(1, 1).bits(0, 2).align().bits(5, 16).bits(0, 16);
    add("stored LEN/NLEN mismatch", w, "invalid stored block lengths");
  }
  {
    BitWriter w;
    w.bits(1, 1).bits(2, 2).bits(30, 5).bits(0, 5).bits(0, 4);
    add("287 literal/length codes", w, "too many length or distance symbols");
  }
  {
    std::array<std::uint8_t, 19> precode = plain_precode();
    precode[16] = 4;  // 17 four-bit codes
    BitWriter w;
    dynamic_header(w, true, small_code_lens(), 258, precode);
    add("over-subscribed code-length code", w, "invalid code lengths set");
    precode[16] = 0;
    precode[15] = 0;  // 15 four-bit codes
    BitWriter v;
    dynamic_header(v, true, small_code_lens(), 258, precode);
    add("incomplete code-length code", v, "invalid code lengths set");
  }
  {
    std::vector<std::uint8_t> lens = small_code_lens();
    lens['B'] = 1;
    BitWriter w;
    dynamic_header(w, true, lens, 258, plain_precode());
    add("over-subscribed literal/length code", w,
        "invalid literal/lengths set");
    lens['B'] = 0;
    lens[257] = 0;
    BitWriter v;
    dynamic_header(v, true, lens, 258, plain_precode());
    add("incomplete literal/length code", v, "invalid literal/lengths set");
  }
  {
    std::vector<std::uint8_t> lens = small_code_lens();
    lens[258] = 2;  // one two-bit distance code: incomplete, not a lone bit
    BitWriter w;
    dynamic_header(w, true, lens, 258, plain_precode());
    add("incomplete distance code", w, "invalid distances set");
  }
  {  // The first code length is "repeat the previous one".
    std::array<std::uint8_t, 19> precode = plain_precode();
    precode[15] = 0;
    precode[16] = 4;
    BitWriter w;
    w.bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(15, 4);
    static constexpr std::uint8_t kOrder[19] = {16, 17, 18, 0, 8,  7, 9,
                                                6,  10, 5,  11, 4, 12, 3,
                                                13, 2,  14, 1,  15};
    for (const std::uint8_t symbol : kOrder) w.bits(precode[symbol], 3);
    w.code(0b1111, 4).bits(0, 2);
    add("repeat with no previous length", w, "invalid bit length repeat");
  }
  {
    std::vector<std::uint8_t> lens = small_code_lens();
    lens[256] = 0;
    lens['B'] = 1;
    lens[257] = 0;
    lens['A'] = 1;
    BitWriter w;
    dynamic_header(w, true, lens, 258, plain_precode());
    add("no end-of-block code", w, "invalid code -- missing end-of-block");
  }
  {  // Fixed code: a match before any byte was produced.
    BitWriter w;
    w.bits(1, 1).bits(1, 2).code(0b0000001, 7).code(0, 5);
    add("distance past the bytes produced", w, "invalid distance too far back");
  }
  {
    BitWriter w;
    w.bits(1, 1).bits(1, 2).code(0b00110000 + 'x', 8).code(0b11000110, 8);
    add("fixed literal/length symbol 286", w, "invalid literal/length code");
    BitWriter v;
    v.bits(1, 1).bits(1, 2).code(0b00110000 + 'x', 8).code(0b0000001, 7);
    v.code(30, 5);
    add("fixed distance symbol 30", v, "invalid distance code");
  }
  {  // Truncations: a dynamic header, a stored block, Huffman data.
    BitWriter w;
    dynamic_header(w, true, small_code_lens(), 258, plain_precode());
    const std::string header = w.done();
    cases.push_back({"cut in a block header",
                     header.substr(0, header.size() / 2), "",
                     "truncated deflate stream"});
    BitWriter s;
    s.bits(1, 1).bits(0, 2).align().bits(100, 16).bits(~100u & 0xffff, 16);
    for (int i = 0; i < 10; ++i) s.byte('s');
    add("cut in a stored block", s, "truncated deflate stream");
    BitWriter h;
    h.bits(1, 1).bits(1, 2);
    for (const char c : std::string("literals, then no end of block")) {
      h.code(0b00110000 + static_cast<unsigned char>(c), 8);
    }
    add("cut in Huffman data", h, "truncated deflate stream");
  }

  for (const Case& c : cases) {
    const std::string member = gzip_member(c.body, c.payload);
    EXPECT_EQ(expect_same_as_zlib(member, c.name), c.expect) << c.name;
    // Cut anywhere, each stream is truncated (or still at fault) for both.
    for (std::size_t keep = 0; keep < c.body.size(); ++keep) {
      expect_same_as_zlib(gzip_member(c.body.substr(0, keep), c.payload),
                          c.name + " cut to " + std::to_string(keep));
    }
  }
}

TEST(InflateDifferentialTest, SeededLayerMutantsAgreeWithZlib) {
  // Materialized layers of a few windows at the pipeline's gzip level 1 and
  // at 6, so mutants land in stored, fixed and dynamic blocks alike.
  const synth::HubModel hub(synth::Calibration::light(), synth::Scale{40, 3});
  const synth::Materializer materializer(hub, /*gzip_level=*/1);
  std::vector<std::string> blobs;
  for (const synth::LayerId id : hub.unique_layers()) {
    const std::string tar = materializer.layer_tar(hub.layer_spec(id));
    if (tar.size() < 64 * 1024 ||
        tar.size() > 3 * compress::GzipReader::kWindowBytes) {
      continue;
    }
    const int level = blobs.size() % 2 == 0 ? 1 : 6;
    blobs.push_back(compress::gzip_compress(tar, level).value());
    if (blobs.size() == 4) break;
  }
  ASSERT_EQ(blobs.size(), 4u);

  // A mutant can decode to far more than its layer; the cap keeps both
  // sides' output small and is itself a fault they must agree on.
  constexpr std::uint64_t kCap = 4 * compress::GzipReader::kWindowBytes;
  util::Rng rng(20170530);
  std::map<std::string, int> outcomes;
  for (std::size_t b = 0; b < blobs.size(); ++b) {
    const std::string& blob = blobs[b];
    for (int i = 0; i < 40; ++i) {
      const std::string tag =
          "layer " + std::to_string(b) + " mutant " + std::to_string(i);
      std::string flipped = blob;  // one bit flipped
      flipped[rng.uniform(blob.size())] ^=
          static_cast<char>(1u << rng.uniform(8));
      ++outcomes[expect_same_as_zlib(flipped, tag + " bit flip", kCap)];

      ++outcomes[expect_same_as_zlib(  // truncated
          std::string_view(blob).substr(0, rng.uniform(blob.size())),
          tag + " truncated", kCap)];

      std::string overwritten = blob;  // a few bytes overwritten
      for (int k = 0, n = 1 + static_cast<int>(rng.uniform(4)); k < n; ++k) {
        overwritten[rng.uniform(blob.size())] =
            static_cast<char>(rng.uniform(256));
      }
      ++outcomes[expect_same_as_zlib(overwritten, tag + " overwrite", kCap)];

      std::string early = blob;  // a flip in the header and first blocks
      early[rng.uniform(64)] ^= static_cast<char>(1u << rng.uniform(8));
      ++outcomes[expect_same_as_zlib(early, tag + " early flip", kCap)];
    }
  }
  EXPECT_EQ(outcomes.count("disagree"), 0u);
  // The mutants reach truncation, DEFLATE faults and the trailer checks.
  EXPECT_GT(outcomes["truncated deflate stream"], 0);
  EXPECT_GT(outcomes["gzip CRC mismatch"], 0);
  int deflate_faults = 0;
  for (const auto& [outcome, count] : outcomes) {
    if (outcome.rfind("invalid", 0) == 0) deflate_faults += count;
  }
  EXPECT_GT(deflate_faults, 0);
}

}  // namespace
}  // namespace dockmine
