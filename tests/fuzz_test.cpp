// Robustness fuzzing: the parsers and the classifier must never crash or
// loop on arbitrary input — they sit on the pipeline's untrusted side
// (the paper's analyzer ingested whatever Docker Hub served).
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "dockmine/analyzer/layer_analyzer.h"
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

}  // namespace
}  // namespace dockmine
