// Unit tests for the coordinator<->worker wire protocol (core/wire) and
// the coordinator-side lease state machine (core/lease).
//
// The framing tests are deliberately adversarial: every truncation point
// of a valid frame must read as "need more bytes", and every single-bit
// flip of an encoded frame must be rejected (poisoning the stream) —
// corrupted frames may cost a lease but can never deliver altered bytes.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dockmine/core/lease.h"
#include "dockmine/core/wire.h"
#include "dockmine/digest/digest.h"
#include "dockmine/json/json.h"
#include "dockmine/util/error.h"

namespace wire = dockmine::core::wire;
using dockmine::core::JobSpec;
using dockmine::core::LeaseState;
using dockmine::core::LeaseTable;
using dockmine::util::ErrorCode;

namespace {

// Feed a byte string and poll a single frame out, expecting success.
wire::Frame decode_one(const std::string& bytes) {
  wire::FrameBuffer buffer;
  buffer.feed(bytes);
  wire::Frame frame;
  auto polled = buffer.poll(frame);
  EXPECT_TRUE(polled.ok()) << polled.error().message();
  EXPECT_TRUE(polled.ok() && polled.value());
  return frame;
}

TEST(DistWire, FrameRoundtrip) {
  const std::string payload = "{\"type\":\"hello\",\"worker\":7}";
  const std::string encoded = wire::encode_frame(wire::FrameKind::kJson, payload);
  ASSERT_EQ(encoded.size(), wire::kFrameHeaderBytes + payload.size());

  const wire::Frame frame = decode_one(encoded);
  EXPECT_EQ(frame.kind, wire::FrameKind::kJson);
  EXPECT_EQ(frame.payload, payload);
}

TEST(DistWire, EmptyAndBinaryPayloads) {
  const wire::Frame empty =
      decode_one(wire::encode_frame(wire::FrameKind::kJson, ""));
  EXPECT_TRUE(empty.payload.empty());

  std::string blob(4096, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>(i * 31 + 7);
  }
  const wire::Frame binary =
      decode_one(wire::encode_frame(wire::FrameKind::kBinary, blob));
  EXPECT_EQ(binary.kind, wire::FrameKind::kBinary);
  EXPECT_EQ(binary.payload, blob);
}

TEST(DistWire, ByteAtATimeReassembly) {
  const std::string a = wire::encode_frame(wire::FrameKind::kJson, "{\"a\":1}");
  const std::string b = wire::encode_frame(wire::FrameKind::kBinary, "bytes");
  const std::string stream = a + b;

  wire::FrameBuffer buffer;
  std::vector<wire::Frame> frames;
  for (char byte : stream) {
    buffer.feed(std::string_view(&byte, 1));
    wire::Frame frame;
    auto polled = buffer.poll(frame);
    ASSERT_TRUE(polled.ok());
    if (polled.value()) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "{\"a\":1}");
  EXPECT_EQ(frames[1].kind, wire::FrameKind::kBinary);
  EXPECT_EQ(frames[1].payload, "bytes");
}

TEST(DistWire, EveryTruncationNeedsMoreBytes) {
  const std::string encoded =
      wire::encode_frame(wire::FrameKind::kJson, "{\"type\":\"shutdown\"}");
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    wire::FrameBuffer buffer;
    buffer.feed(std::string_view(encoded).substr(0, cut));
    wire::Frame frame;
    auto polled = buffer.poll(frame);
    ASSERT_TRUE(polled.ok()) << "cut=" << cut << ": " << polled.error().message();
    EXPECT_FALSE(polled.value()) << "cut=" << cut;
    EXPECT_FALSE(buffer.corrupt());

    // The remainder completes the frame — truncation is never sticky.
    buffer.feed(std::string_view(encoded).substr(cut));
    auto finished = buffer.poll(frame);
    ASSERT_TRUE(finished.ok());
    EXPECT_TRUE(finished.value()) << "cut=" << cut;
    EXPECT_EQ(frame.payload, "{\"type\":\"shutdown\"}");
  }
}

TEST(DistWire, EverySingleBitFlipIsRejected) {
  const std::string payload = "{\"type\":\"heartbeat\",\"worker\":3,\"lease\":1}";
  const std::string encoded = wire::encode_frame(wire::FrameKind::kJson, payload);

  for (std::size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = encoded;
      flipped[byte] = static_cast<char>(
          static_cast<unsigned char>(flipped[byte]) ^ (1u << bit));

      wire::FrameBuffer buffer;
      buffer.feed(flipped);
      wire::Frame frame;
      auto polled = buffer.poll(frame);
      // A flip may make the buffer wait for (nonexistent) extra payload
      // bytes, or poison the stream outright — but it must never deliver.
      if (polled.ok()) {
        EXPECT_FALSE(polled.value())
            << "delivered altered frame at byte " << byte << " bit " << bit;
      } else {
        EXPECT_EQ(polled.error().code(), ErrorCode::kCorrupt);
        EXPECT_TRUE(buffer.corrupt());
      }
    }
  }
}

TEST(DistWire, CorruptionPoisonsTheStream) {
  wire::FrameBuffer buffer;
  buffer.feed("XXXXgarbage that is definitely not a frame header");
  wire::Frame frame;
  auto first = buffer.poll(frame);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code(), ErrorCode::kCorrupt);
  EXPECT_TRUE(buffer.corrupt());

  // Even a subsequently-fed valid frame must not resurrect the stream.
  buffer.feed(wire::encode_frame(wire::FrameKind::kJson, "{}"));
  auto second = buffer.poll(frame);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kCorrupt);
}

TEST(DistWire, OversizedLengthIsCorrupt) {
  std::string encoded = wire::encode_frame(wire::FrameKind::kJson, "x");
  const std::uint32_t huge = wire::kMaxFramePayload + 1;
  encoded[8] = static_cast<char>(huge & 0xff);
  encoded[9] = static_cast<char>((huge >> 8) & 0xff);
  encoded[10] = static_cast<char>((huge >> 16) & 0xff);
  encoded[11] = static_cast<char>((huge >> 24) & 0xff);

  wire::FrameBuffer buffer;
  buffer.feed(encoded);
  wire::Frame frame;
  auto polled = buffer.poll(frame);
  ASSERT_FALSE(polled.ok());
  EXPECT_EQ(polled.error().code(), ErrorCode::kCorrupt);
}

TEST(DistWire, UnknownKindAndNonzeroFlagsAreCorrupt) {
  for (int tweak = 0; tweak < 2; ++tweak) {
    std::string encoded = wire::encode_frame(wire::FrameKind::kJson, "{}");
    if (tweak == 0) {
      encoded[4] = 9;  // unknown kind
    } else {
      encoded[5] = 1;  // flags must be zero
    }
    wire::FrameBuffer buffer;
    buffer.feed(encoded);
    wire::Frame frame;
    auto polled = buffer.poll(frame);
    ASSERT_FALSE(polled.ok()) << "tweak=" << tweak;
    EXPECT_EQ(polled.error().code(), ErrorCode::kCorrupt);
  }
}

// ---- codec roundtrips --------------------------------------------------

TEST(DistWire, JobSpecRoundtrip) {
  JobSpec spec;
  spec.repositories = 123;
  spec.seed = 42;
  spec.light_calibration = false;
  spec.gzip_level = 6;
  spec.download_workers = 7;
  spec.analyze_workers = 3;
  spec.shards = 16;
  spec.spill_threshold_bytes = 1ull << 30;

  auto parsed = wire::job_spec_from_json(wire::job_spec_to_json(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  const JobSpec& got = parsed.value();
  EXPECT_EQ(got.repositories, spec.repositories);
  EXPECT_EQ(got.seed, spec.seed);
  EXPECT_EQ(got.light_calibration, spec.light_calibration);
  EXPECT_EQ(got.gzip_level, spec.gzip_level);
  EXPECT_EQ(got.download_workers, spec.download_workers);
  EXPECT_EQ(got.analyze_workers, spec.analyze_workers);
  EXPECT_EQ(got.shards, spec.shards);
  EXPECT_EQ(got.spill_threshold_bytes, spec.spill_threshold_bytes);
}

TEST(DistWire, JobSpecRejectsOutOfRange) {
  JobSpec spec;
  dockmine::json::Value doc = wire::job_spec_to_json(spec);
  doc.set("download_workers", std::uint64_t{0});
  EXPECT_FALSE(wire::job_spec_from_json(doc).ok());

  doc = wire::job_spec_to_json(spec);
  doc.set("shards", std::uint64_t{5000});
  EXPECT_FALSE(wire::job_spec_from_json(doc).ok());
}

TEST(DistWire, ProfileRoundtrips) {
  dockmine::analyzer::LayerProfile layer;
  layer.digest = dockmine::digest::Digest::of("layer-bytes");
  layer.fls = 1000;
  layer.cls = 250;
  layer.file_count = 12;
  layer.dir_count = 3;
  layer.max_depth = 5;

  auto layer_parsed =
      wire::layer_profile_from_json(wire::layer_profile_to_json(layer));
  ASSERT_TRUE(layer_parsed.ok()) << layer_parsed.error().message();
  EXPECT_EQ(layer_parsed.value().digest, layer.digest);
  EXPECT_EQ(layer_parsed.value().fls, layer.fls);
  EXPECT_EQ(layer_parsed.value().cls, layer.cls);
  EXPECT_EQ(layer_parsed.value().file_count, layer.file_count);
  EXPECT_EQ(layer_parsed.value().dir_count, layer.dir_count);
  EXPECT_EQ(layer_parsed.value().max_depth, layer.max_depth);

  dockmine::analyzer::ImageProfile image;
  image.repository = "library/nginx";
  image.fis = 2000;
  image.cis = 800;
  image.file_count = 40;
  image.dir_count = 9;
  image.layer_count = 4;

  auto image_parsed =
      wire::image_profile_from_json(wire::image_profile_to_json(image));
  ASSERT_TRUE(image_parsed.ok()) << image_parsed.error().message();
  EXPECT_EQ(image_parsed.value().repository, image.repository);
  EXPECT_EQ(image_parsed.value().fis, image.fis);
  EXPECT_EQ(image_parsed.value().cis, image.cis);
  EXPECT_EQ(image_parsed.value().file_count, image.file_count);
  EXPECT_EQ(image_parsed.value().dir_count, image.dir_count);
  EXPECT_EQ(image_parsed.value().layer_count, image.layer_count);
}

wire::LeaseResult sample_result() {
  wire::LeaseResult result;
  result.worker = 2;
  result.lease = 1;
  result.attempt = 3;
  result.manifests_pushed = 17;

  dockmine::analyzer::ImageProfile image;
  image.repository = "alice/app";
  image.fis = 512;
  image.cis = 128;
  image.file_count = 6;
  image.dir_count = 2;
  image.layer_count = 2;
  result.images.push_back(image);

  dockmine::registry::Manifest manifest;
  manifest.repository = "alice/app";
  manifest.tag = "v1";
  manifest.config_digest = dockmine::digest::Digest::of("config");
  manifest.config_size = 99;
  manifest.layers.push_back(
      {dockmine::digest::Digest::of("layer-0"), 4096});
  result.manifests.push_back(manifest);

  dockmine::analyzer::LayerProfile layer;
  layer.digest = dockmine::digest::Digest::of("layer-0");
  layer.fls = 8192;
  layer.cls = 4096;
  layer.file_count = 3;
  layer.dir_count = 1;
  layer.max_depth = 2;
  result.layer_profiles.push_back(layer);

  result.shard_summary.enabled = true;
  result.shard_summary.shards = 4;
  result.shard_summary.observations = 3;
  result.files.push_back({"shard-000.run", 4096});
  result.files.push_back({"manifest.json", 128});
  return result;
}

TEST(DistWire, LeaseResultRoundtrip) {
  const wire::LeaseResult result = sample_result();
  auto parsed = wire::lease_result_from_json(wire::lease_result_to_json(result));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  const wire::LeaseResult& got = parsed.value();

  EXPECT_EQ(got.worker, result.worker);
  EXPECT_EQ(got.lease, result.lease);
  EXPECT_EQ(got.attempt, result.attempt);
  EXPECT_EQ(got.manifests_pushed, result.manifests_pushed);
  ASSERT_EQ(got.images.size(), 1u);
  EXPECT_EQ(got.images[0].repository, "alice/app");
  ASSERT_EQ(got.manifests.size(), 1u);
  EXPECT_EQ(got.manifests[0].tag, "v1");
  ASSERT_EQ(got.manifests[0].layers.size(), 1u);
  EXPECT_EQ(got.manifests[0].layers[0].compressed_size, 4096u);
  ASSERT_EQ(got.layer_profiles.size(), 1u);
  EXPECT_EQ(got.layer_profiles[0].fls, 8192u);
  ASSERT_EQ(got.files.size(), 2u);
  EXPECT_EQ(got.files[0].name, "shard-000.run");
  EXPECT_EQ(got.files[0].size, 4096u);
}

TEST(DistWire, LeaseResultRejectsUnsafeFileNames) {
  for (const char* name : {"../escape", "a/b", "sub\\dir", ".hidden", ""}) {
    wire::LeaseResult result = sample_result();
    result.files = {{name, 1}};
    auto parsed =
        wire::lease_result_from_json(wire::lease_result_to_json(result));
    EXPECT_FALSE(parsed.ok()) << "accepted unsafe name: " << name;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.error().code(), ErrorCode::kCorrupt);
    }
  }
}

// ---- lease state machine (virtual clock) -------------------------------

TEST(DistLease, AssignCompleteLifecycle) {
  LeaseTable table(3);
  EXPECT_EQ(table.count(), 3u);
  EXPECT_FALSE(table.all_done());

  auto next = table.next_pending(0.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 0u);

  ASSERT_TRUE(table.assign(0, /*worker=*/10, /*now_ms=*/100.0).ok());
  EXPECT_EQ(table.status(0).state, LeaseState::kRunning);
  EXPECT_EQ(table.status(0).attempts, 1u);

  // A running lease cannot be plain-assigned again.
  EXPECT_FALSE(table.assign(0, 11, 110.0).ok());

  // next_pending skips the running lease.
  next = table.next_pending(120.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 1u);

  EXPECT_TRUE(table.complete(0, 400.0));
  EXPECT_EQ(table.status(0).state, LeaseState::kDone);
  EXPECT_EQ(table.done(), 1u);

  ASSERT_TRUE(table.assign(1, 10, 500.0).ok());
  ASSERT_TRUE(table.assign(2, 11, 500.0).ok());
  EXPECT_TRUE(table.complete(1, 700.0));
  EXPECT_TRUE(table.complete(2, 900.0));
  EXPECT_TRUE(table.all_done());
  EXPECT_FALSE(table.next_pending(1000.0).has_value());
}

TEST(DistLease, DuplicateCompletionFirstWins) {
  LeaseTable table(1);
  ASSERT_TRUE(table.assign(0, 10, 0.0).ok());
  ASSERT_TRUE(table.assign_duplicate(0, 11).ok());
  EXPECT_EQ(table.status(0).owners.size(), 2u);
  EXPECT_EQ(table.status(0).attempts, 2u);

  EXPECT_TRUE(table.complete(0, 50.0));   // first completion counts
  EXPECT_FALSE(table.complete(0, 60.0));  // straggler's copy is discarded
  EXPECT_TRUE(table.all_done());
}

TEST(DistLease, ReleaseOwnerReassignsOrphanedLeases) {
  LeaseTable table(3);
  ASSERT_TRUE(table.assign(0, 10, 0.0).ok());
  ASSERT_TRUE(table.assign(1, 10, 0.0).ok());
  ASSERT_TRUE(table.assign(2, 11, 0.0).ok());

  // Worker 10 dies owning leases 0 and 1: both return to pending.
  const std::vector<std::uint32_t> orphaned =
      table.release_owner(10, /*backoff_until_ms=*/200.0);
  EXPECT_EQ(orphaned.size(), 2u);
  EXPECT_EQ(table.status(0).state, LeaseState::kPending);
  EXPECT_EQ(table.status(1).state, LeaseState::kPending);
  EXPECT_EQ(table.status(2).state, LeaseState::kRunning);

  // Backoff gates re-dispatch on the virtual clock.
  EXPECT_FALSE(table.next_pending(100.0).has_value());
  auto retry = table.next_pending(250.0);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(*retry, 0u);
}

TEST(DistLease, DuplicateOwnerKeepsLeaseRunningAfterDeath) {
  LeaseTable table(1);
  ASSERT_TRUE(table.assign(0, 10, 0.0).ok());
  ASSERT_TRUE(table.assign_duplicate(0, 11).ok());

  // The original owner dies; the straggler duplicate still covers the
  // lease, so nothing returns to pending.
  const auto orphaned = table.release_owner(10, 100.0);
  EXPECT_TRUE(orphaned.empty());
  EXPECT_EQ(table.status(0).state, LeaseState::kRunning);
  ASSERT_EQ(table.status(0).owners.size(), 1u);
  EXPECT_EQ(table.status(0).owners[0], 11u);

  EXPECT_TRUE(table.complete(0, 150.0));
  EXPECT_TRUE(table.all_done());
}

TEST(DistLease, FailReturnsLeaseToPendingUnlessDuplicated) {
  LeaseTable table(2);
  ASSERT_TRUE(table.assign(0, 10, 0.0).ok());
  EXPECT_TRUE(table.fail(0, 10, /*backoff_until_ms=*/300.0));
  EXPECT_EQ(table.status(0).state, LeaseState::kPending);
  EXPECT_FALSE(table.next_pending(200.0).has_value() &&
               table.next_pending(200.0).value() == 0u);
  auto after_backoff = table.next_pending(350.0);
  ASSERT_TRUE(after_backoff.has_value());
  EXPECT_EQ(*after_backoff, 0u);

  // With a duplicate owner the failure of one worker keeps it running.
  ASSERT_TRUE(table.assign(1, 10, 400.0).ok());
  ASSERT_TRUE(table.assign_duplicate(1, 11).ok());
  EXPECT_FALSE(table.fail(1, 10, 500.0));
  EXPECT_EQ(table.status(1).state, LeaseState::kRunning);

  // fail() from a non-owner is a no-op.
  EXPECT_FALSE(table.fail(1, 99, 600.0));
}

TEST(DistLease, MedianCompletedRuntime) {
  LeaseTable table(3);
  EXPECT_EQ(table.median_completed_ms(), 0.0);

  ASSERT_TRUE(table.assign(0, 10, 0.0).ok());
  EXPECT_TRUE(table.complete(0, 100.0));
  EXPECT_EQ(table.median_completed_ms(), 100.0);

  ASSERT_TRUE(table.assign(1, 10, 0.0).ok());
  EXPECT_TRUE(table.complete(1, 300.0));
  ASSERT_TRUE(table.assign(2, 10, 0.0).ok());
  EXPECT_TRUE(table.complete(2, 500.0));
  EXPECT_EQ(table.median_completed_ms(), 300.0);
}

}  // namespace
