#include "dockmine/core/wire.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "dockmine/compress/crc32.h"
#include "dockmine/registry/manifest.h"

namespace dockmine::core::wire {
namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

bool require_uint(const json::Value& doc, std::string_view key,
                  std::uint64_t& out) {
  if (!doc.contains(key) || !doc[key].is_int()) return false;
  out = doc[key].as_uint();
  return true;
}

}  // namespace

std::string encode_frame(FrameKind kind, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic);
  out.push_back(static_cast<char>(kind));
  out.push_back('\0');  // flags
  out.push_back('\0');  // reserved
  out.push_back('\0');
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, compress::Crc32::of(payload));
  out.append(payload);
  return out;
}

util::Result<std::size_t> FrameProtocol::feed(std::string_view bytes) {
  frames.feed(bytes);
  std::size_t completed = 0;
  Frame frame;
  for (;;) {
    auto polled = frames.poll(frame);
    if (!polled.ok()) {
      on_poisoned();
      return polled.error();
    }
    if (!polled.value()) return completed;
    ++completed;
    if (auto handled = on_frame(frame); !handled.ok()) {
      if (handled.error().code() == util::ErrorCode::kCorrupt) on_poisoned();
      return handled.error();
    }
  }
}

util::Result<bool> FrameBuffer::poll(Frame& out) {
  if (corrupt_) return util::corrupt("wire: stream already poisoned");
  const std::size_t available = buffer_.size() - cursor_;
  if (available < kFrameHeaderBytes) return false;
  const char* header = buffer_.data() + cursor_;

  if (std::memcmp(header, kFrameMagic.data(), kFrameMagic.size()) != 0) {
    corrupt_ = true;
    return util::corrupt("wire: bad frame magic");
  }
  const auto kind = static_cast<std::uint8_t>(header[4]);
  if (kind != static_cast<std::uint8_t>(FrameKind::kJson) &&
      kind != static_cast<std::uint8_t>(FrameKind::kBinary)) {
    corrupt_ = true;
    return util::corrupt("wire: unknown frame kind");
  }
  if (header[5] != 0 || header[6] != 0 || header[7] != 0) {
    corrupt_ = true;
    return util::corrupt("wire: nonzero flags/reserved bits");
  }
  const std::uint32_t length = get_u32(header + 8);
  if (length > http::kMaxPayload) {
    corrupt_ = true;
    return util::corrupt("wire: frame payload over limit");
  }
  const std::uint32_t crc = get_u32(header + 12);
  if (available < kFrameHeaderBytes + length) return false;

  const std::string_view payload(buffer_.data() + cursor_ + kFrameHeaderBytes,
                                 length);
  if (compress::Crc32::of(payload) != crc) {
    corrupt_ = true;
    return util::corrupt("wire: frame CRC mismatch");
  }
  out.kind = static_cast<FrameKind>(kind);
  out.payload.assign(payload);
  cursor_ += kFrameHeaderBytes + length;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (cursor_ > 4096 && cursor_ * 2 > buffer_.size()) {
    buffer_.erase(0, cursor_);
    cursor_ = 0;
  }
  return true;
}

// ---- profile codecs ----------------------------------------------------

json::Value layer_profile_to_json(const analyzer::LayerProfile& profile) {
  json::Value doc = json::Value::object();
  doc.set("digest", profile.digest.to_string());
  doc.set("fls", profile.fls);
  doc.set("cls", profile.cls);
  doc.set("files", profile.file_count);
  doc.set("dirs", profile.dir_count);
  doc.set("depth", std::uint64_t{profile.max_depth});
  return doc;
}

util::Result<analyzer::LayerProfile> layer_profile_from_json(
    const json::Value& doc) {
  if (!doc.is_object() || !doc["digest"].is_string())
    return util::corrupt("wire: layer profile is not an object");
  auto digest = digest::Digest::parse(doc["digest"].as_string());
  if (!digest.ok())
    return util::corrupt("wire: layer profile digest: " +
                         digest.error().message());
  analyzer::LayerProfile profile;
  profile.digest = digest.value();
  std::uint64_t depth = 0;
  if (!require_uint(doc, "fls", profile.fls) ||
      !require_uint(doc, "cls", profile.cls) ||
      !require_uint(doc, "files", profile.file_count) ||
      !require_uint(doc, "dirs", profile.dir_count) ||
      !require_uint(doc, "depth", depth) || depth > 0xffffffffull)
    return util::corrupt("wire: layer profile fields missing or invalid");
  profile.max_depth = static_cast<std::uint32_t>(depth);
  return profile;
}

json::Value image_profile_to_json(const analyzer::ImageProfile& profile) {
  json::Value doc = json::Value::object();
  doc.set("repository", profile.repository);
  doc.set("fis", profile.fis);
  doc.set("cis", profile.cis);
  doc.set("files", profile.file_count);
  doc.set("dirs", profile.dir_count);
  doc.set("layers", std::uint64_t{profile.layer_count});
  return doc;
}

util::Result<analyzer::ImageProfile> image_profile_from_json(
    const json::Value& doc) {
  if (!doc.is_object() || !doc["repository"].is_string())
    return util::corrupt("wire: image profile is not an object");
  analyzer::ImageProfile profile;
  profile.repository = doc["repository"].as_string();
  std::uint64_t layers = 0;
  if (!require_uint(doc, "fis", profile.fis) ||
      !require_uint(doc, "cis", profile.cis) ||
      !require_uint(doc, "files", profile.file_count) ||
      !require_uint(doc, "dirs", profile.dir_count) ||
      !require_uint(doc, "layers", layers) || layers > 0xffffffffull)
    return util::corrupt("wire: image profile fields missing or invalid");
  profile.layer_count = static_cast<std::uint32_t>(layers);
  return profile;
}

// ---- job spec ----------------------------------------------------------

json::Value job_spec_to_json(const JobSpec& spec) {
  json::Value doc = json::Value::object();
  doc.set("repositories", spec.repositories);
  doc.set("seed", spec.seed);
  doc.set("light", spec.light_calibration);
  doc.set("gzip_level", std::int64_t{spec.gzip_level});
  doc.set("threads", std::uint64_t{spec.threads});
  doc.set("shards", std::uint64_t{spec.shards});
  doc.set("spill_threshold_bytes", spec.spill_threshold_bytes);
  return doc;
}

util::Result<JobSpec> job_spec_from_json(const json::Value& doc) {
  if (!doc.is_object()) return util::corrupt("wire: job spec not an object");
  JobSpec spec;
  std::uint64_t threads = 0;
  std::uint64_t shards = 0;
  if (!require_uint(doc, "repositories", spec.repositories) ||
      !require_uint(doc, "seed", spec.seed) ||
      !require_uint(doc, "spill_threshold_bytes",
                    spec.spill_threshold_bytes) ||
      !require_uint(doc, "threads", threads) ||
      !require_uint(doc, "shards", shards) || !doc["light"].is_bool() ||
      !doc["gzip_level"].is_int())
    return util::corrupt("wire: job spec fields missing or invalid");
  // Saturate before narrowing so an oversized value stays out of range for
  // check_job_spec instead of wrapping into it.
  spec.light_calibration = doc["light"].as_bool();
  spec.gzip_level = static_cast<int>(
      std::clamp<std::int64_t>(doc["gzip_level"].as_int(),
                               std::numeric_limits<int>::min(),
                               std::numeric_limits<int>::max()));
  spec.threads = static_cast<std::size_t>(std::min<std::uint64_t>(
      threads, std::numeric_limits<std::size_t>::max()));
  spec.shards = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      shards, std::numeric_limits<std::uint32_t>::max()));
  if (auto valid = check_job_spec(spec); !valid.ok())
    return util::corrupt("wire: " + valid.error().message());
  return spec;
}

// ---- lease result ------------------------------------------------------

json::Value lease_result_to_json(const LeaseResult& result) {
  const NodeContribution& node = result.contribution;
  json::Value doc = json::Value::object();
  doc.set("type", "result");
  doc.set("worker", result.worker);
  doc.set("lease", std::uint64_t{result.lease});
  doc.set("attempt", std::uint64_t{result.attempt});
  doc.set("manifests_pushed", node.manifests_pushed);

  json::Value images = json::Value::array();
  for (const auto& image : node.images)
    images.push_back(image_profile_to_json(image));
  doc.set("images", std::move(images));

  json::Value manifests = json::Value::array();
  for (const auto& manifest : node.manifests) {
    // The canonical manifest codec round-trips through its JSON string
    // form; re-parse so the wire document nests objects, not strings.
    auto parsed = json::parse(registry::manifest_to_json(manifest));
    manifests.push_back(parsed.ok() ? std::move(parsed).value()
                                    : json::Value());
  }
  doc.set("manifests", std::move(manifests));

  json::Value layers = json::Value::array();
  for (const auto& profile : node.layer_profiles)
    layers.push_back(layer_profile_to_json(profile));
  doc.set("layers", std::move(layers));

  json::Value shard = json::Value::object();
  shard.set("shards", std::uint64_t{node.shard_summary.shards});
  shard.set("observations", node.shard_summary.observations);
  shard.set("spills", node.shard_summary.spills);
  shard.set("spilled_bytes", node.shard_summary.spilled_bytes);
  shard.set("peak_resident_bytes", node.shard_summary.peak_resident_bytes);
  doc.set("shard", std::move(shard));

  doc.set("obs", result.obs_export);

  json::Value files = json::Value::array();
  for (const auto& file : result.files) {
    json::Value entry = json::Value::object();
    entry.set("name", file.name);
    entry.set("size", file.size);
    files.push_back(std::move(entry));
  }
  doc.set("files", std::move(files));
  return doc;
}

util::Result<LeaseResult> lease_result_from_json(const json::Value& doc) {
  if (!doc.is_object() || doc["type"].as_string() != "result")
    return util::corrupt("wire: lease result is not a result message");
  LeaseResult result;
  NodeContribution& node = result.contribution;
  std::uint64_t lease = 0;
  std::uint64_t attempt = 0;
  if (!require_uint(doc, "worker", result.worker) ||
      !require_uint(doc, "lease", lease) || lease > 0xffffffffull ||
      !require_uint(doc, "attempt", attempt) || attempt > 0xffffffffull ||
      !require_uint(doc, "manifests_pushed", node.manifests_pushed))
    return util::corrupt("wire: lease result header fields invalid");
  result.lease = static_cast<std::uint32_t>(lease);
  result.attempt = static_cast<std::uint32_t>(attempt);

  if (!doc["images"].is_array() || !doc["manifests"].is_array() ||
      !doc["layers"].is_array() || !doc["files"].is_array() ||
      !doc["shard"].is_object())
    return util::corrupt("wire: lease result sections missing");

  for (const json::Value& entry : doc["images"].items()) {
    auto image = image_profile_from_json(entry);
    if (!image.ok()) return image.error();
    node.images.push_back(std::move(image).value());
  }
  for (const json::Value& entry : doc["manifests"].items()) {
    auto manifest = registry::manifest_from_json(entry.dump());
    if (!manifest.ok())
      return util::corrupt("wire: lease result manifest: " +
                           manifest.error().message());
    node.manifests.push_back(std::move(manifest).value());
  }
  for (const json::Value& entry : doc["layers"].items()) {
    auto profile = layer_profile_from_json(entry);
    if (!profile.ok()) return profile.error();
    node.layer_profiles.push_back(std::move(profile).value());
  }

  const json::Value& shard = doc["shard"];
  std::uint64_t shards = 0;
  if (!require_uint(shard, "shards", shards) || shards > 4096 ||
      !require_uint(shard, "observations", node.shard_summary.observations) ||
      !require_uint(shard, "spills", node.shard_summary.spills) ||
      !require_uint(shard, "spilled_bytes",
                    node.shard_summary.spilled_bytes) ||
      !require_uint(shard, "peak_resident_bytes",
                    node.shard_summary.peak_resident_bytes))
    return util::corrupt("wire: lease result shard accounting invalid");
  node.shard_summary.shards = static_cast<std::uint32_t>(shards);

  result.obs_export = doc["obs"];

  for (const json::Value& entry : doc["files"].items()) {
    if (!entry.is_object() || !entry["name"].is_string())
      return util::corrupt("wire: lease result file entry invalid");
    FileEntry file;
    file.name = entry["name"].as_string();
    if (!require_uint(entry, "size", file.size))
      return util::corrupt("wire: lease result file size invalid");
    // File names are written into the coordinator's lease directory; no
    // separators means no traversal outside it.
    if (file.name.empty() || file.name.find('/') != std::string::npos ||
        file.name.find('\\') != std::string::npos || file.name[0] == '.')
      return util::corrupt("wire: lease result file name unsafe");
    result.files.push_back(std::move(file));
  }
  return result;
}

}  // namespace dockmine::core::wire
