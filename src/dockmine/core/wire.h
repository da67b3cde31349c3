// Coordinator <-> worker wire protocol (DESIGN.md §12).
//
// Everything crosses the socket as length-prefixed, CRC-protected frames:
//
//   header, 16 bytes (integers little-endian)
//     [ 0.. 4)  magic "DMWF"
//     [ 4]      kind: 1 = JSON control message, 2 = binary file chunk
//     [ 5]      flags (must be zero)
//     [ 6.. 8)  reserved (must be zero)
//     [ 8..12)  payload length, u32 (<= http::kMaxPayload)
//     [12..16)  CRC-32 (IEEE) over the payload, u32
//   payload
//
// Validation is strict and total, mirroring the shard run format: a frame
// is delivered only when magic, kind, zero bits, length bound, and CRC all
// check out. Anything else — truncation mid-header, truncation mid-payload
// followed by a stray magic, a single flipped bit — poisons the stream with
// kCorrupt, and the peer's only recourse is to drop the connection. A
// malformed frame can therefore cost a lease (it is reassigned) but can
// never smuggle bytes into a merged report.
//
// JSON control messages carry a "type" discriminator:
//   hello        worker -> coordinator   {worker, pid}
//   lease        coordinator -> worker   {lease, node_index, node_count,
//                                         attempt, spec:{...JobSpec...}}
//   heartbeat    worker -> coordinator   {worker, lease, obs:{...}} — the
//                                        obs member is one heartbeat_line()
//                                        snapshot (counters, journal depth)
//   result       worker -> coordinator   lease outcome header: profiles,
//                                        manifests, accounting, obs export,
//                                        and the names/sizes of the shard
//                                        set files that follow as binary
//                                        frames (in header order)
//   lease-failed worker -> coordinator   {worker, lease, error}
//   shutdown     coordinator -> worker   end of run
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dockmine/analyzer/profile.h"
#include "dockmine/core/lease.h"
#include "dockmine/core/multi_node.h"
#include "dockmine/http/server.h"
#include "dockmine/json/json.h"
#include "dockmine/registry/model.h"
#include "dockmine/util/error.h"

namespace dockmine::core::wire {

inline constexpr std::string_view kFrameMagic = "DMWF";
inline constexpr std::size_t kFrameHeaderBytes = 16;

enum class FrameKind : std::uint8_t { kJson = 1, kBinary = 2 };

struct Frame {
  FrameKind kind = FrameKind::kJson;
  std::string payload;
};

/// Serialize one frame (header + payload).
std::string encode_frame(FrameKind kind, std::string_view payload);

/// Incremental stream reassembler. Feed raw socket bytes in; poll complete
/// frames out. The first malformed byte sequence poisons the buffer: every
/// subsequent poll() returns kCorrupt and the connection must be dropped —
/// there is no resynchronization inside a TCP stream.
class FrameBuffer {
 public:
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// True + `out` filled when a complete valid frame was consumed; false
  /// when more bytes are needed; kCorrupt once the stream is poisoned.
  util::Result<bool> poll(Frame& out);

  bool corrupt() const noexcept { return corrupt_; }
  std::size_t buffered() const noexcept { return buffer_.size(); }
  /// Bytes fed but not yet consumed by a completed frame — nonzero exactly
  /// when a partial frame is outstanding (buffered() also counts the
  /// consumed-but-not-yet-compacted prefix, so it cannot tell idle from
  /// mid-frame; the server's partial deadline needs the distinction).
  std::size_t pending() const noexcept { return buffer_.size() - cursor_; }

 private:
  std::string buffer_;
  std::size_t cursor_ = 0;  ///< consumed prefix, compacted lazily
  bool corrupt_ = false;
};

/// The shared server's protocol for a DMWF stream (serve and coordinator):
/// each complete frame goes to `on_frame`; an error ends the connection. A
/// malformed frame (bad bytes, or kCorrupt from `on_frame`) poisons the
/// stream: `on_poisoned` runs, since a TCP stream cannot resync.
struct FrameProtocol final : http::Protocol {
  std::function<util::Status(Frame&)> on_frame;
  std::function<void()> on_poisoned;
  std::function<void()> on_closed;  ///< optional
  FrameBuffer frames;

  util::Result<std::size_t> feed(std::string_view bytes) override;
  bool partial() const override { return frames.pending() != 0; }
  void closed() override {
    if (on_closed) on_closed();
  }
};

// ---- message payload codecs -------------------------------------------
// All *_from_json parsers are total: they validate types and ranges and
// fail with kCorrupt instead of crashing, because their input crossed a
// process boundary.

json::Value layer_profile_to_json(const analyzer::LayerProfile& profile);
util::Result<analyzer::LayerProfile> layer_profile_from_json(
    const json::Value& doc);

json::Value image_profile_to_json(const analyzer::ImageProfile& profile);
util::Result<analyzer::ImageProfile> image_profile_from_json(
    const json::Value& doc);

json::Value job_spec_to_json(const JobSpec& spec);
util::Result<JobSpec> job_spec_from_json(const json::Value& doc);

/// One shipped shard-set file: name relative to the lease export directory
/// plus its size (the binary frame that carries the content is CRC-checked
/// by the framing layer).
struct FileEntry {
  std::string name;
  std::uint64_t size = 0;
};

/// Everything a completed lease returns besides the raw shard-set bytes.
struct LeaseResult {
  std::uint64_t worker = 0;
  std::uint32_t lease = 0;
  std::uint32_t attempt = 0;
  /// The node's delivered work. shard_set_dir is not sent: the coordinator
  /// points it at the directory the shipped files land in.
  NodeContribution contribution;
  json::Value obs_export;  ///< obs::to_json(collect()) for this lease's run
  std::vector<FileEntry> files;  ///< binary frames follow in this order
};

json::Value lease_result_to_json(const LeaseResult& result);
util::Result<LeaseResult> lease_result_from_json(const json::Value& doc);

}  // namespace dockmine::core::wire
