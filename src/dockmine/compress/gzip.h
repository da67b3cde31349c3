// Gzip (RFC 1952) member framing over zlib's raw DEFLATE.
//
// Docker layers travel as "gzip compressed tar archives" (paper §III-B).
// We produce and parse the gzip container ourselves — 10-byte header,
// optional FEXTRA/FNAME/FCOMMENT/FHCRC fields, CRC-32 + ISIZE trailer —
// and delegate only the DEFLATE bitstream to zlib (windowBits = -15).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "dockmine/compress/crc32.h"
#include "dockmine/util/error.h"

namespace dockmine::compress {

/// zlib compression level 1..9 (6 is the gzip default Docker uses).
inline constexpr int kDefaultLevel = 6;

/// Compress `raw` into one complete gzip member: a GzipWriter fed one
/// piece.
util::Result<std::string> gzip_compress(std::string_view raw,
                                        int level = kDefaultLevel);

/// The most bytes a gzip member of a `raw_size`-byte payload can take, at
/// any level: header, DEFLATE's worst case, trailer.
std::uint64_t gzip_bound(std::uint64_t raw_size);

/// One gzip member deflated incrementally: begin() appends the header to a
/// caller's string, write() deflates the payload in pieces of any size, and
/// finish() flushes DEFLATE and appends CRC-32 and ISIZE. The member's bytes
/// do not depend on how the payload is split. The deflate state is
/// allocated once, by the constructor, and reused for every member (the
/// materializer builds each gzip thread's writer on the calling thread so
/// that thread never allocates it). Errors (an invalid level, a deflate
/// failure) are sticky: every finish() after one reports it.
class GzipWriter {
 public:
  explicit GzipWriter(int level = kDefaultLevel);
  ~GzipWriter();
  GzipWriter(const GzipWriter&) = delete;
  GzipWriter& operator=(const GzipWriter&) = delete;

  /// Start a member appended to `out`, abandoning any member in progress.
  /// `out` must outlive the member. The member only ever appends to `out`,
  /// so a caller that reserved room for it is never reallocated.
  void begin(std::string& out);

  /// Deflate the next piece of the payload, appending what DEFLATE emits.
  void write(std::string_view piece);

  /// End the member: flush DEFLATE, then append CRC-32 and ISIZE.
  util::Status finish();

 private:
  struct Deflate;  // zlib's stream state, kept out of this header

  void deflate_step(int flush);

  int level_;
  std::string* out_ = nullptr;
  std::uint64_t size_ = 0;
  Crc32 crc_;
  util::Status status_;
  std::unique_ptr<Deflate> deflate_;
};

/// Decompress one complete gzip member; verifies CRC-32 and ISIZE.
/// `max_output` caps the decompressed size (decompression-bomb guard).
/// This is a GzipReader run into one growing string.
util::Result<std::string> gzip_decompress(
    std::string_view member, std::uint64_t max_output = 1ULL << 34);

/// One gzip member inflated in pieces into caller-supplied space, so a
/// caller can walk the payload without holding it (the layer analyzer's
/// bounded pass). Faults surface in stream order: the header when the
/// reader is built (reported by the first read), then an inflate error,
/// truncation or the `max_output` cap as the stream reaches it, then CRC-32
/// and ISIZE in the read that reaches the end of the DEFLATE stream. Errors
/// are sticky. The trailer is the member's last 8 bytes; bytes between the
/// end of the DEFLATE stream and the trailer are ignored.
class GzipReader {
 public:
  /// `member` must outlive the reader.
  GzipReader(std::string_view member, std::uint64_t max_output);
  ~GzipReader();
  GzipReader(const GzipReader&) = delete;
  GzipReader& operator=(const GzipReader&) = delete;

  /// Inflate the next bytes of the payload into out[0, size), size > 0,
  /// filling it unless the stream ends first. Returns how many bytes were
  /// written; 0 once the member has ended with its trailer verified.
  util::Result<std::size_t> read(char* out, std::size_t size);

  /// Bytes of `member` consumed so far: the header and the DEFLATE input
  /// inflated up to now. What follows is unread (a caller hashing the
  /// member in the same pass hashes the rest at the end).
  std::size_t consumed() const noexcept;

  /// First allocation for a caller that collects the whole payload. It
  /// follows the body, never more than four times its size (most layers
  /// deflate by less), so a member whose trailer lies costs what its body
  /// does; the trailer's ISIZE and one byte past `max_output` (the byte
  /// that proves the cap exceeded) only lower it. The caller grows the
  /// buffer as bytes actually inflate.
  std::size_t size_hint() const noexcept;

 private:
  struct Inflate;  // zlib's stream state, kept out of this header

  util::Error fail(util::Error error) {
    status_ = error;
    return error;
  }

  std::string_view body_;  ///< the DEFLATE stream (header and trailer cut)
  std::size_t header_size_ = 0;
  std::uint64_t max_output_ = 0;
  std::uint64_t produced_ = 0;
  std::uint32_t want_crc_ = 0;
  std::uint32_t want_isize_ = 0;
  Crc32 crc_;
  bool ended_ = false;
  util::Status status_;
  std::unique_ptr<Inflate> inflate_;
};

/// Header fields of a gzip member without decompressing the body.
struct GzipInfo {
  std::uint8_t compression_method = 8;
  std::uint32_t mtime = 0;
  std::string original_name;  // FNAME field if present
  std::size_t header_size = 0;
};
util::Result<GzipInfo> gzip_probe(std::string_view member);

}  // namespace dockmine::compress
