// Gzip (RFC 1952) member framing over raw DEFLATE.
//
// Docker layers travel as "gzip compressed tar archives" (paper §III-B).
// We produce and parse the gzip container ourselves — 10-byte header,
// optional FEXTRA/FNAME/FCOMMENT/FHCRC fields, CRC-32 + ISIZE trailer.
// Compression delegates the DEFLATE bitstream to zlib (windowBits = -15),
// whose output every blob digest is pinned to; decompression runs the
// in-tree streaming decoder (`Inflater`, compress/inflate.h), which agrees
// with zlib's inflate on every stream.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "dockmine/compress/crc32.h"
#include "dockmine/compress/inflate.h"
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

/// One gzip member decoded a window at a time, so a caller can walk the
/// payload without holding it (the layer analyzer's bounded pass). The
/// reader owns the window: a 32 KiB history plus up to kWindowBytes of new
/// payload, which next() returns as a view. Faults surface in stream order:
/// the header when the reader is built (reported by the first call), then a
/// DEFLATE fault, truncation ("truncated deflate stream") or the
/// `max_output` cap (kOutOfRange) as the stream reaches it, then CRC-32 and
/// ISIZE in the call that reaches the end of the DEFLATE stream. Every fault
/// but the cap is kCorrupt, and errors are sticky. The trailer is the
/// member's last 8 bytes; bytes between the end of the DEFLATE stream and
/// the trailer are ignored.
class GzipReader {
 public:
  static constexpr std::size_t kWindowBytes = Inflater::kWindowBytes;

  /// `member` must outlive the reader.
  GzipReader(std::string_view member, std::uint64_t max_output);
  GzipReader(const GzipReader&) = delete;
  GzipReader& operator=(const GzipReader&) = delete;

  /// The next 1..kWindowBytes bytes of the payload, as a view into the
  /// reader's window that stays valid until the next call; every view but
  /// the last is exactly kWindowBytes long. Empty once the member has ended
  /// with its trailer verified.
  util::Result<std::string_view> next();

  /// First allocation for a caller that collects the whole payload. It
  /// follows the body, never more than four times its size (most layers
  /// deflate by less), so a member whose trailer lies costs what its body
  /// does; the trailer's ISIZE and one byte past `max_output` (the byte
  /// that proves the cap exceeded) only lower it. The caller grows the
  /// buffer as bytes actually decode.
  std::size_t size_hint() const noexcept;

 private:
  util::Error fail(util::Error error) {
    status_ = error;
    return error;
  }

  std::size_t body_size_ = 0;  ///< the DEFLATE stream: header, trailer cut
  std::uint64_t max_output_ = 0;
  std::uint32_t want_crc_ = 0;
  std::uint32_t want_isize_ = 0;
  Crc32 crc_;
  bool ended_ = false;
  util::Status status_;
  Inflater inflater_;
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
