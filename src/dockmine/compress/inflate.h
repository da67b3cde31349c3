// Internal to dm_compress: the streaming RFC 1951 (DEFLATE) decoder under
// `GzipReader`. Not part of the public API; `gzip.h` holds one by value so
// its Huffman tables live in the reader, not on the heap.
//
// The decoder reads a raw DEFLATE stream that is wholly in memory (a blob's
// own bytes) and decodes it into a window it owns: a 32 KiB history (the
// farthest a match may reach back) followed by up to 256 KiB of new bytes,
// which next() returns as a view. Faults follow zlib's inflate, which is the
// differential oracle (fuzz_test): the same streams are accepted with the
// same bytes, and a rejected stream fails with zlib's message at the point
// where zlib, given the whole stream, would report it. A stream that ends
// before a fault or its final block is truncated, even where the missing
// bits would have made it invalid; the output cap (`max_output`) is a
// fault in stream order like any other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "dockmine/util/error.h"

namespace dockmine::compress {

class Inflater {
 public:
  static constexpr std::size_t kHistoryBytes = 32 * 1024;
  static constexpr std::size_t kWindowBytes = 256 * 1024;

  /// Decode-table entries: the exhaustive-search bound on a two-level table
  /// for 288 literal/length symbols under an 11-bit root and for 32
  /// distance symbols under an 8-bit root (codes of up to 15 bits). The
  /// 7-bit code-length table (19 symbols, 7-bit codes, so never more than
  /// 128 entries) shares the literal/length storage: it is only needed
  /// until that table is built.
  static constexpr std::size_t kLitlenEntries = 2342;
  static constexpr std::size_t kDistEntries = 402;

  Inflater() = default;
  Inflater(const Inflater&) = delete;
  Inflater& operator=(const Inflater&) = delete;

  /// Start decoding `stream`, which must outlive the decoder. Producing
  /// more than `max_output` bytes is a kOutOfRange fault. Allocates the
  /// window: history plus 256 KiB, or less when `max_output` or the most a
  /// stream of this size can expand to (1032 bytes per input byte) is
  /// smaller.
  void start(std::string_view stream, std::uint64_t max_output);

  /// Decode up to kWindowBytes more bytes and return them: a view into the
  /// window, valid until the next call. Empty once the final block has
  /// ended (and only then). After an error the decoder must not be called
  /// again.
  util::Result<std::string_view> next();

  bool ended() const noexcept { return mode_ == Mode::kEnd; }

  /// Bytes decoded so far.
  std::uint64_t produced() const noexcept { return produced_; }

 private:
  enum class Mode : std::uint8_t { kBlockHeader, kStored, kHuffman, kEnd };

  util::Status read_block_header();
  util::Status read_dynamic_tables();
  util::Status copy_stored(std::uint8_t*& out, std::uint8_t* out_end);
  util::Status decode_fast(std::uint8_t*& out, std::uint8_t* out_end);
  util::Status decode_careful(std::uint8_t*& out, std::uint8_t* out_end);

  void refill() noexcept;
  std::uint32_t take(unsigned bits) noexcept;
  void drop(unsigned bits) noexcept {
    bitbuf_ >>= bits;
    bitsleft_ -= bits;
  }

  // Input: the unread bytes, and up to 63 bits already taken from them.
  const std::uint8_t* in_ = nullptr;
  const std::uint8_t* in_end_ = nullptr;
  std::uint64_t bitbuf_ = 0;
  std::uint32_t bitsleft_ = 0;

  // Output: window_[0, pos_) holds the bytes decoded so far, of which the
  // first min(pos_, kHistoryBytes) are history once the next call starts.
  std::unique_ptr<std::uint8_t[]> window_;
  std::size_t capacity_ = 0;
  std::size_t pos_ = 0;
  std::uint64_t produced_ = 0;
  std::uint64_t max_output_ = 0;

  Mode mode_ = Mode::kBlockHeader;
  bool final_block_ = false;
  std::uint32_t stored_left_ = 0;
  // A match cut short by the end of the window, finished by the next call.
  std::uint32_t match_left_ = 0;
  std::uint32_t match_dist_ = 0;

  const std::uint32_t* litlen_ = nullptr;  ///< this block's tables
  const std::uint32_t* dist_ = nullptr;
  std::uint32_t litlen_table_[kLitlenEntries];
  std::uint32_t dist_table_[kDistEntries];
};

}  // namespace dockmine::compress
