#include "dockmine/compress/inflate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

namespace dockmine::compress {

namespace {

// A decode-table entry, 32 bits:
//   bits 0-7    the bits the entry consumes: its code length plus the extra
//               bits of a length or distance (for a subtable pointer, the
//               subtable's index bits)
//   bits 8-11   its code length (for a subtable pointer, the root bits)
//   bit 12      a literal              bit 14  a subtable pointer
//   bit 13      the end of the block   bit 15  a symbol no stream may use
//   bits 16-31  the literal byte, length or distance base, code-length
//               symbol, or the subtable's first index
// An entry found through a subtable carries the whole code's length, so a
// symbol is consumed in one shift wherever it was found.
constexpr std::uint32_t kLiteral = 1u << 12;
constexpr std::uint32_t kEndOfBlock = 1u << 13;
constexpr std::uint32_t kSubtable = 1u << 14;
constexpr std::uint32_t kInvalid = 1u << 15;

constexpr unsigned entry_bits(std::uint32_t e) noexcept { return e & 0xff; }
constexpr unsigned code_bits(std::uint32_t e) noexcept {
  return (e >> 8) & 0xf;
}
constexpr std::uint32_t entry_value(std::uint32_t e) noexcept {
  return e >> 16;
}

/// The value of the extra bits that follow the entry's code in `bitbuf`.
constexpr std::uint32_t extra_value(std::uint32_t e,
                                    std::uint64_t bitbuf) noexcept {
  return static_cast<std::uint32_t>(
             bitbuf & ((std::uint64_t{1} << entry_bits(e)) - 1)) >>
         code_bits(e);
}

/// An entry of `bits` code bits for a symbol whose template is `symbol`.
constexpr std::uint32_t with_code(std::uint32_t symbol,
                                  unsigned bits) noexcept {
  return symbol + (bits << 8) + bits;
}

constexpr unsigned kMaxCodeBits = 15;
constexpr unsigned kLitlenRoot = 11;
constexpr unsigned kDistRoot = 8;
constexpr unsigned kPrecodeRoot = 7;
constexpr unsigned kLitlenSymbols = 288;
constexpr unsigned kDistSymbols = 32;
constexpr unsigned kPrecodeSymbols = 19;
constexpr std::uint32_t kMaxMatch = 258;
/// The most bytes one input byte can decode to: a 258-byte match per two
/// bits (a one-bit length code and a one-bit distance code).
constexpr std::uint64_t kMaxExpansion = 1032;

/// The fast loop runs while each turn can load two input words (one per
/// refill, each refill taking at most 7 bytes) and write two literals and
/// the longest match plus the 15 bytes a match copy may overrun.
constexpr std::ptrdiff_t kFastInput = 16;
constexpr std::ptrdiff_t kFastRoom = 2 + kMaxMatch + 15;

/// The one-bit pattern left over by an incomplete code (zlib accepts only a
/// single one-bit code): decoding it is a fault.
constexpr std::uint32_t kUnusedCode = with_code(kInvalid, 1);

constexpr std::array<std::uint32_t, kLitlenSymbols> kLitlenTemplates = [] {
  constexpr std::uint16_t kBase[29] = {3,  4,  5,  6,   7,   8,   9,   10,
                                       11, 13, 15, 17,  19,  23,  27,  31,
                                       35, 43, 51, 59,  67,  83,  99,  115,
                                       131, 163, 195, 227, 258};
  constexpr std::uint8_t kExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                       1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                       4, 4, 4, 4, 5, 5, 5, 5, 0};
  std::array<std::uint32_t, kLitlenSymbols> t{};
  for (std::uint32_t s = 0; s < 256; ++s) t[s] = (s << 16) | kLiteral;
  t[256] = kEndOfBlock;
  for (unsigned i = 0; i < 29; ++i) {
    t[257 + i] = (std::uint32_t{kBase[i]} << 16) | kExtra[i];
  }
  t[286] = t[287] = kInvalid;  // in the fixed code only
  return t;
}();

constexpr std::array<std::uint32_t, kDistSymbols> kDistTemplates = [] {
  constexpr std::uint16_t kBase[30] = {
      1,    2,    3,    4,    5,    7,     9,     13,    17,  25,
      33,   49,   65,   97,   129,  193,   257,   385,   513, 769,
      1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
  std::array<std::uint32_t, kDistSymbols> t{};
  for (unsigned i = 0; i < 30; ++i) {
    t[i] = (std::uint32_t{kBase[i]} << 16) | (i < 4 ? 0 : i / 2 - 1);
  }
  t[30] = t[31] = kInvalid;  // in the fixed code only
  return t;
}();

constexpr std::array<std::uint32_t, kPrecodeSymbols> kPrecodeTemplates = [] {
  std::array<std::uint32_t, kPrecodeSymbols> t{};
  for (std::uint32_t s = 0; s < kPrecodeSymbols; ++s) t[s] = s << 16;
  return t;
}();

/// The order in which a dynamic block lists its code-length code lengths.
constexpr std::uint8_t kPrecodeOrder[kPrecodeSymbols] = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

constexpr std::array<std::uint8_t, 256> kReversedByte = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned i = 0; i < 256; ++i) {
    unsigned r = 0;
    for (unsigned b = 0; b < 8; ++b) r |= ((i >> b) & 1u) << (7 - b);
    t[i] = static_cast<std::uint8_t>(r);
  }
  return t;
}();

/// The low `bits` bits of `code` in reverse order: codes are stored most
/// significant bit first, and the stream is read least significant first.
std::uint32_t reverse_bits(std::uint32_t code, unsigned bits) noexcept {
  const std::uint32_t r = (std::uint32_t{kReversedByte[code & 0xff]} << 8) |
                          kReversedByte[(code >> 8) & 0xff];
  return r >> (16 - bits);
}

/// Fill `table` (a `root`-bit table, then its subtables, in at most
/// `capacity` entries) to decode the canonical Huffman code whose lengths
/// are lens[0, count), symbol s decoding to templates[s]. Returns false for
/// the sets zlib refuses: over-subscribed ones, and incomplete ones unless
/// `lone_code_ok` and the set is a single one-bit code. A set with no codes
/// at all decodes every pattern to `empty` (zlib: one bit each).
bool build_table(std::uint32_t* table, std::size_t capacity, unsigned root,
                 const std::uint8_t* lens, unsigned count,
                 const std::uint32_t* templates, bool lone_code_ok,
                 std::uint32_t empty) noexcept {
  unsigned len_count[kMaxCodeBits + 1] = {};
  for (unsigned s = 0; s < count; ++s) ++len_count[lens[s]];
  unsigned max_len = kMaxCodeBits;
  while (max_len > 0 && len_count[max_len] == 0) --max_len;
  const std::size_t root_size = std::size_t{1} << root;
  if (max_len == 0) {
    std::fill_n(table, root_size, empty);
    return true;
  }
  int left = 1;  // unused codes of the current length
  for (unsigned len = 1; len <= kMaxCodeBits; ++len) {
    left = 2 * left - static_cast<int>(len_count[len]);
    if (left < 0) return false;  // over-subscribed
  }
  if (left > 0) {
    if (!lone_code_ok || max_len != 1) return false;  // incomplete
    std::fill_n(table, root_size, kUnusedCode);
  }

  // Symbols in canonical order: by code length, then by symbol.
  std::uint16_t sorted[kLitlenSymbols];
  std::uint16_t offset[kMaxCodeBits + 1] = {};
  for (unsigned len = 1; len < kMaxCodeBits; ++len) {
    offset[len + 1] = static_cast<std::uint16_t>(offset[len] + len_count[len]);
  }
  for (unsigned s = 0; s < count; ++s) {
    if (lens[s] != 0) sorted[offset[lens[s]]++] = static_cast<std::uint16_t>(s);
  }

  std::uint32_t code = 0;  // the next canonical code of length `len`
  unsigned next = 0;       // its symbol's index in `sorted`
  unsigned len = 1;
  // Codes that fit the root table fill every slot their bits select.
  for (; len <= std::min(root, max_len); ++len, code <<= 1) {
    const std::size_t stride = std::size_t{1} << len;
    for (unsigned k = 0; k < len_count[len]; ++k, ++code) {
      const std::uint32_t e = with_code(templates[sorted[next++]], len);
      for (std::size_t i = reverse_bits(code, len); i < root_size;
           i += stride) {
        table[i] = e;
      }
    }
  }
  // Longer codes go to subtables, one per root prefix, each sized (as zlib
  // sizes them) to the fewest bits that hold every code left under it.
  std::size_t used = root_size;
  std::uint32_t open_prefix = ~std::uint32_t{0};
  std::size_t sub = 0;
  unsigned sub_bits = 0;
  for (; len <= max_len; ++len, code <<= 1) {
    const unsigned rest = len - root;
    for (unsigned k = 0; k < len_count[len]; ++k, ++code) {
      const std::uint32_t prefix = code >> rest;
      if (prefix != open_prefix) {
        sub_bits = rest;
        int room = 1 << rest;
        for (unsigned l = len; l < max_len; ++l) {
          room -= static_cast<int>(l == len ? len_count[len] - k
                                            : len_count[l]);
          if (room <= 0) break;
          ++sub_bits;
          room <<= 1;
        }
        // Within the bound for complete codes; refused rather than
        // overrun should that bound ever be wrong.
        if (used + (std::size_t{1} << sub_bits) > capacity) return false;
        sub = used;
        used += std::size_t{1} << sub_bits;
        open_prefix = prefix;
        table[reverse_bits(prefix, root)] =
            (static_cast<std::uint32_t>(sub) << 16) | kSubtable | (root << 8) |
            sub_bits;
      }
      const std::uint32_t e = with_code(templates[sorted[next++]], len);
      const std::size_t size = std::size_t{1} << sub_bits;
      for (std::size_t i = reverse_bits(code & ((1u << rest) - 1), rest);
           i < size; i += std::size_t{1} << rest) {
        table[sub + i] = e;
      }
    }
  }
  return true;
}

/// The entry for the code at the front of `bitbuf`, through its subtable if
/// it has one. Bits past the end of the input read as zeros.
template <unsigned kRoot>
inline std::uint32_t lookup(const std::uint32_t* table,
                            std::uint64_t bitbuf) noexcept {
  std::uint32_t e = table[bitbuf & ((1u << kRoot) - 1)];
  if (e & kSubtable) [[unlikely]] {
    e = table[entry_value(e) +
              ((bitbuf >> kRoot) & ((1u << entry_bits(e)) - 1))];
  }
  return e;
}

/// The fixed Huffman code's tables (RFC 1951 §3.2.6), built once.
struct FixedTables {
  std::uint32_t litlen[1u << kLitlenRoot];
  std::uint32_t dist[1u << kDistRoot];
};

const FixedTables& fixed_tables() noexcept {
  static const FixedTables tables = [] {
    FixedTables t;
    std::uint8_t lens[kLitlenSymbols + kDistSymbols];
    std::fill(lens, lens + 144, 8);
    std::fill(lens + 144, lens + 256, 9);
    std::fill(lens + 256, lens + 280, 7);
    std::fill(lens + 280, lens + kLitlenSymbols, 8);
    std::fill(lens + kLitlenSymbols, std::end(lens), 5);
    build_table(t.litlen, std::size(t.litlen), kLitlenRoot, lens,
                kLitlenSymbols, kLitlenTemplates.data(), true, kUnusedCode);
    build_table(t.dist, std::size(t.dist), kDistRoot, lens + kLitlenSymbols,
                kDistSymbols, kDistTemplates.data(), true, kUnusedCode);
    return t;
  }();
  return tables;
}

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Copy a match of `length` bytes from `distance` back, 16 or 8 bytes at a
/// time where the distance allows. May write up to 15 bytes past the match.
inline void copy_match(std::uint8_t* out, std::uint32_t distance,
                       std::uint32_t length) noexcept {
  const std::uint8_t* src = out - distance;
  std::uint8_t* const end = out + length;
  if (distance >= 16) {
    do {
      std::memcpy(out, src, 16);
      out += 16;
      src += 16;
    } while (out < end);
  } else if (distance >= 8) {
    do {
      std::memcpy(out, src, 8);
      out += 8;
      src += 8;
    } while (out < end);
  } else if (distance == 1) {
    const std::uint64_t run = 0x0101010101010101ULL * *src;
    do {
      std::memcpy(out, &run, 8);
      std::memcpy(out + 8, &run, 8);
      out += 16;
    } while (out < end);
  } else {
    do {
      *out++ = *src++;
    } while (out < end);
  }
}

util::Error truncated() { return util::corrupt("truncated deflate stream"); }

}  // namespace

void Inflater::start(std::string_view stream, std::uint64_t max_output) {
  in_ = reinterpret_cast<const std::uint8_t*>(stream.data());
  in_end_ = in_ + stream.size();
  max_output_ = max_output;
  // The window never needs more than the stream can decode to, or the one
  // byte past the cap that proves it exceeded.
  std::uint64_t size = kHistoryBytes + kWindowBytes;
  if (stream.size() < size / kMaxExpansion) {
    size = kMaxExpansion * stream.size() + 1;
  }
  if (max_output < size) size = max_output + 1;
  capacity_ = static_cast<std::size_t>(size);
  window_ = std::make_unique_for_overwrite<std::uint8_t[]>(capacity_);
}

void Inflater::refill() noexcept {
  while (bitsleft_ <= 56 && in_ != in_end_) {
    bitbuf_ |= std::uint64_t{*in_++} << bitsleft_;
    bitsleft_ += 8;
  }
}

std::uint32_t Inflater::take(unsigned bits) noexcept {
  const auto value =
      static_cast<std::uint32_t>(bitbuf_ & ((std::uint64_t{1} << bits) - 1));
  drop(bits);
  return value;
}

util::Result<std::string_view> Inflater::next() {
  if (mode_ == Mode::kEnd) return std::string_view();
  std::uint8_t* const window = window_.get();
  if (pos_ > kHistoryBytes) {
    std::memmove(window, window + pos_ - kHistoryBytes, kHistoryBytes);
    pos_ = kHistoryBytes;
  }
  std::uint8_t* const begin = window + pos_;
  std::size_t room = std::min(capacity_ - pos_, kWindowBytes);
  // The window is sized so that the stream ends or passes the cap first.
  if (room == 0) return util::internal("inflate window exhausted");
  // Reaching the byte past the cap is the cap's fault.
  const bool capped = max_output_ - produced_ < room;
  if (capped) room = static_cast<std::size_t>(max_output_ - produced_) + 1;
  std::uint8_t* out = begin;
  std::uint8_t* const out_end = begin + room;

  util::Status status;
  while (status.ok() && out != out_end && mode_ != Mode::kEnd) {
    switch (mode_) {
      case Mode::kBlockHeader:
        status = read_block_header();
        break;
      case Mode::kStored:
        status = copy_stored(out, out_end);
        break;
      case Mode::kHuffman:
        if (match_left_ == 0) status = decode_fast(out, out_end);
        if (status.ok() && mode_ == Mode::kHuffman && out != out_end) {
          status = decode_careful(out, out_end);
        }
        break;
      case Mode::kEnd:
        break;
    }
  }
  pos_ = static_cast<std::size_t>(out - window);
  produced_ += static_cast<std::uint64_t>(out - begin);
  if (!status.ok()) return status.error();
  if (capped && out == out_end) {
    return util::out_of_range("decompressed size exceeds cap");
  }
  return std::string_view(reinterpret_cast<const char*>(begin),
                          static_cast<std::size_t>(out - begin));
}

util::Status Inflater::read_block_header() {
  refill();
  if (bitsleft_ < 3) return truncated();
  final_block_ = take(1) != 0;
  switch (take(2)) {
    case 0: {
      drop(bitsleft_ % 8);  // to the byte boundary
      refill();
      if (bitsleft_ < 32) return truncated();
      const std::uint32_t length = take(16);
      if (length != (~take(16) & 0xffff)) {
        return util::corrupt("invalid stored block lengths");
      }
      // The block's bytes follow: hand back the whole bytes still buffered.
      in_ -= bitsleft_ / 8;
      bitbuf_ = 0;
      bitsleft_ = 0;
      stored_left_ = length;
      mode_ = Mode::kStored;
      return util::Status::success();
    }
    case 1:
      litlen_ = fixed_tables().litlen;
      dist_ = fixed_tables().dist;
      mode_ = Mode::kHuffman;
      return util::Status::success();
    case 2:
      if (auto status = read_dynamic_tables(); !status.ok()) return status;
      litlen_ = litlen_table_;
      dist_ = dist_table_;
      mode_ = Mode::kHuffman;
      return util::Status::success();
    default:
      return util::corrupt("invalid block type");
  }
}

util::Status Inflater::read_dynamic_tables() {
  refill();
  if (bitsleft_ < 14) return truncated();
  const unsigned nlen = 257 + take(5);
  const unsigned ndist = 1 + take(5);
  const unsigned ncode = 4 + take(4);
  if (nlen > 286 || ndist > 30) {
    return util::corrupt("too many length or distance symbols");
  }

  std::uint8_t precode_lens[kPrecodeSymbols] = {};
  for (unsigned i = 0; i < ncode; ++i) {
    refill();
    if (bitsleft_ < 3) return truncated();
    precode_lens[kPrecodeOrder[i]] = static_cast<std::uint8_t>(take(3));
  }
  // The code-length code borrows the literal/length storage. With no codes
  // at all, zlib reads every length as 0, a bit each.
  std::uint32_t* const precode = litlen_table_;
  if (!build_table(precode, std::size_t{1} << kPrecodeRoot, kPrecodeRoot,
                   precode_lens, kPrecodeSymbols, kPrecodeTemplates.data(),
                   /*lone_code_ok=*/false,
                   with_code(kPrecodeTemplates[0], 1))) {
    return util::corrupt("invalid code lengths set");
  }

  std::uint8_t lens[kLitlenSymbols + kDistSymbols] = {};
  const unsigned total = nlen + ndist;
  unsigned have = 0;
  while (have < total) {
    refill();
    const std::uint32_t e = precode[bitbuf_ & ((1u << kPrecodeRoot) - 1)];
    const unsigned bits = code_bits(e);
    if (bits > bitsleft_) return truncated();
    const std::uint32_t symbol = entry_value(e);
    if (symbol < 16) {
      drop(bits);
      lens[have++] = static_cast<std::uint8_t>(symbol);
      continue;
    }
    const unsigned extra = symbol == 16 ? 2 : symbol == 17 ? 3 : 7;
    if (bits + extra > bitsleft_) return truncated();
    drop(bits);
    if (symbol == 16 && have == 0) {
      return util::corrupt("invalid bit length repeat");
    }
    const std::uint8_t value = symbol == 16 ? lens[have - 1] : 0;
    const unsigned repeat = (symbol == 18 ? 11 : 3) + take(extra);
    if (have + repeat > total) {
      return util::corrupt("invalid bit length repeat");
    }
    std::fill_n(lens + have, repeat, value);
    have += repeat;
  }
  if (lens[256] == 0) {
    return util::corrupt("invalid code -- missing end-of-block");
  }
  if (!build_table(litlen_table_, kLitlenEntries, kLitlenRoot, lens, nlen,
                   kLitlenTemplates.data(), true, kUnusedCode)) {
    return util::corrupt("invalid literal/lengths set");
  }
  if (!build_table(dist_table_, kDistEntries, kDistRoot, lens + nlen, ndist,
                   kDistTemplates.data(), true, kUnusedCode)) {
    return util::corrupt("invalid distances set");
  }
  return util::Status::success();
}

util::Status Inflater::copy_stored(std::uint8_t*& out,
                                   std::uint8_t* const out_end) {
  const std::size_t n = std::min({std::size_t{stored_left_},
                                  static_cast<std::size_t>(in_end_ - in_),
                                  static_cast<std::size_t>(out_end - out)});
  std::memcpy(out, in_, n);
  out += n;
  in_ += n;
  stored_left_ -= static_cast<std::uint32_t>(n);
  if (stored_left_ == 0) {
    mode_ = final_block_ ? Mode::kEnd : Mode::kBlockHeader;
    return util::Status::success();
  }
  if (out == out_end) return util::Status::success();
  return truncated();
}

util::Status Inflater::decode_fast(std::uint8_t*& out_ref,
                                   std::uint8_t* const out_end) {
  const std::uint8_t* in = in_;
  const std::uint8_t* const in_end = in_end_;
  std::uint64_t bitbuf = bitbuf_;
  std::uint32_t bitsleft = bitsleft_;
  std::uint8_t* out = out_ref;
  const std::uint8_t* const window = window_.get();
  const std::uint32_t* const litlen = litlen_;
  const std::uint32_t* const dist = dist_;
  // Refill to at least 56 bits from the next input word.
  const auto refill_word = [&] {
    bitbuf |= load_le64(in) << bitsleft;
    in += (63 - bitsleft) >> 3;
    bitsleft |= 56;
  };
  util::Status status;
  while (in_end - in >= kFastInput && out_end - out >= kFastRoom) {
    refill_word();
    std::uint64_t bits = bitbuf;
    std::uint32_t e = lookup<kLitlenRoot>(litlen, bits);
    if (e & kLiteral) {
      // Up to three literals per refill: 56 bits hold three 15-bit codes.
      bitbuf >>= entry_bits(e);
      bitsleft -= entry_bits(e);
      *out++ = static_cast<std::uint8_t>(entry_value(e));
      bits = bitbuf;
      e = lookup<kLitlenRoot>(litlen, bits);
      if (e & kLiteral) {
        bitbuf >>= entry_bits(e);
        bitsleft -= entry_bits(e);
        *out++ = static_cast<std::uint8_t>(entry_value(e));
        bits = bitbuf;
        e = lookup<kLitlenRoot>(litlen, bits);
        if (e & kLiteral) {
          bitbuf >>= entry_bits(e);
          bitsleft -= entry_bits(e);
          *out++ = static_cast<std::uint8_t>(entry_value(e));
          continue;
        }
      }
      // A length needs its distance's bits too: refill under the code
      // already looked up (the bits below bitsleft do not move).
      refill_word();
      bits = bitbuf;
    }
    bitbuf >>= entry_bits(e);
    bitsleft -= entry_bits(e);
    if (e & (kEndOfBlock | kInvalid)) [[unlikely]] {
      if (e & kInvalid) {
        status = util::corrupt("invalid literal/length code");
      } else {
        mode_ = final_block_ ? Mode::kEnd : Mode::kBlockHeader;
      }
      break;
    }
    // At least 56 bits: a length and its distance take at most 48.
    const std::uint32_t length = entry_value(e) + extra_value(e, bits);
    const std::uint32_t d = lookup<kDistRoot>(dist, bitbuf);
    if (d & kInvalid) [[unlikely]] {
      status = util::corrupt("invalid distance code");
      break;
    }
    const std::uint32_t distance = entry_value(d) + extra_value(d, bitbuf);
    bitbuf >>= entry_bits(d);
    bitsleft -= entry_bits(d);
    if (distance > static_cast<std::size_t>(out - window)) [[unlikely]] {
      status = util::corrupt("invalid distance too far back");
      break;
    }
    copy_match(out, distance, length);
    out += length;
  }
  in_ = in;
  bitbuf_ = bitbuf;
  bitsleft_ = bitsleft;
  out_ref = out;
  return status;
}

util::Status Inflater::decode_careful(std::uint8_t*& out,
                                      std::uint8_t* const out_end) {
  const std::uint8_t* const window = window_.get();
  while (out != out_end) {
    if (match_left_ != 0) {
      const std::uint32_t n = static_cast<std::uint32_t>(
          std::min<std::ptrdiff_t>(match_left_, out_end - out));
      for (std::uint32_t i = 0; i < n; ++i, ++out) *out = *(out - match_dist_);
      match_left_ -= n;
      continue;
    }
    // Back to the fast loop once it has input and room again.
    if (in_end_ - in_ >= kFastInput && out_end - out >= kFastRoom) {
      return util::Status::success();
    }
    // Bits past the end of the input read as zeros: a symbol that needs
    // them is a truncation, whatever it would decode to.
    refill();
    const std::uint32_t e = lookup<kLitlenRoot>(litlen_, bitbuf_);
    if (code_bits(e) > bitsleft_) return truncated();
    if (e & kLiteral) {
      drop(code_bits(e));
      *out++ = static_cast<std::uint8_t>(entry_value(e));
      continue;
    }
    if (e & kEndOfBlock) {
      drop(code_bits(e));
      mode_ = final_block_ ? Mode::kEnd : Mode::kBlockHeader;
      return util::Status::success();
    }
    if (e & kInvalid) return util::corrupt("invalid literal/length code");
    if (entry_bits(e) > bitsleft_) return truncated();
    const std::uint32_t length = entry_value(e) + extra_value(e, bitbuf_);
    drop(entry_bits(e));
    refill();
    const std::uint32_t d = lookup<kDistRoot>(dist_, bitbuf_);
    if (code_bits(d) > bitsleft_) return truncated();
    if (d & kInvalid) return util::corrupt("invalid distance code");
    if (entry_bits(d) > bitsleft_) return truncated();
    const std::uint32_t distance = entry_value(d) + extra_value(d, bitbuf_);
    drop(entry_bits(d));
    if (distance > static_cast<std::size_t>(out - window)) {
      return util::corrupt("invalid distance too far back");
    }
    match_left_ = length;
    match_dist_ = distance;
  }
  return util::Status::success();
}

}  // namespace dockmine::compress
