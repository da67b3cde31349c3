#include "dockmine/compress/deflate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

namespace dockmine::compress {

namespace {

using Node = Deflater::Node;

constexpr std::uint32_t kWSize = Deflater::kWSize;
constexpr std::uint32_t kWMask = kWSize - 1;
constexpr std::uint32_t kWindowSize = 2 * kWSize;
constexpr std::uint32_t kHashMask = Deflater::kHashSize - 1;
constexpr std::uint32_t kMinMatch = 3;
constexpr std::uint32_t kMaxMatch = 258;
/// The lookahead a position needs: the longest match, and the bytes that
/// hash the string after it.
constexpr std::uint32_t kMinLookahead = kMaxMatch + kMinMatch + 1;
constexpr std::uint32_t kMaxDist = kWSize - kMinLookahead;
/// A 3-byte match farther back than this costs more than its literals.
constexpr std::uint32_t kTooFar = 4096;
/// fill_window zeroes this far past the data it has, since a match compare
/// reads up to kMaxMatch bytes past the current position.
constexpr std::uint32_t kWinInit = kMaxMatch;
/// A block ends when it holds this many symbols.
constexpr std::uint32_t kSymEnd = Deflater::kLitBufSize - 1;
/// Window bytes past 2 * kWSize: a stale chain entry may be any 16-bit
/// index, and the prefix check loads four bytes there.
constexpr std::uint32_t kWindowSlack = 8;

constexpr int kLiterals = 256;
constexpr int kEndBlock = 256;
constexpr int kLengthCodes = 29;
constexpr int kLCodes = kLiterals + 1 + kLengthCodes;
constexpr int kDCodes = 30;
constexpr int kBlCodes = 19;
constexpr int kHeapSize = 2 * kLCodes + 1;
constexpr int kMaxBits = 15;
constexpr int kMaxBlBits = 7;
constexpr int kRep3To6 = 16;       ///< repeat the previous length 3-6 times
constexpr int kRepz3To10 = 17;     ///< repeat a zero length 3-10 times
constexpr int kRepz11To138 = 18;   ///< repeat a zero length 11-138 times
constexpr unsigned kStoredBlock = 0;
constexpr unsigned kStaticTrees = 1;
constexpr unsigned kDynTrees = 2;

/// zlib's configuration_table, levels 1..9 (0, stored only, is unused).
struct Config {
  std::uint16_t good_length;  ///< quarter the chain above this match length
  std::uint16_t max_lazy;     ///< no lazy search above this match length
  std::uint16_t nice_length;  ///< stop searching at this match length
  std::uint16_t max_chain;
};
constexpr Config kConfig[10] = {
    {0, 0, 0, 0},          {4, 4, 8, 4},        {4, 5, 16, 8},
    {4, 6, 32, 32},        {4, 4, 16, 16},      {8, 16, 32, 32},
    {8, 16, 128, 128},     {8, 32, 128, 256},   {32, 128, 258, 1024},
    {32, 258, 258, 4096}};

constexpr int kExtraLbits[kLengthCodes] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                           1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                           4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr int kExtraDbits[kDCodes] = {0, 0, 0, 0, 1, 1, 2,  2,  3,  3,
                                      4, 4, 5, 5, 6, 6, 7,  7,  8,  8,
                                      9, 9, 10, 10, 11, 11, 12, 12, 13, 13};
constexpr int kExtraBlbits[kBlCodes] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 2, 3, 7};
/// The order a dynamic block lists its bit-length code lengths in.
constexpr std::uint8_t kBlOrder[kBlCodes] = {16, 17, 18, 0, 8,  7, 9,
                                             6,  10, 5,  11, 4, 12, 3,
                                             13, 2,  14, 1,  15};

/// trees.c's static tables: match length - 3 to length code, distance - 1
/// to distance code (distances past 256 by their upper bits), each code's
/// first value.
struct CodeTables {
  std::uint8_t length_code[256];
  std::uint8_t dist_code[512];
  int base_length[kLengthCodes];
  int base_dist[kDCodes];
};

constexpr CodeTables kCodes = [] {
  CodeTables t{};
  int length = 0;
  int code = 0;
  for (; code < kLengthCodes - 1; ++code) {
    t.base_length[code] = length;
    for (int n = 0; n < (1 << kExtraLbits[code]); ++n) {
      t.length_code[length++] = static_cast<std::uint8_t>(code);
    }
  }
  // Length 258 has two codes; zlib sends the shorter one, code 285.
  t.length_code[length - 1] = static_cast<std::uint8_t>(code);
  int dist = 0;
  for (code = 0; code < 16; ++code) {
    t.base_dist[code] = dist;
    for (int n = 0; n < (1 << kExtraDbits[code]); ++n) {
      t.dist_code[dist++] = static_cast<std::uint8_t>(code);
    }
  }
  dist >>= 7;
  for (; code < kDCodes; ++code) {
    t.base_dist[code] = dist << 7;
    for (int n = 0; n < (1 << (kExtraDbits[code] - 7)); ++n) {
      t.dist_code[256 + dist++] = static_cast<std::uint8_t>(code);
    }
  }
  return t;
}();

constexpr unsigned d_code(unsigned dist) {
  return dist < 256 ? kCodes.dist_code[dist]
                    : kCodes.dist_code[256 + (dist >> 7)];
}

/// The low `len` bits of `code`, reversed: codes are sent most significant
/// bit first into a stream read least significant bit first.
constexpr unsigned bi_reverse(unsigned code, int len) {
  unsigned res = 0;
  do {
    res |= code & 1;
    code >>= 1;
    res <<= 1;
  } while (--len > 0);
  return res >> 1;
}

/// Assign canonical codes to tree[0, max_code] from their lengths, as
/// zlib's gen_codes does; `bl_count[b]` counts the codes of length b.
constexpr void gen_codes(Node* tree, int max_code,
                         const std::uint16_t* bl_count) {
  std::uint16_t next_code[kMaxBits + 1] = {};
  unsigned code = 0;
  for (int bits = 1; bits <= kMaxBits; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = static_cast<std::uint16_t>(code);
  }
  for (int n = 0; n <= max_code; ++n) {
    const int len = tree[n].dl;
    if (len == 0) continue;
    tree[n].fc = static_cast<std::uint16_t>(bi_reverse(next_code[len]++, len));
  }
}

/// The fixed literal/length code (RFC 1951 3.2.6), all 288 symbols.
constexpr std::array<Node, kLCodes + 2> kStaticLtree = [] {
  std::array<Node, kLCodes + 2> tree{};
  std::uint16_t bl_count[kMaxBits + 1] = {};
  for (int n = 0; n < kLCodes + 2; ++n) {
    const int len = n < 144 ? 8 : n < 256 ? 9 : n < 280 ? 7 : 8;
    tree[n].dl = static_cast<std::uint16_t>(len);
    ++bl_count[len];
  }
  gen_codes(tree.data(), kLCodes + 1, bl_count);
  return tree;
}();

/// The fixed distance code: five bits each.
constexpr std::array<Node, kDCodes> kStaticDtree = [] {
  std::array<Node, kDCodes> tree{};
  for (int n = 0; n < kDCodes; ++n) {
    tree[n].dl = 5;
    tree[n].fc = static_cast<std::uint16_t>(bi_reverse(n, 5));
  }
  return tree;
}();

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline std::uint16_t load16(const std::uint8_t* p) noexcept {
  std::uint16_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof v);
}

/// zlib's hash of the three bytes at `p` (hash_shift 5 over 15 bits).
inline std::uint32_t hash3(const std::uint8_t* p) noexcept {
  return ((std::uint32_t{p[0]} << 10) ^ (std::uint32_t{p[1]} << 5) ^ p[2]) &
         kHashMask;
}

/// The length of the match at `match` for the string at `scan`, as zlib's
/// longest_match measures it: bytes 0-2 are known equal (a chain holds only
/// strings of the same hash), so the compare starts at byte 3 and stops at
/// kMaxMatch; it reads no further than byte kMaxMatch, as zlib does.
inline std::uint32_t match_length(const std::uint8_t* scan,
                                  const std::uint8_t* match) noexcept {
  for (std::uint32_t i = kMinMatch; i < kMaxMatch; i += 8) {
    const std::uint64_t diff = load_le64(scan + i) ^ load_le64(match + i);
    if (diff != 0) {
      return std::min(i + (static_cast<std::uint32_t>(std::countr_zero(diff)) >> 3),
                      kMaxMatch);
    }
  }
  return kMaxMatch;
}

/// Whether none of the first four chain entries from `cur_match` shares the
/// first three bytes of the string at `strstart`, tested without branches.
/// Entries past the chain's end are tested too (any 16-bit index reads
/// inside the window and its slack); a match among them only sends the
/// caller to the real walk.
inline bool no_prefix_match(const std::uint8_t* window,
                            const std::uint16_t* prev, std::uint32_t strstart,
                            std::uint32_t cur_match) noexcept {
  const std::uint32_t want = load_le32(window + strstart) << 8;
  const std::uint32_t c1 = prev[cur_match & kWMask];
  const std::uint32_t c2 = prev[c1 & kWMask];
  const std::uint32_t c3 = prev[c2 & kWMask];
  const auto differs = [&](std::uint32_t c) {
    return (load_le32(window + c) << 8) != want;
  };
  return differs(cur_match) & differs(c1) & differs(c2) & differs(c3);
}

}  // namespace

/// A tree's fixed parameters: its static code (none for the bit-length
/// tree), extra bits from `extra_base` on, symbol count and length limit.
struct Deflater::StaticTree {
  const Node* static_tree;
  const int* extra_bits;
  int extra_base;
  int elems;
  int max_length;
};

namespace {

constexpr Deflater::StaticTree kStaticLDesc = {
    kStaticLtree.data(), kExtraLbits, kLiterals + 1, kLCodes, kMaxBits};
constexpr Deflater::StaticTree kStaticDDesc = {
    kStaticDtree.data(), kExtraDbits, 0, kDCodes, kMaxBits};
constexpr Deflater::StaticTree kStaticBlDesc = {nullptr, kExtraBlbits, 0,
                                                kBlCodes, kMaxBlBits};

}  // namespace

Deflater::Deflater(int level)
    : window_(std::make_unique<std::uint8_t[]>(kWindowSize + kWindowSlack)),
      prev_(std::make_unique<std::uint16_t[]>(kWSize)),
      head_(std::make_unique<std::uint16_t[]>(kHashSize)),
      sym_dist_(std::make_unique<std::uint16_t[]>(kSymEnd)),
      sym_lc_(std::make_unique<std::uint8_t[]>(kSymEnd)) {
  assert(level >= 1 && level <= 9);
  const Config& config = kConfig[level];
  lazy_ = level >= 4;
  good_match_ = config.good_length;
  max_lazy_ = config.max_lazy;
  nice_match_ = config.nice_length;
  max_chain_ = config.max_chain;
  l_desc_ = {dyn_ltree_, 0, &kStaticLDesc};
  d_desc_ = {dyn_dtree_, 0, &kStaticDDesc};
  bl_desc_ = {bl_tree_, 0, &kStaticBlDesc};
  std::memset(dyn_ltree_, 0, sizeof dyn_ltree_);
  std::memset(dyn_dtree_, 0, sizeof dyn_dtree_);
  std::memset(bl_tree_, 0, sizeof bl_tree_);
}

Deflater::~Deflater() = default;

void Deflater::begin(std::string& out) {
  out_ = &out;
  out_pos_ = out.size();
  bitbuf_ = 0;
  bitcount_ = 0;
  init_block();
  // lm_init: an empty dictionary. The window keeps its bytes, and
  // high_water_ its mark, as zlib's deflateReset keeps them.
  std::memset(head_.get(), 0, kHashSize * sizeof head_[0]);
  strstart_ = 0;
  block_start_ = 0;
  lookahead_ = 0;
  match_length_ = prev_length_ = kMinMatch - 1;
  match_available_ = false;
  next_in_ = nullptr;
  avail_in_ = 0;
}

void Deflater::write(std::string_view piece) {
  assert(out_ != nullptr);
  if (piece.empty()) return;
  next_in_ = reinterpret_cast<const std::uint8_t*>(piece.data());
  avail_in_ = piece.size();
  if (lazy_) {
    deflate_slow(false);
  } else {
    deflate_fast(false);
  }
}

void Deflater::finish() {
  assert(out_ != nullptr);
  next_in_ = nullptr;
  avail_in_ = 0;
  if (lazy_) {
    deflate_slow(true);
  } else {
    deflate_fast(true);
  }
  out_ = nullptr;
}

// ---------------------------------------------------------------------------
// Matching: deflate_fast and deflate_slow, fill_window, longest_match.
// ---------------------------------------------------------------------------

/// zlib's longest_match for the string at `strstart` with `lookahead` bytes
/// ahead: walk the chain from `cur_match` for a match longer than
/// `prev_length`, setting match_start_; returns its length, never more than
/// the lookahead.
inline std::uint32_t Deflater::longest_match(std::uint32_t cur_match,
                                             std::uint32_t strstart,
                                             std::uint32_t lookahead,
                                             std::uint32_t prev_length) {
  const std::uint8_t* const window = window_.get();
  const std::uint16_t* const prev = prev_.get();
  const std::uint8_t* const scan = window + strstart;
  std::uint32_t chain_length = max_chain_;
  std::uint32_t best_len = prev_length;
  std::uint32_t nice_match = nice_match_;
  const std::uint32_t limit = strstart > kMaxDist ? strstart - kMaxDist : 0;
  if (prev_length >= good_match_) chain_length >>= 2;
  if (nice_match > lookahead) nice_match = lookahead;
  std::uint16_t scan_end = load16(scan + best_len - 1);
  const std::uint16_t scan_start = load16(scan);
  do {
    const std::uint8_t* const match = window + cur_match;
    // Only a match that also agrees at best_len - 1 and best_len can be
    // longer.
    if (load16(match + best_len - 1) != scan_end ||
        load16(match) != scan_start) {
      continue;
    }
    const std::uint32_t len = match_length(scan, match);
    if (len > best_len) {
      match_start_ = cur_match;
      best_len = len;
      if (len >= nice_match) break;
      scan_end = load16(scan + best_len - 1);
    }
  } while ((cur_match = prev[cur_match & kWMask]) > limit &&
           --chain_length != 0);
  return best_len <= lookahead ? best_len : lookahead;
}

/// zlib's deflate_fast (levels 1-3) over the input in next_in_. Without
/// `finish`, returns once the input is spent and the lookahead runs short.
/// The position, lookahead and symbol count live in locals, stored back
/// before each call that reads them (the symbol stores are bytes, which may
/// alias any member).
void Deflater::deflate_fast(bool finish) {
  const std::uint8_t* const window = window_.get();
  std::uint16_t* const prev = prev_.get();
  std::uint16_t* const head = head_.get();
  std::uint16_t* const sym_dist = sym_dist_.get();
  std::uint8_t* const sym_lc = sym_lc_.get();
  // Level 1's chain is at most four long, so when none of its first four
  // entries starts with this string's three bytes no walk can find a match.
  const bool prefix_filter = max_chain_ <= 4;
  const std::uint32_t max_insert_length = max_lazy_;
  std::uint32_t strstart = strstart_;
  std::uint32_t lookahead = lookahead_;
  std::uint32_t match_length = match_length_;
  std::uint32_t sym_next = sym_next_;
  const auto store = [&] {
    strstart_ = strstart;
    lookahead_ = lookahead;
    match_length_ = match_length;
    sym_next_ = sym_next;
  };
  const auto insert = [&](std::uint32_t pos) {
    const std::uint32_t h = hash3(window + pos);
    const std::uint16_t old = head[h];
    prev[pos & kWMask] = old;
    head[h] = static_cast<std::uint16_t>(pos);
    return std::uint32_t{old};
  };
  for (;;) {
    if (lookahead < kMinLookahead) {
      store();
      fill_window();
      strstart = strstart_;
      lookahead = lookahead_;
      if (lookahead < kMinLookahead && !finish) return;
      if (lookahead == 0) break;
    }
    std::uint32_t hash_head = 0;
    if (lookahead >= kMinMatch) hash_head = insert(strstart);
    if (hash_head != 0 && strstart - hash_head <= kMaxDist) {
      if (prefix_filter && no_prefix_match(window, prev, strstart, hash_head)) {
        match_length = kMinMatch - 1;  // what the walk would return
      } else {
        match_length = longest_match(hash_head, strstart, lookahead,
                                     kMinMatch - 1);
      }
    }
    if (match_length >= kMinMatch) {
      const std::uint32_t dist = strstart - match_start_;
      const std::uint32_t lc = match_length - kMinMatch;
      sym_dist[sym_next] = static_cast<std::uint16_t>(dist);
      sym_lc[sym_next] = static_cast<std::uint8_t>(lc);
      ++sym_next;
      ++dyn_ltree_[kCodes.length_code[lc] + kLiterals + 1].fc;
      ++dyn_dtree_[d_code(dist - 1)].fc;
      lookahead -= match_length;
      if (match_length <= max_insert_length && lookahead >= kMinMatch) {
        // The string at strstart is already in the table.
        --match_length;
        do {
          insert(++strstart);
        } while (--match_length != 0);
        ++strstart;
      } else {
        strstart += match_length;
        match_length = 0;
      }
    } else {
      const std::uint8_t c = window[strstart];
      sym_dist[sym_next] = 0;
      sym_lc[sym_next] = c;
      ++sym_next;
      ++dyn_ltree_[c].fc;
      --lookahead;
      ++strstart;
    }
    if (sym_next == kSymEnd) {
      store();
      flush_block(false);
      sym_next = 0;
    }
  }
  store();
  flush_block(true);
}

/// zlib's deflate_slow (levels 4-9): a match is sent only if the next
/// position's is no longer. Returns as deflate_fast does.
void Deflater::deflate_slow(bool finish) {
  const std::uint8_t* const window = window_.get();
  for (;;) {
    if (lookahead_ < kMinLookahead) {
      fill_window();
      if (lookahead_ < kMinLookahead && !finish) return;
      if (lookahead_ == 0) break;
    }
    std::uint32_t hash_head = 0;
    if (lookahead_ >= kMinMatch) hash_head = insert_string(strstart_);
    prev_length_ = match_length_;
    prev_match_ = match_start_;
    match_length_ = kMinMatch - 1;
    if (hash_head != 0 && prev_length_ < max_lazy_ &&
        strstart_ - hash_head <= kMaxDist) {
      match_length_ =
          longest_match(hash_head, strstart_, lookahead_, prev_length_);
      if (match_length_ == kMinMatch && strstart_ - match_start_ > kTooFar) {
        match_length_ = kMinMatch - 1;
      }
    }
    if (prev_length_ >= kMinMatch && match_length_ <= prev_length_) {
      // The previous match is at least as long: send it, and insert the
      // strings it covers (strstart_ - 1 and strstart_ already are),
      // except those too close to the end of the input to hash.
      const std::uint32_t max_insert = strstart_ + lookahead_ - kMinMatch;
      const bool full =
          tally_match(strstart_ - 1 - prev_match_, prev_length_ - kMinMatch);
      lookahead_ -= prev_length_ - 1;
      prev_length_ -= 2;
      do {
        if (++strstart_ <= max_insert) insert_string(strstart_);
      } while (--prev_length_ != 0);
      match_available_ = false;
      match_length_ = kMinMatch - 1;
      ++strstart_;
      if (full) flush_block(false);
    } else if (match_available_) {
      // No match at the previous position, or a longer one here: the
      // previous byte goes as a literal.
      if (tally_literal(window[strstart_ - 1])) flush_block(false);
      ++strstart_;
      --lookahead_;
    } else {
      // Wait for the next position to decide.
      match_available_ = true;
      ++strstart_;
      --lookahead_;
    }
  }
  if (match_available_) {
    tally_literal(window[strstart_ - 1]);
    match_available_ = false;
  }
  flush_block(true);
}

/// Insert the string at `pos` into its hash chain; returns the chain's
/// previous head (0 for none).
inline std::uint32_t Deflater::insert_string(std::uint32_t pos) {
  const std::uint32_t h = hash3(window_.get() + pos);
  const std::uint16_t head = head_[h];
  prev_[pos & kWMask] = head;
  head_[h] = static_cast<std::uint16_t>(pos);
  return head;
}

/// zlib's fill_window: slide the upper half of the window down once the
/// position nears its end, then read input into the free space until the
/// lookahead is long enough or the input is spent; zero what a match
/// compare may read past the data.
void Deflater::fill_window() {
  std::uint8_t* const window = window_.get();
  do {
    std::uint32_t more = kWindowSize - lookahead_ - strstart_;
    if (strstart_ >= kWSize + kMaxDist) {
      std::memcpy(window, window + kWSize, kWSize - more);
      match_start_ -= kWSize;
      strstart_ -= kWSize;
      block_start_ -= kWSize;
      slide_hash();
      more += kWSize;
    }
    if (avail_in_ == 0) break;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::size_t>(avail_in_, more));
    std::memcpy(window + strstart_ + lookahead_, next_in_, n);
    next_in_ += n;
    avail_in_ -= n;
    lookahead_ += n;
  } while (lookahead_ < kMinLookahead && avail_in_ != 0);

  if (high_water_ < kWindowSize) {
    const std::uint32_t curr = strstart_ + lookahead_;
    if (high_water_ < curr) {
      const std::uint32_t init = std::min(kWindowSize - curr, kWinInit);
      std::memset(window + curr, 0, init);
      high_water_ = curr + init;
    } else if (high_water_ < curr + kWinInit) {
      const std::uint32_t init = std::min(curr + kWinInit - high_water_,
                                          kWindowSize - high_water_);
      std::memset(window + high_water_, 0, init);
      high_water_ += init;
    }
  }
}

/// Positions drop by kWSize with the window; those that slid out become 0.
void Deflater::slide_hash() {
  const auto slide = [](std::uint16_t* p, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      p[i] = static_cast<std::uint16_t>(p[i] >= kWSize ? p[i] - kWSize : 0);
    }
  };
  slide(head_.get(), kHashSize);
  slide(prev_.get(), kWSize);
}

// ---------------------------------------------------------------------------
// Blocks: trees.c's tally, Huffman trees and block choice.
// ---------------------------------------------------------------------------

inline bool Deflater::tally_literal(std::uint8_t c) {
  sym_dist_[sym_next_] = 0;
  sym_lc_[sym_next_] = c;
  ++dyn_ltree_[c].fc;
  return ++sym_next_ == kSymEnd;
}

/// Tally a match `distance` back of length `length_code` + 3.
inline bool Deflater::tally_match(std::uint32_t distance,
                                  std::uint32_t length_code) {
  sym_dist_[sym_next_] = static_cast<std::uint16_t>(distance);
  sym_lc_[sym_next_] = static_cast<std::uint8_t>(length_code);
  ++dyn_ltree_[kCodes.length_code[length_code] + kLiterals + 1].fc;
  ++dyn_dtree_[d_code((distance - 1) & 0xffff)].fc;
  return ++sym_next_ == kSymEnd;
}

void Deflater::init_block() {
  for (int n = 0; n < kLCodes; ++n) dyn_ltree_[n].fc = 0;
  for (int n = 0; n < kDCodes; ++n) dyn_dtree_[n].fc = 0;
  for (int n = 0; n < kBlCodes; ++n) bl_tree_[n].fc = 0;
  dyn_ltree_[kEndBlock].fc = 1;
  opt_len_ = static_len_ = 0;
  sym_next_ = 0;
}

/// zlib's FLUSH_BLOCK: end the block at strstart_, storing it verbatim only
/// while its bytes are still in the window.
void Deflater::flush_block(bool last) {
  const std::uint8_t* const stored =
      block_start_ >= 0 ? window_.get() + block_start_ : nullptr;
  const auto stored_len =
      static_cast<std::uint32_t>(std::int64_t{strstart_} - block_start_);
  block_start_ = strstart_;

  // _tr_flush_block: build both trees and the bit-length tree, then send
  // the block in the fewest bytes, fixed codes winning a tie with dynamic
  // ones.
  build_tree(l_desc_);
  build_tree(d_desc_);
  const int max_blindex = build_bl_tree();
  std::uint64_t opt_lenb = (opt_len_ + 3 + 7) >> 3;
  const std::uint64_t static_lenb = (static_len_ + 3 + 7) >> 3;
  if (static_lenb <= opt_lenb) opt_lenb = static_lenb;

  if (std::uint64_t{stored_len} + 4 <= opt_lenb && stored != nullptr) {
    reserve_out((bitcount_ + 3 + 7) / 8 + 4 + stored_len);
    stored_block(stored, stored_len, last);
  } else if (static_lenb == opt_lenb) {
    reserve_out((bitcount_ + 3 + static_len_ + 7) / 8);
    send_bits((kStaticTrees << 1) + last, 3);
    compress_block(kStaticLtree.data(), kStaticDtree.data());
  } else {
    reserve_out((bitcount_ + 3 + opt_len_ + 7) / 8);
    send_bits((kDynTrees << 1) + last, 3);
    send_all_trees(l_desc_.max_code + 1, d_desc_.max_code + 1,
                   max_blindex + 1);
    compress_block(dyn_ltree_, dyn_dtree_);
  }
  init_block();
  if (last) windup();
  assert(out_pos_ <= out_->size());
  out_->resize(out_pos_);
}

/// Restore the heap property from heap_[k] down: the smaller frequency, and
/// then the smaller depth, is nearer the top.
void Deflater::pqdownheap(const Node* tree, int k) {
  const auto smaller = [&](int n, int m) {
    return tree[n].fc < tree[m].fc ||
           (tree[n].fc == tree[m].fc && depth_[n] <= depth_[m]);
  };
  const int v = heap_[k];
  int j = k << 1;
  while (j <= heap_len_) {
    if (j < heap_len_ && smaller(heap_[j + 1], heap_[j])) ++j;
    if (smaller(v, heap_[j])) break;
    heap_[k] = heap_[j];
    k = j;
    j <<= 1;
  }
  heap_[k] = v;
}

/// zlib's build_tree: the Huffman tree of desc's frequencies, its lengths
/// limited, then its codes. Adds the block's bits with this tree to
/// opt_len_, and with the static tree to static_len_.
void Deflater::build_tree(TreeDesc& desc) {
  Node* const tree = desc.dyn_tree;
  const Node* const stree = desc.stat->static_tree;
  const int elems = desc.stat->elems;
  int max_code = -1;
  heap_len_ = 0;
  heap_max_ = kHeapSize;
  for (int n = 0; n < elems; ++n) {
    if (tree[n].fc != 0) {
      heap_[++heap_len_] = max_code = n;
      depth_[n] = 0;
    } else {
      tree[n].dl = 0;
    }
  }
  // At least two codes, so that at least one bit is sent for each.
  while (heap_len_ < 2) {
    const int node = heap_[++heap_len_] = max_code < 2 ? ++max_code : 0;
    tree[node].fc = 1;
    depth_[node] = 0;
    --opt_len_;
    if (stree != nullptr) static_len_ -= stree[node].dl;
  }
  desc.max_code = max_code;

  for (int n = heap_len_ / 2; n >= 1; --n) pqdownheap(tree, n);
  int node = elems;  // the next internal node
  do {
    const int n = heap_[1];  // the least frequent
    heap_[1] = heap_[heap_len_--];
    pqdownheap(tree, 1);
    const int m = heap_[1];  // the next least frequent
    heap_[--heap_max_] = n;
    heap_[--heap_max_] = m;
    tree[node].fc = static_cast<std::uint16_t>(tree[n].fc + tree[m].fc);
    depth_[node] =
        static_cast<std::uint8_t>(std::max(depth_[n], depth_[m]) + 1);
    tree[n].dl = tree[m].dl = static_cast<std::uint16_t>(node);
    heap_[1] = node++;
    pqdownheap(tree, 1);
  } while (heap_len_ >= 2);
  heap_[--heap_max_] = heap_[1];

  gen_bitlen(desc);
  gen_codes(tree, max_code, bl_count_);
}

/// zlib's gen_bitlen: code lengths from the tree, those past the limit
/// moved down as zlib moves them; updates opt_len_ and static_len_.
void Deflater::gen_bitlen(TreeDesc& desc) {
  Node* const tree = desc.dyn_tree;
  const int max_code = desc.max_code;
  const Node* const stree = desc.stat->static_tree;
  const int* const extra = desc.stat->extra_bits;
  const int base = desc.stat->extra_base;
  const int max_length = desc.stat->max_length;
  int overflow = 0;
  std::fill(std::begin(bl_count_), std::end(bl_count_), 0);

  tree[heap_[heap_max_]].dl = 0;  // the root
  int h = heap_max_ + 1;
  for (; h < kHeapSize; ++h) {
    const int n = heap_[h];
    int bits = tree[tree[n].dl].dl + 1;
    if (bits > max_length) {
      bits = max_length;
      ++overflow;
    }
    tree[n].dl = static_cast<std::uint16_t>(bits);
    if (n > max_code) continue;  // not a leaf
    ++bl_count_[bits];
    const int xbits = n >= base ? extra[n - base] : 0;
    const std::uint64_t f = tree[n].fc;
    opt_len_ += f * static_cast<unsigned>(bits + xbits);
    if (stree != nullptr) {
      static_len_ += f * static_cast<unsigned>(stree[n].dl + xbits);
    }
  }
  if (overflow == 0) return;

  // Move overflowing leaves up beside a shorter leaf moved down.
  do {
    int bits = max_length - 1;
    while (bl_count_[bits] == 0) --bits;
    --bl_count_[bits];
    bl_count_[bits + 1] += 2;
    --bl_count_[max_length];
    overflow -= 2;
  } while (overflow > 0);

  // Reassign the lengths in order of increasing frequency.
  for (int bits = max_length; bits != 0; --bits) {
    int n = bl_count_[bits];
    while (n != 0) {
      const int m = heap_[--h];
      if (m > max_code) continue;
      if (tree[m].dl != static_cast<unsigned>(bits)) {
        opt_len_ += (static_cast<std::uint64_t>(bits) - tree[m].dl) *
                    tree[m].fc;
        tree[m].dl = static_cast<std::uint16_t>(bits);
      }
      --n;
    }
  }
}

/// zlib's scan_tree: count the bit-length symbols `tree`'s lengths will be
/// sent as. Sets the guard past max_code that send_tree relies on.
void Deflater::scan_tree(Node* tree, int max_code) {
  int prevlen = -1;
  int nextlen = tree[0].dl;
  int count = 0;
  int max_count = 7;
  int min_count = 4;
  if (nextlen == 0) max_count = 138, min_count = 3;
  tree[max_code + 1].dl = 0xffff;  // guard
  for (int n = 0; n <= max_code; ++n) {
    const int curlen = nextlen;
    nextlen = tree[n + 1].dl;
    if (++count < max_count && curlen == nextlen) {
      continue;
    } else if (count < min_count) {
      bl_tree_[curlen].fc = static_cast<std::uint16_t>(bl_tree_[curlen].fc + count);
    } else if (curlen != 0) {
      if (curlen != prevlen) ++bl_tree_[curlen].fc;
      ++bl_tree_[kRep3To6].fc;
    } else if (count <= 10) {
      ++bl_tree_[kRepz3To10].fc;
    } else {
      ++bl_tree_[kRepz11To138].fc;
    }
    count = 0;
    prevlen = curlen;
    if (nextlen == 0) {
      max_count = 138, min_count = 3;
    } else if (curlen == nextlen) {
      max_count = 6, min_count = 3;
    } else {
      max_count = 7, min_count = 4;
    }
  }
}

/// zlib's send_tree: send `tree`'s lengths with the bit-length code.
void Deflater::send_tree(const Node* tree, int max_code) {
  int prevlen = -1;
  int nextlen = tree[0].dl;
  int count = 0;
  int max_count = 7;
  int min_count = 4;
  if (nextlen == 0) max_count = 138, min_count = 3;
  for (int n = 0; n <= max_code; ++n) {
    const int curlen = nextlen;
    nextlen = tree[n + 1].dl;
    if (++count < max_count && curlen == nextlen) {
      continue;
    } else if (count < min_count) {
      do {
        send_code(curlen, bl_tree_);
      } while (--count != 0);
    } else if (curlen != 0) {
      if (curlen != prevlen) {
        send_code(curlen, bl_tree_);
        --count;
      }
      send_code(kRep3To6, bl_tree_);
      send_bits(static_cast<std::uint32_t>(count - 3), 2);
    } else if (count <= 10) {
      send_code(kRepz3To10, bl_tree_);
      send_bits(static_cast<std::uint32_t>(count - 3), 3);
    } else {
      send_code(kRepz11To138, bl_tree_);
      send_bits(static_cast<std::uint32_t>(count - 11), 7);
    }
    count = 0;
    prevlen = curlen;
    if (nextlen == 0) {
      max_count = 138, min_count = 3;
    } else if (curlen == nextlen) {
      max_count = 6, min_count = 3;
    } else {
      max_count = 7, min_count = 4;
    }
  }
}

/// zlib's build_bl_tree: the bit-length tree for both trees' lengths;
/// returns the index in kBlOrder of the last length to send (at least 3).
int Deflater::build_bl_tree() {
  scan_tree(dyn_ltree_, l_desc_.max_code);
  scan_tree(dyn_dtree_, d_desc_.max_code);
  build_tree(bl_desc_);
  int max_blindex = kBlCodes - 1;
  for (; max_blindex >= 3; --max_blindex) {
    if (bl_tree_[kBlOrder[max_blindex]].dl != 0) break;
  }
  opt_len_ += 3 * (static_cast<std::uint64_t>(max_blindex) + 1) + 5 + 5 + 4;
  return max_blindex;
}

void Deflater::send_all_trees(int lcodes, int dcodes, int blcodes) {
  send_bits(static_cast<std::uint32_t>(lcodes - 257), 5);
  send_bits(static_cast<std::uint32_t>(dcodes - 1), 5);
  send_bits(static_cast<std::uint32_t>(blcodes - 4), 4);
  for (int rank = 0; rank < blcodes; ++rank) {
    send_bits(bl_tree_[kBlOrder[rank]].dl, 3);
  }
  send_tree(dyn_ltree_, lcodes - 1);
  send_tree(dyn_dtree_, dcodes - 1);
}

/// Send the block's symbols and its end with the given trees. Each symbol's
/// bits (at most 48) join the at most 7 left in the buffer, which is then
/// written eight bytes at a time where the reserved room allows.
void Deflater::compress_block(const Node* ltree, const Node* dtree) {
  // A match length's code and extra bits as one value, and likewise each
  // distance code with the shift its extra bits take.
  std::uint32_t length_bits[256];
  std::uint8_t length_count[256];
  for (int lc = 0; lc < 256; ++lc) {
    const int code = kCodes.length_code[lc];
    const Node& node = ltree[code + kLiterals + 1];
    if (node.dl == 0 || node.dl > kMaxBits) {
      // A code this block does not use: no length, or scan_tree's guard.
      length_bits[lc] = 0;
      length_count[lc] = 0;
      continue;
    }
    // Length 258's code has no extra bits (nor a base that leaves none).
    const int extra = kExtraLbits[code] != 0 ? lc - kCodes.base_length[code] : 0;
    length_bits[lc] = node.fc | (static_cast<std::uint32_t>(extra) << node.dl);
    length_count[lc] =
        static_cast<std::uint8_t>(node.dl + kExtraLbits[code]);
  }

  std::uint8_t* const base = reinterpret_cast<std::uint8_t*>(out_->data());
  std::uint8_t* p = base + out_pos_;
  std::uint8_t* const end = base + out_->size();
  std::uint64_t bitbuf = bitbuf_;
  unsigned bitcount = bitcount_;
  const auto flush = [&] {
    if (end - p >= 8) {
      store_le64(p, bitbuf);
    } else {
      for (unsigned i = 0; i < bitcount >> 3; ++i) {
        p[i] = static_cast<std::uint8_t>(bitbuf >> (8 * i));
      }
    }
    p += bitcount >> 3;
    bitbuf >>= bitcount & ~7u;
    bitcount &= 7;
  };
  const auto put = [&](std::uint64_t value, unsigned count) {
    bitbuf |= value << bitcount;
    bitcount += count;
  };

  flush();
  const std::uint16_t* const sym_dist = sym_dist_.get();
  const std::uint8_t* const sym_lc = sym_lc_.get();
  for (std::uint32_t i = 0; i < sym_next_; ++i) {
    std::uint32_t dist = sym_dist[i];
    const std::uint32_t lc = sym_lc[i];
    if (dist == 0) {
      put(ltree[lc].fc, ltree[lc].dl);
    } else {
      put(length_bits[lc], length_count[lc]);
      --dist;
      const unsigned code = d_code(dist);
      put(dtree[code].fc, dtree[code].dl);
      put(dist - static_cast<std::uint32_t>(kCodes.base_dist[code]),
          static_cast<unsigned>(kExtraDbits[code]));
    }
    flush();
  }
  put(ltree[kEndBlock].fc, ltree[kEndBlock].dl);
  flush();

  out_pos_ = static_cast<std::size_t>(p - base);
  bitbuf_ = bitbuf;
  bitcount_ = bitcount;
}

/// A stored block: its header, aligned to a byte, LEN and NLEN, the bytes.
void Deflater::stored_block(const std::uint8_t* buf, std::uint32_t stored_len,
                            bool last) {
  send_bits((kStoredBlock << 1) + last, 3);
  windup();
  auto* const p = reinterpret_cast<std::uint8_t*>(out_->data()) + out_pos_;
  p[0] = static_cast<std::uint8_t>(stored_len);
  p[1] = static_cast<std::uint8_t>(stored_len >> 8);
  p[2] = static_cast<std::uint8_t>(~stored_len);
  p[3] = static_cast<std::uint8_t>(~stored_len >> 8);
  if (stored_len != 0) std::memcpy(p + 4, buf, stored_len);
  out_pos_ += 4 + stored_len;
}

// ---------------------------------------------------------------------------
// Output bits: least significant first, through a 64-bit buffer.
// ---------------------------------------------------------------------------

/// Make room in *out_ for `bytes` more past out_pos_, and for the 8-byte
/// stores that write them where its capacity already allows; never grows
/// the string past its capacity only for those stores.
void Deflater::reserve_out(std::uint64_t bytes) {
  const std::size_t need = out_pos_ + static_cast<std::size_t>(bytes);
  std::size_t size = need + 8;
  if (size > out_->capacity() && need <= out_->capacity()) {
    size = out_->capacity();
  }
  out_->resize(size);
}

void Deflater::send_bits(std::uint32_t value, unsigned count) {
  if (bitcount_ + count > 56) flush_bits();
  bitbuf_ |= std::uint64_t{value} << bitcount_;
  bitcount_ += count;
}

/// Write the buffer's whole bytes.
void Deflater::flush_bits() noexcept {
  auto* const p = reinterpret_cast<std::uint8_t*>(out_->data()) + out_pos_;
  const unsigned bytes = bitcount_ >> 3;
  for (unsigned i = 0; i < bytes; ++i) {
    p[i] = static_cast<std::uint8_t>(bitbuf_ >> (8 * i));
  }
  out_pos_ += bytes;
  bitbuf_ >>= bitcount_ & ~7u;
  bitcount_ &= 7;
}

/// Write every buffered bit, the last byte padded with zeros (bi_windup).
void Deflater::windup() noexcept {
  bitcount_ = (bitcount_ + 7) & ~7u;
  flush_bits();
  bitbuf_ = 0;
  bitcount_ = 0;
}

}  // namespace dockmine::compress
