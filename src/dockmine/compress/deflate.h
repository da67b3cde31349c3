// Internal to dm_compress: the raw DEFLATE (RFC 1951) encoder under
// `GzipWriter`. Not part of the public API.
//
// Every layer digest, report and pinned oracle here rests on the exact bytes
// zlib 1.2.13's raw deflate writes (windowBits -15, memLevel 8, the default
// strategy), so this encoder makes every decision zlib makes there, at
// every level 1..9: the configuration table's good/lazy/nice/chain
// limits, the 15-bit hash of the next three bytes and its chains,
// deflate_fast (levels 1-3) and deflate_slow with TOO_FAR (4-9),
// fill_window's slide and high-water zeroing, blocks of 16,383 symbols, and
// trees.c's Huffman trees, length limits and stored/fixed/dynamic choice.
// The differential test (fuzz_test, DeflateDifferentialTest) holds it to
// the linked zlib byte for byte, with the same input pieces.
//
// Its speed comes only from how those decisions are computed: a branch-free
// check of the first chain entries' 3-byte prefix before a level-1 chain
// walk, match lengths compared eight bytes at a time, and a 64-bit bit
// buffer that writes straight into the caller's string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace dockmine::compress {

class Deflater {
 public:
  static constexpr std::uint32_t kWindowBits = 15;
  static constexpr std::uint32_t kWSize = 1u << kWindowBits;  ///< history
  static constexpr std::uint32_t kHashBits = 15;              ///< memLevel 8
  static constexpr std::uint32_t kHashSize = 1u << kHashBits;
  /// zlib's lit_bufsize (memLevel 8); a block ends after one symbol fewer.
  static constexpr std::uint32_t kLitBufSize = 1u << 14;

  /// Allocates the window, the hash chains and the symbol buffer (240 KiB,
  /// under zlib's 256 KiB for the same parameters); nothing is allocated
  /// afterwards but the output. `level` must be 1..9.
  explicit Deflater(int level);
  ~Deflater();
  Deflater(const Deflater&) = delete;
  Deflater& operator=(const Deflater&) = delete;

  /// Start a stream appended to `out` (zlib's deflateReset), abandoning any
  /// stream in progress. `out` must outlive the stream; it only grows, so a
  /// caller that reserved room for it is never reallocated.
  void begin(std::string& out);

  /// Deflate the next piece of input (zlib's deflate with Z_NO_FLUSH),
  /// appending whatever blocks it completes.
  void write(std::string_view piece);

  /// End the stream (Z_FINISH): the last block, padded to a byte.
  void finish();

  /// A Huffman tree node, laid out as zlib's ct_data: `fc` is the frequency
  /// while the tree is built and then the code (bit-reversed), `dl` the
  /// parent while it is built and then the code length.
  struct Node {
    std::uint16_t fc;
    std::uint16_t dl;
  };
  struct StaticTree;  ///< a tree's fixed parameters (zlib's static_tree_desc)

 private:
  struct TreeDesc {
    Node* dyn_tree;
    int max_code;
    const StaticTree* stat;
  };

  static constexpr int kLCodes = 286;
  static constexpr int kDCodes = 30;
  static constexpr int kBlCodes = 19;
  static constexpr int kHeapSize = 2 * kLCodes + 1;
  static constexpr int kMaxBits = 15;

  void deflate_fast(bool finish);
  void deflate_slow(bool finish);
  void fill_window();
  void slide_hash();
  std::uint32_t insert_string(std::uint32_t pos);
  std::uint32_t longest_match(std::uint32_t cur_match, std::uint32_t strstart,
                              std::uint32_t lookahead,
                              std::uint32_t prev_length);

  bool tally_literal(std::uint8_t c);
  bool tally_match(std::uint32_t distance, std::uint32_t length_code);
  void flush_block(bool last);
  void init_block();
  void build_tree(TreeDesc& desc);
  void gen_bitlen(TreeDesc& desc);
  void pqdownheap(const Node* tree, int k);
  int build_bl_tree();
  void scan_tree(Node* tree, int max_code);
  void send_tree(const Node* tree, int max_code);
  void send_all_trees(int lcodes, int dcodes, int blcodes);
  void compress_block(const Node* ltree, const Node* dtree);
  void stored_block(const std::uint8_t* buf, std::uint32_t stored_len,
                    bool last);

  void reserve_out(std::uint64_t bytes);
  void send_bits(std::uint32_t value, unsigned count);
  void send_code(int symbol, const Node* tree) {
    send_bits(tree[symbol].fc, tree[symbol].dl);
  }
  void flush_bits() noexcept;
  void windup() noexcept;

  // The level's row of zlib's configuration table.
  bool lazy_;
  std::uint32_t good_match_;
  std::uint32_t max_lazy_;  ///< deflate_fast: the longest match it rehashes
  std::uint32_t nice_match_;
  std::uint32_t max_chain_;

  // The sliding window: 2 * kWSize bytes (the last kWSize of history, then
  // up to kWSize of lookahead) plus slack that keeps the word-wide reads of
  // a stale chain entry inside the allocation. Positions are window indices,
  // and 0 (NIL) ends a chain, so window index 0 is never a match.
  std::unique_ptr<std::uint8_t[]> window_;
  std::unique_ptr<std::uint16_t[]> prev_;  ///< chain links, by pos & mask
  std::unique_ptr<std::uint16_t[]> head_;  ///< newest position per hash
  std::uint32_t high_water_ = 0;  ///< window bytes ever written or zeroed
  std::uint32_t strstart_ = 0;
  std::uint32_t lookahead_ = 0;
  std::int64_t block_start_ = 0;  ///< negative once slid out of the window
  std::uint32_t match_length_ = 0;
  std::uint32_t match_start_ = 0;
  std::uint32_t prev_length_ = 0;
  std::uint32_t prev_match_ = 0;
  bool match_available_ = false;

  const std::uint8_t* next_in_ = nullptr;
  std::size_t avail_in_ = 0;

  // The current block's symbols: a distance (0 for a literal) and a literal
  // byte or match length - 3.
  std::unique_ptr<std::uint16_t[]> sym_dist_;
  std::unique_ptr<std::uint8_t[]> sym_lc_;
  std::uint32_t sym_next_ = 0;

  Node dyn_ltree_[kHeapSize];
  Node dyn_dtree_[2 * kDCodes + 1];
  Node bl_tree_[2 * kBlCodes + 1];
  TreeDesc l_desc_;
  TreeDesc d_desc_;
  TreeDesc bl_desc_;
  std::uint16_t bl_count_[kMaxBits + 1];
  int heap_[kHeapSize];
  int heap_len_ = 0;
  int heap_max_ = 0;
  std::uint8_t depth_[kHeapSize];
  std::uint64_t opt_len_ = 0;     ///< bits of the block with dynamic trees
  std::uint64_t static_len_ = 0;  ///< bits of the block with the fixed trees

  // Output: bits not yet written, and where the next byte goes in *out_.
  std::string* out_ = nullptr;
  std::size_t out_pos_ = 0;
  std::uint64_t bitbuf_ = 0;
  unsigned bitcount_ = 0;
};

}  // namespace dockmine::compress
