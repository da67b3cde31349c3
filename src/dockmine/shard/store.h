// Per-(writer, shard) content store behind ShardedDedupIndex: one small
// key->ContentEntry index whose entries must leave in strictly ascending
// key order (the DMSHRUN1 run format requires it).
//
// The index is a util::FlatMap64: O(1) upserts into one contiguous slot
// array. collect_sorted() pays an O(n log n) sort every time a run is
// frozen; that sort is the only place the ordering contract is kept, so
// sharded_index.cpp's spill and seal paths contain no sort of their own.
#pragma once

#include <cstdint>
#include <vector>

#include "dockmine/dedup/file_dedup.h"
#include "dockmine/shard/run_format.h"
#include "dockmine/util/flat_map.h"

namespace dockmine::shard {

class ShardStore {
 public:
  /// `expected` is the sizing hint the table allocates for, and
  /// re-allocates for on reset().
  explicit ShardStore(std::size_t expected)
      : expected_(expected == 0 ? 64 : expected), map_(expected_) {}

  /// Fold one observation into the entry for `key` (which must already be
  /// remapped and nonzero). Returns true when the merge saw a size/type
  /// conflict, mirroring dedup::merge_content_entries.
  bool merge(std::uint64_t key, const dedup::ContentEntry& observation) {
    return dedup::merge_content_entries(map_[key], observation);
  }

  bool empty() const noexcept { return map_.empty(); }
  std::size_t size() const noexcept { return map_.size(); }

  /// Resident footprint driving spill accounting. Deterministic for a
  /// given observation history; a fresh store reports its empty table.
  std::uint64_t memory_bytes() const noexcept { return map_.memory_bytes(); }

  /// Append every entry to `out` in strictly ascending key order without
  /// mutating the store.
  void collect_sorted(std::vector<RunEntry>& out) const;

  /// Return the store to its freshly-constructed state, re-allocated at the
  /// sizing hint: clear() would keep the grown table and immediately
  /// re-trip the spill threshold.
  void reset() { map_ = util::FlatMap64<dedup::ContentEntry>(expected_); }

 private:
  std::size_t expected_;
  util::FlatMap64<dedup::ContentEntry> map_;
};

}  // namespace dockmine::shard
