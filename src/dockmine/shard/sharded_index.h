// Hash-partitioned, disk-spilling dedup index (the out-of-core / multi-node
// counterpart of dedup::FileDedupIndex).
//
// Content keys route to one of N shards by their top log2(N) bits. Each
// producer thread owns a private Writer holding one small ShardStore per
// shard (a FlatMap64, see store.h), so concurrent routing from the
// pipeline's analyze pool is lock-free: a writer never shares a store with
// another thread, and the only cross-thread traffic is relaxed occupancy
// accounting. When a writer's store for some shard grows past the spill
// threshold, the store is frozen to a sorted, checksummed run file
// (run_format.h) and reset — bounding resident memory per (writer, shard)
// regardless of how many distinct contents flow through. Run entries leave
// the store already in ascending key order (the store's contract: its
// collect_sorted() sorts, so the spill and seal paths here do not).
// seal_into() hands every resident store and every spilled run to a
// ShardMerger, whose commutative/associative fold reconstructs the exact
// monolithic aggregates; export_shard_set() instead freezes everything to a
// manifest-described directory another process or node can merge later.
//
// Observability (off by default, like all obs instruments):
//   dockmine_shard_occupancy_bytes{shard="K"}  resident bytes per shard
//   dockmine_shard_resident_bytes / _resident_peak_bytes
//   dockmine_shard_spills_total / _spilled_entries_total / _spilled_bytes_total
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dockmine/dedup/file_dedup.h"
#include "dockmine/digest/digest.h"
#include "dockmine/filetype/taxonomy.h"
#include "dockmine/obs/obs.h"
#include "dockmine/shard/run_format.h"
#include "dockmine/shard/store.h"
#include "dockmine/util/error.h"

namespace dockmine::shard {

class ShardMerger;

struct Config {
  /// Shard count; 0 disables the sharded backend entirely (pipeline default)
  /// and any other value is rounded up to a power of two.
  std::uint32_t shards = 0;

  /// Spill a writer's per-shard map once its table exceeds this many bytes.
  /// Only meaningful with a spill_dir; an index without one keeps
  /// everything resident (still sharded, still mergeable).
  std::uint64_t spill_threshold_bytes = 64ull << 20;

  /// Directory for spill run files; empty disables spilling.
  std::string spill_dir;

  /// Initial sizing hint for each writer-shard store.
  std::size_t expected_contents_per_shard = 64;

  bool enabled() const noexcept { return shards != 0; }
  bool spill_enabled() const noexcept {
    return !spill_dir.empty() && spill_threshold_bytes > 0;
  }
};

struct SpillStats {
  std::uint64_t spills = 0;
  std::uint64_t spilled_entries = 0;
  std::uint64_t spilled_bytes = 0;        ///< run-file bytes written
  std::uint64_t resident_bytes = 0;       ///< current table bytes, all shards
  std::uint64_t peak_resident_bytes = 0;  ///< high-water mark of the above
};

class ShardedDedupIndex {
 public:
  explicit ShardedDedupIndex(Config config);
  ShardedDedupIndex(const ShardedDedupIndex&) = delete;
  ShardedDedupIndex& operator=(const ShardedDedupIndex&) = delete;

  /// A single thread's routing front-end. Obtain via local_writer(); never
  /// share across threads.
  class Writer {
   public:
    /// Observe one file instance (mirrors FileDedupIndex::add).
    void add(std::uint64_t content_key, std::uint64_t size,
             filetype::Type type, std::uint32_t layer_index);

    void add(const digest::Digest& digest, std::uint64_t size,
             filetype::Type type, std::uint32_t layer_index) {
      add(digest.key64(), size, type, layer_index);
    }

   private:
    friend class ShardedDedupIndex;
    explicit Writer(ShardedDedupIndex* owner);

    void track(std::uint32_t shard);
    void spill(std::uint32_t shard, const std::string& dir);

    ShardedDedupIndex* owner_;
    std::vector<ShardStore> stores_;
    std::vector<std::uint64_t> tracked_bytes_;  ///< last memory pushed to owner
    std::uint64_t observations_ = 0;
    std::uint64_t conflicts_ = 0;
  };

  /// The calling thread's writer for THIS index instance, created on first
  /// use. Keyed by a process-unique generation id, so a stale thread-local
  /// slot from a destroyed index can never alias a new one.
  Writer& local_writer();

  /// Partition for an (already remapped, nonzero) key: top log2(shards) bits.
  std::uint32_t shard_of(std::uint64_t key) const noexcept {
    return shift_ == 64 ? 0u : static_cast<std::uint32_t>(key >> shift_);
  }

  /// Flush every resident map and hand all runs (memory + spilled files) to
  /// `merger`. Call after all producer threads have quiesced. Reports the
  /// first spill-write failure, if any occurred during the run.
  util::Status seal_into(ShardMerger& merger);

  /// Freeze the full index state into `dir`: every resident map becomes a
  /// run file there, previously spilled runs are referenced, and a
  /// `shardset.json` manifest describes the set. Returns the manifest path.
  /// Like seal_into, requires quiesced producers; the index is empty after.
  util::Result<std::string> export_shard_set(const std::string& dir);

  SpillStats stats() const;
  /// Size/type conflicts observed by writers so far (quiesced threads only).
  std::uint64_t metadata_conflicts() const;
  std::uint64_t observations() const;
  const Config& config() const noexcept { return config_; }
  std::uint32_t shards() const noexcept { return config_.shards; }
  /// Effective minimum store footprint before a spill triggers, whatever
  /// the configured threshold says.
  std::uint64_t spill_floor() const noexcept { return spill_floor_; }

 private:
  struct RunFile {
    std::string path;
    std::uint32_t shard = 0;
    std::uint64_t entries = 0;
  };

  void on_occupancy_delta(std::uint32_t shard, std::int64_t delta);
  std::string next_run_path(const std::string& dir, std::uint32_t shard);
  void record_run(RunFile run, std::uint64_t file_bytes);
  void record_spill_error(util::Error error);
  bool spill_disabled() const noexcept {
    return spill_failed_.load(std::memory_order_relaxed);
  }
  /// Flush every writer's resident stores as run files into `dir`.
  util::Status flush_residents_to(const std::string& dir);

  Config config_;
  std::uint32_t shift_ = 64;       ///< 64 - log2(shards); 64 means 1 shard
  std::uint64_t generation_ = 0;   ///< process-unique instance id
  std::uint64_t spill_floor_ = 0;  ///< min store bytes before a spill triggers

  mutable std::mutex writers_mutex_;
  std::vector<std::unique_ptr<Writer>> writers_;

  mutable std::mutex runs_mutex_;
  std::vector<RunFile> runs_;
  util::Error spill_error_;
  bool has_spill_error_ = false;
  std::atomic<bool> spill_failed_{false};
  std::atomic<std::uint64_t> run_seq_{0};

  std::unique_ptr<std::atomic<std::int64_t>[]> occupancy_;
  std::atomic<std::int64_t> resident_bytes_{0};
  std::atomic<std::int64_t> peak_resident_bytes_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::uint64_t> spilled_entries_{0};
  std::atomic<std::uint64_t> spilled_bytes_{0};

  std::vector<obs::Gauge*> occupancy_gauges_;
  obs::Gauge* resident_gauge_ = nullptr;
  obs::Gauge* peak_gauge_ = nullptr;
  obs::Counter* spill_counter_ = nullptr;
  obs::Counter* spilled_entries_counter_ = nullptr;
  obs::Counter* spilled_bytes_counter_ = nullptr;
};

}  // namespace dockmine::shard
