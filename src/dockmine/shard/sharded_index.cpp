#include "dockmine/shard/sharded_index.h"

#include <algorithm>
#include <filesystem>

#include "dockmine/json/json.h"
#include "dockmine/shard/merger.h"

namespace dockmine::shard {
namespace {

std::uint32_t round_up_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint32_t log2_of(std::uint32_t v) {
  std::uint32_t bits = 0;
  while ((1u << bits) < v) ++bits;
  return bits;
}

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ShardedDedupIndex::ShardedDedupIndex(Config config)
    : config_(std::move(config)), generation_(next_generation()) {
  config_.shards = round_up_pow2(std::max(config_.shards, 1u));
  shift_ = config_.shards == 1 ? 64u : 64u - log2_of(config_.shards);
  if (config_.expected_contents_per_shard == 0)
    config_.expected_contents_per_shard = 64;

  // Spilling below ~2x an empty store's table would freeze near-empty runs
  // on every add. Lift the effective threshold to keep each run worth its
  // header.
  spill_floor_ =
      2 * ShardStore(config_.expected_contents_per_shard).memory_bytes();

  if (config_.spill_enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.spill_dir, ec);
    if (ec) {
      // Same degradation as a failed spill write: data stays resident (still
      // correct, just unbounded) and seal_into reports the error.
      record_spill_error(util::internal("shard spill: cannot create directory " +
                                        config_.spill_dir));
    }
  }

  occupancy_ =
      std::make_unique<std::atomic<std::int64_t>[]>(config_.shards);
  for (std::uint32_t s = 0; s < config_.shards; ++s) occupancy_[s] = 0;

  auto& registry = obs::Registry::global();
  occupancy_gauges_.reserve(config_.shards);
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    occupancy_gauges_.push_back(
        &registry.gauge("dockmine_shard_occupancy_bytes{shard=\"" +
                        std::to_string(s) + "\"}"));
  }
  resident_gauge_ = &registry.gauge("dockmine_shard_resident_bytes");
  peak_gauge_ = &registry.gauge("dockmine_shard_resident_peak_bytes");
  spill_counter_ = &registry.counter("dockmine_shard_spills_total");
  spilled_entries_counter_ =
      &registry.counter("dockmine_shard_spilled_entries_total");
  spilled_bytes_counter_ =
      &registry.counter("dockmine_shard_spilled_bytes_total");
}

ShardedDedupIndex::Writer::Writer(ShardedDedupIndex* owner) : owner_(owner) {
  const std::uint32_t shards = owner_->config_.shards;
  stores_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    stores_.emplace_back(owner_->config_.expected_contents_per_shard);
  }
  tracked_bytes_.assign(shards, 0);
  for (std::uint32_t s = 0; s < shards; ++s) track(s);
}

void ShardedDedupIndex::Writer::add(std::uint64_t content_key,
                                    std::uint64_t size, filetype::Type type,
                                    std::uint32_t layer_index) {
  const std::uint64_t key = dedup::FileDedupIndex::remap_key(content_key);
  const std::uint32_t shard = owner_->shard_of(key);
  dedup::ContentEntry observation;
  observation.count = 1;
  observation.size = size;
  observation.type = type;
  observation.first_layer = layer_index;
  if (stores_[shard].merge(key, observation)) ++conflicts_;
  ++observations_;
  track(shard);
}

void ShardedDedupIndex::Writer::track(std::uint32_t shard) {
  const std::uint64_t now = stores_[shard].memory_bytes();
  if (now != tracked_bytes_[shard]) {
    owner_->on_occupancy_delta(
        shard, static_cast<std::int64_t>(now) -
                   static_cast<std::int64_t>(tracked_bytes_[shard]));
    tracked_bytes_[shard] = now;
  }
  if (owner_->config_.spill_enabled() && !owner_->spill_disabled() &&
      now >= std::max(owner_->config_.spill_threshold_bytes,
                      owner_->spill_floor_) &&
      !stores_[shard].empty()) {
    spill(shard, owner_->config_.spill_dir);
  }
}

void ShardedDedupIndex::Writer::spill(std::uint32_t shard,
                                      const std::string& dir) {
  ShardStore& store = stores_[shard];
  std::vector<RunEntry> entries;
  store.collect_sorted(entries);  // already ascending — the store's contract

  const std::string path = owner_->next_run_path(dir, shard);
  if (auto s = write_run_file(path, owner_->config_.shards, shard, entries);
      !s.ok()) {
    // Keep the store resident — the data is still correct, just not bounded.
    owner_->record_spill_error(s.error());
    return;
  }
  const std::uint64_t file_bytes =
      kRunHeaderBytes + entries.size() * kRunEntryBytes;
  owner_->record_run(RunFile{path, shard, entries.size()}, file_bytes);

  store.reset();
  track(shard);
}

ShardedDedupIndex::Writer& ShardedDedupIndex::local_writer() {
  thread_local std::vector<std::pair<std::uint64_t, Writer*>> cache;
  for (const auto& [generation, writer] : cache) {
    if (generation == generation_) return *writer;
  }
  auto owned = std::unique_ptr<Writer>(new Writer(this));
  Writer* writer = owned.get();
  {
    std::lock_guard<std::mutex> lock(writers_mutex_);
    writers_.push_back(std::move(owned));
  }
  // Bound the cache: stale generations are just re-created on next use, so
  // evicting them is always safe.
  if (cache.size() >= 16) {
    cache.erase(std::remove_if(cache.begin(), cache.end(),
                               [&](const auto& slot) {
                                 return slot.first != generation_;
                               }),
                cache.end());
  }
  cache.emplace_back(generation_, writer);
  return *writer;
}

void ShardedDedupIndex::on_occupancy_delta(std::uint32_t shard,
                                           std::int64_t delta) {
  const std::int64_t shard_now =
      occupancy_[shard].fetch_add(delta, std::memory_order_relaxed) + delta;
  occupancy_gauges_[shard]->set(shard_now);
  const std::int64_t total =
      resident_bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
  resident_gauge_->set(total);
  std::int64_t peak = peak_resident_bytes_.load(std::memory_order_relaxed);
  while (total > peak && !peak_resident_bytes_.compare_exchange_weak(
                             peak, total, std::memory_order_relaxed)) {
  }
  peak_gauge_->set(peak_resident_bytes_.load(std::memory_order_relaxed));
}

std::string ShardedDedupIndex::next_run_path(const std::string& dir,
                                             std::uint32_t shard) {
  const std::uint64_t seq = run_seq_.fetch_add(1, std::memory_order_relaxed);
  return (std::filesystem::path(dir) /
          ("shard-" + std::to_string(shard) + "-run-" + std::to_string(seq) +
           ".dmrun"))
      .string();
}

void ShardedDedupIndex::record_run(RunFile run, std::uint64_t file_bytes) {
  spills_.fetch_add(1, std::memory_order_relaxed);
  spilled_entries_.fetch_add(run.entries, std::memory_order_relaxed);
  spilled_bytes_.fetch_add(file_bytes, std::memory_order_relaxed);
  spill_counter_->add();
  spilled_entries_counter_->add(run.entries);
  spilled_bytes_counter_->add(file_bytes);
  std::lock_guard<std::mutex> lock(runs_mutex_);
  runs_.push_back(std::move(run));
}

void ShardedDedupIndex::record_spill_error(util::Error error) {
  spill_failed_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(runs_mutex_);
  if (!has_spill_error_) {
    spill_error_ = std::move(error);
    has_spill_error_ = true;
  }
}

util::Status ShardedDedupIndex::seal_into(ShardMerger& merger) {
  {
    std::lock_guard<std::mutex> lock(runs_mutex_);
    if (has_spill_error_) return spill_error_;
  }
  std::lock_guard<std::mutex> lock(writers_mutex_);
  for (const auto& writer : writers_) {
    for (std::uint32_t s = 0; s < config_.shards; ++s) {
      const ShardStore& store = writer->stores_[s];
      if (store.empty()) continue;
      std::vector<RunEntry> entries;
      store.collect_sorted(entries);
      merger.add_memory_run(std::move(entries));
    }
  }
  std::lock_guard<std::mutex> runs_lock(runs_mutex_);
  for (const RunFile& run : runs_) {
    if (auto s = merger.add_run_file(run.path); !s.ok()) return s;
  }
  return util::Status::success();
}

util::Status ShardedDedupIndex::flush_residents_to(const std::string& dir) {
  std::lock_guard<std::mutex> lock(writers_mutex_);
  for (const auto& writer : writers_) {
    for (std::uint32_t s = 0; s < config_.shards; ++s) {
      if (writer->stores_[s].empty()) continue;
      writer->spill(s, dir);
    }
  }
  std::lock_guard<std::mutex> runs_lock(runs_mutex_);
  if (has_spill_error_) return spill_error_;
  return util::Status::success();
}

util::Result<std::string> ShardedDedupIndex::export_shard_set(
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    return util::internal("shard export: cannot create directory " + dir);
  if (auto s = flush_residents_to(dir); !s.ok()) return s.error();

  json::Value manifest = json::Value::object();
  manifest.set("format", "dockmine-shardset");
  manifest.set("version", 1);
  manifest.set("shard_count", static_cast<std::uint64_t>(config_.shards));
  json::Value runs = json::Value::array();
  {
    std::lock_guard<std::mutex> lock(runs_mutex_);
    for (const RunFile& run : runs_) {
      json::Value entry = json::Value::object();
      const std::filesystem::path path(run.path);
      entry.set("file", path.parent_path() == std::filesystem::path(dir)
                            ? path.filename().string()
                            : run.path);
      entry.set("shard", static_cast<std::uint64_t>(run.shard));
      entry.set("entries", run.entries);
      runs.push_back(std::move(entry));
    }
  }
  manifest.set("runs", std::move(runs));

  const std::string manifest_path =
      (std::filesystem::path(dir) / std::string(kShardSetManifest)).string();
  std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
  if (!out)
    return util::internal("shard export: cannot write " + manifest_path);
  out << manifest.dump_pretty() << "\n";
  out.flush();
  if (!out)
    return util::internal("shard export: short write to " + manifest_path);
  return manifest_path;
}

SpillStats ShardedDedupIndex::stats() const {
  SpillStats out;
  out.spills = spills_.load(std::memory_order_relaxed);
  out.spilled_entries = spilled_entries_.load(std::memory_order_relaxed);
  out.spilled_bytes = spilled_bytes_.load(std::memory_order_relaxed);
  const std::int64_t resident =
      resident_bytes_.load(std::memory_order_relaxed);
  out.resident_bytes =
      resident > 0 ? static_cast<std::uint64_t>(resident) : 0;
  const std::int64_t peak =
      peak_resident_bytes_.load(std::memory_order_relaxed);
  out.peak_resident_bytes = peak > 0 ? static_cast<std::uint64_t>(peak) : 0;
  return out;
}

std::uint64_t ShardedDedupIndex::metadata_conflicts() const {
  std::lock_guard<std::mutex> lock(writers_mutex_);
  std::uint64_t total = 0;
  for (const auto& writer : writers_) total += writer->conflicts_;
  return total;
}

std::uint64_t ShardedDedupIndex::observations() const {
  std::lock_guard<std::mutex> lock(writers_mutex_);
  std::uint64_t total = 0;
  for (const auto& writer : writers_) total += writer->observations_;
  return total;
}

}  // namespace dockmine::shard
