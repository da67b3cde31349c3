// Ablation: dedup index data structure — the open-addressing FlatMap64
// behind FileDedupIndex vs std::unordered_map (google-benchmark). At paper
// scale the index holds ~169M entries, so constant factors matter.
// BM_ShardStoreInsertFreeze times the sharded index's per-(writer, shard)
// store: upsert a stream, then freeze it to a sorted run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <unordered_map>

#include "dockmine/dedup/file_dedup.h"
#include "dockmine/shard/store.h"
#include "dockmine/util/flat_map.h"
#include "dockmine/util/rng.h"

namespace {

using namespace dockmine;

std::vector<std::uint64_t> make_keys(std::size_t n, std::size_t distinct) {
  // Zipf-ish duplication pattern like real content keys.
  util::Rng rng(7);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(1 + rng.uniform(distinct));
  }
  return keys;
}

void BM_FlatMapCount(benchmark::State& state) {
  const auto keys = make_keys(1 << 20, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    util::FlatMap64<std::uint64_t> map(keys.size() / 8);
    for (std::uint64_t key : keys) ++map[key];
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FlatMapCount)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 19);

void BM_UnorderedMapCount(benchmark::State& state) {
  const auto keys = make_keys(1 << 20, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    map.reserve(keys.size() / 8);
    for (std::uint64_t key : keys) ++map[key];
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_UnorderedMapCount)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 19);

void BM_FileDedupIndexAdd(benchmark::State& state) {
  const auto keys = make_keys(1 << 20, 1 << 16);
  for (auto _ : state) {
    dedup::FileDedupIndex index(1 << 14);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      index.add(keys[i], 1000, filetype::Type::kAsciiText,
                static_cast<std::uint32_t>(i & 1023));
    }
    benchmark::DoNotOptimize(index.distinct_contents());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FileDedupIndexAdd);

void BM_ShardStoreInsertFreeze(benchmark::State& state) {
  // 300k observations, ~25% of them repeats of an earlier key so the merge
  // path runs like real dedup traffic.
  constexpr std::size_t kObservations = 300000;
  util::Rng rng(0xC0FFEE);
  std::vector<std::uint64_t> keys(kObservations);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = (i > 0 && rng.uniform01() < 0.25) ? keys[rng.uniform(i)]
                                                : rng() | 1;
  }
  dedup::ContentEntry observation;
  observation.count = 1;
  observation.size = 4096;
  observation.type = filetype::Type::kAsciiText;

  using Clock = std::chrono::steady_clock;
  double insert_ms = 0.0, freeze_ms = 0.0;
  std::size_t distinct = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    shard::ShardStore store(1 << 12);
    for (std::uint64_t key : keys) store.merge(key, observation);
    const auto t1 = Clock::now();
    std::vector<shard::RunEntry> entries;
    store.collect_sorted(entries);
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(entries.data());
    insert_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    freeze_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
    distinct = entries.size();
  }
  state.counters["insert_ms"] =
      benchmark::Counter(insert_ms, benchmark::Counter::kAvgIterations);
  state.counters["freeze_ms"] =
      benchmark::Counter(freeze_ms, benchmark::Counter::kAvgIterations);
  state.counters["distinct"] = static_cast<double>(distinct);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_ShardStoreInsertFreeze)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
