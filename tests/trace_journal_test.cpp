// Event-level tracing suite (DESIGN.md §11): the TraceJournal and
// everything stacked on it — deterministic one-worker traces, parent
// resolution across the pipeline's worker pools, critical-path attribution,
// ring bounding, the tracing-changes-nothing report invariant, multi-node
// obs export + merge-obs folding, the heartbeat emitter, and the metrics
// JSON wire round-trip. Runs in the -DDOCKMINE_OBS=OFF tree too, where
// `kCompiledIn == false` flips the expectations from "recorded" to
// "compiled away".
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dockmine/core/multi_node.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/json/json.h"
#include "dockmine/obs/critical_path.h"
#include "dockmine/obs/export.h"
#include "dockmine/obs/heartbeat.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/obs/trace_export.h"

namespace dockmine {
namespace {

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

core::PipelineOptions small_options(std::uint64_t seed) {
  core::PipelineOptions options;
  options.calibration = synth::Calibration::light();
  options.scale = synth::Scale{40, seed};
  options.gzip_level = 1;
  return options;
}

/// RAII: full tracing on for one test (obs + journal), everything reset and
/// switched back off on exit, including the clock.
struct TracingScope {
  TracingScope() {
    obs::reset_all();
    obs::set_enabled(true);
    obs::set_journal_enabled(true);
  }
  ~TracingScope() {
    obs::set_journal_enabled(false);
    obs::set_enabled(false);
    obs::reset_clock();
    obs::reset_all();
  }
};

/// Run the pipeline with one worker per stage and tracing on a virtual
/// wall clock (cpu reads 0); return the journal's exported trace document.
std::string traced_serial_dump(std::uint64_t seed) {
  TracingScope tracing;
  auto tick = std::make_shared<std::atomic<double>>(0.0);
  obs::set_clock([tick] { return tick->fetch_add(1.0); });

  core::PipelineOptions options = small_options(seed);
  options.download_workers = 1;
  options.analyze_workers = 1;
  auto run = core::run_end_to_end(options);
  EXPECT_TRUE(run.ok());
  return obs::trace_to_json().dump();
}

// ---------- determinism ----------

TEST(TraceJournalTest, SerialSeededRunsExportByteIdenticalTraces) {
  const std::string first = traced_serial_dump(20170530);
  const std::string second = traced_serial_dump(20170530);
  EXPECT_EQ(first, second);
  if constexpr (obs::kCompiledIn) {
    EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(first.find("\"pipeline\""), std::string::npos);
    EXPECT_NE(first.find("\"download\""), std::string::npos);
    EXPECT_NE(first.find("\"dropped\":0"), std::string::npos);
  } else {
    // Compiled out: a valid, empty trace document.
    EXPECT_NE(first.find("\"traceEvents\":[]"), std::string::npos);
  }
}

TEST(TraceJournalTest, EveryParentIdResolvesWithinItsTrace) {
  TracingScope tracing;
  core::PipelineOptions options = small_options(7);
  auto run = core::run_end_to_end(options);
  ASSERT_TRUE(run.ok());

  const auto events = obs::TraceJournal::global().snapshot();
  if constexpr (!obs::kCompiledIn) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_FALSE(events.empty());
  ASSERT_EQ(obs::TraceJournal::global().dropped(), 0u);
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>> spans;
  for (const auto& event : events) {
    EXPECT_NE(event.span_id, 0u);
    EXPECT_GE(event.end_ms, event.start_ms) << event.name;
    spans[event.trace_id].insert(event.span_id);
  }
  for (const auto& event : events) {
    if (event.parent_id == 0) continue;
    EXPECT_TRUE(spans[event.trace_id].count(event.parent_id))
        << event.name << " parent " << event.parent_id
        << " missing from trace " << event.trace_id;
  }
}

TEST(TraceJournalTest, CriticalPathLeavesAtMost10PercentToRootSelf) {
  TracingScope tracing;
  core::PipelineOptions options = small_options(13);
  auto run = core::run_end_to_end(options);
  ASSERT_TRUE(run.ok());

  const auto events = obs::TraceJournal::global().snapshot();
  const auto crit = obs::critical_path(events);
  if constexpr (!obs::kCompiledIn) {
    EXPECT_EQ(crit.root_wall_ms, 0.0);
    return;
  }
  ASSERT_GT(crit.root_wall_ms, 0.0);
  // The walk tiles the root interval exactly.
  EXPECT_NEAR(crit.attributed_ms, crit.root_wall_ms, 1e-9 * crit.root_wall_ms);
  // Root self is wall time no download or analysis event covers. It reads
  // 1-4% at this scale, the top of that under TSan, so the bound is 10%;
  // bench_pipeline_end2end holds a larger run to 5%.
  EXPECT_LE(crit.root_self_ms, 0.10 * crit.root_wall_ms);
  ASSERT_FALSE(crit.entries.empty());
  double entry_sum = crit.root_self_ms;
  for (const auto& entry : crit.entries) {
    EXPECT_GT(entry.total_ms, 0.0) << entry.name;
    EXPECT_GT(entry.segments, 0u) << entry.name;
    entry_sum += entry.total_ms;
  }
  EXPECT_DOUBLE_EQ(entry_sum, crit.attributed_ms);
  // The decomposition names real pipeline work, not container stages.
  std::set<std::string> names;
  for (const auto& entry : crit.entries) names.insert(entry.name);
  EXPECT_FALSE(names.count("download"));
  EXPECT_FALSE(names.count("analyze"));
}

// ---------- tracing changes nothing ----------

TEST(TraceJournalTest, AnalysisReportsIdenticalWithTracingOnAndOff) {
  const core::PipelineOptions options = small_options(20170530);
  auto plain = core::run_end_to_end(options);
  ASSERT_TRUE(plain.ok());

  std::string traced_report;
  {
    TracingScope tracing;
    auto traced = core::run_end_to_end(options);
    ASSERT_TRUE(traced.ok());
    traced_report = core::analysis_report_json(traced.value()).dump();
    if constexpr (obs::kCompiledIn) {
      EXPECT_GT(obs::TraceJournal::global().recorded(), 0u);
    }
  }
  EXPECT_EQ(core::analysis_report_json(plain.value()).dump(), traced_report);
}

// ---------- ring bounding ----------

TEST(TraceJournalTest, RingKeepsMostRecentEventsAndCountsDrops) {
  TracingScope tracing;
  auto& journal = obs::TraceJournal::global();
  journal.set_capacity(16);

  // Single thread: one shard, so resident == min(written, 16).
  for (int i = 0; i < 100; ++i) {
    obs::record_event("ring_event", obs::EventKind::kSpan,
                      static_cast<double>(i), static_cast<double>(i) + 0.5,
                      obs::TraceContext{});
  }
  const auto events = journal.snapshot();
  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(journal.recorded(), 100u);
    EXPECT_EQ(journal.dropped(), 84u);
    ASSERT_EQ(events.size(), 16u);
    // Overwrite-oldest: exactly the last 16 events survive.
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_DOUBLE_EQ(events[i].start_ms, static_cast<double>(84 + i));
    }
    const auto doc = obs::trace_to_json();
    EXPECT_EQ(doc["otherData"]["recorded"].as_int(), 100);
    EXPECT_EQ(doc["otherData"]["dropped"].as_int(), 84);
  } else {
    EXPECT_EQ(journal.recorded(), 0u);
    EXPECT_TRUE(events.empty());
  }
  journal.set_capacity(obs::TraceJournal::kDefaultCapacity);
}

TEST(TraceJournalTest, ConcurrentWritersNeverLoseOrDuplicateCounts) {
  TracingScope tracing;
  auto& journal = obs::TraceJournal::global();
  journal.set_capacity(64);  // force eviction under contention

  constexpr int kThreads = 8;
  constexpr int kIters = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        const obs::EventSpan span("hammer");
        obs::record_event("hammer_wait", obs::EventKind::kQueueWait,
                          static_cast<double>(i), static_cast<double>(i + t),
                          span.context());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto events = journal.snapshot();
  if constexpr (obs::kCompiledIn) {
    const std::uint64_t written = 2ull * kThreads * kIters;
    EXPECT_EQ(journal.recorded(), written);
    EXPECT_EQ(journal.dropped(), written - events.size());
    EXPECT_LE(events.size(),
              64u * obs::TraceJournal::kShards);
    EXPECT_FALSE(events.empty());
  } else {
    EXPECT_EQ(journal.recorded(), 0u);
    EXPECT_TRUE(events.empty());
  }
  journal.set_capacity(obs::TraceJournal::kDefaultCapacity);
}

// ---------- multi-node export + merge-obs ----------

TEST(TraceJournalTest, MergeObsFoldsNodeExportsToSumOfParts) {
  if constexpr (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out: nodes export nothing";
  }
  TempDir dir("dockmine_trace_merge_obs");
  obs::reset_all();
  obs::set_enabled(true);

  // Three nodes of a K = 3 split, each bracketed like a separate process:
  // a clean registry/tracer/journal with its node id stamped on every
  // metric snapshot and trace event, then its own obs export file.
  constexpr std::uint32_t kNodes = 3;
  std::vector<core::NodeContribution> contributions;
  std::vector<std::string> export_files;
  std::filesystem::create_directories(dir.path / "obs");
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    const std::string shard_dir =
        (dir.path / "shards" / ("node-" + std::to_string(node))).string();
    core::PipelineOptions options = small_options(20170530);
    options.shard.shards = 4;
    options.node_count = kNodes;
    options.node_index = node;
    options.shard.spill_dir = shard_dir;
    options.shard_export_dir = shard_dir;
    obs::reset_all();
    obs::set_node_id(node);
    auto run = core::run_end_to_end(options);
    const std::string obs_file =
        (dir.path / "obs" / ("obs-node-" + std::to_string(node) + ".json"))
            .string();
    {
      std::ofstream file(obs_file, std::ios::binary | std::ios::trunc);
      file << obs::to_json(obs::collect()).dump();
      ASSERT_TRUE(file.good()) << obs_file;
    }
    obs::reset_all();
    ASSERT_TRUE(run.ok()) << run.error().message();
    export_files.push_back(obs_file);
    contributions.push_back(
        core::contribution_of(std::move(run).value(), shard_dir));
  }
  obs::set_enabled(false);
  ASSERT_TRUE(core::fold_contributions(contributions).ok());
  ASSERT_EQ(export_files.size(), 3u);

  // Independently sum a few series straight out of the per-node JSON, then
  // check the library merge agrees: the fold is sum-of-parts, not lossy.
  std::uint64_t layers_sum = 0;
  std::uint64_t hist_count_sum = 0;
  for (const auto& file : export_files) {
    std::ifstream in(file);
    ASSERT_TRUE(in.is_open()) << file;
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = json::parse(buffer.str());
    ASSERT_TRUE(parsed.ok()) << file;
    const json::Value& root = parsed.value();
    layers_sum += static_cast<std::uint64_t>(
        root["counters"]["dockmine_download_layers_total"].as_int());
    if (root["histograms"].contains("dockmine_download_layer_bytes")) {
      hist_count_sum += static_cast<std::uint64_t>(
          root["histograms"]["dockmine_download_layer_bytes"]["count"]
              .as_int());
    }
  }
  EXPECT_GT(layers_sum, 0u);

  auto merged = obs::merge_obs_exports(export_files);
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  const auto& result = merged.value();
  ASSERT_EQ(result.nodes.size(), 3u);

  std::uint64_t merged_layers = 0;
  for (const auto& [name, value] : result.merged.metrics.counters) {
    if (name == "dockmine_download_layers_total") merged_layers = value;
  }
  EXPECT_EQ(merged_layers, layers_sum);
  for (const auto& hist : result.merged.metrics.histograms) {
    if (hist.name == "dockmine_download_layer_bytes") {
      EXPECT_EQ(hist.count, hist_count_sum);
    }
  }

  // Straggler deltas: relative to the fastest node, so the minimum is 0 and
  // every delta is consistent with its wall time.
  double min_delta = result.nodes[0].straggler_delta_ms;
  double min_wall = result.nodes[0].pipeline_wall_ms;
  for (const auto& node : result.nodes) {
    EXPECT_GT(node.pipeline_wall_ms, 0.0) << node.source;
    EXPECT_GE(node.straggler_delta_ms, 0.0) << node.source;
    min_delta = std::min(min_delta, node.straggler_delta_ms);
    min_wall = std::min(min_wall, node.pipeline_wall_ms);
  }
  EXPECT_DOUBLE_EQ(min_delta, 0.0);
  for (const auto& node : result.nodes) {
    EXPECT_DOUBLE_EQ(node.straggler_delta_ms,
                     node.pipeline_wall_ms - min_wall);
  }
  obs::reset_all();
}

// ---------- heartbeat ----------

TEST(TraceJournalTest, HeartbeatEmitsParseableJsonl) {
  TempDir dir("dockmine_trace_heartbeat");
  const std::string path = (dir.path / "heartbeat.jsonl").string();
  obs::reset_all();
  obs::set_enabled(true);
  obs::Registry::global().counter("test_heartbeat_ticks").add(5);

  obs::HeartbeatOptions options;
  options.interval_ms = 10;
  options.path = path;
  const bool started = obs::start_heartbeat(options);
  if constexpr (!obs::kCompiledIn) {
    EXPECT_FALSE(started);
    obs::set_enabled(false);
    return;
  }
  ASSERT_TRUE(started);
  EXPECT_TRUE(obs::heartbeat_running());
  EXPECT_FALSE(obs::start_heartbeat(options));  // one emitter per process
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  obs::stop_heartbeat();
  EXPECT_FALSE(obs::heartbeat_running());
  obs::set_enabled(false);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    auto parsed = json::parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const json::Value& beat = parsed.value();
    EXPECT_TRUE(beat.contains("ts_ms"));
    EXPECT_TRUE(beat.contains("node"));
    EXPECT_TRUE(beat.contains("counters"));
    EXPECT_TRUE(beat.contains("journal"));
    EXPECT_EQ(beat["counters"]["test_heartbeat_ticks"].as_int(), 5);
    EXPECT_EQ(beat["journal"]["dropped"].as_int(), 0);
  }
  EXPECT_GE(lines, 2u);  // the immediate beat plus at least one interval
  obs::reset_all();
}

// ---------- metrics JSON wire round-trip ----------

TEST(TraceJournalTest, MetricsJsonRoundTripsThroughParseExactly) {
  obs::reset_all();
  auto tick = std::make_shared<std::atomic<double>>(0.0);
  obs::set_clock([tick] { return tick->fetch_add(1.0); });
  obs::set_enabled(true);
  core::PipelineOptions options = small_options(5);
  options.download_workers = 1;
  options.analyze_workers = 1;
  auto run = core::run_end_to_end(options);
  obs::set_enabled(false);
  obs::reset_clock();
  ASSERT_TRUE(run.ok());

  // The exported document is a wire format: parse -> report_from_json ->
  // to_json reproduces the original bytes, histograms included.
  const std::string dumped = obs::to_json(obs::collect()).dump();
  auto parsed = json::parse(dumped);
  ASSERT_TRUE(parsed.ok());
  auto report = obs::report_from_json(parsed.value());
  ASSERT_TRUE(report.ok()) << report.error().message();
  EXPECT_EQ(obs::to_json(report.value()).dump(), dumped);
  if constexpr (obs::kCompiledIn) {
    EXPECT_NE(dumped.find("dockmine_download_layers_total"),
              std::string::npos);
    EXPECT_NE(dumped.find("pipeline/dedup"), std::string::npos);
  }
  obs::reset_all();
}

}  // namespace
}  // namespace dockmine
