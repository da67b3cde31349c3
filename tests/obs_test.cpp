// dockmine::obs suite: concurrency hammers for every instrument kind,
// registry interning, tracer aggregation, the determinism property (two
// same-seed pipeline runs on a virtual clock report bit-identical metrics),
// and the overhead guard (the disabled path allocates nothing and records
// nothing). Built both ways by tools/run_checks.sh: the default tree and a
// -DDOCKMINE_OBS=OFF tree, where `kCompiledIn == false` flips the
// expectations below from "counted" to "compiled away".
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "dockmine/core/pipeline.h"
#include "dockmine/obs/export.h"
#include "dockmine/obs/heartbeat.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/obs/span.h"

// ---- allocation probe (for the overhead guard) ----
//
// Program-wide operator new replacement that counts allocations while
// tracking is switched on. The probe window only ever wraps instrument
// record calls, so gtest's own allocations stay out of the tally.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_alloc_tracking{false};

void* counted_alloc(std::size_t size) {
  if (g_alloc_tracking.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dockmine {
namespace {

/// RAII: enables obs for one test and always switches it back off.
struct EnabledScope {
  EnabledScope() { obs::set_enabled(true); }
  ~EnabledScope() {
    obs::set_enabled(false);
    obs::reset_clock();
  }
};

// ---------- concurrency hammers ----------

TEST(ObsConcurrencyTest, CounterAndGaugeSurviveThreadHammer) {
  EnabledScope on;
  auto& counter = obs::Registry::global().counter("test_hammer_counter");
  auto& gauge = obs::Registry::global().gauge("test_hammer_gauge");
  counter.reset();
  gauge.reset();

  constexpr int kThreads = 8;
  constexpr int kIters = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        counter.add();
        gauge.add(3);
        gauge.sub(3);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
  } else {
    EXPECT_EQ(counter.value(), 0u);
  }
  EXPECT_EQ(gauge.value(), 0);  // balanced add/sub in every outcome
}

TEST(ObsConcurrencyTest, HistogramShardsMergeToExactTotals) {
  EnabledScope on;
  auto& hist = obs::Registry::global().histogram("test_hammer_hist");
  hist.reset();

  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  // Integral values: double sums are exact regardless of which shard each
  // thread lands in, so the totals below are equalities, not tolerances.
  double per_thread_sum = 0.0;
  for (int i = 0; i < kIters; ++i) per_thread_sum += (i % 1000) + 1;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        hist.observe(static_cast<double>((i % 1000) + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(hist.sum(), kThreads * per_thread_sum);
    const auto merged = hist.merged();
    EXPECT_EQ(merged.total(), hist.count());
    EXPECT_GT(merged.quantile(0.5), 0.0);
  } else {
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.sum(), 0.0);
  }
}

TEST(ObsConcurrencyTest, RegistryInterningIsStableUnderContention) {
  EnabledScope on;
  constexpr int kThreads = 8;
  std::vector<obs::Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        seen[t] = &obs::Registry::global().counter("test_intern_counter");
        // Snapshots race against interning of fresh names too.
        (void)obs::Registry::global().counter("test_intern_counter_" +
                                              std::to_string(t));
        if (i % 100 == 0) (void)obs::Registry::global().snapshot();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);  // one name, one instrument, one address
  }
}

TEST(ObsConcurrencyTest, TracerAggregatesAcrossThreads) {
  EnabledScope on;
  obs::Tracer::global().reset();

  constexpr int kThreads = 6;
  constexpr int kIters = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto outer = obs::Tracer::global().span("hammer");
        obs::Tracer::global().record("inner", /*wall_ms=*/1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto rows = obs::Tracer::global().snapshot();
  if constexpr (obs::kCompiledIn) {
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].path, "hammer");
    EXPECT_EQ(rows[0].count, static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(rows[1].path, "hammer/inner");
    EXPECT_EQ(rows[1].count, static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(rows[1].wall_ms, static_cast<double>(kThreads) * kIters);
  } else {
    EXPECT_TRUE(rows.empty());
  }
}

// ---------- span hierarchy ----------

TEST(ObsSpanTest, NestingBuildsSlashPathsOnVirtualClock) {
  EnabledScope on;
  obs::Tracer::global().reset();
  auto tick = std::make_shared<std::atomic<double>>(0.0);
  obs::set_clock([tick] { return tick->fetch_add(1.0); });

  {
    auto pipeline = obs::Tracer::global().span("pipeline");
    EXPECT_EQ(obs::Tracer::global().current_path(),
              obs::kCompiledIn ? "pipeline" : "");
    {
      auto download = obs::Tracer::global().span("download");
      obs::Tracer::global().record_at("pipeline/download/untar", 5.0, 2.0, 3);
    }
    auto analyze = obs::Tracer::global().span("analyze");
  }
  EXPECT_EQ(obs::Tracer::global().current_path(), "");

  const auto rows = obs::Tracer::global().snapshot();
  if constexpr (obs::kCompiledIn) {
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].path, "pipeline");
    EXPECT_EQ(rows[1].path, "pipeline/analyze");
    EXPECT_EQ(rows[2].path, "pipeline/download");
    EXPECT_EQ(rows[3].path, "pipeline/download/untar");
    EXPECT_EQ(rows[3].count, 3u);
    EXPECT_EQ(rows[3].wall_ms, 5.0);
    EXPECT_EQ(rows[3].cpu_ms, 2.0);
    // Virtual clock ticks once per read: every span saw a positive wall.
    EXPECT_GT(rows[0].wall_ms, 0.0);
    EXPECT_GT(rows[0].wall_ms, rows[1].wall_ms);  // parent covers children
  } else {
    EXPECT_TRUE(rows.empty());
  }
}

// ---------- determinism ----------

std::string instrumented_pipeline_dump() {
  // The virtual clock goes in before reset_all() and stays until after
  // collect(): both stamp the synthesized dockmine_uptime_seconds gauge, so
  // a real-clock read on either side would leak wall time into the dump.
  auto tick = std::make_shared<std::atomic<double>>(0.0);
  obs::set_clock([tick] { return tick->fetch_add(1.0); });
  obs::reset_all();
  obs::set_enabled(true);

  core::PipelineOptions options;
  options.scale = synth::Scale{60, 5};
  options.calibration = synth::Calibration::light();
  // Single-worker pools: the order of every clock read and metric update is
  // scheduling-independent, so the whole report must reproduce exactly.
  options.download_workers = 1;
  options.analyze_workers = 1;
  options.gzip_level = 1;
  auto run = core::run_end_to_end(options);
  obs::set_enabled(false);
  EXPECT_TRUE(run.ok());
  std::string dump = obs::to_json(obs::collect()).dump();
  obs::reset_clock();
  return dump;
}

TEST(ObsDeterminismTest, SameSeedPipelineReportsIdenticalMetrics) {
  const std::string first = instrumented_pipeline_dump();
  const std::string second = instrumented_pipeline_dump();
  EXPECT_EQ(first, second);
  if constexpr (obs::kCompiledIn) {
    EXPECT_NE(first.find("dockmine_download_layers_total"),
              std::string::npos);
    EXPECT_NE(first.find("dockmine_crawler_pages_total"), std::string::npos);
    EXPECT_NE(first.find("pipeline/analyze/classify"), std::string::npos);
    EXPECT_NE(first.find("pipeline/dedup"), std::string::npos);
  }
}

// ---------- overhead guard ----------

TEST(ObsOverheadTest, DisabledPathAllocatesAndRecordsNothing) {
  // Resolve every instrument (and the tracer singleton) before the probe
  // window: interning is the documented cold path.
  auto& counter = obs::Registry::global().counter("test_overhead_counter");
  auto& gauge = obs::Registry::global().gauge("test_overhead_gauge");
  auto& hist = obs::Registry::global().histogram("test_overhead_hist");
  auto& tracer = obs::Tracer::global();
  counter.reset();
  gauge.reset();
  hist.reset();
  obs::set_enabled(false);
  const std::size_t tracer_rows_before = tracer.snapshot().size();
  const std::uint64_t journal_before = obs::TraceJournal::global().recorded();

  g_alloc_count.store(0);
  g_alloc_tracking.store(true);
  for (int i = 0; i < 100'000; ++i) {
    counter.add();
    gauge.add(1);
    hist.observe(static_cast<double>(i));
    const obs::Timer timer;        // no clock read while disabled
    hist.observe(timer.ms());
    auto span = tracer.span("overhead");  // inert handle
    tracer.record("overhead_leaf", 1.0);
    // Journal half: every record site is one relaxed flag load while off.
    const obs::EventSpan event("overhead_event");
    obs::record_event("overhead_wait", obs::EventKind::kQueueWait, 0.0, 1.0,
                      obs::current_trace_context());
    const obs::ContextGuard adopt(obs::TraceContext{1, 1});
  }
  g_alloc_tracking.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(tracer.snapshot().size(), tracer_rows_before);
  EXPECT_EQ(obs::TraceJournal::global().recorded(), journal_before);

  if constexpr (!obs::kCompiledIn) {
    // Compiled out: even the enabled path records nothing.
    obs::set_enabled(true);
    EXPECT_FALSE(obs::enabled());
    counter.add();
    hist.observe(1.0);
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(hist.count(), 0u);
    obs::set_enabled(false);
  }
}

// ---------- reset_all fresh-start invariant ----------

TEST(ObsResetTest, ResetAllRestoresFreshStart) {
  obs::set_enabled(true);
  obs::set_journal_enabled(true);
  obs::set_node_id(7);
  auto& counter = obs::Registry::global().counter("test_reset_counter");
  auto& hist = obs::Registry::global().histogram("test_reset_hist");
  counter.add(3);
  hist.observe(42.0);
  obs::Tracer::global().record("reset_leaf", 1.0);
  { const obs::EventSpan span("reset_event"); }
  if constexpr (obs::kCompiledIn) {
    EXPECT_GT(obs::TraceJournal::global().recorded(), 0u);
    EXPECT_EQ(obs::node_id(), 7u);
  }

  obs::reset_all();

  // Everything observable starts over: registry values zeroed, tracer and
  // journal emptied, heartbeat stopped, node id back to 0. The enable
  // switches are configuration, not state, and stay as the caller set them.
  EXPECT_EQ(obs::node_id(), 0u);
  EXPECT_FALSE(obs::heartbeat_running());
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(obs::Tracer::global().snapshot().size(), 0u);
  EXPECT_EQ(obs::TraceJournal::global().recorded(), 0u);
  EXPECT_EQ(obs::TraceJournal::global().dropped(), 0u);
  EXPECT_TRUE(obs::TraceJournal::global().snapshot().empty());
  const auto report = obs::collect();
  for (const auto& [name, value] : report.metrics.counters) {
    EXPECT_EQ(value, 0u) << name;
  }
  EXPECT_TRUE(report.spans.empty());
  EXPECT_EQ(report.node, 0u);

  if constexpr (obs::kCompiledIn) {
    EXPECT_TRUE(obs::journal_enabled());  // switch untouched by reset_all
    // Id allocators restart, so the next seeded run reproduces: the first
    // span after reset gets trace 1 / span 1.
    obs::EventSpan probe("reset_probe");
    EXPECT_EQ(probe.context().trace_id, 1u);
    EXPECT_EQ(probe.context().span_id, 1u);
  }
  obs::set_journal_enabled(false);
  obs::set_enabled(false);
  obs::reset_all();
}

}  // namespace
}  // namespace dockmine
