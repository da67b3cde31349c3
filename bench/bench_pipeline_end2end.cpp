// §III totals — the end-to-end pipeline (crawl -> download -> analyze ->
// dedup) in bytes mode, reproducing the paper's methodology numbers:
// 634,412 raw hits -> 457,627 repos; 355,319 downloaded / 111,384 failed
// (13% auth, 87% no latest); 1,792,609 layers; 47 TB compressed.
//
// Part two compares staged-barrier against streamed execution under a
// throttled registry (CostModel service times become real sleeps), showing
// the overlap win and the bounded blob residency of the streaming hand-off.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "common.h"
#include "dockmine/art/art.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/json/json.h"
#include "dockmine/mem/arena.h"
#include "dockmine/obs/critical_path.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/trace_export.h"
#include "dockmine/shard/store.h"
#include "dockmine/tar/reader.h"
#include "dockmine/tar/writer.h"
#include "dockmine/util/rng.h"
#include "dockmine/util/stopwatch.h"

namespace {

using namespace dockmine;

/// A synthetic layer tar shaped like a package install: nested directories,
/// dozens of files each, paths long enough to be heap-allocated strings.
std::string make_walk_layer(std::uint64_t seed, std::size_t dirs,
                            std::size_t files_per_dir) {
  util::Rng rng(seed);
  tar::Writer writer;
  for (std::size_t d = 0; d < dirs; ++d) {
    const std::string dir = "usr/lib/packages/vendor-" +
                            std::to_string(rng.uniform(64)) + "/component-" +
                            std::to_string(d);
    writer.add_directory(dir + "/");
    for (std::size_t f = 0; f < files_per_dir; ++f) {
      writer.add_file(dir + "/module-" + std::to_string(f) + ".so",
                      "\x7f" "ELFstub-content-bytes");
    }
  }
  return writer.finish();
}

/// The pre-PR analyzer walk, verbatim idiom: a fresh Entry per next() call
/// (every header decode allocates its strings) and a heap std::map keyed by
/// owned std::string copies for the directory profile.
std::uint64_t legacy_walk(std::string_view tar_bytes, std::uint64_t& dirs_out) {
  tar::Reader reader(tar_bytes);
  std::map<std::string, std::uint64_t, std::less<>> dir_files;
  std::uint64_t files = 0;
  for (;;) {
    auto got = reader.next();
    if (!got.ok() || !got.value().has_value()) break;
    const tar::Entry& entry = *got.value();
    std::string_view path = entry.header.name;
    if (entry.is_directory()) {
      while (!path.empty() && path.back() == '/') path.remove_suffix(1);
      if (auto it = dir_files.find(path); it == dir_files.end()) {
        dir_files.emplace(std::string(path), 0);
      }
      continue;
    }
    if (!entry.is_file()) continue;
    ++files;
    const std::size_t slash = path.rfind('/');
    const std::string_view parent =
        slash == std::string_view::npos ? std::string_view(".")
                                        : path.substr(0, slash);
    if (auto it = dir_files.find(parent); it != dir_files.end()) {
      ++it->second;
    } else {
      dir_files.emplace(std::string(parent), 1);
    }
  }
  dirs_out = dir_files.size();
  return files;
}

/// The post-PR walk, mirroring `LayerAnalyzer`'s arena path: one reused
/// Entry (header strings keep their capacity), an arena-backed map whose
/// keys are interned into per-layer scratch, and the last-parent memo that
/// exploits tars listing a directory's files consecutively.
std::uint64_t arena_walk(std::string_view tar_bytes, mem::Arena& scratch,
                         std::uint64_t& dirs_out) {
  using Alloc =
      mem::ArenaAllocator<std::pair<const std::string_view, std::uint64_t>>;
  std::map<std::string_view, std::uint64_t, std::less<>, Alloc> dir_files{
      std::less<>{}, Alloc(scratch)};
  std::uint64_t files = 0;
  std::string_view last_parent;
  std::uint64_t* last_count = nullptr;
  tar::Reader reader(tar_bytes);
  const auto status = reader.for_each([&](const tar::Entry& entry) {
    std::string_view path = entry.header.name;
    if (entry.is_directory()) {
      while (!path.empty() && path.back() == '/') path.remove_suffix(1);
      if (auto it = dir_files.find(path); it == dir_files.end()) {
        dir_files.emplace(scratch.intern(path), 0);
      }
      return;
    }
    if (!entry.is_file()) return;
    ++files;
    const std::size_t slash = path.rfind('/');
    const std::string_view parent =
        slash == std::string_view::npos ? std::string_view(".")
                                        : path.substr(0, slash);
    if (last_count != nullptr && parent == last_parent) {
      ++*last_count;
    } else {
      auto it = dir_files.find(parent);
      if (it != dir_files.end()) {
        ++it->second;
      } else {
        it = dir_files.emplace(scratch.intern(parent), 1).first;
      }
      last_parent = it->first;
      last_count = &it->second;
    }
  });
  (void)status;
  dirs_out = dir_files.size();
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dockmine;
  const bench::MetricsScope metrics(argc, argv);
  // Set by a failed output check; the run still finishes and writes its
  // JSON so the failure can be inspected.
  int exit_code = 0;
  core::PipelineOptions options;
  // Bytes mode materializes real tars: run at a reduced scale with the
  // light calibration (full pipeline logic, small layers) so the bench
  // finishes in seconds. The §III ratios being reproduced are
  // calibration-independent (failure classes, crawl duplication,
  // unique-layer economy).
  options.calibration = synth::Calibration::light();
  options.scale = core::scale_from_env(synth::Scale{400, 20170530});
  options.download_workers = 4;
  options.analyze_workers = 2;
  options.gzip_level = 1;

  std::cout << "end-to-end pipeline at " << options.scale.repositories
            << " repositories (DOCKMINE_REPOS overrides)\n";
  // --- hot-path memory: arena tar walk + ART content index -----------------
  // Two microbenches over the structures this pipeline hammers per layer:
  // the analyzer's tar walk / directory profile (legacy heap idiom vs the
  // per-layer arena path) and the sharded dedup store (sorted-map freeze vs
  // the ART whose in-order walk needs no sort). The walk speedup is
  // reported, not gated: it moved between 1.2x and 1.8x run to run.
  double legacy_fps = 0.0, arena_fps = 0.0;
  std::uint64_t walk_files = 0, walk_dirs = 0, arena_high_water = 0;
  {
    constexpr std::size_t kLayers = 8;
    constexpr std::size_t kDirs = 120;
    constexpr std::size_t kFilesPerDir = 16;
    constexpr int kWarmup = 2;
    constexpr int kReps = 12;
    std::vector<std::string> layers;
    layers.reserve(kLayers);
    for (std::size_t i = 0; i < kLayers; ++i) {
      layers.push_back(make_walk_layer(0xA11E5 + i, kDirs, kFilesPerDir));
    }

    std::uint64_t dirs = 0;
    for (int w = 0; w < kWarmup; ++w) {
      for (const auto& layer : layers) legacy_walk(layer, dirs);
    }
    // Best-of-reps: each rep is timed on its own and the fastest wins, so a
    // scheduler hiccup in one rep cannot sink the gate — both paths get the
    // same treatment, and the ratio is what the gate cares about.
    double legacy_best = 0.0;
    std::uint64_t legacy_files = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      util::Stopwatch clock;
      for (const auto& layer : layers) {
        legacy_files += legacy_walk(layer, dirs);
        walk_dirs = dirs;
      }
      const double s = clock.seconds();
      if (legacy_best == 0.0 || s < legacy_best) legacy_best = s;
    }

    mem::Arena scratch;
    for (int w = 0; w < kWarmup; ++w) {
      for (const auto& layer : layers) {
        arena_walk(layer, scratch, dirs);
        scratch.reset();
      }
    }
    double arena_best = 0.0;
    std::uint64_t arena_files = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      util::Stopwatch clock;
      for (const auto& layer : layers) {
        arena_files += arena_walk(layer, scratch, dirs);
        scratch.reset();
      }
      const double s = clock.seconds();
      if (arena_best == 0.0 || s < arena_best) arena_best = s;
    }
    arena_high_water = scratch.high_water();

    walk_files = legacy_files / (kReps * kLayers);
    const double rep_files = static_cast<double>(legacy_files) / kReps;
    legacy_fps = rep_files / legacy_best;
    arena_fps = rep_files / arena_best;
    if (legacy_files != arena_files) {
      std::fprintf(stderr, "walk mismatch: legacy %llu vs arena %llu files\n",
                   static_cast<unsigned long long>(legacy_files),
                   static_cast<unsigned long long>(arena_files));
      return 1;
    }
  }
  const double walk_speedup = legacy_fps > 0.0 ? arena_fps / legacy_fps : 0.0;
  std::printf(
      "\n  analyzer hot path (tar walk + dir profile, %llu files / %llu dirs"
      " per layer):\n"
      "    legacy    %11.0f files/s  (fresh-Entry reader, heap string map)\n"
      "    arena     %11.0f files/s  (reused Entry, per-layer arena map)\n"
      "    speedup   %.2fx\n"
      "    arena high water %llu bytes/layer (steady state: zero heap"
      " traffic)\n",
      static_cast<unsigned long long>(walk_files),
      static_cast<unsigned long long>(walk_dirs), legacy_fps, arena_fps,
      walk_speedup, static_cast<unsigned long long>(arena_high_water));

  // Sorted-map vs ART shard store: same observation stream, measure the
  // upsert phase and the freeze (collect_sorted) phase. The ART drain is a
  // linear in-order walk — no sort — which is the design point that deleted
  // std::sort from the spill path.
  constexpr std::size_t kIndexKeys = 300000;
  double map_insert_ms = 0.0, map_drain_ms = 0.0;
  double art_insert_ms = 0.0, art_drain_ms = 0.0;
  art::Stats art_census;
  double art_bytes_per_key = 0.0;
  {
    util::Rng rng(0xC0FFEE);
    std::vector<std::uint64_t> keys(kIndexKeys);
    // ~25% repeated keys exercise the merge path like real dedup traffic.
    for (auto& key : keys) {
      key = (rng.uniform01() < 0.25 && &key != keys.data())
                ? keys[rng.uniform(static_cast<std::uint64_t>(
                      &key - keys.data()))]
                : rng() | 1;
    }
    dedup::ContentEntry observation;
    observation.count = 1;
    observation.size = 4096;
    observation.type = filetype::Type::kAsciiText;

    auto drive = [&](shard::IndexBackend backend, double& insert_ms,
                     double& drain_ms) {
      shard::ShardStore store(backend, 1 << 12);
      util::Stopwatch insert_clock;
      for (std::uint64_t key : keys) store.merge(key, observation);
      insert_ms = insert_clock.seconds() * 1000.0;
      std::vector<shard::RunEntry> entries;
      util::Stopwatch drain_clock;
      store.collect_sorted(entries);
      drain_ms = drain_clock.seconds() * 1000.0;
      if (backend == shard::IndexBackend::kArt) {
        art_census = store.art_stats();
        art_bytes_per_key =
            static_cast<double>(store.memory_bytes()) /
            static_cast<double>(store.size());
      }
      return entries.size();
    };
    const std::size_t map_entries =
        drive(shard::IndexBackend::kMap, map_insert_ms, map_drain_ms);
    const std::size_t art_entries =
        drive(shard::IndexBackend::kArt, art_insert_ms, art_drain_ms);
    if (map_entries != art_entries) {
      std::fprintf(stderr, "index mismatch: map %zu vs art %zu entries\n",
                   map_entries, art_entries);
      return 1;
    }
    std::printf(
        "\n  shard content index (%zu observations, %zu distinct):\n"
        "    map   insert %8.1f ms   freeze %8.1f ms  (collect + std::sort)\n"
        "    art   insert %8.1f ms   freeze %8.1f ms  (in-order walk, no"
        " sort)\n"
        "    art census: %llu n4 / %llu n16 / %llu n48 / %llu n256 nodes,"
        " %.0f bytes/key\n",
        keys.size(), map_entries, map_insert_ms, map_drain_ms, art_insert_ms,
        art_drain_ms, static_cast<unsigned long long>(art_census.node4),
        static_cast<unsigned long long>(art_census.node16),
        static_cast<unsigned long long>(art_census.node48),
        static_cast<unsigned long long>(art_census.node256),
        art_bytes_per_key);
  }

  // Node16 key probe: the inner-loop byte search of every ART descent,
  // scalar linear scan vs the branchless SSE2 compare+movemask used by
  // Node::child. Same probe stream through both; the checksums must agree
  // (the art_test differential pins correctness, this pins the price).
  double probe_scalar_ms = 0.0, probe_simd_ms = 0.0;
  {
    constexpr std::size_t kProbeNodes = 4096;
    constexpr std::size_t kProbesPerNode = 64;
    constexpr int kProbeWarmup = 2;
    constexpr int kProbeReps = 12;
    struct ProbeNode {
      std::uint8_t keys[16];
      std::uint16_t count;
    };
    util::Rng rng(0xA27B5);
    std::vector<ProbeNode> nodes(kProbeNodes);
    std::vector<std::uint8_t> probes(kProbeNodes * kProbesPerNode);
    for (auto& node : nodes) {
      node.count = static_cast<std::uint16_t>(5 + rng.uniform(12));  // 5..16
      for (std::size_t k = 0; k < 16; ++k) {
        node.keys[k] = static_cast<std::uint8_t>(rng());
      }
    }
    // ~half the probes hit a stored key, half miss — real descents see both.
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const ProbeNode& node = nodes[i % kProbeNodes];
      probes[i] = (i & 1) ? node.keys[rng.uniform(node.count)]
                          : static_cast<std::uint8_t>(rng());
    }
    auto sweep = [&](auto&& find) {
      std::int64_t checksum = 0;
      for (std::size_t i = 0; i < probes.size(); ++i) {
        const ProbeNode& node = nodes[i % kProbeNodes];
        checksum += find(node.keys, node.count, probes[i]);
      }
      return checksum;
    };
    auto time_best = [&](auto&& find, std::int64_t& checksum) {
      for (int w = 0; w < kProbeWarmup; ++w) checksum = sweep(find);
      double best_ms = 0.0;
      for (int rep = 0; rep < kProbeReps; ++rep) {
        util::Stopwatch probe_clock;
        checksum = sweep(find);
        const double ms = probe_clock.seconds() * 1000.0;
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      return best_ms;
    };
    std::int64_t scalar_sum = 0, simd_sum = 0;
    probe_scalar_ms = time_best(
        [](const std::uint8_t* keys, std::uint16_t count, std::uint8_t byte) {
          return art::detail::find_key_scalar(keys, count, byte);
        },
        scalar_sum);
    probe_simd_ms = time_best(
        [](const std::uint8_t* keys, std::uint16_t count, std::uint8_t byte) {
          return art::detail::find_key(keys, count, byte);
        },
        simd_sum);
    if (scalar_sum != simd_sum) {
      std::fprintf(stderr, "node16 probe mismatch: scalar %lld vs simd %lld\n",
                   static_cast<long long>(scalar_sum),
                   static_cast<long long>(simd_sum));
      return 1;
    }
    std::printf(
        "\n  art node16 probe (%zu probes, best of %d):\n"
        "    scalar %8.3f ms   simd %8.3f ms   speedup %.2fx%s\n",
        probes.size(), kProbeReps, probe_scalar_ms, probe_simd_ms,
        probe_simd_ms > 0.0 ? probe_scalar_ms / probe_simd_ms : 0.0,
#if defined(__SSE2__)
        "");
#else
        "  (no SSE2: simd path is the scalar fallback)");
#endif
  }

  util::Stopwatch clock;
  auto run = core::run_end_to_end(options);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 run.error().to_string().c_str());
    return 1;
  }
  const auto& r = run.value();
  const double wall = clock.seconds();

  const double fail_total = static_cast<double>(
      r.download.failed_auth + r.download.failed_no_tag);
  core::FigureTable table("§III", "End-to-end pipeline totals");
  table
      .row("raw search hits / distinct",
           "634,412 / 457,627 (1.386x)",
           core::fmt_ratio(static_cast<double>(r.crawl.raw_hits) /
                               static_cast<double>(r.crawl.repositories.size()),
                           3))
      .row("download failure rate", "23.9%",
           core::fmt_pct(fail_total /
                         static_cast<double>(r.download.attempted)))
      .row("failures needing auth", "13%",
           core::fmt_pct(static_cast<double>(r.download.failed_auth) /
                         fail_total))
      .row("failures missing latest", "87%",
           core::fmt_pct(static_cast<double>(r.download.failed_no_tag) /
                         fail_total))
      .row("unique layers per image",
           "1.79M / 355k = 5.0",
           core::fmt_ratio(static_cast<double>(r.download.layers_fetched) /
                               static_cast<double>(r.download.succeeded),
                           2))
      .row("layer transfers saved by unique-layer dedup", "(substantial)",
           core::fmt_pct(static_cast<double>(r.download.layers_deduped) /
                         static_cast<double>(r.download.layers_deduped +
                                             r.download.layers_fetched)));
  table.print(std::cout);

  std::printf(
      "\n  downloaded %llu images (%s compressed) in %.2fs wall;\n"
      "  analyzer profiled %zu unique layers; file dedup: %s unique\n"
      "  simulated registry service time: %.1f s\n",
      static_cast<unsigned long long>(r.download.succeeded),
      util::format_bytes(r.download.bytes_downloaded).c_str(), wall,
      r.layer_profiles.size(),
      r.file_index
          ? core::fmt_pct(r.file_index->totals().unique_file_fraction()).c_str()
          : "n/a",
      r.service.simulated_ms / 1000.0);

  // --- staged vs streamed under a throttled registry -----------------------
  // The in-process service answers in microseconds, which would hide the
  // overlap the streaming pipeline exists for; network_scale turns the
  // CostModel's modeled service time into real sleeps.
  const char* scale_env = std::getenv("DOCKMINE_NET_SCALE");
  core::PipelineOptions cmp = options;
  cmp.scale.repositories = std::min<std::uint64_t>(
      cmp.scale.repositories, 200);
  cmp.network_scale = scale_env ? std::atof(scale_env) : 0.3;
  cmp.queue_depth = 16;
  // Both modes get the same worker budget; with download and analysis time
  // roughly balanced, the staged barrier pays D + A while the streamed
  // pipeline pays ~max(D, A). The speedup is reported, not gated: it follows
  // that balance, not a property of the code. The reports must match.
  cmp.download_workers = 4;
  cmp.analyze_workers = 4;

  cmp.mode = core::ExecutionMode::kStaged;
  auto staged = core::run_end_to_end(cmp);

  cmp.mode = core::ExecutionMode::kStreamed;
  auto streamed = core::run_end_to_end(cmp);

  if (!staged.ok() || !streamed.ok()) {
    std::fprintf(stderr, "mode comparison failed\n");
    return 1;
  }
  // Compare the pipeline proper (crawl -> download -> analyze -> dedup);
  // both runs also pay an identical registry-materialization setup cost
  // that a real crawl would not, which is excluded here.
  const double staged_wall = staged.value().pipeline_seconds;
  const double streamed_wall = streamed.value().pipeline_seconds;
  const auto& stream = streamed.value().stream;
  const bool identical = core::pipeline_report_json(staged.value()).dump() ==
                         core::pipeline_report_json(streamed.value()).dump();

  std::printf(
      "\n  staged vs streamed (%llu repos, network_scale=%.3g, "
      "DOCKMINE_NET_SCALE overrides):\n"
      "    staged    %.2fs wall  (download barrier, then analyze)\n"
      "    streamed  %.2fs wall  (bounded queue, depth %llu)\n"
      "    speedup   %.2fx\n"
      "    queue peak residency %llu / %llu blobs; producer stalls %llu\n"
      "    injected network stall %.1fs; reports byte-identical: %s\n",
      static_cast<unsigned long long>(cmp.scale.repositories),
      cmp.network_scale, staged_wall, streamed_wall,
      static_cast<unsigned long long>(stream.queue_capacity),
      staged_wall / streamed_wall,
      static_cast<unsigned long long>(stream.queue_peak),
      static_cast<unsigned long long>(stream.queue_capacity),
      static_cast<unsigned long long>(stream.producer_stalls),
      streamed.value().throttled_ms / 1000.0, identical ? "yes" : "NO");
  if (!identical) {
    std::fprintf(stderr, "FAIL: staged and streamed reports differ\n");
    exit_code = 1;
  }

  // --- event-level tracing: overhead guard + trace.json ---------------------
  // Re-run the streamed comparison with the trace journal recording every
  // download/analyze/queue-wait event. Two things come out of it: the
  // journal-on overhead ratio against the journal-off streamed run above
  // (the run fails past the stated bound), and a Chrome/Perfetto trace.json
  // of the run plus its critical-path decomposition.
  constexpr double kTraceOverheadBound = 1.25;
  double traced_wall = 0.0;
  bool traced_identical = false;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  obs::CriticalPathReport crit;
  json::Value trace_doc;
  {
    // Journal recording needs obs on; restore the caller's choice after
    // (and do NOT reset_all — that would wipe a --metrics accumulation).
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::TraceJournal::global().reset();
    obs::set_journal_enabled(true);
    auto traced = core::run_end_to_end(cmp);
    obs::set_journal_enabled(false);
    obs::set_enabled(was_enabled);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n",
                   traced.error().to_string().c_str());
      return 1;
    }
    traced_wall = traced.value().pipeline_seconds;
    traced_identical =
        core::pipeline_report_json(traced.value()).dump() ==
        core::pipeline_report_json(streamed.value()).dump();
    const auto events = obs::TraceJournal::global().snapshot();
    trace_recorded = obs::TraceJournal::global().recorded();
    trace_dropped = obs::TraceJournal::global().dropped();
    crit = obs::critical_path(events);
    trace_doc = obs::trace_to_json(events, trace_recorded, trace_dropped);
  }
  const double overhead = streamed_wall > 0.0 ? traced_wall / streamed_wall
                                              : 1.0;
  std::printf(
      "\n  event-level tracing (streamed re-run, journal on):\n"
      "    traced    %.2fs wall  (%.2fx of untraced; bound %.2fx %s)\n"
      "    journal   %llu events recorded, %llu dropped;"
      " report byte-identical to untraced: %s\n",
      traced_wall, overhead, kTraceOverheadBound,
      overhead <= kTraceOverheadBound ? "OK" : "EXCEEDED",
      static_cast<unsigned long long>(trace_recorded),
      static_cast<unsigned long long>(trace_dropped),
      traced_identical ? "yes" : "NO");
  if (!traced_identical) {
    std::fprintf(stderr, "FAIL: traced and untraced reports differ\n");
    exit_code = 1;
  }
  if (overhead > kTraceOverheadBound) {
    std::fprintf(stderr, "FAIL: journal overhead %.2fx exceeds %.2fx\n",
                 overhead, kTraceOverheadBound);
    exit_code = 1;
  }
  if (crit.root_wall_ms > 0.0) {
    std::printf("    critical path of 'pipeline' (%.2f ms wall, %.1f%% "
                "attributed):\n",
                crit.root_wall_ms,
                100.0 * crit.attributed_ms / crit.root_wall_ms);
    std::size_t shown = 0;
    for (const auto& entry : crit.entries) {
      if (++shown > 5) break;
      std::printf("      %-20s %10.3f ms  (%5.1f%%, %llu segments)\n",
                  entry.name.c_str(), entry.total_ms,
                  100.0 * entry.total_ms / crit.root_wall_ms,
                  static_cast<unsigned long long>(entry.segments));
    }
    std::printf("      %-20s %10.3f ms  (%5.1f%%)\n", "(root self)",
                crit.root_self_ms,
                100.0 * crit.root_self_ms / crit.root_wall_ms);
  }
  {
    const char* trace_path_env = std::getenv("DOCKMINE_TRACE_JSON");
    const std::string trace_path =
        trace_path_env != nullptr ? trace_path_env : "trace.json";
    std::ofstream out(trace_path, std::ios::trunc);
    if (out) {
      out << trace_doc.dump() << "\n";
      std::printf("    wrote %s (chrome://tracing, ui.perfetto.dev)\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
    }
  }

  // Machine-readable summary for CI trend tracking and tooling
  // (DOCKMINE_BENCH_JSON overrides the output path).
  {
    auto doc = json::Value::object();
    doc.set("bench", "pipeline_end2end");
    doc.set("repositories",
            static_cast<std::uint64_t>(options.scale.repositories));
    doc.set("seed", options.scale.seed);

    auto full = json::Value::object();
    full.set("wall_seconds", wall);
    full.set("pipeline_seconds", r.pipeline_seconds);
    full.set("images_downloaded", r.download.succeeded);
    full.set("bytes_downloaded", r.download.bytes_downloaded);
    full.set("unique_layers", static_cast<std::uint64_t>(
                                  r.layer_profiles.size()));
    full.set("unique_file_fraction",
             r.file_index ? r.file_index->totals().unique_file_fraction()
                          : 0.0);
    doc.set("full_run", std::move(full));

    auto modes = json::Value::object();
    modes.set("repositories",
              static_cast<std::uint64_t>(cmp.scale.repositories));
    modes.set("network_scale", cmp.network_scale);
    modes.set("staged_seconds", staged_wall);
    modes.set("streamed_seconds", streamed_wall);
    modes.set("speedup", staged_wall / streamed_wall);
    modes.set("queue_capacity", stream.queue_capacity);
    modes.set("queue_peak", stream.queue_peak);
    modes.set("producer_stalls", stream.producer_stalls);
    modes.set("reports_identical", identical);
    doc.set("mode_comparison", std::move(modes));

    auto trace = json::Value::object();
    trace.set("traced_seconds", traced_wall);
    trace.set("untraced_seconds", streamed_wall);
    trace.set("overhead_ratio", overhead);
    trace.set("overhead_bound", kTraceOverheadBound);
    trace.set("within_bound", overhead <= kTraceOverheadBound);
    trace.set("events_recorded", trace_recorded);
    trace.set("events_dropped", trace_dropped);
    trace.set("report_identical", traced_identical);
    trace.set("critical_path", obs::to_json(crit));
    doc.set("trace", std::move(trace));

    auto hotpath = json::Value::object();
    auto walk = json::Value::object();
    walk.set("files_per_layer", walk_files);
    walk.set("dirs_per_layer", walk_dirs);
    walk.set("legacy_files_per_sec", legacy_fps);
    walk.set("arena_files_per_sec", arena_fps);
    walk.set("speedup", walk_speedup);
    walk.set("arena_high_water_bytes", arena_high_water);
    hotpath.set("walk", std::move(walk));
    auto index = json::Value::object();
    index.set("observations", static_cast<std::uint64_t>(kIndexKeys));
    index.set("map_insert_ms", map_insert_ms);
    index.set("map_freeze_ms", map_drain_ms);
    index.set("art_insert_ms", art_insert_ms);
    index.set("art_freeze_ms", art_drain_ms);
    auto census = json::Value::object();
    census.set("node4", art_census.node4);
    census.set("node16", art_census.node16);
    census.set("node48", art_census.node48);
    census.set("node256", art_census.node256);
    census.set("keys", art_census.values);
    index.set("art_census", std::move(census));
    index.set("art_bytes_per_key", art_bytes_per_key);
    index.set("node16_probe_scalar_ms", probe_scalar_ms);
    index.set("node16_probe_simd_ms", probe_simd_ms);
    index.set("node16_probe_speedup",
              probe_simd_ms > 0.0 ? probe_scalar_ms / probe_simd_ms : 0.0);
#if defined(__SSE2__)
    index.set("node16_probe_simd_enabled", true);
#else
    index.set("node16_probe_simd_enabled", false);
#endif
    hotpath.set("index", std::move(index));
    doc.set("hotpath", std::move(hotpath));

    const char* json_path = std::getenv("DOCKMINE_BENCH_JSON");
    const std::string out_path =
        json_path != nullptr ? json_path : "BENCH_pipeline.json";
    std::ofstream out(out_path, std::ios::trunc);
    if (out) {
      out << doc.dump_pretty() << "\n";
      std::printf("\n  wrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    }
  }
  return exit_code;
}
