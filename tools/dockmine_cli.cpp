// dockmine — command-line front end.
//
//   dockmine analyze  [--repos N] [--seed S] [--cross]   dataset statistics
//   dockmine dedup    [--repos N] [--seed S]             §V dedup report
//   dockmine serve    [--repos N] [--port P] [--state-dir D]
//                     long-lived query/ingest daemon (DESIGN.md §13)
//   dockmine query    SELECTOR --port P                  ask a serve daemon
//   dockmine watch    --port P [--jsonl] [--once]        live daemon monitor
//   dockmine evolve   [--epochs K] [--verify]            temporal epochs +
//                     incremental delta analysis vs batch oracle
//   dockmine serve-registry [--repos N] [--port P]       HTTP registry
//   dockmine crawl    --port P                           crawl a registry
//   dockmine pull     --port P [--workers W] [--token T] mirror a registry
//   dockmine export   [--repos N] --out DIR [--light]    blobs to disk store
//   dockmine metrics  [--repos N] [--format F]           instrumented run
//                     [--shards N] [--spill-mb M] [--spill-dir PATH]
//                     [--export-shards DIR] [--nodes K] [--node I]
//                     [--trace-out F] [--trace-cap N]
//                     [--heartbeat-out F] [--heartbeat-ms N]
//   dockmine merge-shards DIR [DIR ...]                  fold shard sets
//   dockmine merge-obs FILE [FILE ...]                   fold node metrics
//   dockmine coordinate --leases K --spawn-workers W ... distributed run
//   dockmine worker --connect PORT --scratch DIR ...     one worker process
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <fstream>
#include <iostream>
#include <unordered_map>

#include "dockmine/blob/disk_store.h"
#include "dockmine/core/coordinator.h"
#include "dockmine/core/dataset.h"
#include "dockmine/core/lease.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/report.h"
#include "dockmine/core/serve.h"
#include "dockmine/core/watch.h"
#include "dockmine/core/worker.h"
#include "dockmine/crawler/crawler.h"
#include "dockmine/obs/critical_path.h"
#include "dockmine/obs/export.h"
#include "dockmine/obs/heartbeat.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/trace_export.h"
#include "dockmine/dedup/by_type.h"
#include "dockmine/downloader/downloader.h"
#include "dockmine/registry/gc.h"
#include "dockmine/registry/http_gateway.h"
#include "dockmine/shard/merger.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/temporal/delta_analyzer.h"
#include "dockmine/temporal/epoch_model.h"
#include "dockmine/temporal/trend.h"
#include "dockmine/util/bytes.h"
#include "dockmine/util/stopwatch.h"
#include "flags.h"

namespace dockmine::tools {
namespace {

synth::Scale scale_from(const Flags& flags) {
  synth::Scale scale;
  scale.repositories = flags.u64("repos", 1000);
  scale.seed = flags.u64("seed", 20170530);
  return scale;
}

synth::Calibration calibration_from(const Flags& flags) {
  return flags.flag("light") ? synth::Calibration::light()
                             : synth::Calibration::paper();
}

/// What to say about a flag this CLI no longer takes, or "". Flags ignores
/// names it does not read, so a removed flag would otherwise run silently
/// with the defaults instead of what the caller asked for.
std::string removed_flag(const std::string& command, const Flags& flags) {
  const std::string one_path =
      " was removed; every run downloads, then analyzes";
  if (flags.has("mode")) return "--mode" + one_path;
  if (command == "metrics" && flags.has("depth")) return "--depth" + one_path;
  if (command == "serve-registry" && flags.has("workers")) {
    return "--workers was removed; the registry serves each connection on "
           "its own thread";
  }
  return "";
}

int cmd_analyze(const Flags& flags) {
  synth::HubModel hub(calibration_from(flags), scale_from(flags));
  core::DatasetOptions options;
  options.cross_dup = flags.flag("cross");
  options.workers = flags.u64("workers", 0);
  const auto stats = core::DatasetStats::compute(hub, options);

  std::cout << "snapshot: " << hub.repositories().size() << " repos, "
            << stats.image_count << " images, " << stats.unique_layer_count
            << " unique layers, " << util::format_count(stats.total_files)
            << " files (" << util::format_bytes(stats.total_fls_bytes)
            << " uncompressed, " << util::format_bytes(stats.total_cls_bytes)
            << " compressed) in " << stats.compute_seconds << "s\n\n";
  core::print_cdf(std::cout, "compressed layer size", stats.layer_cls,
                  core::fmt_bytes);
  core::print_cdf(std::cout, "files per layer", stats.layer_files,
                  core::fmt_count);
  core::print_cdf(std::cout, "layers per image", stats.image_layers,
                  core::fmt_count);
  core::print_cdf(std::cout, "pulls per repository", stats.repo_pulls,
                  core::fmt_count);
  if (options.cross_dup) {
    core::print_cdf(std::cout, "cross-layer duplicate fraction",
                    stats.cross_layer_dup,
                    [](double v) { return core::fmt_pct(v); });
  }
  return 0;
}

int cmd_dedup(const Flags& flags) {
  synth::HubModel hub(calibration_from(flags), scale_from(flags));
  const auto stats = core::DatasetStats::compute(hub, {});
  const auto totals = stats.file_index->totals();
  const dedup::TypeBreakdown breakdown(*stats.file_index);

  std::cout << "files: " << util::format_count(totals.total_files) << " ("
            << util::format_bytes(totals.total_bytes) << ")\n"
            << "unique: " << util::format_count(totals.unique_files) << " ("
            << util::format_bytes(totals.unique_bytes) << ", "
            << util::format_percent(totals.unique_file_fraction()) << ")\n"
            << "dedup: " << core::fmt_ratio(totals.count_ratio()) << " count, "
            << core::fmt_ratio(totals.capacity_ratio()) << " capacity\n"
            << "layer sharing: " << core::fmt_ratio(stats.sharing.sharing_ratio())
            << "\n\nby group (count% / capacity% / dedup%):\n";
  for (std::size_t g = 0; g < filetype::kGroupCount; ++g) {
    const auto group = static_cast<filetype::Group>(g);
    std::printf("  %-5s %6s  %6s  %6s\n",
                std::string(filetype::to_string(group)).c_str(),
                core::fmt_pct(breakdown.count_share(group)).c_str(),
                core::fmt_pct(breakdown.capacity_share(group)).c_str(),
                core::fmt_pct(breakdown.by_group(group).capacity_removed()).c_str());
  }
  return 0;
}

std::atomic<bool> g_interrupted{false};

int cmd_serve_registry(const Flags& flags) {
  synth::Scale scale = scale_from(flags);
  if (flags.str("repos").empty()) scale.repositories = 200;
  synth::HubModel hub(calibration_from(flags), scale);
  registry::Service service;
  // Gzip on every core: this verb refuses --workers (the gateway serves
  // each connection on its own thread), so no flag sizes the gzip threads.
  synth::Materializer materializer(hub, static_cast<int>(flags.u64("gzip", compress::kDefaultLevel)),
                                   /*threads=*/0);
  auto pushed = materializer.populate(service);
  if (!pushed.ok()) {
    std::cerr << pushed.error().to_string() << "\n";
    return 1;
  }
  registry::SearchIndex search(service);
  registry::HttpGateway gateway(service, &search);
  auto server = gateway.serve(static_cast<std::uint16_t>(flags.u64("port", 0)));
  if (!server.ok()) {
    std::cerr << server.error().to_string() << "\n";
    return 1;
  }
  std::cout << "serving " << scale.repositories
            << " repositories on 127.0.0.1:" << server.value()->port()
            << " — Ctrl-C to stop\n";
  std::signal(SIGINT, [](int) { g_interrupted.store(true); });
  std::signal(SIGTERM, [](int) { g_interrupted.store(true); });
  const std::uint64_t max_requests = flags.u64("max-requests", 0);
  while (!g_interrupted.load()) {
    if (max_requests != 0 &&
        server.value()->requests_served() >= max_requests) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "served " << server.value()->requests_served()
            << " requests\n";
  server.value()->stop();
  return 0;
}

int cmd_crawl(const Flags& flags) {
  const auto port = static_cast<std::uint16_t>(flags.u64("port", 0));
  if (port == 0) {
    std::cerr << "crawl requires --port\n";
    return 2;
  }
  registry::RemoteRegistry remote(port, flags.str("token"));
  crawler::Crawler crawler(remote, flags.u64("page-size", 100));
  const auto result = crawler.crawl_all();
  std::cout << result.repositories.size() << " repositories ("
            << result.raw_hits << " raw hits, " << result.duplicates_removed
            << " duplicates, " << result.pages_fetched << " pages";
  if (result.pages_retried != 0) {
    std::cout << ", " << result.pages_retried << " retried";
  }
  std::cout << ")\n";
  if (flags.flag("list")) {
    for (const auto& name : result.repositories) std::cout << name << "\n";
  }
  if (result.pages_failed != 0) {
    std::cerr << "crawl truncated: " << result.pages_failed
              << " page(s) unreachable\n";
    return 1;
  }
  return 0;
}

int cmd_pull(const Flags& flags) {
  const auto port = static_cast<std::uint16_t>(flags.u64("port", 0));
  if (port == 0) {
    std::cerr << "pull requires --port\n";
    return 2;
  }
  registry::RemoteRegistry remote(port, flags.str("token"));
  crawler::Crawler crawler(remote);
  const auto crawl = crawler.crawl_all();

  downloader::Options options;
  options.workers = flags.u64("workers", 4);
  options.authenticated = !flags.str("token").empty();
  downloader::Downloader downloader(remote, options);
  util::Stopwatch clock;
  const auto stats = downloader.run(crawl.repositories, nullptr);
  std::cout << stats.succeeded << "/" << stats.attempted << " images, "
            << util::format_bytes(stats.bytes_downloaded) << " in "
            << clock.seconds() << "s (" << stats.layers_fetched
            << " layer transfers, " << stats.layers_deduped
            << " deduped; " << stats.failed_auth << " auth, "
            << stats.failed_no_tag << " no-latest";
  if (stats.failed_digest != 0) std::cout << ", " << stats.failed_digest << " digest";
  const std::uint64_t other = stats.failed_missing + stats.failed_other;
  if (other != 0) std::cout << ", " << other << " other";
  std::cout << ")\n";
  return 0;
}

int cmd_export(const Flags& flags) {
  const std::string out = flags.str("out");
  if (out.empty()) {
    std::cerr << "export requires --out DIR\n";
    return 2;
  }
  synth::Scale scale = scale_from(flags);
  if (flags.str("repos").empty()) scale.repositories = 100;
  synth::HubModel hub(calibration_from(flags), scale);
  auto store = blob::DiskStore::open(out);
  if (!store.ok()) {
    std::cerr << store.error().to_string() << "\n";
    return 1;
  }
  const synth::Materializer materializer(
      hub, static_cast<int>(flags.u64("gzip", compress::kDefaultLevel)));
  std::uint64_t layers = 0;
  for (synth::LayerId id : hub.unique_layers()) {
    auto blob_bytes = materializer.layer_blob(hub.layer_spec(id));
    if (!blob_bytes.ok()) {
      std::cerr << blob_bytes.error().to_string() << "\n";
      return 1;
    }
    if (auto put = store.value().put(blob_bytes.value()); !put.ok()) {
      std::cerr << put.error().to_string() << "\n";
      return 1;
    }
    ++layers;
  }
  auto usage = store.value().usage();
  std::cout << "exported " << layers << " layer blobs ("
            << util::format_bytes(usage.ok() ? usage.value().bytes : 0)
            << ") to " << out << "\n";
  return 0;
}

int cmd_report(const Flags& flags) {
  synth::HubModel hub(calibration_from(flags), scale_from(flags));
  core::DatasetOptions options;
  options.file_dedup = true;
  options.cross_dup = flags.flag("cross");
  const auto stats = core::DatasetStats::compute(hub, options);
  const auto totals = stats.file_index->totals();
  const dedup::TypeBreakdown breakdown(*stats.file_index);
  const auto refs = stats.sharing.reference_count_cdf();

  std::cout << "snapshot: " << hub.repositories().size() << " repos, "
            << stats.image_count << " images, " << stats.unique_layer_count
            << " layers, " << util::format_count(stats.total_files)
            << " files\n";

  core::FigureTable layers("Layers", "paper Figs. 3-7");
  layers
      .row("CLS median / p90", "<4 MB / 63 MB",
           core::fmt_bytes(stats.layer_cls.median()) + " / " +
               core::fmt_bytes(stats.layer_cls.p90()))
      .row("FLS median / p90", "<4 MB / 177 MB",
           core::fmt_bytes(stats.layer_fls.median()) + " / " +
               core::fmt_bytes(stats.layer_fls.p90()))
      .row("compression ratio p50 / p90", "2.6 / 4",
           core::fmt_ratio(stats.layer_ratio.median()) + " / " +
               core::fmt_ratio(stats.layer_ratio.p90()))
      .row("files p50 / p90 / empty / single", "30 / 7,410 / 7% / 27%",
           core::fmt_count(stats.layer_files.median()) + " / " +
               core::fmt_count(stats.layer_files.p90()) + " / " +
               core::fmt_pct(stats.layer_files.fraction_equal(0)) + " / " +
               core::fmt_pct(stats.layer_files.fraction_equal(1)))
      .row("dirs p50 / p90", "11 / 826",
           core::fmt_count(stats.layer_dirs.median()) + " / " +
               core::fmt_count(stats.layer_dirs.p90()))
      .row("depth p50 / p90", "<4 / <10",
           core::fmt_count(stats.layer_depth.median()) + " / " +
               core::fmt_count(stats.layer_depth.p90()));
  layers.print(std::cout);

  core::FigureTable images("Images", "paper Figs. 8-12");
  images
      .row("pulls p50 / p90", "40 / 333",
           core::fmt_count(stats.repo_pulls.median()) + " / " +
               core::fmt_count(stats.repo_pulls.p90()))
      .row("CIS / FIS median", "17 MB / 94 MB",
           core::fmt_bytes(stats.image_cis.median()) + " / " +
               core::fmt_bytes(stats.image_fis.median()))
      .row("layers p50 / p90", "8 / 18",
           core::fmt_count(stats.image_layers.median()) + " / " +
               core::fmt_count(stats.image_layers.p90()))
      .row("files / dirs median", "1,090 / 296",
           core::fmt_count(stats.image_files.median()) + " / " +
               core::fmt_count(stats.image_dirs.median()));
  images.print(std::cout);

  core::FigureTable dedup_table("Dedup", "paper Figs. 23-27 (scale-dep.)");
  dedup_table
      .row("layer refcount =1 / =2", "90% / 5%",
           core::fmt_pct(refs.fraction_equal(1)) + " / " +
               core::fmt_pct(refs.fraction_equal(2)))
      .row("layer sharing", "1.8x",
           core::fmt_ratio(stats.sharing.sharing_ratio()))
      .row("unique files", "3.2% @5.28G files",
           core::fmt_pct(totals.unique_file_fraction()))
      .row("dedup count / capacity", "31.5x / 6.9x @5.28G",
           core::fmt_ratio(totals.count_ratio(), 1) + " / " +
               core::fmt_ratio(totals.capacity_ratio(), 1))
      .row("overall capacity removed", "85.69% @5.28G",
           core::fmt_pct(breakdown.overall().capacity_removed()));
  dedup_table.print(std::cout);
  std::cout << "\n(run the bench binaries for the per-figure tables and"
               " histograms)\n";
  return 0;
}

int cmd_metrics(const Flags& flags) {
  const std::string format = flags.str("format").empty()
                                 ? std::string("table")
                                 : flags.str("format");
  if (format != "table" && format != "json" && format != "prom") {
    std::cerr << "metrics: --format must be table, json, or prom\n";
    return 2;
  }

  core::PipelineOptions options;
  options.scale = scale_from(flags);
  if (flags.str("repos").empty()) options.scale.repositories = 100;
  // An instrumented demo run wants to finish quickly; `--paper` opts into
  // the full calibration.
  options.calibration = flags.flag("paper") ? synth::Calibration::paper()
                                            : synth::Calibration::light();
  options.download_workers = flags.u64("workers", 0);
  options.analyze_workers = flags.u64("workers", 0);

  options.shard.shards = static_cast<std::uint32_t>(flags.u64("shards", 1));
  options.shard.spill_threshold_bytes = flags.u64("spill-mb", 64) << 20;
  options.shard.spill_dir = flags.str("spill-dir");
  options.shard_export_dir = flags.str("export-shards");
  options.node_count = static_cast<std::uint32_t>(flags.u64("nodes", 1));
  options.node_index = static_cast<std::uint32_t>(flags.u64("node", 0));
  if (options.node_index >= options.node_count) {
    std::cerr << "metrics: --node must be < --nodes\n";
    return 2;
  }

  const std::string trace_out = flags.str("trace-out");
  const std::string heartbeat_out = flags.str("heartbeat-out");

  obs::set_enabled(true);
  // A node split (--nodes K --node I) is one node of a simulated cluster:
  // stamp the node id so the export folds cleanly under `merge-obs`.
  if (options.node_count > 1) obs::set_node_id(options.node_index);
  if (!trace_out.empty()) {
    const std::uint64_t cap = flags.u64("trace-cap", 0);
    if (cap != 0) obs::TraceJournal::global().set_capacity(cap);
    obs::set_journal_enabled(true);
  }
  if (!heartbeat_out.empty()) {
    obs::HeartbeatOptions hb;
    hb.interval_ms = flags.u64("heartbeat-ms", 1000);
    hb.path = heartbeat_out;
    if (!obs::start_heartbeat(hb)) {
      std::cerr << "metrics: cannot start heartbeat at " << heartbeat_out
                << "\n";
      return 1;
    }
  }
  auto result = core::run_end_to_end(options);
  obs::stop_heartbeat();
  obs::set_enabled(false);
  if (!result.ok()) {
    obs::set_journal_enabled(false);
    std::cerr << result.error().to_string() << "\n";
    return 1;
  }

  obs::CriticalPathReport crit;
  if (!trace_out.empty()) {
    const json::Value trace = obs::trace_to_json();
    crit = obs::critical_path(obs::TraceJournal::global().snapshot());
    obs::set_journal_enabled(false);
    std::ofstream file(trace_out, std::ios::binary | std::ios::trunc);
    if (!file.is_open() || !(file << trace.dump())) {
      std::cerr << "metrics: cannot write " << trace_out << "\n";
      return 1;
    }
  }

  const obs::MetricsReport report = obs::collect();
  if (format == "json") {
    std::cout << obs::to_json(report).dump() << "\n";
  } else if (format == "prom") {
    std::cout << obs::to_prometheus(report);
  } else {
    std::cout << "metrics for an end-to-end run over "
              << options.scale.repositories << " repositories\n";
    core::print_metrics(std::cout, report);
    if (!trace_out.empty() && crit.root_wall_ms > 0.0) {
      std::cout << "critical path of '" << crit.root_name << "' ("
                << crit.root_wall_ms << " ms wall):\n";
      std::size_t shown = 0;
      for (const auto& entry : crit.entries) {
        if (++shown > 10) break;  // top-k
        std::printf("  %-24s %10.3f ms  (%5.1f%%, %llu segments)\n",
                    entry.name.c_str(), entry.total_ms,
                    100.0 * entry.total_ms / crit.root_wall_ms,
                    static_cast<unsigned long long>(entry.segments));
      }
      std::printf("  %-24s %10.3f ms  (%5.1f%%)\n", "(root self)",
                  crit.root_self_ms,
                  100.0 * crit.root_self_ms / crit.root_wall_ms);
      std::cout << "trace written to " << trace_out << "\n";
    }
    const auto& sharded = result.value().shard_summary;
    std::cout << "shards: " << sharded.shards << " shards, "
              << util::format_count(sharded.observations)
              << " observations -> "
              << util::format_count(sharded.distinct_contents)
              << " distinct contents, " << sharded.spills << " spills ("
              << util::format_bytes(sharded.spilled_bytes)
              << "), peak resident "
              << util::format_bytes(sharded.peak_resident_bytes) << ", "
              << sharded.runs_merged << " runs merged";
    if (sharded.metadata_conflicts != 0) {
      std::cout << ", " << sharded.metadata_conflicts << " conflicts";
    }
    if (!sharded.export_manifest.empty()) {
      std::cout << "\nexported shard set: " << sharded.export_manifest;
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_merge_shards(const Flags& flags) {
  if (flags.positional().empty()) {
    std::cerr << "merge-shards requires one or more shard-set directories\n";
    return 2;
  }
  shard::ShardMerger merger;
  for (const std::string& dir : flags.positional()) {
    if (auto added = merger.add_shard_set(dir); !added.ok()) {
      std::cerr << added.error().to_string() << "\n";
      return 1;
    }
  }
  auto merged = merger.merge_aggregates();
  if (!merged.ok()) {
    std::cerr << merged.error().to_string() << "\n";
    return 1;
  }
  const auto& aggregates = merged.value();
  const auto& totals = aggregates.totals;
  std::cout << "merged " << merger.stats().runs << " runs from "
            << flags.positional().size() << " shard set(s), "
            << util::format_count(merger.stats().entries_read)
            << " run entries\n"
            << "files: " << util::format_count(totals.total_files) << " ("
            << util::format_bytes(totals.total_bytes) << ")\n"
            << "unique: " << util::format_count(totals.unique_files) << " ("
            << util::format_bytes(totals.unique_bytes) << ", "
            << util::format_percent(totals.unique_file_fraction()) << ")\n"
            << "dedup: " << core::fmt_ratio(totals.count_ratio())
            << " count, " << core::fmt_ratio(totals.capacity_ratio())
            << " capacity\n"
            << "max repeat: " << util::format_count(aggregates.max_repeat.count)
            << " copies of a " << util::format_bytes(aggregates.max_repeat.size)
            << " file\n";
  if (aggregates.metadata_conflicts != 0) {
    std::cout << "metadata conflicts: " << aggregates.metadata_conflicts
              << "\n";
  }
  std::cout << "\nby group (count% / capacity% / dedup%):\n";
  for (std::size_t g = 0; g < filetype::kGroupCount; ++g) {
    const auto group = static_cast<filetype::Group>(g);
    std::printf("  %-5s %6s  %6s  %6s\n",
                std::string(filetype::to_string(group)).c_str(),
                core::fmt_pct(aggregates.by_type.count_share(group)).c_str(),
                core::fmt_pct(aggregates.by_type.capacity_share(group)).c_str(),
                core::fmt_pct(
                    aggregates.by_type.by_group(group).capacity_removed())
                    .c_str());
  }
  return 0;
}

int cmd_merge_obs(const Flags& flags) {
  if (flags.positional().empty()) {
    std::cerr << "merge-obs requires one or more obs-node-*.json exports\n";
    return 2;
  }
  const std::string format = flags.str("format").empty()
                                 ? std::string("table")
                                 : flags.str("format");
  if (format != "table" && format != "json" && format != "prom") {
    std::cerr << "merge-obs: --format must be table, json, or prom\n";
    return 2;
  }
  auto merged = obs::merge_obs_exports(flags.positional());
  if (!merged.ok()) {
    std::cerr << merged.error().to_string() << "\n";
    return 1;
  }
  const obs::ObsMergeResult& result = merged.value();
  if (format == "json") {
    json::Value nodes = json::Value::array();
    for (const obs::ObsNodeSummary& node : result.nodes) {
      json::Value row = json::Value::object();
      row.set("source", node.source);
      row.set("node", std::uint64_t{node.node});
      row.set("pipeline_wall_ms", node.pipeline_wall_ms);
      row.set("straggler_delta_ms", node.straggler_delta_ms);
      nodes.push_back(std::move(row));
    }
    json::Value doc = json::Value::object();
    doc.set("merged", obs::to_json(result.merged));
    doc.set("nodes", std::move(nodes));
    std::cout << doc.dump() << "\n";
  } else if (format == "prom") {
    std::cout << obs::to_prometheus(result.merged);
  } else {
    std::cout << "merged metrics from " << result.nodes.size()
              << " node export(s)\n";
    core::print_metrics(std::cout, result.merged);
    std::cout << "per-node pipeline wall (straggler delta vs fastest):\n";
    for (const obs::ObsNodeSummary& node : result.nodes) {
      std::printf("  node %-3u %12.3f ms  (+%.3f ms)  %s\n", node.node,
                  node.pipeline_wall_ms, node.straggler_delta_ms,
                  node.source.c_str());
    }
  }
  return 0;
}

int cmd_gc(const Flags& flags) {
  const std::string dir = flags.str("dir");
  if (dir.empty()) {
    std::cerr << "gc requires --dir STORE (and --live manifest.json ...)\n";
    return 2;
  }
  auto store = blob::DiskStore::open(dir);
  if (!store.ok()) {
    std::cerr << store.error().to_string() << "\n";
    return 1;
  }
  std::vector<std::string> live;
  for (const std::string& path : flags.positional()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read live manifest " << path << "\n";
      return 1;
    }
    live.emplace_back((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  }
  auto report = registry::collect_garbage(live, store.value());
  if (!report.ok()) {
    std::cerr << report.error().to_string() << "\n";
    return 1;
  }
  std::cout << "kept " << report.value().live_blobs << " blobs ("
            << util::format_bytes(report.value().live_bytes) << "), swept "
            << report.value().swept_blobs << " ("
            << util::format_bytes(report.value().swept_bytes) << ")\n";
  return 0;
}

// The temporal stack shared by `serve --temporal` and `evolve`: one
// evolving registry plus the incremental analyzer, advanced one epoch per
// call, epoch 0 first. Everything is seeded, so replaying epochs 0..K after
// a restart reproduces the exact resident state.
struct TemporalStack {
  synth::HubModel hub;
  temporal::EpochModel model;
  registry::Service service;
  temporal::EvolvingRegistry evolving;
  temporal::DeltaAnalyzer analyzer;

  TemporalStack(const synth::Calibration& calibration,
                const synth::Scale& scale, int gzip_level)
      : hub(calibration, scale), model(hub), evolving(model, gzip_level) {}

  util::Result<temporal::EpochDelta> advance() {
    auto pushed = evolving.advance(service);
    if (!pushed.ok()) return std::move(pushed).error();
    return analyzer.apply_epoch(service, pushed.value().epoch,
                                pushed.value().repushed);
  }
};

int cmd_evolve(const Flags& flags) {
  synth::Scale scale = scale_from(flags);
  if (flags.str("repos").empty()) scale.repositories = 120;
  const synth::Calibration calibration = flags.flag("paper")
                                             ? synth::Calibration::paper()
                                             : synth::Calibration::light();
  const int gzip_level = static_cast<int>(flags.u64("gzip", compress::kDefaultLevel));
  const auto epochs = static_cast<std::uint32_t>(flags.u64("epochs", 4));

  TemporalStack stack(calibration, scale, gzip_level);
  temporal::TrendReport trend;
  for (std::uint32_t epoch = 0; epoch <= epochs; ++epoch) {
    auto delta = stack.advance();
    if (!delta.ok()) {
      std::cerr << "evolve: " << delta.error().to_string() << "\n";
      return 1;
    }
    if (auto observed = trend.observe(stack.analyzer); !observed.ok()) {
      std::cerr << "evolve: " << observed.error().to_string() << "\n";
      return 1;
    }
    const temporal::EpochDelta& d = delta.value();
    std::cout << "epoch " << epoch << ": " << d.repos_delivered << "/"
              << d.repos_churned << " repos, " << d.layers_changed
              << " layers analyzed, " << d.layers_reused << " reused, "
              << d.layers_removed << " retired ("
              << util::format_bytes(d.bytes_fetched) << " fetched, "
              << d.wall_ms << " ms)\n";

    if (flags.flag("verify")) {
      // Batch oracle: a fresh registry built from scratch at this epoch,
      // analyzed by the ordinary pipeline — the incremental report must be
      // byte-identical.
      registry::Service oracle_service;
      auto built = temporal::build_registry_at_epoch(stack.model, epoch,
                                                     gzip_level,
                                                     oracle_service);
      if (!built.ok()) {
        std::cerr << "evolve: " << built.error().to_string() << "\n";
        return 1;
      }
      core::PipelineOptions options;
      options.scale = scale;
      options.calibration = calibration;
      options.gzip_level = gzip_level;
      options.download_workers = flags.u64("workers", 0);
      options.analyze_workers = flags.u64("workers", 0);
      options.external_service = &oracle_service;
      auto batch = core::run_end_to_end(options);
      if (!batch.ok()) {
        std::cerr << "evolve: oracle run failed: "
                  << batch.error().to_string() << "\n";
        return 1;
      }
      auto incremental = stack.analyzer.report();
      if (!incremental.ok()) {
        std::cerr << "evolve: " << incremental.error().to_string() << "\n";
        return 1;
      }
      if (incremental.value().dump() !=
          core::analysis_report_json(batch.value()).dump()) {
        std::cerr << "evolve: VERIFY FAILED — incremental epoch-" << epoch
                  << " report differs from the from-scratch batch report\n";
        return 1;
      }
      std::cout << "epoch " << epoch
                << ": verified — incremental report is byte-identical to"
                   " the batch oracle\n";
    }
  }

  const std::string trend_out = flags.str("trend-out");
  if (!trend_out.empty()) {
    std::ofstream file(trend_out, std::ios::binary | std::ios::trunc);
    if (!file.is_open() || !(file << trend.to_json().dump_pretty() << "\n")) {
      std::cerr << "evolve: cannot write " << trend_out << "\n";
      return 1;
    }
    std::cout << "trend series written to " << trend_out << "\n";
  }
  const auto totals = stack.analyzer.contents().totals();
  std::cout << "final: epoch " << stack.analyzer.epoch() << ", "
            << stack.analyzer.resident_images() << " images, "
            << stack.analyzer.resident_layers() << " layers, dedup "
            << core::fmt_ratio(totals.count_ratio()) << " count / "
            << core::fmt_ratio(totals.capacity_ratio()) << " capacity\n";
  return 0;
}

/// Exit status for a daemon that failed to start: 2 when the flags asked
/// for an invalid job (check_job_spec), 1 for anything else.
int usage_or_failure(const util::Error& error) {
  return error.code() == util::ErrorCode::kInvalidArgument ? 2 : 1;
}

/// The job flags shared by serve and coordinate.
core::JobSpec job_spec_from(const Flags& flags) {
  core::JobSpec spec;
  spec.repositories = flags.u64("repos", 120);
  spec.seed = flags.u64("seed", 20170530);
  spec.light_calibration = !flags.flag("paper");
  spec.gzip_level = static_cast<int>(flags.u64("gzip", compress::kDefaultLevel));
  spec.threads = flags.u64("workers", 0);
  spec.shards = static_cast<std::uint32_t>(flags.u64("shards", 4));
  return spec;
}

int cmd_serve(const Flags& flags) {
  core::serve::ServeOptions options;
  options.job = job_spec_from(flags);
  if (flags.str("repos").empty()) options.job.repositories = 40;
  options.state_dir = flags.str("state-dir", "dockmine-serve-state");
  options.port = static_cast<std::uint16_t>(flags.u64("port", 0));
  options.io_timeout_ms =
      static_cast<std::uint32_t>(flags.u64("io-timeout-ms", 200));
  options.slowloris_ms = flags.u64("slowloris-ms", 10000);

  if (flags.flag("telemetry")) {
    // Continuous telemetry implies the obs switches: the sampler scrapes
    // the registry, and trace-tail serves the journal.
    obs::set_enabled(true);
    obs::set_journal_enabled(true);
    options.telemetry.enabled = true;
    options.telemetry.sample_interval_ms = flags.u64("sample-ms", 1000);
    const std::string threshold = flags.str("slowlog-threshold-ms");
    if (!threshold.empty()) {
      options.telemetry.slowlog_threshold_ms =
          std::strtod(threshold.c_str(), nullptr);
    }
    options.telemetry.alert_log_path = flags.str("alert-log");
  }

  if (flags.flag("temporal")) {
    // Temporal mode: the daemon serves an evolving registry; ingest-epoch
    // advances it one epoch. The stack outlives the daemon via the shared
    // capture.
    synth::Scale scale;
    scale.repositories = options.job.repositories;
    scale.seed = options.job.seed;
    auto stack = std::make_shared<TemporalStack>(
        options.job.light_calibration ? synth::Calibration::light()
                                      : synth::Calibration::paper(),
        scale, options.job.gzip_level);
    // The daemon asks for epochs in order from 0, as the stack advances.
    options.temporal_advance =
        [stack](std::uint32_t) -> util::Result<core::PipelineResult> {
      auto delta = stack->advance();
      if (!delta.ok()) return std::move(delta).error();
      return stack->analyzer.result();
    };
  }

  core::serve::ServeDaemon daemon(std::move(options));
  if (auto started = daemon.start(); !started.ok()) {
    std::cerr << "serve: " << started.error().to_string() << "\n";
    return usage_or_failure(started.error());
  }
  const auto snapshot = daemon.snapshot();
  const std::string report_out = flags.str("report-out");
  if (!report_out.empty()) {
    std::ofstream file(report_out, std::ios::binary | std::ios::trunc);
    // Trailing newline so the file is byte-identical to `dockmine query
    // report` output — the serve-smoke CI job cmp's the two.
    if (!file.is_open() || !(file << snapshot->report.dump() << "\n")) {
      std::cerr << "serve: cannot write " << report_out << "\n";
      return 1;
    }
  }
  std::cout << "serving 127.0.0.1:" << daemon.port() << " epoch "
            << snapshot->epoch << " (" << snapshot->images.size()
            << " images) — Ctrl-C or a shutdown request to stop" << std::endl;
  std::signal(SIGINT, [](int) { g_interrupted.store(true); });
  std::signal(SIGTERM, [](int) { g_interrupted.store(true); });
  while (!g_interrupted.load() && !daemon.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  daemon.stop();
  std::cout << "serve: stopped at epoch " << daemon.snapshot()->epoch << "\n";
  return 0;
}

int cmd_query(const Flags& flags) {
  const auto port = static_cast<std::uint16_t>(flags.u64("port", 0));
  if (port == 0) {
    std::cerr << "query requires --port\n";
    return 2;
  }
  const std::string selector = flags.positional().empty()
                                   ? flags.str("q", "report")
                                   : flags.positional().front();
  core::serve::Request request;
  request.id = flags.u64("id", 1);
  if (selector == "ingest") {
    request.kind = core::serve::RequestKind::kIngest;
    request.repositories = flags.u64("repos", 0);
    request.seed = flags.u64("seed", 20170530);
    if (request.repositories == 0) {
      std::cerr << "query ingest requires --repos N\n";
      return 2;
    }
  } else if (selector == "ingest-epoch") {
    request.kind = core::serve::RequestKind::kIngestEpoch;
  } else if (selector == "shutdown") {
    request.kind = core::serve::RequestKind::kShutdown;
  } else {
    request.kind = core::serve::RequestKind::kQuery;
    request.q = selector;
    request.path = flags.str("path");
    request.repository = flags.str("repo");
    request.key = flags.u64("key", 0);
    request.name = flags.str("name");
    request.metric = flags.str("metric", "cis");
    request.n = flags.u64("n", selector == "trace-tail" ? 0 : 10);
    request.prefix = flags.str("prefix");
    request.op = flags.str("op");
    request.range_ms = flags.u64("range-ms", 0);
    request.window_ms = flags.u64("window-ms", 0);
    const std::string quantile = flags.str("quantile");
    if (!quantile.empty()) {
      request.quantile = std::strtod(quantile.c_str(), nullptr);
    }
  }
  // Ingest runs a whole pipeline batch (or temporal epoch) before
  // answering; give it room.
  const std::uint64_t default_timeout =
      selector == "ingest" || selector == "ingest-epoch" ? 600000 : 10000;
  auto client = core::serve::Client::connect(
      port, static_cast<std::uint32_t>(flags.u64("timeout-ms", default_timeout)));
  if (!client.ok()) {
    std::cerr << "query: " << client.error().to_string() << "\n";
    return 1;
  }
  auto response = client.value().call(request);
  if (!response.ok()) {
    std::cerr << "query: " << response.error().to_string() << "\n";
    return 1;
  }
  if (!response.value().ok) {
    std::cerr << "query: server error (epoch " << response.value().epoch
              << "): " << response.value().error << "\n";
    return 1;
  }
  std::cout << response.value().body.dump() << "\n";
  return 0;
}

int cmd_watch(const Flags& flags) {
  core::watch::WatchOptions options;
  options.port = static_cast<std::uint16_t>(flags.u64("port", 0));
  options.jsonl = flags.flag("jsonl");
  options.once = flags.flag("once");
  options.interval_ms = flags.u64("interval-ms", 1000);
  if (options.port == 0) {
    std::cerr << "watch requires --port\n";
    return 2;
  }
  auto result = core::watch::run(options);
  if (!result.ok()) {
    std::cerr << "watch: " << result.error().to_string() << "\n";
    return 1;
  }
  return 0;
}

int cmd_worker(const Flags& flags) {
  core::WorkerOptions options;
  options.port = static_cast<std::uint16_t>(flags.u64("connect", 0));
  options.worker_id = flags.u64("id", 0);
  options.scratch_dir = flags.str("scratch", "dockmine-worker-scratch");
  options.heartbeat_interval_ms = flags.u64("heartbeat-ms", 100);
  options.io_timeout_ms =
      static_cast<std::uint32_t>(flags.u64("io-timeout-ms", 500));
  options.idle_timeout_ms = flags.u64("idle-timeout-ms", 60000);
  options.chaos.die_on_first_lease = flags.flag("chaos-die-after-one");
  options.chaos.hang_on_first_lease = flags.flag("chaos-hang-after-one");
  options.chaos.hang_ms = flags.u64("chaos-hang-ms", 30000);
  if (options.port == 0) {
    std::cerr << "worker requires --connect PORT\n";
    return 2;
  }
  // Heartbeats carry the metric snapshot and each lease ships an obs
  // export; the coordinator's merge-obs view depends on workers observing.
  obs::set_enabled(true);
  auto result = core::run_worker(options);
  if (!result.ok()) {
    std::cerr << "worker: " << result.error().to_string() << "\n";
    return 1;
  }
  const core::WorkerStats& stats = result.value();
  std::cerr << "worker done: " << stats.leases_completed << " lease(s), "
            << stats.leases_failed << " failed, " << stats.heartbeats_sent
            << " heartbeats, " << stats.files_shipped << " files ("
            << util::format_bytes(stats.bytes_shipped) << ")"
            << (stats.shutdown_received ? "" : " [no shutdown frame]")
            << "\n";
  return 0;
}

int cmd_coordinate(const Flags& flags) {
  core::CoordinatorOptions options;
  options.spec = job_spec_from(flags);
  options.leases = static_cast<std::uint32_t>(flags.u64("leases", 3));
  options.work_dir = flags.str("work-dir", "dockmine-coordinate");
  options.port = static_cast<std::uint16_t>(flags.u64("port", 0));
  options.heartbeat_deadline_ms = flags.u64("heartbeat-deadline-ms", 2000);
  options.straggler_factor = flags.flag("no-stragglers") ? 0.0 : 3.0;
  options.duplicate_every_lease = flags.flag("duplicate-every-lease");
  options.max_wall_ms = flags.u64("max-wall-ms", 10 * 60 * 1000);
  options.retry.max_attempts =
      static_cast<int>(flags.u64("max-attempts", 5));
  options.retry.retry_budget = flags.u64("retry-budget", 64);
  options.seed = options.spec.seed;

  obs::set_enabled(true);
  core::Coordinator coordinator(options);
  if (auto bound = coordinator.bind(); !bound.ok()) {
    std::cerr << "coordinate: " << bound.error().to_string() << "\n";
    return usage_or_failure(bound.error());
  }
  std::cerr << "coordinate: listening on 127.0.0.1:" << coordinator.port()
            << ", " << options.leases << " lease(s)\n";

  // Spawn local workers: fork + exec this binary's `worker` verb. Forking
  // happens before run() starts any coordinator thread.
  const std::uint64_t spawn = flags.u64("spawn-workers", 0);
  const std::uint64_t kill_index = flags.u64("chaos-kill-worker", spawn);
  const std::uint64_t hang_index = flags.u64("chaos-hang-worker", spawn);
  std::vector<pid_t> children;
  for (std::uint64_t i = 0; i < spawn; ++i) {
    std::vector<std::string> args = {
        "/proc/self/exe",
        "worker",
        "--connect=" + std::to_string(coordinator.port()),
        "--id=" + std::to_string(i + 1),
        "--scratch=" + options.work_dir + "/worker-" + std::to_string(i),
        "--heartbeat-ms=" + flags.str("heartbeat-ms", "100"),
    };
    if (i == kill_index) args.push_back("--chaos-die-after-one");
    if (i == hang_index) args.push_back("--chaos-hang-after-one");
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    if (pid < 0) {
      std::cerr << "coordinate: fork failed\n";
      return 1;
    }
    children.push_back(pid);
  }
  // A killed or hung worker leaves the pool one short; over-provision so
  // the survivors can still absorb every reassignment.
  auto report = coordinator.run();
  for (const pid_t pid : children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  if (!report.ok()) {
    std::cerr << "coordinate: " << report.error().to_string() << "\n";
    return 1;
  }
  const core::DistStats& stats = report.value().stats;
  std::cerr << "coordinate: " << stats.leases << " lease(s) done across "
            << stats.workers_connected << " worker(s) in "
            << stats.elapsed_ms / 1000.0 << " s\n"
            << "  heartbeats " << stats.heartbeats_received
            << ", missed deadlines " << stats.missed_deadlines
            << ", disconnects " << stats.worker_disconnects
            << ", reassignments " << stats.reassignments << "\n"
            << "  straggler redispatches " << stats.straggler_redispatches
            << ", duplicate completions " << stats.duplicate_completions
            << " (mismatches " << stats.duplicate_mismatches << ")"
            << ", malformed frames " << stats.malformed_frames << "\n"
            << "  lease failures " << stats.lease_failures << ", received "
            << stats.files_received << " files ("
            << util::format_bytes(stats.bytes_received) << ")\n";
  for (const obs::ObsNodeSummary& node : report.value().node_obs) {
    std::printf("  lease %-3u pipeline %10.3f ms (+%.3f ms straggler)\n",
                node.node, node.pipeline_wall_ms, node.straggler_delta_ms);
  }
  const json::Value merged =
      core::analysis_report_json(report.value().combined);
  if (flags.flag("verify-serial")) {
    // Re-run the identical job as one serial in-process pipeline and demand
    // byte equality with the distributed fold — the CI smoke's oracle.
    const std::string serial_dir = options.work_dir + "/serial";
    auto serial = core::run_end_to_end(
        core::lease_pipeline_options(options.spec, 0, 1, serial_dir));
    if (!serial.ok()) {
      std::cerr << "coordinate: serial verify run failed: "
                << serial.error().to_string() << "\n";
      return 1;
    }
    const json::Value serial_report =
        core::analysis_report_json(serial.value());
    if (serial_report.dump() != merged.dump()) {
      std::cerr << "coordinate: VERIFY FAILED — distributed report differs"
                   " from the serial report\n";
      return 1;
    }
    if (stats.duplicate_mismatches != 0) {
      std::cerr << "coordinate: VERIFY FAILED — duplicate completions did"
                   " not match (idempotency violation)\n";
      return 1;
    }
    std::cerr << "coordinate: verified — distributed report is"
                 " byte-identical to the serial run\n";
  }
  const std::string out = flags.str("out");
  if (!out.empty()) {
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    if (!file.is_open() || !(file << merged.dump())) {
      std::cerr << "coordinate: cannot write " << out << "\n";
      return 1;
    }
    std::cerr << "coordinate: report written to " << out << "\n";
  }
  return 0;
}

int usage() {
  std::cerr <<
      "usage: dockmine <command> [flags]\n"
      "  analyze  [--repos N] [--seed S] [--cross] [--workers W] [--light]\n"
      "  report   [--repos N] [--seed S]   paper-vs-measured summary\n"
      "  dedup    [--repos N] [--seed S] [--light]\n"
      "  serve    [--repos N] [--seed S] [--port P] [--state-dir DIR]\n"
      "           [--paper] [--shards N] [--workers W] [--io-timeout-ms N]\n"
      "           [--slowloris-ms N] [--report-out F]\n"
      "           [--temporal]   long-lived query/ingest daemon; with\n"
      "           --temporal it serves an evolving registry and accepts\n"
      "           ingest-epoch instead of batch ingest\n"
      "           [--telemetry] [--sample-ms N] [--slowlog-threshold-ms T]\n"
      "           [--alert-log F]   continuous telemetry: background\n"
      "           sampler, SLO alert rules, slow-query journal\n"
      "  query    report|image|layer|content|types|ecdf|status|stats|\n"
      "           metrics|trace-tail|slowlog|top|repos|ingest|\n"
      "           ingest-epoch|shutdown  --port P\n"
      "           [--path A.B] [--repo NAME] [--key K] [--name images.cis]\n"
      "           [--quantile Q] [--metric cis|fis|files|layers] [--n K]\n"
      "           [--prefix P] [--repos N] [--seed S] [--timeout-ms N]\n"
      "           [--op rate|quantile] [--window-ms N] [--range-ms N]\n"
      "           ask a running serve daemon\n"
      "  watch    --port P [--jsonl] [--once] [--interval-ms N]\n"
      "           live daemon monitor: per-interval request rates,\n"
      "           latency quantiles, alert + journal state\n"
      "  evolve   [--repos N] [--seed S] [--epochs K] [--paper] [--gzip L]\n"
      "           [--verify] [--workers W] [--trend-out F]   evolve the registry K\n"
      "           epochs with incremental delta analysis; --verify pins\n"
      "           each epoch's report byte-for-byte against a\n"
      "           from-scratch batch run\n"
      "  serve-registry [--repos N] [--port P] [--light]\n"
      "           [--max-requests N]   HTTP registry for crawl/pull\n"
      "  crawl    --port P [--token T] [--page-size K] [--list]\n"
      "  pull     --port P [--token T] [--workers W]\n"
      "  export   --out DIR [--repos N] [--light] [--gzip L]\n"
      "  metrics  [--repos N] [--seed S] [--workers W] [--paper]\n"
      "           [--shards N] [--spill-mb M] [--spill-dir PATH]\n"
      "           [--export-shards DIR] [--nodes K] [--node I]\n"
      "           [--trace-out trace.json] [--trace-cap N]\n"
      "           [--heartbeat-out hb.jsonl] [--heartbeat-ms N]\n"
      "           [--format table|json|prom]   instrumented pipeline run\n"
      "  merge-shards DIR [DIR ...]   fold exported shard sets into the\n"
      "           dedup report (see metrics --export-shards)\n"
      "  merge-obs FILE [FILE ...]   fold per-node obs exports into one\n"
      "           report with straggler deltas [--format table|json|prom]\n"
      "  gc       --dir STORE [live-manifest.json ...]\n"
      "  coordinate [--leases K] [--spawn-workers W] [--work-dir DIR]\n"
      "           [--repos N] [--seed S] [--paper] [--shards N] [--port P]\n"
      "           [--workers W] [--heartbeat-deadline-ms N] [--max-attempts N]\n"
      "           [--chaos-kill-worker I] [--chaos-hang-worker I]\n"
      "           [--duplicate-every-lease] [--verify-serial] [--out F]\n"
      "           distributed run: coordinator + worker processes\n"
      "  (serve, coordinate, metrics and evolve: --workers W threads per\n"
      "   pipeline stage, 0..256; 0, the default, is every core)\n"
      "  worker   --connect PORT [--id N] [--scratch DIR]\n"
      "           [--heartbeat-ms N] [--chaos-die-after-one]\n"
      "           [--chaos-hang-after-one]   one distributed worker\n";
  return 2;
}

}  // namespace
}  // namespace dockmine::tools

int main(int argc, char** argv) {
  using namespace dockmine::tools;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Flags flags = Flags::parse(argc, argv, 2);
  if (const std::string removed = removed_flag(command, flags);
      !removed.empty()) {
    std::cerr << command << ": " << removed << "\n";
    return 2;
  }
  if (command == "analyze") return cmd_analyze(flags);
  if (command == "report") return cmd_report(flags);
  if (command == "dedup") return cmd_dedup(flags);
  if (command == "serve") return cmd_serve(flags);
  if (command == "query") return cmd_query(flags);
  if (command == "watch") return cmd_watch(flags);
  if (command == "evolve") return cmd_evolve(flags);
  if (command == "serve-registry") return cmd_serve_registry(flags);
  if (command == "crawl") return cmd_crawl(flags);
  if (command == "pull") return cmd_pull(flags);
  if (command == "export") return cmd_export(flags);
  if (command == "metrics") return cmd_metrics(flags);
  if (command == "merge-shards") return cmd_merge_shards(flags);
  if (command == "merge-obs") return cmd_merge_obs(flags);
  if (command == "gc") return cmd_gc(flags);
  if (command == "coordinate") return cmd_coordinate(flags);
  if (command == "worker") return cmd_worker(flags);
  return usage();
}
