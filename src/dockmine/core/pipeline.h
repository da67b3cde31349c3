// End-to-end bytes-mode pipeline: the paper's Fig. 2 as one call.
//
//   generate snapshot -> materialize registry (real gzip'd tars)
//   -> crawl (paginated search, dedup raw hits)
//   -> download (parallel, unique layers only, 401/404 accounting)
//   -> analyze (gunzip + untar + classify, parallel)
//   -> dedup (sharded file index + layer sharing)
//
// One execution path: download every verified layer blob in parallel
// (`download_workers`), wait at a barrier, then analyze the unique layers
// of the delivered manifests in parallel (`analyze_workers`); both default
// to 0, every core. `analyze_workers` also sizes the materializer's gzip
// threads when the run builds its own registry. One worker per stage is
// the reference ordering. Every worker count produces byte-identical
// canonical reports (pipeline_report_json) under a fixed seed: the report
// is built from order-independent aggregates only, never from completion
// order.
// DESIGN.md §9 records why the barrier stays.
//
// Used by the integration tests, the quickstart example, and
// bench_pipeline_end2end.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dockmine/analyzer/image_analyzer.h"
#include "dockmine/crawler/crawler.h"
#include "dockmine/dedup/file_dedup.h"
#include "dockmine/dedup/layer_sharing.h"
#include "dockmine/downloader/downloader.h"
#include "dockmine/json/json.h"
#include "dockmine/registry/faults.h"
#include "dockmine/registry/resilient.h"
#include "dockmine/registry/service.h"
#include "dockmine/shard/merger.h"
#include "dockmine/shard/sharded_index.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/util/error.h"

namespace dockmine::core {

struct PipelineOptions {
  synth::Scale scale = synth::Scale::test();
  synth::Calibration calibration = synth::Calibration::paper();
  /// Threads of each stage; 0 = std::thread::hardware_concurrency().
  /// analyze_workers also sizes materialize's gzip threads.
  std::size_t download_workers = 0;
  std::size_t analyze_workers = 0;
  int gzip_level = compress::kDefaultLevel;

  /// Optional crash/resume record; not owned, must outlive the run. With a
  /// checkpoint attached, completed repositories are replayed from disk on
  /// restart (manifest re-fetched, layer bytes from the checkpoint store)
  /// so a resumed run still produces the full report.
  downloader::Checkpoint* checkpoint = nullptr;

  /// Cooperative cancellation: once set, repositories not yet started are
  /// skipped. Chaos tests use this to kill a run mid-download.
  const std::atomic<bool>* cancel = nullptr;

  /// Chaos: inject seeded faults between the registry and the downloader,
  /// with retry/backoff/circuit-breaking layered on top (Downloader ->
  /// ResilientSource -> FaultySource -> Service). Not owned; null runs
  /// against the clean service.
  const registry::FaultSpec* faults = nullptr;
  registry::RetryPolicy retry;      ///< used when faults != nullptr
  registry::BreakerPolicy breaker;  ///< used when faults != nullptr

  /// The dedup store (dockmine::shard): file observations route to a
  /// hash-partitioned, optionally disk-spilling index, and the report's
  /// dedup section is computed by merging its runs. One shard without a
  /// spill dir (the default) keeps everything resident. The emitted report
  /// bytes are identical for every worker count, shard count, and spill
  /// threshold.
  shard::Config shard;

  /// When non-empty, additionally freeze the sharded index into this
  /// directory as an exported shard set (run files + shardset.json) that
  /// another process can fold with ShardMerger::add_shard_set — the
  /// multi-node hand-off.
  std::string shard_export_dir;

  /// When non-null, analyze THIS registry instead of materializing a fresh
  /// snapshot from `scale`/`calibration` (which then only parameterize the
  /// crawler's search index): the temporal batch oracle points this at an
  /// evolving registry advanced to epoch K, and the run crawls, downloads,
  /// and analyzes whatever that service holds. Not owned; must outlive the
  /// run. Fault decorators compose as usual; `manifests_pushed` stays 0
  /// because nothing was materialized here.
  registry::Service* external_service = nullptr;

  /// K-way split: this run acts as node `node_index` of `node_count`. The
  /// node crawls the full snapshot, then downloads/analyzes only its
  /// repository partition (crawl order index % node_count) and indexes only
  /// the layers it owns per the deterministic ownership pass (DESIGN.md
  /// §10), so fold_contributions over all nodes' exported shard sets
  /// reproduces the single-node report.
  std::uint32_t node_count = 1;
  std::uint32_t node_index = 0;
};

/// Always zero: download and analysis meet at a barrier, not in a queue.
/// perfbench still reports these two fields, so they stay until its next
/// change drops them.
struct StreamStats {
  std::uint64_t queue_peak = 0;
  std::uint64_t producer_stalls = 0;
};

/// Accounting for the sharded dedup store. None of these fields feed the
/// canonical reports (they are run-shape facts — spill pressure, resident
/// peaks — not analysis results).
struct ShardedDedupSummary {
  std::uint32_t shards = 0;
  std::uint64_t observations = 0;       ///< file instances routed
  std::uint64_t distinct_contents = 0;
  std::uint64_t metadata_conflicts = 0;
  std::uint64_t spills = 0;             ///< run files frozen to disk
  std::uint64_t spilled_bytes = 0;
  std::uint64_t peak_resident_bytes = 0;
  std::uint64_t runs_merged = 0;        ///< memory + file runs folded
  std::string export_manifest;          ///< shardset.json path when exported
};

struct PipelineResult {
  crawler::CrawlResult crawl;
  downloader::DownloadStats download;
  registry::ServiceStats service;
  std::vector<analyzer::ImageProfile> images;
  analyzer::ProfileStore layer_profiles;
  /// The file-level dedup aggregates: the merged sharded index after
  /// run_end_to_end and fold_contributions, the resident index after a
  /// temporal epoch. analysis_report_json reads its dedup section here.
  std::optional<shard::MergedAggregates> shard_dedup;
  ShardedDedupSummary shard_summary;
  /// A temporal epoch's resident index (temporal::DeltaAnalyzer::result),
  /// kept for serve's content queries. run_end_to_end never sets it.
  std::unique_ptr<dedup::FileDedupIndex> file_index;
  dedup::LayerSharingAnalysis sharing;
  std::uint64_t manifests_pushed = 0;
  /// Manifests of every successfully delivered image (completion order).
  std::vector<registry::Manifest> manifests;
  StreamStats stream;
  registry::ResilienceStats resilience;  ///< zeros without faults
  registry::FaultStats fault_stats;      ///< zeros without faults
  /// Wall time of the pipeline proper — crawl through dedup — excluding
  /// the synthetic registry's materialization (which a real crawl does not
  /// pay). This is the number run-to-run comparisons should use.
  double pipeline_seconds = 0.0;
};

util::Result<PipelineResult> run_end_to_end(const PipelineOptions& options);

/// Layer sharing over delivered manifests: each manifest's (layer key64,
/// compressed size) uses fold as one image. run_end_to_end,
/// fold_contributions and the temporal analyzer all build their sharing
/// here, so their totals agree.
dedup::LayerSharingAnalysis layer_sharing_of(
    std::span<const registry::Manifest> manifests);

/// Canonical analysis report: images / layers / sharing / dedup aggregates.
/// Built only from order-independent quantities (totals, quantiles over
/// multisets, name-sorted listings), so any two runs that analyzed the same
/// image set serialize byte-identically — regardless of worker counts,
/// thread interleaving, or whether the run was resumed from a checkpoint.
/// Layer aggregates are derived from the unique layers the delivered
/// manifests reference.
json::Value analysis_report_json(const PipelineResult& result);

/// Canonical full report: the analysis report plus download accounting.
/// Adds the per-repository outcome buckets and verified-transfer totals;
/// excludes wall-clock and race-dependent counters (wall_seconds, retries,
/// bytes_discarded). Byte-identical across worker counts for a fixed seed
/// on a fault-free source.
json::Value pipeline_report_json(const PipelineResult& result);

}  // namespace dockmine::core
