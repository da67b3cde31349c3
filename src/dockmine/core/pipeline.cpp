#include "dockmine/core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "dockmine/analyzer/pipeline.h"
#include "dockmine/obs/span.h"
#include "dockmine/registry/manifest.h"
#include "dockmine/stats/cdf.h"

namespace dockmine::core {

namespace {

/// Download every repository in parallel, wait at the barrier, then analyze
/// the unique layers of the delivered manifests in parallel. Analysis reads
/// only the verified blobs the downloader delivered; they stay in `blobs`
/// until analysis ends.
util::Result<analyzer::ProfileStore> download_then_analyze(
    const PipelineOptions& options, registry::Source& source,
    const analyzer::AnalysisPipeline::Sink& sink, PipelineResult& result) {
  auto& tracer = obs::Tracer::global();

  downloader::Options dl_options;
  dl_options.workers = options.download_workers;
  dl_options.checkpoint = options.checkpoint;
  dl_options.cancel = options.cancel;
  dl_options.deliver_resumed = options.checkpoint != nullptr;
  downloader::Downloader downloader(source, dl_options);

  std::unordered_map<digest::Digest, blob::BlobPtr, digest::DigestHash> blobs;
  {
    const auto span = tracer.span("download");
    result.download = downloader.run(
        result.crawl.repositories, [&](downloader::DownloadedImage&& image) {
          for (std::size_t i = 0; i < image.manifest.layers.size(); ++i) {
            blobs.emplace(image.manifest.layers[i].digest,
                          std::move(image.layer_blobs[i]));
          }
          result.manifests.push_back(std::move(image.manifest));
        });
  }

  analyzer::AnalysisPipeline::Options an_options;
  an_options.workers = options.analyze_workers;
  analyzer::AnalysisPipeline analysis(an_options);
  // Worker-side untar/classify totals land under "pipeline/analyze/..."
  // via the analysis pipeline's record_at (it reads our open path).
  const auto span = tracer.span("analyze");
  return analysis.run(
      result.manifests,
      [&](const digest::Digest& digest) -> util::Result<blob::BlobPtr> {
        // Every layer of a delivered manifest arrived verified above; a miss
        // is a bug, never a reason to read the registry unverified.
        const auto it = blobs.find(digest);
        if (it != blobs.end() && it->second != nullptr) return it->second;
        return util::internal("pipeline: no verified blob for layer " +
                              digest.short_hex());
      },
      sink);
}

}  // namespace

util::Result<PipelineResult> run_end_to_end(const PipelineOptions& options) {
  PipelineResult result;
  auto& tracer = obs::Tracer::global();
  const auto pipeline_span = tracer.span("pipeline");

  // --- build & publish the snapshot (or adopt an external registry) ---
  registry::Service owned_service;
  registry::Service& service = options.external_service != nullptr
                                   ? *options.external_service
                                   : owned_service;
  if (options.external_service == nullptr) {
    synth::HubModel hub(options.calibration, options.scale);
    synth::Materializer materializer(hub, options.gzip_level,
                                     options.analyze_workers);
    const auto span = tracer.span("materialize");
    auto pushed = materializer.populate(service);
    if (!pushed.ok()) return std::move(pushed).error();
    result.manifests_pushed = pushed.value();
  }

  // --- source decorator chain, composed bottom-up ---
  //   Downloader -> [Resilient -> Faulty ->] Service
  registry::Source* source = &service;
  std::optional<registry::FaultySource> faulty;
  std::optional<registry::ResilientSource> resilient;
  if (options.faults != nullptr) {
    faulty.emplace(service, *options.faults);
    resilient.emplace(*faulty, options.retry, options.breaker,
                      options.faults->seed);
    source = &*resilient;
  }

  // --- crawl ---
  const auto pipeline_start = std::chrono::steady_clock::now();
  registry::SearchIndex index(service,
                              synth::Calibration::kSearchDuplicateFactor,
                              options.scale.seed);
  crawler::Crawler crawler(index);
  {
    const auto span = tracer.span("crawl");
    result.crawl = crawler.crawl_all();
  }

  // --- K-way split: ownership pass over the GLOBAL crawl order ---
  // Every node computes the same assignment locally against the
  // deterministic registry: the first repository whose unauthenticated
  // manifest fetch succeeds claims each of its not-yet-owned layers for
  // node (crawl index % node_count). A node indexes only the layers it
  // owns, so the union of all nodes' shard sets covers each unique layer
  // of the deliverable set exactly once — no coordination, no double
  // counting, and the merged report matches a single-node run bit for bit.
  const std::uint32_t node_count = std::max<std::uint32_t>(1, options.node_count);
  std::unordered_map<std::uint64_t, std::uint32_t> layer_owner;
  if (node_count > 1) {
    const auto span = tracer.span("ownership");
    for (std::size_t r = 0; r < result.crawl.repositories.size(); ++r) {
      auto manifest_json = service.get_manifest(result.crawl.repositories[r],
                                                "latest", /*authenticated=*/false);
      if (!manifest_json.ok()) continue;
      auto manifest = registry::manifest_from_json(manifest_json.value());
      if (!manifest.ok()) continue;
      for (const auto& ref : manifest.value().layers) {
        layer_owner.emplace(ref.digest.key64(),
                            static_cast<std::uint32_t>(r % node_count));
      }
    }
    // This node downloads only its repository partition.
    std::vector<std::string> mine;
    for (std::size_t r = 0; r < result.crawl.repositories.size(); ++r) {
      if (r % node_count == options.node_index) {
        mine.push_back(std::move(result.crawl.repositories[r]));
      }
    }
    result.crawl.repositories = std::move(mine);
  }

  // --- download, barrier, analyze ---
  shard::ShardedDedupIndex sharded(options.shard);

  // Lock-free routing: each delivering thread appends to its own per-shard
  // maps. The layer id is derived from the layer digest (not a shared
  // dense-id map, which would need a lock); it only feeds
  // first_layer/multi_layer, which the canonical report deliberately
  // excludes.
  analyzer::AnalysisPipeline::Sink sink;
  sink.on_layer_files = [&](const digest::Digest& layer_digest,
                            std::span<const analyzer::FileRecord> records) {
    if (node_count > 1) {
      auto it = layer_owner.find(layer_digest.key64());
      if (it == layer_owner.end() || it->second != options.node_index) return;
    }
    auto& writer = sharded.local_writer();
    const auto layer_id =
        static_cast<std::uint32_t>(layer_digest.key64() >> 32);
    for (const analyzer::FileRecord& record : records) {
      writer.add(record.digest, record.size, record.type, layer_id);
    }
  };
  sink.on_image = [&](const analyzer::ImageProfile& profile) {
    result.images.push_back(profile);
  };

  auto profiles = download_then_analyze(options, *source, sink, result);
  if (!profiles.ok()) return std::move(profiles).error();
  result.layer_profiles = std::move(profiles).value();

  // --- layer sharing over the downloaded manifests ---
  {
    const auto span = tracer.span("dedup");
    result.sharing = layer_sharing_of(result.manifests);
  }

  // --- fold the sharded index back into exact aggregates ---
  {
    const auto span = tracer.span("shard_merge");
    if (!options.shard_export_dir.empty()) {
      auto manifest = sharded.export_shard_set(options.shard_export_dir);
      if (!manifest.ok()) return std::move(manifest).error();
      result.shard_summary.export_manifest = std::move(manifest).value();
    }
    shard::ShardMerger merger;
    if (auto s = sharded.seal_into(merger); !s.ok()) return s.error();
    auto aggregates = merger.merge_aggregates();
    if (!aggregates.ok()) return std::move(aggregates).error();
    result.shard_summary.runs_merged = merger.stats().runs;
    result.shard_dedup = std::move(aggregates).value();

    const shard::SpillStats spill = sharded.stats();
    result.shard_summary.shards = sharded.shards();
    result.shard_summary.observations = sharded.observations();
    result.shard_summary.distinct_contents =
        result.shard_dedup->distinct_contents;
    result.shard_summary.metadata_conflicts =
        sharded.metadata_conflicts() + result.shard_dedup->metadata_conflicts;
    result.shard_summary.spills = spill.spills;
    result.shard_summary.spilled_bytes = spill.spilled_bytes;
    result.shard_summary.peak_resident_bytes = spill.peak_resident_bytes;
  }

  result.pipeline_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pipeline_start)
          .count();
  result.service = service.stats();
  if (resilient) result.resilience = resilient->stats();
  if (faulty) result.fault_stats = faulty->stats();
  return result;
}

dedup::LayerSharingAnalysis layer_sharing_of(
    std::span<const registry::Manifest> manifests) {
  dedup::LayerSharingAnalysis sharing;
  std::vector<dedup::LayerSharingAnalysis::LayerUse> uses;
  for (const registry::Manifest& manifest : manifests) {
    uses.clear();
    for (const auto& ref : manifest.layers) {
      uses.push_back({ref.digest.key64(), ref.compressed_size});
    }
    sharing.add_image(uses);
  }
  return sharing;
}

namespace {

/// Fixed quantile grid: enough points to pin distribution shape, few enough
/// to keep reports small. Quantiles are order statistics over a multiset,
/// so the emitted values are independent of sample insertion order.
json::Value ecdf_json(const stats::Ecdf& cdf) {
  static constexpr double kGrid[] = {0.0,  0.01, 0.05, 0.1,  0.25, 0.5,
                                     0.75, 0.9,  0.95, 0.99, 1.0};
  auto obj = json::Value::object();
  obj.set("samples", static_cast<std::uint64_t>(cdf.size()));
  auto values = json::Value::array();
  if (!cdf.empty()) {
    for (double q : kGrid) values.push_back(cdf.quantile(q));
  }
  obj.set("quantiles", std::move(values));
  return obj;
}

}  // namespace

json::Value analysis_report_json(const PipelineResult& result) {
  auto report = json::Value::object();

  // --- images: aggregates over the delivered image profiles ---
  {
    stats::Ecdf cis, fis, layers_per_image, files_per_image;
    std::uint64_t total_cis = 0;
    std::uint64_t total_fis = 0;
    for (const auto& image : result.images) {
      cis.add(static_cast<double>(image.cis));
      fis.add(static_cast<double>(image.fis));
      layers_per_image.add(static_cast<double>(image.layer_count));
      files_per_image.add(static_cast<double>(image.file_count));
      total_cis += image.cis;
      total_fis += image.fis;
    }
    auto images = json::Value::object();
    images.set("count", static_cast<std::uint64_t>(result.images.size()));
    images.set("total_cis", total_cis);
    images.set("total_fis", total_fis);
    images.set("cis", ecdf_json(cis));
    images.set("fis", ecdf_json(fis));
    images.set("layers_per_image", ecdf_json(layers_per_image));
    images.set("files_per_image", ecdf_json(files_per_image));
    report.set("images", std::move(images));
  }

  // --- layers: unique layers referenced by the delivered manifests ---
  {
    std::unordered_set<digest::Digest, digest::DigestHash> seen;
    stats::Ecdf cls, fls, files_per_layer;
    std::uint64_t total_cls = 0;
    std::uint64_t total_fls = 0;
    std::uint64_t count = 0;
    for (const auto& manifest : result.manifests) {
      for (const auto& ref : manifest.layers) {
        if (!seen.insert(ref.digest).second) continue;
        auto profile = result.layer_profiles.find(ref.digest);
        if (!profile) continue;
        ++count;
        cls.add(static_cast<double>(profile->cls));
        fls.add(static_cast<double>(profile->fls));
        files_per_layer.add(static_cast<double>(profile->file_count));
        total_cls += profile->cls;
        total_fls += profile->fls;
      }
    }
    auto layers = json::Value::object();
    layers.set("count", count);
    layers.set("total_cls", total_cls);
    layers.set("total_fls", total_fls);
    layers.set("cls", ecdf_json(cls));
    layers.set("fls", ecdf_json(fls));
    layers.set("files_per_layer", ecdf_json(files_per_layer));
    report.set("layers", std::move(layers));
  }

  // --- layer sharing (totals are insertion-order independent) ---
  {
    auto sharing = json::Value::object();
    sharing.set("images", result.sharing.images_seen());
    sharing.set("distinct_layers", result.sharing.distinct_layers());
    sharing.set("logical_bytes", result.sharing.logical_bytes());
    sharing.set("physical_bytes", result.sharing.physical_bytes());
    sharing.set("sharing_ratio", result.sharing.sharing_ratio());
    report.set("sharing", std::move(sharing));
  }

  // --- file dedup (totals and per-content counts are order independent;
  // first_layer ids are not and are deliberately excluded) ---
  if (result.shard_dedup) {
    const dedup::DedupTotals& totals = result.shard_dedup->totals;
    auto dedup = json::Value::object();
    dedup.set("total_files", totals.total_files);
    dedup.set("unique_files", totals.unique_files);
    dedup.set("total_bytes", totals.total_bytes);
    dedup.set("unique_bytes", totals.unique_bytes);
    dedup.set("count_ratio", totals.count_ratio());
    dedup.set("capacity_ratio", totals.capacity_ratio());
    dedup.set("repeat_counts", ecdf_json(result.shard_dedup->repeat_counts));
    report.set("dedup", std::move(dedup));
  }

  return report;
}

json::Value pipeline_report_json(const PipelineResult& result) {
  auto report = json::Value::object();
  {
    const downloader::DownloadStats& d = result.download;
    auto download = json::Value::object();
    download.set("attempted", d.attempted);
    download.set("succeeded", d.succeeded);
    download.set("failed_auth", d.failed_auth);
    download.set("failed_no_tag", d.failed_no_tag);
    download.set("failed_missing", d.failed_missing);
    download.set("failed_digest", d.failed_digest);
    download.set("failed_other", d.failed_other);
    download.set("repos_resumed", d.repos_resumed);
    download.set("repos_canceled", d.repos_canceled);
    download.set("layers_fetched", d.layers_fetched);
    download.set("layers_deduped", d.layers_deduped);
    download.set("layers_resumed", d.layers_resumed);
    download.set("bytes_downloaded", d.bytes_downloaded);
    report.set("download", std::move(download));
  }
  report.set("analysis", analysis_report_json(result));
  return report;
}

}  // namespace dockmine::core
