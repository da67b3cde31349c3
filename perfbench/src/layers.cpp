#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "dockmine/analyzer/image_analyzer.h"
#include "dockmine/analyzer/layer_analyzer.h"
#include "dockmine/compress/gzip.h"
#include "dockmine/crawler/crawler.h"
#include "dockmine/digest/digest.h"
#include "dockmine/downloader/downloader.h"
#include "dockmine/filetype/classifier.h"
#include "dockmine/obs/obs.h"
#include "dockmine/registry/search.h"
#include "dockmine/shard/merger.h"
#include "dockmine/shard/sharded_index.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/tar/reader.h"
#include "dockmine/util/rng.h"

namespace perfbench {

namespace dm = dockmine;

dm::core::JobSpec job_for(std::uint64_t repositories, std::uint64_t seed) {
  dm::core::JobSpec job;
  job.repositories = repositories;
  job.seed = seed;
  return job;
}

// ---- inputs ----------------------------------------------------------------

InputSize input_size(const dm::core::JobSpec& job) {
  const dm::core::PipelineOptions options =
      dm::core::lease_pipeline_options(job, 0, 1, "");
  const dm::synth::HubModel hub(options.calibration, options.scale);
  std::unordered_set<dm::synth::LayerId> seen;
  std::uint64_t bytes = 0;
  std::uint64_t compressed = 0;
  InputSize size;
  for (const dm::synth::RepoSpec& repo : hub.repositories()) {
    if (repo.image_index < 0 || !repo.has_latest || repo.requires_auth) continue;
    for (const dm::synth::LayerId id :
         hub.images()[static_cast<std::size_t>(repo.image_index)].layers) {
      if (!seen.insert(id).second) continue;
      const dm::synth::LayerKind kind =
          (id >> 62) == 3 ? dm::synth::LayerKind::kApp
                          : dm::synth::LineageModel::kind_of(id);
      const dm::synth::LayerSpec spec = hub.layers().make_spec(id, kind);
      const dm::synth::LayerSizes sizes = hub.layers().sizes(spec);
      bytes += sizes.fls;
      compressed += sizes.cls;
      size.files += spec.file_count;
      size.largest_layer_mb = std::max(size.largest_layer_mb,
                                       static_cast<double>(sizes.fls) / 1e6);
    }
  }
  size.content_mb = static_cast<double>(bytes) / 1e6;
  size.compressed_mb = static_cast<double>(compressed) / 1e6;
  return size;
}

std::uint64_t pick_seed(std::uint64_t run_seed, std::uint64_t stream,
                        std::uint64_t repositories, const InputSize& target,
                        double tolerance) {
  // splitmix64 steps its state by a fixed increment, so the start must be
  // hashed: starting at run_seed * increment would hand neighbouring run
  // seeds the same candidates, one step apart.
  std::uint64_t start = run_seed;
  std::uint64_t state = dm::util::splitmix64(start) ^
                        (stream * 0xd1b54a32d192ed03ULL);
  std::uint64_t candidate = 0;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    // Seeds stay below 2^31 so they read the same in every JSON codec.
    candidate = dm::util::splitmix64(state) & 0x7fffffffULL;
    const InputSize size = input_size(job_for(repositories, candidate));
    const auto near = [tolerance](double value, double want, double scale) {
      return std::abs(value - want) <= scale * tolerance * want;
    };
    if (near(size.content_mb, target.content_mb, 1) &&
        near(size.compressed_mb, target.compressed_mb, 2) &&
        near(static_cast<double>(size.files),
             static_cast<double>(target.files), 3) &&
        near(size.largest_layer_mb, target.largest_layer_mb, 10)) {
      return candidate;
    }
  }
  return candidate;
}

std::uint64_t registry_seed(const Args& args, std::uint64_t stream,
                            std::uint64_t repositories, const InputSize& target,
                            double tolerance) {
  if (args.smoke) return args.seed + stream;
  return pick_seed(args.seed, stream, repositories, target, tolerance);
}

// ---- timed registry ------------------------------------------------------

void TimedService::attach(SpanLog* log, std::uint64_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  log_ = log;
  parent_ = parent;
  totals_ = Totals{};
}

TimedService::Totals TimedService::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

void TimedService::note(double start_ms, double end_ms, std::uint64_t bytes,
                        const char* name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (log_ == nullptr) return;
  ++totals_.fetches;
  totals_.bytes += bytes;
  totals_.ms += end_ms - start_ms;
  totals_.intervals.emplace_back(start_ms, end_ms);
  log_->record(name, start_ms, end_ms, parent_);
}

dm::util::Result<std::string> TimedService::fetch_manifest(
    const std::string& repository, const std::string& tag,
    bool authenticated) {
  SpanLog* log = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    log = log_;
  }
  if (log == nullptr) return Service::fetch_manifest(repository, tag, authenticated);
  const double start = log->now_ms();
  auto result = Service::fetch_manifest(repository, tag, authenticated);
  note(start, log->now_ms(), result.ok() ? result.value().size() : 0,
       "registry.fetch_manifest");
  return result;
}

dm::util::Result<dm::blob::BlobPtr> TimedService::fetch_blob(
    const dm::digest::Digest& digest) {
  SpanLog* log = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    log = log_;
  }
  if (log == nullptr) return Service::fetch_blob(digest);
  const double start = log->now_ms();
  auto result = Service::fetch_blob(digest);
  note(start, log->now_ms(), result.ok() ? result.value()->size() : 0,
       "registry.fetch_blob");
  return result;
}

// ---- set-up ----------------------------------------------------------------

dm::util::Result<double> materialize(const dm::core::JobSpec& job,
                                     dm::registry::Service& service) {
  const auto start = std::chrono::steady_clock::now();
  const dm::core::PipelineOptions options =
      dm::core::lease_pipeline_options(job, 0, 1, "");
  dm::synth::HubModel hub(options.calibration, options.scale);
  dm::synth::Materializer materializer(hub, options.gzip_level);
  auto pushed = materializer.populate(service);
  if (!pushed.ok()) return std::move(pushed).error();
  return seconds_since(start);
}

dm::util::Status trace_materialize(const dm::core::JobSpec& job, SpanLog& log,
                                   Metrics& metrics) {
  const dm::core::PipelineOptions options =
      dm::core::lease_pipeline_options(job, 0, 1, "");
  {
    dm::registry::Service scratch;
    const double start = log.now_ms();
    auto populated = materialize(job, scratch);
    if (!populated.ok()) return populated.error();
    log.record("synth.populate", start, log.now_ms());
    metrics.set("synth.populate_s", populated.value(), "s");
  }

  dm::synth::HubModel hub(options.calibration, options.scale);
  dm::synth::Materializer materializer(hub, options.gzip_level);
  const std::uint64_t parent = log.reserve_id();
  const double begin = log.now_ms();
  double tar_ms = 0.0;
  double gzip_ms = 0.0;
  double digest_ms = 0.0;
  std::uint64_t raw_bytes = 0;
  for (const dm::synth::LayerId id : hub.unique_layers()) {
    // The same kind resolution Materializer::push_image applies.
    const dm::synth::LayerKind kind =
        (id >> 62) == 3 ? dm::synth::LayerKind::kApp
                        : dm::synth::LineageModel::kind_of(id);
    const dm::synth::LayerSpec spec = hub.layers().make_spec(id, kind);
    const double t0 = log.now_ms();
    const std::string tar = materializer.layer_tar(spec);
    const double t1 = log.now_ms();
    auto blob = dm::compress::gzip_compress(tar, options.gzip_level);
    const double t2 = log.now_ms();
    if (!blob.ok()) return blob.error();
    (void)dm::digest::Digest::of(blob.value());
    const double t3 = log.now_ms();
    log.record("synth.layer_tar", t0, t1, parent);
    log.record("compress.gzip", t1, t2, parent);
    log.record("digest.push", t2, t3, parent);
    tar_ms += t1 - t0;
    gzip_ms += t2 - t1;
    digest_ms += t3 - t2;
    raw_bytes += tar.size();
  }
  log.record_with_id(parent, "synth.unique_layers", begin, log.now_ms());
  metrics.set("synth.layer_tar_s", tar_ms / 1e3, "s");
  metrics.set("compress.gzip_s", gzip_ms / 1e3, "s");
  metrics.set("digest.push_s", digest_ms / 1e3, "s");
  metrics.set("synth.layers", static_cast<double>(hub.unique_layers().size()),
              "count");
  metrics.set("synth.raw_mb", static_cast<double>(raw_bytes) / 1e6, "MB");
  return dm::util::Status::success();
}

// ---- passes ----------------------------------------------------------------

dm::util::Result<Pass> untraced_pass(const dm::core::JobSpec& job,
                                     dm::registry::Service& service,
                                     const std::string& export_dir) {
  dm::core::PipelineOptions options =
      dm::core::lease_pipeline_options(job, 0, 1, export_dir);
  options.external_service = &service;
  const auto start = std::chrono::steady_clock::now();
  auto run = dm::core::run_end_to_end(options);
  if (!run.ok()) return std::move(run).error();
  Pass pass;
  pass.report = dm::core::pipeline_report_json(run.value()).dump();
  pass.seconds = seconds_since(start);
  pass.stream = run.value().stream;
  return pass;
}

namespace {

using FileRecords = std::vector<dm::analyzer::FileRecord>;

/// Decompose one layer the way LayerAnalyzer::analyze_blob works inside:
/// gunzip, tar walk, per-file SHA-256 and type, blob SHA-256 — each timed
/// apart. Returns the file records so the caller can check them against
/// analyze_blob's.
struct LayerSplit {
  double gunzip_ms = 0.0;
  double walk_ms = 0.0;  ///< tar walk excluding digest + classify
  double file_digest_ms = 0.0;
  double classify_ms = 0.0;
  double blob_digest_ms = 0.0;
  std::uint64_t tar_bytes = 0;
  std::uint64_t file_bytes = 0;
  FileRecords records;
};

dm::util::Result<LayerSplit> split_layer(const std::string& blob,
                                         std::size_t classify_prefix) {
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  LayerSplit split;
  const auto t0 = Clock::now();
  auto tar = dm::compress::gzip_decompress(blob);
  const auto t1 = Clock::now();
  if (!tar.ok()) return std::move(tar).error();
  split.gunzip_ms = ms(t0, t1);
  split.tar_bytes = tar.value().size();

  dm::tar::Reader reader(tar.value());
  const auto walk_start = Clock::now();
  auto walked = reader.for_each([&](const dm::tar::Entry& entry) {
    if (!entry.is_file() || entry.is_whiteout()) return;
    const auto d0 = Clock::now();
    dm::analyzer::FileRecord record;
    record.size = entry.content.size();
    record.digest = dm::digest::Digest::of(entry.content);
    const auto d1 = Clock::now();
    record.type = dm::filetype::classify(
        entry.header.name, entry.content.substr(0, classify_prefix));
    const auto d2 = Clock::now();
    split.file_digest_ms += ms(d0, d1);
    split.classify_ms += ms(d1, d2);
    split.file_bytes += record.size;
    split.records.push_back(record);
  });
  const auto walk_end = Clock::now();
  if (!walked.ok()) return walked.error();
  split.walk_ms = ms(walk_start, walk_end) - split.file_digest_ms -
                  split.classify_ms;

  const auto b0 = Clock::now();
  (void)dm::digest::Digest::of(blob);
  split.blob_digest_ms = ms(b0, Clock::now());
  return split;
}

bool same_records(const FileRecords& a, const FileRecords& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].digest == b[i].digest) || a[i].size != b[i].size ||
        a[i].type != b[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace

dm::util::Result<TracedPass> traced_pass(const dm::core::JobSpec& job,
                                         TimedService& service,
                                         const std::string& export_dir,
                                         SpanLog& log, Metrics& metrics,
                                         Checks& checks) {
  const dm::core::PipelineOptions options =
      dm::core::lease_pipeline_options(job, 0, 1, export_dir);
  dm::core::PipelineResult result;
  std::vector<std::pair<double, double>> stages;
  const std::uint64_t pass_id = log.reserve_id();
  const double pass_start = log.now_ms();
  const auto stage = [&](const char* name, double start, double end,
                         std::uint64_t id = 0) {
    if (id == 0) {
      id = log.record(name, start, end, pass_id);
    } else {
      log.record_with_id(id, name, start, end, pass_id);
    }
    stages.emplace_back(start, end);
    return end - start;
  };

  // --- crawl ---
  {
    const double t0 = log.now_ms();
    dm::registry::SearchIndex index(
        service, dm::synth::Calibration::kSearchDuplicateFactor,
        options.scale.seed);
    dm::crawler::Crawler crawler(index);
    const double t1 = log.now_ms();
    result.crawl = crawler.crawl_all();
    const double t2 = log.now_ms();
    stage("crawler.index", t0, t1);
    metrics.set("crawler.crawl_ms", stage("crawler.crawl_all", t1, t2), "ms");
    metrics.set("crawler.pages",
                static_cast<double>(result.crawl.pages_fetched), "count");
    metrics.set("crawler.raw_hits", static_cast<double>(result.crawl.raw_hits),
                "count");
  }

  // --- download (staged: every unique blob held until analysis) ---
  std::unordered_map<dm::digest::Digest, dm::blob::BlobPtr,
                     dm::digest::DigestHash>
      blobs;
  {
    const std::uint64_t run_id = log.reserve_id();
    service.attach(&log, run_id);
    dm::downloader::Options dl_options;
    dl_options.workers = options.download_workers;
    dm::downloader::Downloader downloader(service, dl_options);
    std::vector<std::pair<double, double>> sink_spans;
    const double t0 = log.now_ms();
    result.download = downloader.run(
        result.crawl.repositories,
        [&](dm::downloader::DownloadedImage&& image) {
          const double s = log.now_ms();
          for (std::size_t i = 0; i < image.manifest.layers.size(); ++i) {
            blobs.emplace(image.manifest.layers[i].digest,
                          std::move(image.layer_blobs[i]));
          }
          result.manifests.push_back(std::move(image.manifest));
          const double e = log.now_ms();
          sink_spans.emplace_back(s, e);
          log.record("downloader.sink", s, e, run_id);
        });
    const double t1 = log.now_ms();
    const TimedService::Totals fetched = service.totals();
    service.detach();
    const double run_ms = stage("downloader.run", t0, t1, run_id);
    std::vector<std::pair<double, double>> children = fetched.intervals;
    children.insert(children.end(), sink_spans.begin(), sink_spans.end());
    const dm::downloader::DownloadStats& d = result.download;
    metrics.set("downloader.run_ms", run_ms, "ms");
    metrics.set("downloader.self_ms", run_ms - union_ms(children), "ms");
    metrics.set("downloader.layers_fetched",
                static_cast<double>(d.layers_fetched), "count");
    metrics.set("downloader.layers_deduped",
                static_cast<double>(d.layers_deduped), "count");
    metrics.set("downloader.failed",
                static_cast<double>(d.failed_auth + d.failed_no_tag +
                                    d.failed_missing + d.failed_digest +
                                    d.failed_other),
                "count");
    metrics.set("registry.fetch_ms", fetched.ms, "ms");
    metrics.set("registry.fetches", static_cast<double>(fetched.fetches),
                "count");
    metrics.set("registry.mb", static_cast<double>(fetched.bytes) / 1e6, "MB");
  }

  // --- analyze: LayerAnalyzer::analyze_blob per unique layer, files routed
  // to the sharded index exactly as the pipeline's concurrent sink does ---
  std::vector<dm::digest::Digest> unique;
  {
    std::unordered_set<dm::digest::Digest, dm::digest::DigestHash> seen;
    for (const auto& manifest : result.manifests) {
      for (const auto& ref : manifest.layers) {
        if (seen.insert(ref.digest).second) unique.push_back(ref.digest);
      }
    }
  }
  dm::shard::ShardedDedupIndex sharded(options.shard);
  dm::analyzer::ProfileStore store;
  store.reserve(unique.size());
  std::unordered_map<dm::digest::Digest, FileRecords, dm::digest::DigestHash>
      layer_records;
  {
    const std::uint64_t analyze_id = log.reserve_id();
    const dm::analyzer::LayerAnalyzer analyzer;
    std::mutex mutex;  // guards store, layer_records, the sums and `failure`
    double layer_ms = 0.0, gunzip_ms = 0.0, classify_ms = 0.0, add_ms = 0.0;
    std::uint64_t files = 0;
    dm::util::Status failure;
    std::atomic<std::size_t> next{0};
    const double t0 = log.now_ms();
    const auto worker = [&] {
      for (std::size_t i = next.fetch_add(1); i < unique.size();
           i = next.fetch_add(1)) {
        const auto it = blobs.find(unique[i]);
        if (it == blobs.end() || it->second == nullptr) {
          std::lock_guard<std::mutex> lock(mutex);
          failure = dm::util::internal("traced pass: layer blob missing");
          continue;
        }
        FileRecords records;
        const dm::analyzer::FileVisitor visitor =
            [&records](std::string_view, const dm::analyzer::FileRecord& r) {
              records.push_back(r);
            };
        dm::analyzer::LayerAnalyzer::Timing timing;
        const double a0 = log.now_ms();
        auto profile = analyzer.analyze_blob(*it->second, &visitor, nullptr,
                                             &timing);
        const double a1 = log.now_ms();
        log.record("analyzer.analyze_blob", a0, a1, analyze_id);
        if (!profile.ok()) {
          std::lock_guard<std::mutex> lock(mutex);
          failure = profile.error();
          continue;
        }
        auto& writer = sharded.local_writer();
        const auto layer_index =
            static_cast<std::uint32_t>(profile.value().digest.key64() >> 32);
        for (const auto& record : records) {
          writer.add(record.digest, record.size, record.type, layer_index);
        }
        const double a2 = log.now_ms();
        log.record("shard.add", a1, a2, analyze_id);
        std::lock_guard<std::mutex> lock(mutex);
        layer_ms += a1 - a0;
        gunzip_ms += timing.gunzip_ms;
        classify_ms += timing.classify_ms;
        add_ms += a2 - a1;
        files += records.size();
        store.put(profile.value());
        layer_records.emplace(unique[i], std::move(records));
      }
    };
    std::vector<std::thread> threads;
    const std::size_t workers = std::max<std::size_t>(1, options.analyze_workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
    for (auto& thread : threads) thread.join();
    const double t1 = log.now_ms();
    if (!failure.ok()) return failure.error();
    const double wall = stage("analyzer.analyze", t0, t1, analyze_id);
    metrics.set("analyzer.layer_ms", layer_ms, "ms");
    metrics.set("analyzer.gunzip_ms", gunzip_ms, "ms");
    metrics.set("analyzer.classify_ms", classify_ms, "ms");
    metrics.set("analyzer.layers", static_cast<double>(unique.size()), "count");
    metrics.set("analyzer.files", static_cast<double>(files), "count");
    metrics.set("analyzer.busy_share",
                wall > 0.0 ? layer_ms / (wall * static_cast<double>(workers))
                           : 0.0,
                "fraction");
    metrics.set("shard.add_ms", add_ms, "ms");
  }
  blobs.clear();  // the staged pipeline drops its blob map here too

  // --- images, layer sharing ---
  {
    const double t0 = log.now_ms();
    for (const auto& manifest : result.manifests) {
      auto image = dm::analyzer::build_image_profile(manifest, store);
      if (!image.ok()) return std::move(image).error();
      result.images.push_back(std::move(image).value());
    }
    const double t1 = log.now_ms();
    std::vector<dm::dedup::LayerSharingAnalysis::LayerUse> uses;
    for (const auto& manifest : result.manifests) {
      uses.clear();
      for (const auto& ref : manifest.layers) {
        uses.push_back({ref.digest.key64(), ref.compressed_size});
      }
      result.sharing.add_image(uses);
    }
    const double t2 = log.now_ms();
    stage("analyzer.images", t0, t1);
    metrics.set("dedup.sharing_ms", stage("dedup.sharing", t1, t2), "ms");
  }

  // --- shard export + merge ---
  {
    const double t0 = log.now_ms();
    auto exported = sharded.export_shard_set(export_dir);
    const double t1 = log.now_ms();
    if (!exported.ok()) return std::move(exported).error();
    dm::shard::ShardMerger merger;
    if (auto sealed = sharded.seal_into(merger); !sealed.ok()) {
      return sealed.error();
    }
    auto aggregates = merger.merge_aggregates();
    const double t2 = log.now_ms();
    if (!aggregates.ok()) return std::move(aggregates).error();
    const dm::shard::SpillStats spill = sharded.stats();
    metrics.set("shard.export_ms", stage("shard.export", t0, t1), "ms");
    metrics.set("shard.merge_ms", stage("shard.merge", t1, t2), "ms");
    metrics.set("shard.observations",
                static_cast<double>(sharded.observations()), "count");
    metrics.set("shard.distinct",
                static_cast<double>(aggregates.value().distinct_contents),
                "count");
    metrics.set("shard.peak_resident_mb",
                static_cast<double>(spill.peak_resident_bytes) / 1e6, "MB");
    metrics.set("shard.spills", static_cast<double>(spill.spills), "count");
    result.shard_dedup = std::move(aggregates).value();
  }
  result.layer_profiles = std::move(store);

  // --- canonical report ---
  TracedPass out;
  {
    const double t0 = log.now_ms();
    out.report = dm::core::pipeline_report_json(result).dump();
    metrics.set("core.report_ms", stage("core.report", t0, log.now_ms()), "ms");
  }
  const double pass_end = log.now_ms();
  log.record_with_id(pass_id, "core.pass", pass_start, pass_end);
  out.seconds = (pass_end - pass_start) / 1e3;
  out.covered_ms = union_ms(stages);

  // --- the analyzer's inside, one call at a time (single thread), checked
  // against the records analyze_blob produced ---
  {
    const std::size_t prefix =
        std::max(dm::analyzer::LayerAnalyzer::Options{}.classify_prefix,
                 static_cast<std::size_t>(262));
    LayerSplit sum;
    std::uint64_t blob_bytes = 0;
    std::uint64_t file_count = 0;
    std::uint64_t mismatched = 0;
    const std::uint64_t split_id = log.reserve_id();
    const double t0 = log.now_ms();
    dm::registry::Service& source = service;
    for (const auto& digest : unique) {
      auto blob = source.fetch_blob(digest);
      if (!blob.ok()) return std::move(blob).error();
      const double s = log.now_ms();
      auto split = split_layer(*blob.value(), prefix);
      log.record("analyzer.split_layer", s, log.now_ms(), split_id);
      if (!split.ok()) return std::move(split).error();
      const LayerSplit& one = split.value();
      sum.gunzip_ms += one.gunzip_ms;
      sum.walk_ms += one.walk_ms;
      sum.file_digest_ms += one.file_digest_ms;
      sum.classify_ms += one.classify_ms;
      sum.blob_digest_ms += one.blob_digest_ms;
      sum.tar_bytes += one.tar_bytes;
      sum.file_bytes += one.file_bytes;
      blob_bytes += blob.value()->size();
      const auto it = layer_records.find(digest);
      if (it == layer_records.end() || !same_records(it->second, one.records)) {
        ++mismatched;
      }
      file_count += one.records.size();
    }
    log.record_with_id(split_id, "analyzer.split", t0, log.now_ms());
    checks.check(mismatched == 0,
                 "traced pass: tar walk + digest + classify records differ "
                 "from analyze_blob's on " +
                     std::to_string(mismatched) + " layers");
    const double digest_ms = sum.file_digest_ms + sum.blob_digest_ms;
    metrics.set("compress.gunzip_ms", sum.gunzip_ms, "ms");
    metrics.set("compress.gunzip_mb_per_s",
                sum.gunzip_ms > 0.0
                    ? static_cast<double>(sum.tar_bytes) / 1e6 /
                          (sum.gunzip_ms / 1e3)
                    : 0.0,
                "MB/s");
    metrics.set("tar.walk_ms", sum.walk_ms, "ms");
    metrics.set("tar.files", static_cast<double>(file_count), "count");
    metrics.set("digest.file_ms", sum.file_digest_ms, "ms");
    metrics.set("digest.blob_ms", sum.blob_digest_ms, "ms");
    metrics.set("digest.mb_per_s",
                digest_ms > 0.0
                    ? static_cast<double>(sum.file_bytes + blob_bytes) / 1e6 /
                          (digest_ms / 1e3)
                    : 0.0,
                "MB/s");
    metrics.set("filetype.classify_ms", sum.classify_ms, "ms");
    metrics.set("filetype.files", static_cast<double>(file_count), "count");
  }
  return out;
}

dm::util::Status trace_pipeline_layers(const dm::core::JobSpec& job,
                                       TimedService& registry,
                                       const std::string& work_dir,
                                       SpanLog& log, Metrics& metrics,
                                       Checks& checks,
                                       const std::string& expected_report) {
  const auto dir = [&work_dir](const char* name) {
    return (std::filesystem::path(work_dir) / name).string();
  };
  const double u0 = log.now_ms();
  auto untraced = untraced_pass(job, registry, dir("untraced-pass"));
  log.record("core.untraced_pass", u0, log.now_ms());
  if (!untraced.ok()) return untraced.error();
  auto traced = traced_pass(job, registry, dir("traced-pass"), log, metrics,
                            checks);
  if (!traced.ok()) return traced.error();
  std::error_code ec;
  std::filesystem::remove_all(dir("untraced-pass"), ec);
  std::filesystem::remove_all(dir("traced-pass"), ec);

  checks.check(traced.value().report == untraced.value().report,
               "traced pass report differs from the untraced pass");
  if (!expected_report.empty()) {
    checks.check(untraced.value().report == expected_report,
                 "untraced pass report differs from the served report");
  }
  const double untraced_ms = untraced.value().seconds * 1e3;
  metrics.set("core.queue_peak",
              static_cast<double>(untraced.value().stream.queue_peak), "count");
  metrics.set("core.producer_stalls",
              static_cast<double>(untraced.value().stream.producer_stalls),
              "count");
  metrics.set("core.unattributed_ms", untraced_ms - traced.value().covered_ms,
              "ms");
  metrics.set("trace.pass_overhead_share",
              traced.value().seconds * 1e3 / untraced_ms - 1.0, "fraction");
  return trace_materialize(job, log, metrics);
}

// ---- serve-side names --------------------------------------------------

namespace {

std::vector<std::pair<std::string, std::string>> make_serve_names() {
  std::vector<std::pair<std::string, std::string>> names;
  for (const char* kind : {"image", "layer", "content", "report", "ecdf",
                           "types", "top", "repos", "status", "stats"}) {
    names.emplace_back(std::string("serve.") + kind + ".p50_us", "us");
  }
  for (const auto& [name, unit] :
       std::vector<std::pair<const char*, const char*>>{
           {"serve.response_bytes", "bytes"},
           {"serve.cpu_us_per_req", "us"},
           {"serve.read_p90_ms", "ms"},
           {"serve.read_p99_ms", "ms"},
           {"serve.read_p999_ms", "ms"},
           {"serve.read_samples", "count"},
           {"serve.read_qps", "1/s"},
           {"serve.codec_us", "us"},
           {"wire.encode_us", "us"},
           {"wire.decode_us", "us"},
           {"json.parse_us", "us"},
           {"json.dump_us", "us"},
           {"trace.read_overhead_share", "fraction"}}) {
    names.emplace_back(name, unit);
  }
  return names;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& serve_layer_metrics() {
  static const auto names = make_serve_names();
  return names;
}

const std::vector<std::pair<std::string, std::string>>& ingest_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"ingest.materialize_s", "s"}, {"ingest.pipeline_s", "s"},
      {"ingest.fold_ms", "ms"},      {"ingest.index_open_ms", "ms"},
      {"ingest.snapshot_ms", "ms"},  {"ingest.unattributed_ms", "ms"},
      {"ingest.batches", "count"},   {"ingest.commit_ms", "ms"},
      {"ingest.read_p50_ms", "ms"},  {"ingest.read_p90_ms", "ms"},
      {"ingest.read_qps", "1/s"},    {"ingest.peak_rss_mb", "MB"}};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& ladder_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"obs.metrics_qps_ratio", "ratio"},   {"obs.metrics_p50_ratio", "ratio"},
      {"obs.journal_qps_ratio", "ratio"},   {"obs.journal_p50_ratio", "ratio"},
      {"obs.telemetry_qps_ratio", "ratio"}, {"obs.telemetry_p50_ratio", "ratio"}};
  return names;
}

void set_zero(Metrics& metrics,
              const std::vector<std::pair<std::string, std::string>>& names) {
  for (const auto& [name, unit] : names) metrics.set(name, 0.0, unit);
}

double obs_lookup_ns() {
  // The two lookups ServeDaemon::handle_request performs per request, with
  // the label strings it builds, over the query kinds of the read mix.
  static const char* kKinds[] = {"image", "layer",  "content", "report",
                                 "ecdf",  "types",  "top",     "repos",
                                 "status", "stats"};
  auto& registry = dm::obs::Registry::global();
  constexpr int kRounds = 20000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) {
    const std::string label = kKinds[i % std::size(kKinds)];
    registry.counter("dockmine_serve_requests_total{q=\"" + label + "\"}").add();
    registry.histogram("dockmine_serve_request_ms{q=\"" + label + "\"}")
        .observe(0.0);
  }
  const double ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                               start)
          .count();
  return ns / kRounds;
}

}  // namespace perfbench
