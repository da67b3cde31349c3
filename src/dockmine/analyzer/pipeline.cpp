#include "dockmine/analyzer/pipeline.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

#include "dockmine/mem/arena.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/obs/span.h"
#include "dockmine/util/thread_pool.h"

namespace dockmine::analyzer {

namespace {

struct AnalyzerMetrics {
  obs::Counter& layers;
  obs::Counter& files;
  obs::Counter& failures;
  obs::Histogram& layer_ms;

  static AnalyzerMetrics& get() {
    auto& reg = obs::Registry::global();
    static AnalyzerMetrics m{
        reg.counter("dockmine_analyzer_layers_total"),
        reg.counter("dockmine_analyzer_files_total"),
        reg.counter("dockmine_analyzer_failures_total"),
        reg.histogram("dockmine_analyzer_layer_ms")};
    return m;
  }
};

std::string capture_span_base(bool timed) {
  // Worker threads carry no span stack; their per-stage totals fold into
  // the orchestrator's hierarchy under the path open right now.
  return timed ? obs::Tracer::global().current_path() : std::string{};
}

/// The state of one run(): any number of pool threads call analyze()
/// concurrently, each with a distinct unique layer; the profile store, the
/// serialized sink callbacks and the first error share one mutex. Errors
/// are latched: after the first failure every later analyze() returns at
/// once, and finish() surfaces it.
class Session {
 public:
  /// `sink` is captured by reference and must outlive the session.
  Session(const AnalysisPipeline::Options& options,
          const AnalysisPipeline::Sink& sink, std::size_t layers)
      : analyzer_(options.analyzer),
        sink_(sink),
        timed_(obs::enabled()),
        span_base_(capture_span_base(timed_)) {
    store_.reserve(layers);
  }

  /// Profile one compressed layer blob and deliver layer/file results.
  void analyze(const std::string& gzip_blob);

  /// Latch an external failure (a blob fetch error) so the session fails
  /// fast exactly as if analysis itself had failed.
  void fail(util::Error error) {
    std::lock_guard lock(mutex_);
    if (first_error_.ok()) first_error_ = std::move(error);
  }

  bool failed() const {
    std::lock_guard lock(mutex_);
    return !first_error_.ok();
  }

  /// Build and deliver image profiles for `manifests` from the analyzed
  /// layers. Call once, after every analyze() call returned.
  util::Status finish(const std::vector<registry::Manifest>& manifests) {
    if (!first_error_.ok()) return first_error_;
    for (const auto& manifest : manifests) {
      auto image = build_image_profile(manifest, store_);
      if (!image.ok()) return std::move(image).error();
      if (sink_.on_image) sink_.on_image(image.value());
    }
    return util::Status::success();
  }

  ProfileStore take_store() { return std::move(store_); }

 private:
  const LayerAnalyzer analyzer_;
  const AnalysisPipeline::Sink& sink_;
  const bool timed_;
  const std::string span_base_;  ///< tracer path open at construction
  mutable std::mutex mutex_;     ///< store + sinks + first_error_
  ProfileStore store_;
  util::Status first_error_;
};

void Session::analyze(const std::string& gzip_blob) {
  // One journal event per analyzed layer, parented to the caller's span.
  const obs::EventSpan event_span("analyze_layer");

  AnalyzerMetrics& metrics = AnalyzerMetrics::get();
  auto child_path = [&](const char* name) {
    return span_base_.empty() ? std::string(name) : span_base_ + "/" + name;
  };

  // Per-layer scratch: each pool thread owns one arena, reset at the end
  // of every layer (DESIGN.md §14). Nothing allocated below may escape
  // this call.
  static thread_local mem::Arena scratch;
  struct ResetGuard {
    mem::Arena& arena;
    ~ResetGuard() { arena.reset(); }
  } reset_guard{scratch};

  // Buffer file records locally; flush in batches to bound lock traffic.
  std::vector<FileRecord, mem::ArenaAllocator<FileRecord>> batch{
      mem::ArenaAllocator<FileRecord>(scratch)};
  FileVisitor visitor = [&](std::string_view, const FileRecord& record) {
    batch.push_back(record);
  };
  LayerAnalyzer::Timing timing;
  const double start_ms = timed_ ? obs::now_ms() : 0.0;
  auto profile = analyzer_.analyze_blob(
      gzip_blob, sink_.on_layer_files ? &visitor : nullptr,
      /*dir_visitor=*/nullptr, timed_ ? &timing : nullptr, &scratch);
  if (timed_) {
    const double total_ms = obs::now_ms() - start_ms;
    metrics.layer_ms.observe(total_ms);
    auto& tracer = obs::Tracer::global();
    tracer.record_at(child_path("gunzip"), timing.gunzip_ms);
    tracer.record_at(child_path("classify"), timing.classify_ms);
    // Whatever analyze_blob spent outside gunzip/classify is the tar walk.
    tracer.record_at(
        child_path("untar"),
        std::max(0.0, total_ms - timing.gunzip_ms - timing.classify_ms));
  }
  if (profile.ok()) {
    metrics.layers.add();
    metrics.files.add(profile.value().file_count);
  } else {
    metrics.failures.add();
  }

  {
    std::lock_guard lock(mutex_);
    if (!profile.ok()) {
      if (first_error_.ok()) first_error_ = std::move(profile).error();
      return;
    }
    store_.put(profile.value());
    if (sink_.on_layer) sink_.on_layer(profile.value());
  }
  // Each unique layer is analyzed by exactly one worker, so file delivery
  // outside the mutex is still exactly-once per unique layer.
  if (sink_.on_layer_files) sink_.on_layer_files(profile.value().digest, batch);
}

}  // namespace

util::Result<ProfileStore> AnalysisPipeline::run(
    const std::vector<registry::Manifest>& manifests, const BlobFetch& fetch,
    const Sink& sink) const {
  // Unique layer digests in first-reference order.
  std::vector<digest::Digest> unique;
  {
    std::unordered_set<digest::Digest, digest::DigestHash> seen;
    for (const auto& manifest : manifests) {
      for (const auto& ref : manifest.layers) {
        if (seen.insert(ref.digest).second) unique.push_back(ref.digest);
      }
    }
  }

  Session session(options_, sink, unique.size());
  util::ThreadPool pool(options_.workers);
  // Parent pool-thread events into the caller's open span ("analyze").
  const obs::TraceContext run_ctx = obs::current_trace_context();
  util::parallel_for(pool, 0, unique.size(), /*grain=*/1, [&](std::size_t i) {
    const obs::ContextGuard adopt(run_ctx);
    if (session.failed()) return;  // fail fast
    auto blob = fetch(unique[i]);
    if (!blob.ok()) {
      session.fail(std::move(blob).error());
      return;
    }
    session.analyze(*blob.value());
  });
  pool.shutdown();
  if (auto status = session.finish(manifests); !status.ok()) {
    return status.error();
  }
  return session.take_store();
}

}  // namespace dockmine::analyzer
