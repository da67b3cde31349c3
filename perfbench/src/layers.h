// Layer-by-layer drive of the pipeline for the traced run, plus the
// registry the benchmark materializes. Every call here goes through the
// library's public API; the per-layer metrics are the times of those calls.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "dockmine/core/lease.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/registry/service.h"
#include "dockmine/util/error.h"

namespace perfbench {

/// The configuration `dockmine serve` and `coordinate` run: JobSpec
/// defaults with only the batch size and seed set.
dockmine::core::JobSpec job_for(std::uint64_t repositories, std::uint64_t seed);

/// Size of a job's input: file content, file count, modeled compressed
/// size and largest layer of the unique layers its downloadable images
/// reference (computed from the model, nothing is materialized). The
/// largest layer sets the transient buffers, and so peak RSS.
struct InputSize {
  double content_mb = 0.0;
  std::uint64_t files = 0;
  double compressed_mb = 0.0;
  double largest_layer_mb = 0.0;
};
InputSize input_size(const dockmine::core::JobSpec& job);

/// The registry seed for one run: the first candidate drawn from
/// (`run_seed`, `stream`) whose registry at `repositories` matches
/// `target` — content within `tolerance`, compressed size within twice,
/// file count within three and largest layer within ten times that.
/// Every run seed gives a
/// different registry with the same amount of work, so runs differ in
/// composition, not in size.
std::uint64_t pick_seed(std::uint64_t run_seed, std::uint64_t stream,
                        std::uint64_t repositories, const InputSize& target,
                        double tolerance = 0.02);

/// pick_seed from `args.seed` at a workload's own scale, whose median input
/// size `target` was measured from the model; the smoke test's tiny scale
/// takes `args.seed + stream` as it is.
std::uint64_t registry_seed(const Args& args, std::uint64_t stream,
                            std::uint64_t repositories, const InputSize& target,
                            double tolerance);

/// A registry::Service whose fetch_manifest/fetch_blob are timed into a
/// SpanLog while one is attached (untimed otherwise).
class TimedService : public dockmine::registry::Service {
 public:
  void attach(SpanLog* log, std::uint64_t parent);
  void detach() { attach(nullptr, 0); }

  dockmine::util::Result<std::string> fetch_manifest(
      const std::string& repository, const std::string& tag,
      bool authenticated) override;
  dockmine::util::Result<dockmine::blob::BlobPtr> fetch_blob(
      const dockmine::digest::Digest& digest) override;

  struct Totals {
    std::uint64_t fetches = 0;
    std::uint64_t bytes = 0;
    double ms = 0.0;
    std::vector<std::pair<double, double>> intervals;
  };
  /// Totals since the last attach().
  Totals totals() const;

 private:
  void note(double start_ms, double end_ms, std::uint64_t bytes,
            const char* name);

  mutable std::mutex mutex_;
  SpanLog* log_ = nullptr;
  std::uint64_t parent_ = 0;
  Totals totals_;
};

/// Build the hub for `job` and populate `service`. Returns wall seconds.
dockmine::util::Result<double> materialize(const dockmine::core::JobSpec& job,
                                           dockmine::registry::Service& service);

/// One untraced pass the way users run it: run_end_to_end over `service`
/// with lease_pipeline_options, plus the canonical report.
struct Pass {
  double seconds = 0.0;  ///< run_end_to_end + report serialization
  std::string report;    ///< pipeline_report_json(...).dump()
  dockmine::core::StreamStats stream;
};
dockmine::util::Result<Pass> untraced_pass(const dockmine::core::JobSpec& job,
                                           dockmine::registry::Service& service,
                                           const std::string& export_dir);

/// Traced layer-by-layer pass over `service`: crawl, download, analyze,
/// shard, sharing, merge and report, each timed around its public call.
/// Sets the pipeline-layer per-layer metrics; returns the canonical report.
struct TracedPass {
  double seconds = 0.0;
  double covered_ms = 0.0;  ///< union of the pass's stage spans
  std::string report;
};
dockmine::util::Result<TracedPass> traced_pass(
    const dockmine::core::JobSpec& job, TimedService& service,
    const std::string& export_dir, SpanLog& log, Metrics& metrics,
    Checks& checks);

/// Time layer_tar, gzip_compress and Digest::of over every unique layer of
/// the job's hub (the set-up layers), plus one timed populate.
dockmine::util::Status trace_materialize(const dockmine::core::JobSpec& job,
                                         SpanLog& log, Metrics& metrics);

/// Every pipeline-layer metric of the traced run for `job` over `registry`
/// (already materialized): one untraced pass and one traced pass, whose
/// reports must agree with each other and with `expected_report` when it
/// is given, then the set-up layers. Also sets core.queue_peak,
/// core.producer_stalls, core.unattributed_ms and trace.pass_overhead_share.
dockmine::util::Status trace_pipeline_layers(
    const dockmine::core::JobSpec& job, TimedService& registry,
    const std::string& work_dir, SpanLog& log, Metrics& metrics,
    Checks& checks, const std::string& expected_report);

/// The per-layer metric names of the serve side; workloads that do not
/// serve report them as zero (measured: no work reached the layer).
const std::vector<std::pair<std::string, std::string>>& serve_layer_metrics();
/// Likewise for the ingest decomposition and the obs-cost ladder.
const std::vector<std::pair<std::string, std::string>>& ingest_layer_metrics();
const std::vector<std::pair<std::string, std::string>>& ladder_metrics();
void set_zero(Metrics& metrics,
              const std::vector<std::pair<std::string, std::string>>& names);

/// Time obs::Registry::global().counter/histogram lookups with the label
/// strings handle_request builds per request; returns ns per lookup pair.
double obs_lookup_ns();

}  // namespace perfbench
