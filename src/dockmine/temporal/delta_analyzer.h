// Incremental epoch analysis: re-download and re-analyze ONLY the layers
// that changed between epochs, and fold add/remove deltas into the resident
// aggregates (dedup index, layer profiles, layer sharing, ECDF inputs).
//
// Invariant (the subsystem's contract, pinned by temporal_test and the CI
// temporal-smoke job): after apply_epoch(K), report() is byte-identical to
// core::analysis_report_json of a from-scratch batch run over the epoch-K
// registry snapshot — same discipline as the worker-count/shard/
// distribution equivalences of DESIGN.md §9-§12. Three properties make this possible:
//
//   * layer blobs are content-addressed, so "changed" is decidable from the
//     manifest diff alone — a digest already resident needs no bytes;
//   * the dedup fold (merge_content_entries) is commutative/associative
//     AND invertible on the canonical fields (unfold_content_entries), so
//     a retired layer's contribution can be subtracted exactly;
//   * the canonical report is built from order-independent aggregates only,
//     so "epoch-0 plus K deltas" and "epoch-K from scratch" serialize the
//     same bytes.
//
// apply_epoch is transactional: everything is fetched/analyzed into staging
// first and committed only when the whole churn set succeeded. A canceled
// or failed epoch leaves the resident state at the previous epoch, and —
// with a checkpoint attached — the retry streams already-verified blobs
// from disk instead of the network (the kill-mid-epoch chaos story).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "dockmine/analyzer/layer_analyzer.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/downloader/checkpoint.h"
#include "dockmine/registry/service.h"
#include "dockmine/shard/run_format.h"
#include "dockmine/util/error.h"

namespace dockmine::temporal {

struct DeltaOptions {
  analyzer::LayerAnalyzer::Options analyzer;
  /// Optional crash/resume record (the downloader's checkpoint machinery):
  /// verified blobs are persisted before analysis, and a re-applied epoch
  /// loads them from disk instead of the network. Not owned.
  downloader::Checkpoint* checkpoint = nullptr;
  /// Cooperative cancellation, checked between layers. A canceled
  /// apply_epoch commits nothing.
  const std::atomic<bool>* cancel = nullptr;
  /// Invoked after each analyzed layer with the running per-epoch count
  /// (chaos tests trigger cancellation from here).
  std::function<void(std::uint64_t analyzed)> on_layer_analyzed;
};

/// Accounting for one applied epoch — the numbers behind the obs
/// instruments and the trend report's churn columns.
struct EpochDelta {
  std::uint32_t epoch = 0;
  bool canceled = false;
  std::uint64_t repos_churned = 0;    ///< size of the churn set
  std::uint64_t repos_delivered = 0;  ///< manifests fetched and swapped in
  std::uint64_t repos_failed = 0;     ///< 401/404 — excluded, like batch
  std::uint64_t layers_changed = 0;   ///< newly analyzed unique layers
  std::uint64_t layers_removed = 0;   ///< retired (refcount hit zero)
  std::uint64_t layers_reused = 0;    ///< referenced but already resident
  std::uint64_t layers_resumed = 0;   ///< streamed from the checkpoint
  std::uint64_t bytes_fetched = 0;    ///< verified network transfer bytes
  std::uint64_t files_added = 0;      ///< file instances folded in
  std::uint64_t files_retracted = 0;  ///< file instances unfolded
  double wall_ms = 0.0;
};

class DeltaAnalyzer {
 public:
  explicit DeltaAnalyzer(DeltaOptions options = {})
      : options_(std::move(options)), analyzer_(options_.analyzer) {}

  /// Apply one epoch. Epoch 0 must come first with the full repository
  /// list (the initial ingest); each later call must pass epoch()+1 with
  /// that epoch's churn set (EpochModel::churned_repositories). The source
  /// is read with the same unauthenticated `latest` pulls the batch
  /// pipeline performs, so the delivered image set matches it exactly.
  util::Result<EpochDelta> apply_epoch(
      registry::Source& source, std::uint32_t epoch,
      const std::vector<std::string>& churned);

  /// Epoch of the resident state; meaningful once initialized().
  std::uint32_t epoch() const noexcept { return epoch_; }
  bool initialized() const noexcept { return initialized_; }

  std::uint64_t resident_layers() const noexcept { return layers_.size(); }
  std::uint64_t resident_images() const noexcept { return manifests_.size(); }
  const dedup::FileDedupIndex& contents() const noexcept { return index_; }
  const EpochDelta& last_delta() const noexcept { return last_delta_; }

  /// Materialize the resident state as a PipelineResult so the shared
  /// canonical serializers (analysis_report_json / pipeline_report_json)
  /// apply verbatim — serializer identity is half of the byte-equality
  /// story. Copies the resident aggregates; call once per report.
  util::Result<core::PipelineResult> result() const;

  /// analysis_report_json of the resident state.
  util::Result<json::Value> report() const;

 private:
  struct ResidentLayer {
    analyzer::LayerProfile profile;
    /// The layer's pre-folded dedup contribution, sorted by content key —
    /// exactly what retraction subtracts when the layer retires.
    std::vector<shard::RunEntry> contribution;
    std::uint64_t file_instances = 0;
    std::uint64_t refs = 0;  ///< resident manifests referencing this digest
  };

  /// Fetch one blob: checkpoint first, then the source, digest-verified
  /// either way.
  util::Result<blob::BlobPtr> fetch_blob(registry::Source& source,
                                         const digest::Digest& digest,
                                         EpochDelta& delta);

  DeltaOptions options_;
  analyzer::LayerAnalyzer analyzer_;
  std::uint32_t epoch_ = 0;
  bool initialized_ = false;
  EpochDelta last_delta_;

  /// Resident state: repository -> delivered manifest (ordered for
  /// deterministic iteration), unique layer digest -> profile +
  /// contribution + refcount, and the incrementally maintained dedup index.
  std::map<std::string, registry::Manifest> manifests_;
  std::unordered_map<digest::Digest, ResidentLayer, digest::DigestHash>
      layers_;
  dedup::FileDedupIndex index_;
  downloader::DownloadStats download_;  ///< accumulated across epochs
};

}  // namespace dockmine::temporal
