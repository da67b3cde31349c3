// Parallel analysis pipeline: profile every unique layer of a set of
// manifests (fetching blobs through a caller-supplied function), then build
// image profiles. Mirrors Fig. 2 of the paper — the Analyzer stage — with
// the unique-layer economy of §III-B.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "dockmine/analyzer/image_analyzer.h"
#include "dockmine/analyzer/layer_analyzer.h"
#include "dockmine/blob/store.h"
#include "dockmine/registry/model.h"
#include "dockmine/util/error.h"

namespace dockmine::analyzer {

class AnalysisPipeline {
 public:
  struct Options {
    std::size_t workers = 0;  ///< 0 => hardware concurrency
    LayerAnalyzer::Options analyzer;
  };

  /// Consumer callbacks. Except for on_layer_files, all are invoked
  /// under an internal mutex (thread safe to use plain accumulators); any
  /// may be null.
  struct Sink {
    std::function<void(const LayerProfile&)> on_layer;  ///< per unique layer
    /// Every file of one unique layer at once, invoked OUTSIDE the internal
    /// mutex from the worker thread that analyzed the layer (exactly once
    /// per unique layer). The callback must be safe to run from many
    /// threads at once; the sharded dedup index takes it through per-thread
    /// writers, lock-free. `records` is only valid for the duration of the
    /// call.
    std::function<void(const digest::Digest& layer_digest,
                       std::span<const FileRecord> records)>
        on_layer_files;
    std::function<void(const ImageProfile&)> on_image;
  };

  /// Returns the blob whose SHA-256 is `digest`, verified: the pipeline
  /// takes each layer's digest from its manifest and does not hash the blob
  /// again.
  using BlobFetch =
      std::function<util::Result<blob::BlobPtr>(const digest::Digest&)>;

  AnalysisPipeline() = default;
  explicit AnalysisPipeline(Options options) : options_(options) {}

  /// Analyze all manifests. Unique layers are profiled exactly once, in
  /// parallel; the first fetch or analysis error stops the run and is
  /// returned. Returns the profile store (reusable for further queries).
  util::Result<ProfileStore> run(const std::vector<registry::Manifest>& manifests,
                                 const BlobFetch& fetch, const Sink& sink) const;

  const Options& options() const noexcept { return options_; }

 private:
  Options options_{};
};

}  // namespace dockmine::analyzer
