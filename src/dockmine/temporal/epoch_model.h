// Temporal workload: the registry as a *process*, not a frozen crawl.
//
// The paper analyzed one May-2017 snapshot; the real Docker Hub churns —
// images get re-pushed, layers are rebuilt, tags move. The EpochModel turns
// the existing synthetic snapshot into a deterministic, seeded evolution:
// epoch 0 is the original hub, and each later epoch re-pushes a calibrated
// fraction of images with their top-of-stack layers rebuilt (new layer ids
// => new digests, file content partially shared with the rest of the corpus
// through the global content-id model).
//
// Churn calibration follows "Revisiting Dockerfiles in Open Source Software
// Over Time" (PAPERS.md), which tracks Dockerfile revisions longitudinally:
// most Dockerfiles are revised rarely but a steady minority changes each
// observation period, and revisions overwhelmingly touch the trailing
// instructions (RUN/COPY — i.e. the top app layers) while FROM lines (the
// base stack) stay put. We encode that as kRepushFraction of images
// re-pushed per epoch and kChurnLayers rebuilt layers per re-push, with the
// base/empty layers never churning (DESIGN.md §15).
//
// Everything is a pure function of (hub seed, epoch, image index): the
// epoch-K registry is reproducible from scratch, which is what lets the
// batch oracle pin the incremental DeltaAnalyzer byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dockmine/registry/service.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/synth/versions.h"
#include "dockmine/util/error.h"

namespace dockmine::temporal {

struct ChurnConfig {
  /// Fraction of images re-pushed per epoch ("Revisiting Dockerfiles":
  /// a steady ~10-15% minority of Dockerfiles sees commits in any given
  /// observation window; we sit mid-band).
  double repush_fraction = 0.14;
  /// Top-of-stack layers rebuilt by a re-push (same paper: revisions
  /// cluster in trailing RUN/COPY instructions; FROM — the base stack —
  /// rarely moves, so base/empty layers never churn here).
  std::uint32_t churn_layers = 2;
};

/// Deterministic churn process over the hub's image population.
class EpochModel {
 public:
  /// Epoch numbers occupy the upper half of the 10-bit version field of
  /// synth::VersionModel::versioned_layer_id, so temporal rebuilds can
  /// never collide with tag-history layer ids of the same image.
  static constexpr std::uint32_t kEpochVersionBase = 512;
  static constexpr std::uint32_t kMaxEpoch = 511;

  explicit EpochModel(const synth::HubModel& hub, ChurnConfig config = {})
      : hub_(hub), config_(config) {}

  /// Does image `image_index` get re-pushed at epoch `epoch` (>= 1)?
  bool repushed(std::uint64_t image_index, std::uint32_t epoch) const;

  /// Latest epoch <= `epoch` at which the image was (re-)pushed; 0 means
  /// the original epoch-0 push still stands.
  std::uint32_t effective_epoch(std::uint64_t image_index,
                                std::uint32_t epoch) const;

  /// The image's layer stack as of `epoch`: the epoch-0 stack with its top
  /// min(churn_layers, depth) layers replaced by epoch-stamped rebuilds.
  /// Rebuilt ids reuse the versioned-layer id space (pattern 3 => kApp),
  /// so the materializer produces fresh-but-deterministic bytes for them.
  synth::ImageSpec image_at(std::uint64_t image_index,
                            std::uint32_t epoch) const;

  /// Names of repositories whose image is re-pushed at exactly `epoch`,
  /// in repository order — the epoch's churn set.
  std::vector<std::string> churned_repositories(std::uint32_t epoch) const;

  const synth::HubModel& hub() const noexcept { return hub_; }
  const ChurnConfig& config() const noexcept { return config_; }

 private:
  const synth::HubModel& hub_;
  ChurnConfig config_;
};

/// Drives a registry::Service through epochs: the first advance() is epoch
/// 0, which populates the full snapshot; each later one re-pushes the
/// epoch's churn set. Every push gzips on every core. The blob cache
/// persists across epochs, so unchanged layer ids keep their digests and
/// only rebuilt layers are materialized. A re-push repoints `latest` (the
/// tag move) and leaves the superseded manifest blob in the store — exactly
/// the lifecycle a real registry sees.
class EvolvingRegistry {
 public:
  EvolvingRegistry(const EpochModel& model, int gzip_level = 6)
      : model_(model),
        materializer_(model.hub(), gzip_level) {}

  struct EpochPush {
    std::uint32_t epoch = 0;
    std::uint64_t manifests = 0;            ///< manifests (re-)pushed
    std::uint64_t layers_materialized = 0;  ///< fresh gzip blobs built
    std::uint64_t layers_reused = 0;        ///< digests served from cache
    /// Churn set, repository order; at epoch 0, every hub repository.
    std::vector<std::string> repushed;
  };

  /// Push the next epoch into `service`: epoch 0 on the first call.
  util::Result<EpochPush> advance(registry::Service& service);

  const EpochModel& model() const noexcept { return model_; }

 private:
  const EpochModel& model_;
  synth::Materializer materializer_;
  synth::Materializer::BlobCache blob_cache_;
  std::uint32_t epoch_ = 0;  ///< the epoch the next advance() pushes
};

/// Convenience for the batch oracle and bench: a fresh service advanced to
/// `epoch` from scratch (`epoch` + 1 advances).
util::Result<std::uint64_t> build_registry_at_epoch(
    const EpochModel& model, std::uint32_t epoch, int gzip_level,
    registry::Service& service);

}  // namespace dockmine::temporal
