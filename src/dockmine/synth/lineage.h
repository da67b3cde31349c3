// Lineage model: which layers make up which image (Fig. 10 layer counts,
// Fig. 23 layer sharing).
//
// Sharing arises from three mechanisms, mirroring how real images are built:
//  * THE empty layer — every `RUN` that touches no files produces the same
//    empty diff; the paper found it referenced by 184,171 of 355,319 images
//    (~52%). We include it per image with that probability.
//  * Base stacks — popular distro bases (ubuntu, debian, alpine, ...) whose
//    layer stacks are inherited verbatim; base popularity is Zipf, so the
//    top base layers collect ~8-9% of images like the paper's top-5.
//  * Own layers — everything else is unique to its image, which is why ~90%
//    of layers have reference count 1.
//
// Layer ids encode their origin so LayerKind is recoverable without a map:
//   id 1                      -> the empty layer
//   [62..63]=1, base<<12|lvl  -> base-stack layer
//   [62..63]=2, img<<12|k     -> own (app) layer of image `img`
//   [62..63]=3                -> a rebuilt app layer (synth/versions.h)
#pragma once

#include <cstdint>
#include <vector>

#include "dockmine/synth/calibration.h"
#include "dockmine/synth/layer_model.h"
#include "dockmine/util/rng.h"

namespace dockmine::synth {

struct ImageSpec {
  std::uint32_t repo_index = 0;
  std::vector<LayerId> layers;  ///< bottom-up order
};

class LineageModel {
 public:
  LineageModel(const Calibration& cal, std::uint64_t n_repositories,
               std::uint64_t seed);

  /// Compose the layer stack of image `image_index` (deterministic).
  /// Images within a cluster of `twin_cluster_size` may be twins of the
  /// cluster head: they share the head's base/own layers and add a few of
  /// their own (see calibration).
  ImageSpec compose(std::uint32_t repo_index, std::uint64_t image_index) const;

  /// Is this image a twin (variant of its cluster head)?
  bool is_twin(std::uint64_t image_index) const;

  static LayerKind kind_of(LayerId id) noexcept {
    if (id == LayerModel::kEmptyLayerId) return LayerKind::kEmpty;
    return (id >> 62) == 1 ? LayerKind::kBase : LayerKind::kApp;
  }

  static LayerId base_layer_id(std::uint64_t base, std::uint32_t level) noexcept {
    return (1ULL << 62) | (base << 12) | level;
  }
  static LayerId app_layer_id(std::uint64_t image, std::uint32_t k) noexcept {
    return (2ULL << 62) | (image << 12) | k;
  }

  std::uint64_t base_count() const noexcept { return base_stack_len_.size(); }
  std::uint32_t base_stack_length(std::uint64_t base) const {
    return base_stack_len_.at(base);
  }

 private:
  /// Deterministic non-twin composition plan of an image.
  struct Plan {
    std::uint64_t budget = 1;
    bool has_base = false;
    std::uint64_t base = 0;
    std::uint32_t base_take = 0;
    bool has_empty = false;
    std::uint32_t own_count = 0;
  };
  Plan plan_image(std::uint64_t image_index) const;
  std::uint64_t layers_per_image(util::Rng& rng) const;
  void append_plan_layers(const Plan& plan, std::uint64_t owner_index,
                          std::uint32_t own_limit, ImageSpec& spec) const;

  Calibration cal_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> base_stack_len_;
  stats::Zipf base_zipf_;
};

}  // namespace dockmine::synth
