// File population model: the joint distribution of (type, size, content
// identity) for every file instance in the synthetic hub.
//
// Identity drives dedup (§V of the paper): each file instance either hits a
// shared per-type content pool (Zipf rank popularity) or mints a fresh
// never-repeated content. Pool sizes follow a Heaps-law fit to the paper's
// dedup-growth curve (Fig. 25: 3.6x at 2.9M files -> 31.5x at 5.28G files,
// i.e. distinct(N) ~= 20.9 * N^0.71). All per-content attributes (type,
// size, compressibility) are deterministic functions of the 64-bit content
// id, so metadata mode and bytes mode agree and parallel generation is
// order-independent.
//
// Content id layout:  [63] fresh flag | [56..62] type index | [0..55] rank
// (pool) or random tag (fresh). The single empty-file content (the paper's
// most-repeated file, 53.6M copies) has a reserved id.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dockmine/filetype/classifier.h"
#include "dockmine/filetype/taxonomy.h"
#include "dockmine/stats/distributions.h"
#include "dockmine/synth/calibration.h"
#include "dockmine/util/rng.h"

namespace dockmine::synth {

using ContentId = std::uint64_t;

/// Heaps-law fit constants (see header comment).
inline constexpr double kHeapsK = 20.9;
inline constexpr double kHeapsBeta = 0.71;

/// Which file-type mixture a layer draws from (size-count
/// anticorrelation; see Calibration::bias_*).
enum class SizeBias : std::uint8_t { kNeutral, kBigFiles, kSmallFiles };

class FileModel {
 public:
  /// `expected_instances` is the anticipated number of file instances in
  /// the whole snapshot; it sizes the shared pools via Heaps' law.
  FileModel(const Calibration& cal, std::uint64_t expected_instances,
            std::uint64_t seed);

  /// Draw the content identity of one file instance.
  ContentId draw_content(util::Rng& rng,
                         SizeBias bias = SizeBias::kNeutral) const;

  // ---- deterministic attributes of a content id ----
  filetype::Type type_of(ContentId id) const noexcept;
  filetype::Group group_of(ContentId id) const noexcept;
  std::uint64_t size_of(ContentId id) const noexcept;
  /// Target gzip ratio of this content (by type).
  double gzip_ratio_of(ContentId id) const noexcept;

  static constexpr ContentId kEmptyContentId = 0x7f00000000000000ULL;
  static bool is_fresh(ContentId id) noexcept { return (id >> 63) != 0; }
  static bool is_empty(ContentId id) noexcept { return id == kEmptyContentId; }

  /// Materialize the actual bytes of a content (bytes mode). Deterministic:
  /// same id -> same bytes, so duplicate instances really deduplicate by
  /// SHA-256.
  std::string materialize(ContentId id) const;

  /// materialize()'s appending form: appends the same size_of(id) bytes to
  /// `out`, calling `on_block` (if set) after each generated block of at
  /// most 16 KiB, so a caller can drain `out` and never hold the file.
  void materialize_into(ContentId id, std::string& out,
                        const std::function<void()>& on_block) const;

  /// Tar path for an instance of this content. `instance_salt` varies the
  /// basename so two different files with identical content get distinct
  /// paths, as in real layers.
  std::string path_for(ContentId id, std::uint64_t instance_salt) const;

  std::uint64_t pool_entries(filetype::Type type) const noexcept;
  std::uint64_t total_pool_entries() const noexcept;

  /// Mean file size of the configured mixture (bytes); used by the layer
  /// model to convert file counts to expected layer sizes.
  double mean_file_size() const noexcept { return mean_file_size_; }

 private:
  struct TypeSpec {
    filetype::Type type;
    double weight;       // global count share (group share x within-group)
    double mean_size;    // bytes
    double sigma;        // lognormal shape
    double gzip_ratio;   // target compressibility
  };

  ContentId make_pool_id(std::size_t type_index, std::uint64_t rank) const;

  const Calibration cal_;
  std::uint64_t seed_;
  std::vector<TypeSpec> specs_;
  std::vector<stats::AliasTable> per_group_alias_;  // type choice inside group
  std::vector<std::vector<std::uint32_t>> group_members_;  // spec idx by group
  stats::AliasTable group_alias_[3];  // indexed by SizeBias
  std::vector<std::uint64_t> pool_sizes_;       // per spec
  std::vector<stats::Zipf> pool_zipf_;          // per spec
  double mean_file_size_ = 0.0;
  // type index <-> spec index maps
  std::vector<std::int16_t> spec_of_type_;
};

}  // namespace dockmine::synth
