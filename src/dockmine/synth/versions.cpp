#include "dockmine/synth/versions.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace dockmine::synth {

std::vector<TaggedImage> VersionModel::versions_for(
    std::size_t repo_index) const {
  std::vector<TaggedImage> chain;
  const RepoSpec& repo = hub_.repositories().at(repo_index);
  if (repo.image_index < 0) return chain;
  const std::uint64_t image_index = static_cast<std::uint64_t>(repo.image_index);
  const ImageSpec& latest = hub_.images()[image_index];

  // Deterministic historical tag count (geometric with the configured mean).
  std::uint64_t s = hub_.scale().seed ^ (repo_index * 0x9ddfea08eb382d69ULL);
  util::Rng rng(util::splitmix64(s));
  const double p = 1.0 / (1.0 + std::max(0.0, options_.extra_tags_mean));
  std::uint32_t extra = 0;
  while (extra < options_.max_tags - 1 && !rng.chance(p)) ++extra;

  // Version k (k = 1 oldest) shares `latest`'s stack except its topmost
  // `churn` layers, which are replaced by version-specific rewrites. Older
  // versions churn the same positions with different layer ids — exactly
  // how repeated image rebuilds behave.
  for (std::uint32_t version = 1; version <= extra; ++version) {
    TaggedImage tagged;
    tagged.tag = "v" + std::to_string(version);
    tagged.image.repo_index = latest.repo_index;
    const std::size_t total = latest.layers.size();
    const std::size_t churn =
        std::min<std::size_t>(options_.churn_layers, total);
    const std::size_t keep = total - churn;
    tagged.image.layers.assign(latest.layers.begin(),
                               latest.layers.begin() + keep);
    for (std::size_t k = 0; k < churn; ++k) {
      tagged.image.layers.push_back(versioned_layer_id(
          image_index, version, static_cast<std::uint32_t>(k)));
    }
    chain.push_back(std::move(tagged));
  }
  chain.push_back(TaggedImage{"latest", latest});
  return chain;
}

VersionModel::Stats VersionModel::analyze() const {
  Stats stats;
  std::unordered_map<LayerId, std::uint64_t> cls_of;  // distinct layers
  for (std::size_t repo = 0; repo < hub_.repositories().size(); ++repo) {
    const auto chain = versions_for(repo);
    if (chain.empty()) continue;
    ++stats.repositories;
    for (const TaggedImage& tagged : chain) {
      ++stats.tags;
      for (LayerId id : tagged.image.layers) {
        ++stats.logical_layer_refs;
        auto it = cls_of.find(id);
        if (it == cls_of.end()) {
          const LayerSizes sizes = hub_.layers().sizes(hub_.layer_spec(id));
          it = cls_of.emplace(id, sizes.cls).first;
          stats.physical_bytes += sizes.cls;
        }
        stats.logical_bytes += it->second;
      }
    }
  }
  stats.distinct_layers = cls_of.size();
  return stats;
}

}  // namespace dockmine::synth
