#include "dockmine/core/multi_node.h"

#include <algorithm>
#include <utility>

#include "dockmine/shard/merger.h"

namespace dockmine::core {

NodeContribution contribution_of(PipelineResult&& result,
                                 std::string shard_set_dir) {
  NodeContribution contribution;
  contribution.images = std::move(result.images);
  contribution.manifests = std::move(result.manifests);
  contribution.layer_profiles.reserve(result.layer_profiles.size());
  result.layer_profiles.for_each([&](const analyzer::LayerProfile& profile) {
    contribution.layer_profiles.push_back(profile);
  });
  contribution.manifests_pushed = result.manifests_pushed;
  contribution.shard_set_dir = std::move(shard_set_dir);
  contribution.shard_summary = std::move(result.shard_summary);
  return contribution;
}

util::Result<PipelineResult> fold_contributions(
    const std::vector<NodeContribution>& contributions) {
  PipelineResult combined;
  for (const NodeContribution& node : contributions) {
    for (const auto& image : node.images) combined.images.push_back(image);
    for (const auto& manifest : node.manifests)
      combined.manifests.push_back(manifest);
    combined.manifests_pushed = node.manifests_pushed;  // same snapshot
    for (const auto& profile : node.layer_profiles)
      combined.layer_profiles.put(profile);
  }
  combined.sharing = layer_sharing_of(combined.manifests);

  // --- fold the K exported shard sets into one exact dedup section ---
  shard::ShardMerger merger;
  for (const NodeContribution& node : contributions) {
    if (auto s = merger.add_shard_set(node.shard_set_dir); !s.ok())
      return s.error();
  }
  auto aggregates = merger.merge_aggregates();
  if (!aggregates.ok()) return std::move(aggregates).error();
  combined.shard_summary.runs_merged = merger.stats().runs;
  combined.shard_dedup = std::move(aggregates).value();
  combined.shard_summary.shards =
      contributions.empty() ? 0 : contributions[0].shard_summary.shards;
  combined.shard_summary.distinct_contents =
      combined.shard_dedup->distinct_contents;
  combined.shard_summary.metadata_conflicts =
      combined.shard_dedup->metadata_conflicts;
  for (const NodeContribution& node : contributions) {
    combined.shard_summary.observations += node.shard_summary.observations;
    combined.shard_summary.spills += node.shard_summary.spills;
    combined.shard_summary.spilled_bytes += node.shard_summary.spilled_bytes;
    combined.shard_summary.peak_resident_bytes =
        std::max(combined.shard_summary.peak_resident_bytes,
                 node.shard_summary.peak_resident_bytes);
  }
  return combined;
}

}  // namespace dockmine::core
