// K-way split recombination: one analysis run split across K pipeline runs
// ("nodes"), each a run_end_to_end with node_count = K and its own
// node_index. A node crawls the shared snapshot, downloads and analyzes
// only its repository partition, indexes only the layers it owns under the
// deterministic ownership pass (DESIGN.md §10), and exports its sharded
// dedup index as a shard set. fold_contributions folds the K sets — plus
// the nodes' image/layer results — into one result whose
// analysis_report_json is byte-identical to a single-node run over the
// full snapshot.
//
// The coordinator folds its workers' leases this way (DESIGN.md §12),
// serve folds its ingest batches the same way, and the exported
// directories also feed the `dockmine merge-shards` CLI verb.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dockmine/core/pipeline.h"
#include "dockmine/util/error.h"

namespace dockmine::core {

/// One node's (or one lease's) delivered work, stripped to exactly what the
/// recombination needs. Every run becomes one through contribution_of:
/// in process, or on a worker, whose lease result carries it to the
/// coordinator beside the shard-set files — all feed the same fold below.
struct NodeContribution {
  std::vector<analyzer::ImageProfile> images;
  std::vector<registry::Manifest> manifests;
  std::vector<analyzer::LayerProfile> layer_profiles;
  std::uint64_t manifests_pushed = 0;
  std::string shard_set_dir;  ///< exported shard set to fold
  ShardedDedupSummary shard_summary;  ///< per-node accounting (summed)
};

/// Move one finished run into a contribution whose shard set was exported
/// to `shard_set_dir` (the run's PipelineOptions::shard_export_dir). The
/// run's images and manifests are moved, never copied.
NodeContribution contribution_of(PipelineResult&& result,
                                 std::string shard_set_dir);

/// Fold K contributions into one PipelineResult whose analysis_report_json
/// is byte-identical to a single-node run over the union: concatenate the
/// delivered work in input order, recompute layer sharing over the union of
/// manifests, and k-way-merge every exported shard set into the exact dedup
/// section (commutative merge_content_entries makes the result independent
/// of how the work was partitioned — or re-executed).
util::Result<PipelineResult> fold_contributions(
    const std::vector<NodeContribution>& contributions);

}  // namespace dockmine::core
