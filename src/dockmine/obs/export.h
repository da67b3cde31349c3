// Metric/trace export: one `MetricsReport` snapshot of the process-wide
// registry + tracer, serializable as JSON (dm_json document — machine
// consumers, bench artifacts) or Prometheus text exposition format
// (scrape/grep consumers). Both serializations are deterministic: entries
// sorted by name, doubles printed shortest-round-trip, so identical runs
// (on the injectable clock) export byte-identical documents.
//
// The JSON form is also a wire format: `report_from_json` parses an
// exported document back into a MetricsReport (exact — log2 buckets
// reconstruct from their row lower bounds), and `merge_reports` /
// `merge_obs_exports` fold per-node exports of a K-way split (one
// `dockmine metrics --nodes K --node I --format json` per node, or the
// coordinator's per-lease exports) into one cluster-wide report, with
// per-node wall times for straggler analysis. That pair backs the
// `dockmine merge-obs` CLI verb.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dockmine/json/json.h"
#include "dockmine/obs/obs.h"
#include "dockmine/obs/span.h"
#include "dockmine/util/error.h"

namespace dockmine::obs {

struct MetricsReport {
  Registry::Snapshot metrics;
  std::vector<SpanRow> spans;
  std::uint32_t node = 0;  ///< multi-node id this snapshot came from
};

/// Snapshot the global registry and tracer (stamped with the current node
/// id).
MetricsReport collect();

/// Zero the global registry (keeping registrations), clear the global
/// tracer and trace journal (events, drop counters, id allocators), stop
/// any running heartbeat and time-series sampler (dropping sampled rings),
/// restart the heartbeat sequence counter, re-base uptime, and restore
/// node id 0. For tests and back-to-back CLI runs: afterwards the process
/// observes like a freshly started one (the enable switches are left
/// as-is).
void reset_all();

/// {"counters":{...},"gauges":{...},"histograms":{...},"spans":[...],
///  "node":N}
json::Value to_json(const MetricsReport& report);

/// Inverse of to_json. Exact for everything to_json writes: counters,
/// gauges, histogram count/sum/buckets (log2 buckets reconstruct from the
/// row lower bounds; derived quantiles are recomputed), span rows, node.
util::Result<MetricsReport> report_from_json(const json::Value& doc);

/// Fold `from` into `into`: counters, histogram buckets, and span rows add
/// by name/path; gauges add too (levels like queue depth sum to the
/// cluster-wide level). `into.node` is left unchanged.
void merge_reports(MetricsReport& into, const MetricsReport& from);

/// Per-node wall time extracted during a merge (straggler analysis).
struct ObsNodeSummary {
  std::string source;            ///< file the export was read from
  std::uint32_t node = 0;
  double pipeline_wall_ms = 0.0;  ///< the node's "pipeline" span wall time
  double straggler_delta_ms = 0.0;  ///< vs. the fastest node in the set
};

struct ObsMergeResult {
  MetricsReport merged;
  std::vector<ObsNodeSummary> nodes;  ///< in input order
};

/// Read per-node JSON exports (files produced by `to_json(...).dump()`,
/// e.g. `dockmine metrics --nodes K --node I --format json`) and fold them
/// into one report. Fails on unreadable files or schema mismatches.
util::Result<ObsMergeResult> merge_obs_exports(
    const std::vector<std::string>& paths);

/// Prometheus text exposition format. Counter/gauge names pass through
/// (label suffixes baked into the name are preserved); histograms expand to
/// cumulative `_bucket{le="..."}` lines plus `_sum`/`_count`; span rows
/// become `dockmine_span_{count,wall_ms,cpu_ms}{path="..."}` with the path
/// escaped per the exposition format (`\` → `\\`, `"` → `\"`, newline →
/// `\n`).
std::string to_prometheus(const MetricsReport& report);

}  // namespace dockmine::obs
