// Critical-path attribution over a TraceJournal snapshot.
//
// "Which stage was the bottleneck" is not answerable from aggregate span
// totals: they sum per-layer work across threads, so a stage's total can
// exceed the run's elapsed time. The
// critical path decomposes the *root span's own wall interval* instead:
// walking backwards from the root's end, each instant is attributed to the
// leaf descendant event that finished last at that point (the "last
// finisher" — the work the run was actually waiting on; container spans
// like "download" are skipped so they cannot swallow the per-layer events
// inside them), and instants no leaf covers fall to the root itself. The
// resulting segments tile the root interval exactly, so the per-name
// totals sum to the root's wall time and answer "if I made stage X faster,
// would the run finish sooner".
//
// Works on any journal snapshot, including merged multi-node ones (events
// keep their trace_id, and the walk is confined to the root's trace).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dockmine/json/json.h"
#include "dockmine/obs/journal.h"

namespace dockmine::obs {

/// One contributor to the critical path, aggregated by event name.
struct CriticalPathEntry {
  std::string name;
  double total_ms = 0.0;        ///< time this name was the last finisher
  std::uint64_t segments = 0;   ///< contiguous intervals attributed to it
};

struct CriticalPathReport {
  std::string root_name;
  double root_wall_ms = 0.0;   ///< the decomposed interval's length
  double root_self_ms = 0.0;   ///< instants covered by no descendant
  double attributed_ms = 0.0;  ///< sum of entries + root self (== wall)
  /// Sorted by total_ms descending (name ascending on ties). Does not
  /// include the root-self share; that is root_self_ms.
  std::vector<CriticalPathEntry> entries;
};

/// Decompose the longest event named `root_name` in `events`. Returns an
/// empty report (root_wall_ms == 0) when no such event exists.
CriticalPathReport critical_path(const std::vector<TraceEvent>& events,
                                 std::string_view root_name = "pipeline");

/// {"root":...,"wall_ms":...,"self_ms":...,"attributed_ms":...,
///  "entries":[{"name","total_ms","segments"},...]}
json::Value to_json(const CriticalPathReport& report);

}  // namespace dockmine::obs
