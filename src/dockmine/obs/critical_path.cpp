#include "dockmine/obs/critical_path.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace dockmine::obs {
namespace {

/// Transitive descendants of `root` within its trace, via parent_id edges.
std::vector<const TraceEvent*> descendants_of(
    const std::vector<TraceEvent>& events, const TraceEvent& root) {
  std::unordered_map<std::uint64_t, std::vector<const TraceEvent*>> children;
  for (const TraceEvent& event : events) {
    if (event.trace_id != root.trace_id) continue;
    children[event.parent_id].push_back(&event);
  }
  std::vector<const TraceEvent*> out;
  std::vector<std::uint64_t> frontier{root.span_id};
  std::unordered_set<std::uint64_t> seen{root.span_id};
  while (!frontier.empty()) {
    const std::uint64_t parent = frontier.back();
    frontier.pop_back();
    const auto it = children.find(parent);
    if (it == children.end()) continue;
    for (const TraceEvent* child : it->second) {
      if (!seen.insert(child->span_id).second) continue;  // malformed cycle
      out.push_back(child);
      frontier.push_back(child->span_id);
    }
  }
  return out;
}

}  // namespace

CriticalPathReport critical_path(const std::vector<TraceEvent>& events,
                                 std::string_view root_name) {
  CriticalPathReport report;
  report.root_name.assign(root_name);

  const TraceEvent* root = nullptr;
  for (const TraceEvent& event : events) {
    if (event.name != root_name) continue;
    if (root == nullptr ||
        event.end_ms - event.start_ms > root->end_ms - root->start_ms) {
      root = &event;
    }
  }
  if (root == nullptr || root->end_ms <= root->start_ms) return report;
  report.root_wall_ms = root->end_ms - root->start_ms;

  // Only leaf descendants compete for attribution: a container span (e.g.
  // "download") outlives the per-layer events inside it, so letting it win
  // "last finisher" would swallow its whole interval and hide the real
  // work. Its uncovered remainder still shows up as root self time.
  std::unordered_set<std::uint64_t> has_children;
  for (const TraceEvent& event : events) {
    if (event.trace_id == root->trace_id) has_children.insert(event.parent_id);
  }
  std::vector<const TraceEvent*> candidates;
  for (const TraceEvent* event : descendants_of(events, *root)) {
    if (!has_children.count(event->span_id)) candidates.push_back(event);
  }

  // Candidates sorted ascending by (end, start, span_id); the backward walk
  // consumes them from the back, so ties resolve deterministically.
  std::sort(candidates.begin(), candidates.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->end_ms != b->end_ms) return a->end_ms < b->end_ms;
              if (a->start_ms != b->start_ms) return a->start_ms < b->start_ms;
              return a->span_id < b->span_id;
            });

  std::map<std::string, CriticalPathEntry> by_name;
  const auto attribute = [&](const std::string& name, double from, double to) {
    if (to <= from) return;
    CriticalPathEntry& entry = by_name[name];
    entry.name = name;
    entry.total_ms += to - from;
    ++entry.segments;
  };

  double t = root->end_ms;
  std::size_t i = candidates.size();
  while (t > root->start_ms) {
    // Last finisher at time t: the candidate with the greatest end <= t
    // whose start precedes t (zero-length events can never cover an
    // instant, and requiring start < t guarantees the walk advances).
    // Skipped candidates stay ineligible for every later (smaller) t, so
    // the cursor only moves backward.
    const TraceEvent* best = nullptr;
    while (i > 0) {
      const TraceEvent* candidate = candidates[i - 1];
      if (candidate->end_ms > t || candidate->start_ms >= t) {
        --i;
        continue;
      }
      best = candidate;
      --i;
      break;
    }
    if (best == nullptr) {
      report.root_self_ms += t - root->start_ms;
      break;
    }
    const double gap_floor = std::max(best->end_ms, root->start_ms);
    if (gap_floor < t) report.root_self_ms += t - gap_floor;
    const double seg_start = std::max(best->start_ms, root->start_ms);
    attribute(best->name, seg_start, best->end_ms);
    t = seg_start;
  }

  report.entries.reserve(by_name.size());
  for (auto& [name, entry] : by_name) report.entries.push_back(entry);
  std::sort(report.entries.begin(), report.entries.end(),
            [](const CriticalPathEntry& a, const CriticalPathEntry& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.name < b.name;
            });
  report.attributed_ms = report.root_self_ms;
  for (const CriticalPathEntry& entry : report.entries) {
    report.attributed_ms += entry.total_ms;
  }
  return report;
}

json::Value to_json(const CriticalPathReport& report) {
  json::Value entries = json::Value::array();
  for (const CriticalPathEntry& entry : report.entries) {
    json::Value row = json::Value::object();
    row.set("name", entry.name);
    row.set("total_ms", entry.total_ms);
    row.set("segments", entry.segments);
    entries.push_back(std::move(row));
  }
  json::Value root = json::Value::object();
  root.set("root", report.root_name);
  root.set("wall_ms", report.root_wall_ms);
  root.set("self_ms", report.root_self_ms);
  root.set("attributed_ms", report.attributed_ms);
  root.set("entries", std::move(entries));
  return root;
}

}  // namespace dockmine::obs
