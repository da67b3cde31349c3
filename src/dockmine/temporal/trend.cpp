#include "dockmine/temporal/trend.h"

namespace dockmine::temporal {

util::Status TrendReport::observe(const DeltaAnalyzer& analyzer) {
  auto snapshot = analyzer.result();
  if (!snapshot.ok()) return std::move(snapshot).error();
  const core::PipelineResult& result = snapshot.value();

  TrendPoint point;
  point.epoch = analyzer.epoch();
  point.images = analyzer.resident_images();
  point.distinct_layers = analyzer.resident_layers();
  point.layers_changed = analyzer.last_delta().layers_changed;
  point.layers_removed = analyzer.last_delta().layers_removed;
  const dedup::DedupTotals& totals = result.shard_dedup->totals;
  point.total_files = totals.total_files;
  point.unique_files = totals.unique_files;
  point.total_bytes = totals.total_bytes;
  point.unique_bytes = totals.unique_bytes;
  point.count_ratio = totals.count_ratio();
  point.capacity_ratio = totals.capacity_ratio();
  point.sharing_ratio = result.sharing.sharing_ratio();
  point.epoch_ms = analyzer.last_delta().wall_ms;
  points_.push_back(point);
  return util::Status();
}

json::Value TrendReport::to_json() const {
  auto doc = json::Value::object();
  doc.set("epochs", static_cast<std::uint64_t>(points_.size()));

  auto series = json::Value::object();
  auto column = [&](const char* name, auto&& get) {
    auto values = json::Value::array();
    for (const TrendPoint& p : points_) values.push_back(get(p));
    series.set(name, std::move(values));
  };
  column("epoch",
         [](const TrendPoint& p) { return static_cast<std::uint64_t>(p.epoch); });
  column("images", [](const TrendPoint& p) { return p.images; });
  column("distinct_layers",
         [](const TrendPoint& p) { return p.distinct_layers; });
  column("layers_changed", [](const TrendPoint& p) { return p.layers_changed; });
  column("layers_removed", [](const TrendPoint& p) { return p.layers_removed; });
  column("total_files", [](const TrendPoint& p) { return p.total_files; });
  column("unique_files", [](const TrendPoint& p) { return p.unique_files; });
  column("total_bytes", [](const TrendPoint& p) { return p.total_bytes; });
  column("unique_bytes", [](const TrendPoint& p) { return p.unique_bytes; });
  column("count_ratio", [](const TrendPoint& p) { return p.count_ratio; });
  column("capacity_ratio", [](const TrendPoint& p) { return p.capacity_ratio; });
  column("sharing_ratio", [](const TrendPoint& p) { return p.sharing_ratio; });
  column("epoch_ms", [](const TrendPoint& p) { return p.epoch_ms; });
  // Growth rate: physical-byte delta per epoch — what the registry's
  // storage actually accretes once dedup has taken its share.
  {
    auto growth = json::Value::array();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const std::uint64_t prev = i == 0 ? 0 : points_[i - 1].unique_bytes;
      const std::uint64_t cur = points_[i].unique_bytes;
      growth.push_back(cur >= prev ? cur - prev : 0);
    }
    series.set("unique_bytes_growth", std::move(growth));
  }
  doc.set("series", std::move(series));
  return doc;
}

}  // namespace dockmine::temporal
