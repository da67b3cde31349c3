#include "dockmine/obs/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace dockmine::obs {

namespace {

/// "name{labels}" -> {base, labels-with-braces-or-empty}.
std::pair<std::string_view, std::string_view> split_labels(
    std::string_view name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  return {name.substr(0, brace), name.substr(brace)};
}

/// Split "{a=\"x\",b=\"y\"}" into "a=\"x\"" pieces. Values are quoted;
/// commas inside quotes (and backslash escapes) do not split. A malformed
/// block yields whatever prefix parsed — matching then simply fails.
std::vector<std::string_view> label_pairs(std::string_view block) {
  std::vector<std::string_view> out;
  if (block.size() < 2 || block.front() != '{' || block.back() != '}') {
    return out;
  }
  const std::string_view inner = block.substr(1, block.size() - 2);
  std::size_t begin = 0;
  bool quoted = false;
  for (std::size_t i = 0; i < inner.size(); ++i) {
    const char c = inner[i];
    if (quoted && c == '\\') {
      ++i;  // skip the escaped character
      continue;
    }
    if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      if (i > begin) out.push_back(inner.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  if (begin < inner.size()) out.push_back(inner.substr(begin));
  return out;
}

}  // namespace

std::string_view to_string(SeriesKind kind) noexcept {
  switch (kind) {
    case SeriesKind::kCounter:
      return "counter";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

TimeSeriesStore& TimeSeriesStore::global() {
  static TimeSeriesStore instance;
  return instance;
}

bool TimeSeriesStore::configure(const TimeSeriesOptions& options) {
  if (sampler_running()) return false;
  std::lock_guard<std::mutex> lock(write_mutex_);
  capacity_.store(std::max<std::size_t>(options.capacity, 2),
                  std::memory_order_relaxed);
  interval_ms_.store(std::max<std::uint64_t>(options.interval_ms, 1),
                     std::memory_order_relaxed);
  directory_.store(std::make_shared<const Directory>());
  ticks_.store(0, std::memory_order_relaxed);
  return true;
}

void TimeSeriesStore::reset() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  directory_.store(std::make_shared<const Directory>());
  ticks_.store(0, std::memory_order_relaxed);
}

void TimeSeriesStore::append(Directory& directory, bool& directory_grew,
                             const std::string& name, SeriesKind kind,
                             double ts_ms, double value, double sum,
                             double p50, double p90, double p99) {
  auto it = directory.find(name);
  if (it == directory.end()) {
    it = directory.emplace(name, std::make_shared<Series>()).first;
    it->second->ring.store(std::make_shared<const Ring>(Ring{kind, {}}));
    directory_grew = true;
  }
  Series& series = *it->second;
  const std::shared_ptr<const Ring> old = series.ring.load();

  TsSample sample;
  sample.ts_ms = ts_ms;
  sample.value = value;
  if (kind != SeriesKind::kGauge && series.has_prev) {
    // A restarted instrument (reset_all between samples) reads below its
    // previous cumulative value; clamp instead of emitting a negative rate.
    sample.delta = std::max(0.0, value - series.prev_value);
  }
  sample.sum = sum;
  sample.p50 = p50;
  sample.p90 = p90;
  sample.p99 = p99;
  series.prev_value = value;
  series.has_prev = true;

  const std::size_t cap = capacity();
  auto next = std::make_shared<Ring>();
  next->kind = kind;
  next->samples.reserve(std::min(old->samples.size() + 1, cap));
  const std::size_t drop =
      old->samples.size() + 1 > cap ? old->samples.size() + 1 - cap : 0;
  next->samples.assign(old->samples.begin() + static_cast<std::ptrdiff_t>(drop),
                       old->samples.end());
  next->samples.push_back(sample);
  series.ring.store(std::move(next));
}

void TimeSeriesStore::sample_once() {
#if defined(DOCKMINE_OBS_DISABLED)
  // Compiled-out obs still interns instrument names; record nothing.
  return;
#endif
  const Registry::Snapshot snapshot = Registry::global().snapshot();
  const double ts = now_ms();

  std::lock_guard<std::mutex> lock(write_mutex_);
  // Copy-on-write only when a new instrument appeared; appending to an
  // existing series swaps just that series' ring.
  const std::shared_ptr<const Directory> published = directory_.load();
  Directory working = *published;
  bool grew = false;

  for (const auto& [name, value] : snapshot.counters) {
    append(working, grew, name, SeriesKind::kCounter, ts,
           static_cast<double>(value), 0.0, 0.0, 0.0, 0.0);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    append(working, grew, name, SeriesKind::kGauge, ts,
           static_cast<double>(value), 0.0, 0.0, 0.0, 0.0);
  }
  for (const HistogramSnapshot& hist : snapshot.histograms) {
    const bool populated = hist.count > 0;
    append(working, grew, hist.name, SeriesKind::kHistogram, ts,
           static_cast<double>(hist.count), hist.sum,
           populated ? hist.values.quantile(0.50) : 0.0,
           populated ? hist.values.quantile(0.90) : 0.0,
           populated ? hist.values.quantile(0.99) : 0.0);
  }
  // The telemetry watches itself: footprint is a gauge like any other, so
  // the *next* tick samples it into a series.
  std::uint64_t bytes = 0;
  for (const auto& [name, series] : working) {
    const std::shared_ptr<const Ring> ring = series->ring.load();
    bytes += name.size() + sizeof(Series) + sizeof(Ring) +
             ring->samples.capacity() * sizeof(TsSample);
  }
  if (grew) {
    directory_.store(std::make_shared<const Directory>(std::move(working)));
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
  Registry::global().gauge("dockmine_timeseries_bytes").set(
      static_cast<std::int64_t>(bytes));
}

std::uint64_t TimeSeriesStore::footprint_bytes() const {
  const std::shared_ptr<const Directory> directory = directory_.load();
  std::uint64_t bytes = 0;
  for (const auto& [name, series] : *directory) {
    const std::shared_ptr<const Ring> ring = series->ring.load();
    bytes += name.size() + sizeof(Series) + sizeof(Ring) +
             ring->samples.capacity() * sizeof(TsSample);
  }
  return bytes;
}

bool TimeSeriesStore::start_sampler(
    std::function<void(double sampled_at_ms)> after_sample) {
#if defined(DOCKMINE_OBS_DISABLED)
  (void)after_sample;
  return false;
#else
  std::lock_guard<std::mutex> lock(sampler_mutex_);
  if (running_.load(std::memory_order_acquire)) return false;
  stop_requested_ = false;
  running_.store(true, std::memory_order_release);
  const auto interval = std::chrono::milliseconds(interval_ms());
  sampler_ = std::thread([this, interval,
                          after_sample = std::move(after_sample)] {
    std::unique_lock<std::mutex> wait_lock(sampler_mutex_);
    while (true) {
      wait_lock.unlock();
      sample_once();
      if (after_sample) after_sample(now_ms());
      wait_lock.lock();
      if (sampler_cv_.wait_for(wait_lock, interval,
                               [this] { return stop_requested_; })) {
        return;
      }
    }
  });
  return true;
#endif
}

void TimeSeriesStore::stop_sampler() {
#if !defined(DOCKMINE_OBS_DISABLED)
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(sampler_mutex_);
    if (!running_.load(std::memory_order_acquire)) return;
    stop_requested_ = true;
    worker = std::move(sampler_);
  }
  sampler_cv_.notify_all();
  worker.join();
  {
    std::lock_guard<std::mutex> lock(sampler_mutex_);
    running_.store(false, std::memory_order_release);
    stop_requested_ = false;
  }
#endif
}

std::shared_ptr<const TimeSeriesStore::Series> TimeSeriesStore::find(
    std::string_view name) const {
  const std::shared_ptr<const Directory> directory = directory_.load();
  const auto it = directory->find(name);
  if (it == directory->end()) return nullptr;
  return it->second;
}

std::vector<TimeSeriesStore::SeriesInfo> TimeSeriesStore::series(
    std::string_view selector) const {
  const std::shared_ptr<const Directory> directory = directory_.load();
  std::vector<SeriesInfo> out;
  for (const auto& [name, series] : *directory) {
    if (!selector_matches(selector, name)) continue;
    const std::shared_ptr<const Ring> ring = series->ring.load();
    out.push_back(SeriesInfo{name, ring->kind});
  }
  return out;  // map order: already sorted by name
}

std::vector<TsSample> TimeSeriesStore::read(std::string_view name) const {
  const auto series = find(name);
  if (!series) return {};
  return series->ring.load()->samples;
}

std::vector<TsSample> TimeSeriesStore::range(std::string_view name,
                                             double t0_ms,
                                             double t1_ms) const {
  const auto series = find(name);
  if (!series) return {};
  const std::shared_ptr<const Ring> ring = series->ring.load();
  std::vector<TsSample> out;
  for (const TsSample& sample : ring->samples) {
    if (sample.ts_ms >= t0_ms && sample.ts_ms <= t1_ms) {
      out.push_back(sample);
    }
  }
  return out;
}

std::optional<TsSample> TimeSeriesStore::latest(std::string_view name) const {
  const auto series = find(name);
  if (!series) return std::nullopt;
  const std::shared_ptr<const Ring> ring = series->ring.load();
  if (ring->samples.empty()) return std::nullopt;
  return ring->samples.back();
}

std::optional<double> TimeSeriesStore::rate_per_s(std::string_view name,
                                                  double window_ms) const {
  const auto series = find(name);
  if (!series) return std::nullopt;
  const std::shared_ptr<const Ring> ring = series->ring.load();
  if (ring->kind == SeriesKind::kGauge || ring->samples.size() < 2) {
    return std::nullopt;
  }
  const TsSample& last = ring->samples.back();
  const double t0 = last.ts_ms - window_ms;
  const TsSample* first = nullptr;
  for (const TsSample& sample : ring->samples) {
    if (sample.ts_ms >= t0) {
      first = &sample;
      break;
    }
  }
  if (first == nullptr || first == &last || last.ts_ms <= first->ts_ms) {
    return std::nullopt;
  }
  // Cumulative values make the window rate exact regardless of how many
  // samples the window spans; a mid-window reset clamps at zero.
  return std::max(0.0, last.value - first->value) * 1000.0 /
         (last.ts_ms - first->ts_ms);
}

std::optional<double> TimeSeriesStore::quantile(std::string_view name,
                                                double q,
                                                double window_ms) const {
  const auto series = find(name);
  if (!series) return std::nullopt;
  const std::shared_ptr<const Ring> ring = series->ring.load();
  if (ring->kind != SeriesKind::kHistogram || ring->samples.empty()) {
    return std::nullopt;
  }
  const auto pick = [q](const TsSample& sample) -> std::optional<double> {
    if (std::fabs(q - 0.50) < 1e-9) return sample.p50;
    if (std::fabs(q - 0.90) < 1e-9) return sample.p90;
    if (std::fabs(q - 0.99) < 1e-9) return sample.p99;
    return std::nullopt;
  };
  const double t0 = ring->samples.back().ts_ms - window_ms;
  std::optional<double> best;
  for (const TsSample& sample : ring->samples) {
    if (sample.ts_ms < t0 || sample.value <= 0.0) continue;
    const auto value = pick(sample);
    if (!value) return std::nullopt;  // off-grid quantile
    if (!best || *value > *best) best = value;
  }
  return best;
}

bool TimeSeriesStore::selector_matches(std::string_view selector,
                                       std::string_view name) {
  if (selector.empty() || selector == name) return true;
  const auto [sel_base, sel_labels] = split_labels(selector);
  const auto [name_base, name_labels] = split_labels(name);
  if (sel_base != name_base) return false;
  if (sel_labels.empty()) return true;  // bare base: every labeled variant
  const std::vector<std::string_view> wanted = label_pairs(sel_labels);
  if (wanted.empty()) return false;  // malformed label block
  const std::vector<std::string_view> have = label_pairs(name_labels);
  for (const std::string_view pair : wanted) {
    if (std::find(have.begin(), have.end(), pair) == have.end()) return false;
  }
  return true;
}

}  // namespace dockmine::obs
