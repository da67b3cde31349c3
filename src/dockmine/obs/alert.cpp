#include "dockmine/obs/alert.h"

#include <cstdio>
#include <utility>

#include "dockmine/obs/obs.h"

namespace dockmine::obs {

namespace {

/// Max of the observed metric across every series the selector matches —
/// a multi-series rule fires when its worst member does.
std::optional<double> worst_of(const TimeSeriesStore& store,
                               std::string_view selector,
                               const AlertRule& rule) {
  std::optional<double> worst;
  for (const TimeSeriesStore::SeriesInfo& info : store.series(selector)) {
    std::optional<double> value;
    switch (rule.source) {
      case AlertRule::Source::kValue: {
        const std::optional<TsSample> sample = store.latest(info.name);
        if (sample) value = sample->value;
        break;
      }
      case AlertRule::Source::kRate:
        value = store.rate_per_s(info.name, rule.window_ms);
        break;
      case AlertRule::Source::kQuantile:
        value = store.quantile(info.name, rule.quantile, rule.window_ms);
        break;
    }
    if (!value) continue;
    if (!worst) {
      worst = value;
      continue;
    }
    const bool worse = rule.cmp == AlertRule::Cmp::kLt ? *value < *worst
                                                       : *value > *worst;
    if (worse) worst = value;
  }
  return worst;
}

/// Summed rate across every matching series (burn-rate numerators and
/// denominators aggregate label variants).
std::optional<double> summed_rate(const TimeSeriesStore& store,
                                  std::string_view selector,
                                  double window_ms) {
  std::optional<double> total;
  for (const TimeSeriesStore::SeriesInfo& info : store.series(selector)) {
    const std::optional<double> rate =
        store.rate_per_s(info.name, window_ms);
    if (!rate) continue;
    total = total.value_or(0.0) + *rate;
  }
  return total;
}

}  // namespace

void AlertRules::configure(std::vector<AlertRule> rules) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  entries_.reserve(rules.size());
  for (AlertRule& rule : rules) {
    Entry entry;
    entry.status.name = rule.name;
    entry.rule = std::move(rule);
    entries_.push_back(std::move(entry));
  }
}

void AlertRules::set_log_path(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  log_path_ = std::move(path);
}

std::optional<double> AlertRules::observe(
    const Entry& entry, const TimeSeriesStore& store) const {
  const AlertRule& rule = entry.rule;
  if (!rule.total_series.empty()) {
    const std::optional<double> bad =
        summed_rate(store, rule.series, rule.window_ms);
    const std::optional<double> total =
        summed_rate(store, rule.total_series, rule.window_ms);
    if (!bad || !total || *total <= 0.0 || rule.error_budget <= 0.0) {
      return std::nullopt;
    }
    return (*bad / *total) / rule.error_budget;  // the burn multiple
  }
  return worst_of(store, rule.series, rule);
}

std::vector<AlertTransition> AlertRules::evaluate(
    const TimeSeriesStore& store, double now_ms) {
  std::vector<AlertTransition> edges;
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    AlertStatus& status = entry.status;
    const std::optional<double> value = observe(entry, store);
    if (value) status.last_value = *value;
    const bool breached =
        value && (entry.rule.cmp == AlertRule::Cmp::kLt
                      ? *value < entry.rule.threshold
                      : *value > entry.rule.threshold);
    if (breached) {
      if (!status.pending && !status.firing) {
        status.pending = true;
        status.pending_since_ms = now_ms;
      }
      const bool served_for =
          now_ms - status.pending_since_ms >= entry.rule.for_ms;
      if (!status.firing && served_for) {
        status.pending = false;
        status.firing = true;
        status.fired_at_ms = now_ms;
        status.transitions += 1;
        edges.push_back(AlertTransition{status.name, true, now_ms, *value});
      }
    } else {
      status.pending = false;
      if (status.firing) {
        status.firing = false;
        status.resolved_at_ms = now_ms;
        status.transitions += 1;
        edges.push_back(AlertTransition{status.name, false, now_ms,
                                        value.value_or(status.last_value)});
      }
    }
  }
  std::size_t firing = 0;
  for (const Entry& entry : entries_) firing += entry.status.firing ? 1 : 0;
  Registry::global().gauge("dockmine_alerts_firing")
      .set(static_cast<std::int64_t>(firing));
  for (const AlertTransition& edge : edges) {
    Registry::global()
        .counter("dockmine_alert_transitions_total{rule=\"" + edge.name +
                 "\"}")
        .add();
    log_transition(edge);
  }
  return edges;
}

void AlertRules::log_transition(const AlertTransition& transition) {
  if (log_path_.empty()) return;
  json::Value line = json::Value::object();
  line.set("ts_ms", transition.ts_ms);
  line.set("alert", transition.name);
  line.set("state", transition.firing ? "firing" : "resolved");
  line.set("value", transition.value);
  std::FILE* file = std::fopen(log_path_.c_str(), "ab");
  if (file == nullptr) return;
  const std::string text = line.dump();
  std::fwrite(text.data(), 1, text.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
}

std::vector<AlertStatus> AlertRules::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AlertStatus> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.status);
  return out;
}

std::size_t AlertRules::firing_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t firing = 0;
  for (const Entry& entry : entries_) firing += entry.status.firing ? 1 : 0;
  return firing;
}

json::Value AlertRules::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Value out = json::Value::array();
  for (const Entry& entry : entries_) {
    const AlertStatus& status = entry.status;
    json::Value row = json::Value::object();
    row.set("name", status.name);
    row.set("firing", status.firing);
    row.set("pending", status.pending);
    row.set("last_value", status.last_value);
    row.set("transitions", status.transitions);
    out.push_back(std::move(row));
  }
  return out;
}

void AlertRules::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    AlertStatus fresh;
    fresh.name = entry.status.name;
    entry.status = fresh;
  }
}

std::vector<AlertRule> default_serve_rules() {
  std::vector<AlertRule> rules;
  {
    // p99 request latency over the last minute. The CI smoke load sits in
    // single-digit milliseconds; a wedged daemon blows through 2 s.
    AlertRule rule;
    rule.name = "serve_p99_latency_ms";
    rule.series = "dockmine_serve_request_ms";
    rule.source = AlertRule::Source::kQuantile;
    rule.quantile = 0.99;
    rule.window_ms = 60'000;
    rule.threshold = 2000.0;
    rule.for_ms = 5'000;
    rules.push_back(std::move(rule));
  }
  {
    // Availability SLO: malformed/rejected requests burning the 0.1% error
    // budget faster than 50x sustained for 10 s.
    AlertRule rule;
    rule.name = "serve_error_budget_burn";
    rule.series = "dockmine_serve_bad_requests_total";
    rule.total_series = "dockmine_serve_requests_total";
    rule.error_budget = 0.001;
    rule.window_ms = 60'000;
    rule.threshold = 50.0;
    rule.for_ms = 10'000;
    rules.push_back(std::move(rule));
  }
  {
    // Slow-client evictions should stay rare; a sustained flood means the
    // accept loop is being starved.
    AlertRule rule;
    rule.name = "serve_slowloris_drop_rate";
    rule.series = "dockmine_serve_slowloris_drops_total";
    rule.source = AlertRule::Source::kRate;
    rule.window_ms = 60'000;
    rule.threshold = 10.0;
    rule.for_ms = 10'000;
    rules.push_back(std::move(rule));
  }
  {
    // Registry fault retries: sustained retry storms signal a sick
    // upstream, not the occasional injected fault.
    AlertRule rule;
    rule.name = "resilient_retry_rate";
    rule.series = "dockmine_resilient_retries_total";
    rule.source = AlertRule::Source::kRate;
    rule.window_ms = 60'000;
    rule.threshold = 100.0;
    rule.for_ms = 10'000;
    rules.push_back(std::move(rule));
  }
  return rules;
}

}  // namespace dockmine::obs
