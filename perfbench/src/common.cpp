#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "dockmine/digest/digest.h"

namespace perfbench {

dockmine::json::Value Metrics::to_json() const {
  auto doc = dockmine::json::Value::object();
  for (const auto& [name, entry] : values_) {
    auto metric = dockmine::json::Value::object();
    metric.set("value", entry.first);
    metric.set("unit", entry.second);
    doc.set(name, std::move(metric));
  }
  return doc;
}

void Checks::fail(const std::string& why) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(log_mutex_);
  if (logged_ < 8) {
    std::cerr << "perfbench: check failed: " << why << "\n";
  } else if (logged_ == 8) {
    std::cerr << "perfbench: further check failures not logged\n";
  }
  ++logged_;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

CpuTimes read_cpu_times() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return times;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    times.total += field;
    if (i == 7) times.steal = field;
  }
  return times;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  if (total == 0) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // Freed heap the allocator still holds would otherwise carry one phase's
  // fragmentation into the next phase's peak.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double run_peak_rss_mb(double first_setup_peak, double measured_peak) {
  std::cout << "memory setup_peak_mb " << first_setup_peak
            << " measured_peak_mb " << measured_peak << "\n";
  return std::max(first_setup_peak, measured_peak);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void record_environment(Metrics& metrics, const CpuTimes& start) {
  metrics.set("env.nproc", static_cast<double>(std::thread::hardware_concurrency()),
              "count");
  metrics.set("env.steal_share", steal_share(start, read_cpu_times()),
              "fraction");
  const std::string build = PERFBENCH_BUILD_TYPE;
  metrics.set("env.release_build", build == "Release" ? 1.0 : 0.0, "bool");
}

std::string sha256_hex(std::string_view bytes) {
  return dockmine::digest::Digest::of(bytes).to_string();
}

double SpanLog::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint64_t SpanLog::record(std::string name, double start_ms, double end_ms,
                              std::uint64_t parent, std::uint64_t request) {
  const std::uint64_t id = reserve_id();
  record_with_id(id, std::move(name), start_ms, end_ms, parent, request);
  return id;
}

void SpanLog::record_with_id(std::uint64_t id, std::string name,
                             double start_ms, double end_ms,
                             std::uint64_t parent, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start_ms, end_ms, id, parent, request});
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return false;
  out << "[\n";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    auto doc = dockmine::json::Value::object();
    doc.set("name", s.name);
    doc.set("id", s.id);
    doc.set("parent", s.parent);
    if (s.request != 0) doc.set("request", s.request);
    doc.set("start_ms", s.start_ms);
    doc.set("end_ms", s.end_ms);
    out << doc.dump() << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out.flush());
}

double union_ms(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace perfbench
