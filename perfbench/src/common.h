// Shared plumbing for the benchmark: arguments, the result line, output
// checks, sample statistics, the run environment, and the in-memory span
// log the traced run records.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dockmine/json/json.h"

namespace perfbench {

/// The seed the benchmark uses when none is given; the registry it builds
/// has a recorded report digest (see crawl_analyze.cpp).
inline constexpr std::uint64_t kDefaultSeed = 20170530;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch root for this run (state dirs, shard sets); removed on exit.
  std::string work_dir;
  /// Where the traced run writes its spans (empty = do not write).
  std::string trace_out;
  /// Tiny scale for the smoke test: 20-repository registries, 5-repository
  /// ingests, one set-up and one pass.
  bool smoke = false;
  /// Expected sha256 of the canonical crawl_analyze report ("" = use the
  /// recorded digest when one exists for this seed and scale).
  std::string expect_digest;

  /// Set-ups per run: setup_s is the median of three. The smoke test and
  /// the traced run, which report no setup_s, need one.
  std::uint32_t setups() const { return smoke || trace ? 1 : 3; }
  /// Registry size: the workload's own, or the smoke test's.
  std::uint64_t repositories(std::uint64_t workload_default) const {
    return smoke ? 20 : workload_default;
  }
};

/// Metrics of one run, printed as {"name": {"value": v, "unit": u}}.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  dockmine::json::Value to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Output checks. A failed check counts one failed operation and is logged
/// to stderr (first few only); it never aborts the run.
class Checks {
 public:
  void attempt(std::uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  void fail(const std::string& why);
  /// attempt() + fail() when !ok. Returns ok.
  bool check(bool ok, const std::string& why) {
    attempt();
    if (!ok) fail(why);
    return ok;
  }
  std::uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  std::uint64_t failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  double error_rate() const {
    const std::uint64_t a = attempted();
    return a == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(a);
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex log_mutex_;
  int logged_ = 0;
};

// ---- statistics ---------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---- environment --------------------------------------------------------

/// Aggregate CPU jiffies from /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Share of CPU time stolen by the hypervisor between two readings.
double steal_share(const CpuTimes& before, const CpuTimes& after);
/// Process VmHWM in MB (decimal).
double peak_rss_mb();
/// Return freed heap to the OS and reset VmHWM to the current RSS
/// (/proc/self/clear_refs), so the next peak_rss_mb() reads the peak of
/// one phase.
void reset_peak_rss();
/// The run's peak_rss_mb: the first set-up's peak or the measured phase's
/// peak, whichever is higher. Only the first set-up runs in a fresh
/// process, as a user's does; the repeats exist to time set-up.
double run_peak_rss_mb(double first_setup_peak, double measured_peak);
/// User+system CPU seconds of this process so far.
double process_cpu_seconds();

/// Record nproc, build type and steal share into `metrics`.
void record_environment(Metrics& metrics, const CpuTimes& start);
/// sha256 hex of `bytes` (via dockmine::digest).
std::string sha256_hex(std::string_view bytes);

// ---- spans --------------------------------------------------------------

/// In-memory span log for the traced run. Spans carry name, start, end,
/// parent span and an optional request id; the log is written as JSON at
/// exit. Thread-safe.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
  };

  /// Milliseconds since the log was created.
  double now_ms() const;

  /// Record a finished span; returns its id.
  std::uint64_t record(std::string name, double start_ms, double end_ms,
                       std::uint64_t parent = 0, std::uint64_t request = 0);
  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t reserve_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_with_id(std::uint64_t id, std::string name, double start_ms,
                      double end_ms, std::uint64_t parent = 0,
                      std::uint64_t request = 0);

  std::vector<Span> spans() const;
  bool write(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Sum of the lengths of the union of [start, end) intervals.
double union_ms(std::vector<std::pair<double, double>> intervals);

// ---- workloads ----------------------------------------------------------

int run_crawl_analyze(const Args& args, Metrics& metrics, Checks& checks,
                      SpanLog* spans);
int run_serve(const Args& args, bool with_ingest, Metrics& metrics,
              Checks& checks, SpanLog* spans);

}  // namespace perfbench
