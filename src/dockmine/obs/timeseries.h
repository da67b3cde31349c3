// Continuous telemetry (dockmine::obs v3, DESIGN.md §16): a process-wide
// `TimeSeriesStore` that turns the point-in-time Registry into time series.
// A sampler — the background thread, or `sample_once()` under a test's
// virtual clock — scrapes every registered instrument into a fixed-capacity
// per-series ring of samples:
//
//   * counters    value = cumulative total, delta = change since the
//                 previous sample (monotone resets clamp to 0);
//   * gauges      value = the level at sample time;
//   * histograms  value = cumulative observation count, delta = new
//                 observations, plus sum and the sampled p50/p90/p99.
//
// Readers never wait on a sample tick's work: every ring is an immutable
// vector whose shared_ptr is published under a mutex held only to copy or
// swap the pointer; a sample tick builds the successor ring beside the
// readers and swaps it in. No seqlock retries and no torn reads. (The
// pointer was a std::atomic<std::shared_ptr> until ThreadSanitizer, which
// does not model libstdc++ 12's lock bit inside it, reported every swap as
// a race.)
//
// Memory is bounded by design: capacity() samples per series, one series
// per registered instrument, and the store's own footprint is exported as
// the `dockmine_timeseries_bytes` gauge so the telemetry can watch itself.
// Time comes from the injectable obs clock, so a test driving sample_once()
// on a virtual clock pins ring contents, range/rate/quantile answers, and
// everything derived from them byte-for-byte.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dockmine/obs/obs.h"

namespace dockmine::obs {

enum class SeriesKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};
std::string_view to_string(SeriesKind kind) noexcept;

/// One scraped point. Histogram-only fields are zero for counters/gauges;
/// `delta` is zero for gauges.
struct TsSample {
  double ts_ms = 0.0;
  double value = 0.0;  ///< counter: cumulative; gauge: level; hist: count
  double delta = 0.0;  ///< counter/hist: change since the previous sample
  double sum = 0.0;    ///< histogram cumulative sum
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

struct TimeSeriesOptions {
  std::uint64_t interval_ms = 1000;  ///< background sampler cadence (real ms)
  std::size_t capacity = 600;        ///< samples retained per series
};

class TimeSeriesStore {
 public:
  /// The process-wide store (the serve daemon, workers, and `watch` all
  /// read this one).
  static TimeSeriesStore& global();

  TimeSeriesStore() = default;
  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;
  ~TimeSeriesStore() { stop_sampler(); }

  /// (Re)configure cadence and per-series capacity. Drops every existing
  /// ring; refuse while the sampler runs.
  bool configure(const TimeSeriesOptions& options);
  std::size_t capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }
  std::uint64_t interval_ms() const noexcept {
    return interval_ms_.load(std::memory_order_relaxed);
  }

  /// Scrape the global Registry once, stamped with obs::now_ms(). This is
  /// the whole sampler — the background thread just calls it on a cadence —
  /// so tests drive it directly under a virtual clock.
  void sample_once();

  /// Start the background sampler (one immediate sample, then every
  /// interval). `after_sample` runs on the sampler thread after each scrape
  /// (the serve daemon evaluates alert rules there). Returns false if
  /// already running or obs is compiled out.
  bool start_sampler(std::function<void(double sampled_at_ms)> after_sample =
                         nullptr);
  void stop_sampler();
  bool sampler_running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Drop every series and sample. Safe while readers are in flight (they
  /// keep their pinned rings); refuses nothing — the sampler, if running,
  /// simply repopulates.
  void reset();

  std::uint64_t samples_taken() const noexcept {
    return ticks_.load(std::memory_order_relaxed);
  }
  /// Approximate resident bytes (rings + names); also exported as the
  /// `dockmine_timeseries_bytes` gauge after every tick.
  std::uint64_t footprint_bytes() const;

  struct SeriesInfo {
    std::string name;
    SeriesKind kind = SeriesKind::kCounter;
  };
  /// All series whose name matches `selector` (see selector_matches),
  /// sorted by name. Empty selector = every series.
  std::vector<SeriesInfo> series(std::string_view selector = {}) const;

  /// Full ring, oldest -> newest. Empty for an unknown series.
  std::vector<TsSample> read(std::string_view name) const;
  /// Samples with ts_ms in [t0_ms, t1_ms], oldest -> newest.
  std::vector<TsSample> range(std::string_view name, double t0_ms,
                              double t1_ms) const;
  std::optional<TsSample> latest(std::string_view name) const;

  /// Counter/histogram rate per second over the trailing `window_ms` ending
  /// at the newest sample: (last.value - first.value) / elapsed. Needs two
  /// samples inside the window; nullopt otherwise (and for gauges).
  std::optional<double> rate_per_s(std::string_view name,
                                   double window_ms) const;

  /// Histogram quantile over the trailing window: the max of the sampled
  /// quantile across the window's samples (conservative — the right shape
  /// for alerting). `q` must be one of the sampled grid points 0.5 / 0.9 /
  /// 0.99; nullopt otherwise, for non-histograms, and for empty windows.
  std::optional<double> quantile(std::string_view name, double q,
                                 double window_ms) const;

  /// Label-filter match: a selector is a full instrument name, a bare base
  /// name (matches every labeled variant), or a base name with a label
  /// subset — `f{a="1"}` matches `f{a="1",b="2"}`. Empty selector matches
  /// everything.
  static bool selector_matches(std::string_view selector,
                               std::string_view name);

 private:
  /// A shared_ptr published to readers: a reader copies it out, a writer
  /// swaps in a successor and releases the old one outside the lock.
  template <typename T>
  class Published {
   public:
    explicit Published(std::shared_ptr<const T> value = nullptr)
        : value_(std::move(value)) {}
    std::shared_ptr<const T> load() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return value_;
    }
    void store(std::shared_ptr<const T> value) {
      std::lock_guard<std::mutex> lock(mutex_);
      value_.swap(value);
    }

   private:
    mutable std::mutex mutex_;
    std::shared_ptr<const T> value_;
  };

  /// Immutable published ring; successor rings are built beside readers.
  struct Ring {
    SeriesKind kind = SeriesKind::kCounter;
    std::vector<TsSample> samples;  ///< oldest -> newest, size <= capacity
  };
  struct Series {
    Published<Ring> ring;
    // Sampler-thread-only bookkeeping for deltas (guarded by write_mutex_).
    double prev_value = 0.0;
    bool has_prev = false;
  };
  using Directory =
      std::map<std::string, std::shared_ptr<Series>, std::less<>>;

  std::shared_ptr<const Series> find(std::string_view name) const;
  void append(Directory& directory, bool& directory_grew,
              const std::string& name, SeriesKind kind, double ts_ms,
              double value, double sum, double p50, double p90, double p99);

  mutable std::mutex write_mutex_;  ///< serializes sample/configure/reset
  Published<Directory> directory_{std::make_shared<const Directory>()};
  std::atomic<std::size_t> capacity_{600};
  std::atomic<std::uint64_t> interval_ms_{1000};
  std::atomic<std::uint64_t> ticks_{0};

  std::mutex sampler_mutex_;  ///< guards the thread + stop flag
  std::condition_variable sampler_cv_;
  std::thread sampler_;
  bool stop_requested_ = false;
  std::atomic<bool> running_{false};
};

}  // namespace dockmine::obs
