// Wall-clock stopwatch used by the downloader and pipeline for throughput
// accounting (images/s, MB/s — the paper reports a 30-day crawl; we report
// our simulated equivalent).
#pragma once

#include <chrono>

namespace dockmine::util {

/// Milliseconds on the monotonic clock, for deadlines and intervals.
inline double mono_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dockmine::util
