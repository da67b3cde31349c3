#include "dockmine/registry/resilient.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "dockmine/obs/obs.h"
#include "dockmine/util/stopwatch.h"

namespace dockmine::registry {

namespace {

struct ResilientMetrics {
  obs::Counter& requests;
  obs::Counter& attempts;
  obs::Counter& retries;
  obs::Counter& successes;
  obs::Counter& permanent_failures;
  obs::Counter& attempts_exhausted;
  obs::Counter& budget_exhausted;
  obs::Counter& breaker_opens;
  obs::Counter& breaker_closes;
  obs::Counter& breaker_rejections;
  obs::Histogram& backoff_ms;

  static ResilientMetrics& get() {
    auto& reg = obs::Registry::global();
    static ResilientMetrics m{
        reg.counter("dockmine_resilient_requests_total"),
        reg.counter("dockmine_resilient_attempts_total"),
        reg.counter("dockmine_resilient_retries_total"),
        reg.counter("dockmine_resilient_successes_total"),
        reg.counter("dockmine_resilient_permanent_failures_total"),
        reg.counter("dockmine_resilient_attempts_exhausted_total"),
        reg.counter("dockmine_resilient_budget_exhausted_total"),
        reg.counter("dockmine_resilient_breaker_opens_total"),
        reg.counter("dockmine_resilient_breaker_closes_total"),
        reg.counter("dockmine_resilient_breaker_rejections_total"),
        reg.histogram("dockmine_resilient_backoff_ms")};
    return m;
  }
};

/// Per-fault-class tally, labeled by the transient/permanent taxonomy's
/// code name. Lazily interned (error paths are cold by definition).
void count_error_class(util::ErrorCode code) {
  if (!obs::enabled()) return;
  obs::Registry::global()
      .counter("dockmine_resilient_errors_total{code=\"" +
               std::string(util::to_string(code)) + "\"}")
      .add();
}

}  // namespace

double decorrelated_jitter(double base_ms, double cap_ms, double prev_ms,
                           util::Rng& rng) noexcept {
  const double anchor = prev_ms > 0.0 ? prev_ms : base_ms;
  const double hi = std::max(base_ms, 3.0 * anchor);
  const double drawn = base_ms + (hi - base_ms) * rng.uniform01();
  return std::min(cap_ms, drawn);
}

TimeSource TimeSource::real() {
  return TimeSource{
      util::mono_ms,
      [](double ms) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
      }};
}

bool CircuitBreaker::allow(double now_ms) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_ms >= open_until_ms_) {
        state_ = State::kHalfOpen;
        half_open_successes_ = 0;
        return true;
      }
      return false;
    case State::kHalfOpen:
      return true;
  }
  return true;
}

bool CircuitBreaker::on_success() {
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen &&
      ++half_open_successes_ >= policy_.close_threshold) {
    state_ = State::kClosed;
    return true;
  }
  return false;
}

bool CircuitBreaker::on_failure(double now_ms) {
  ++consecutive_failures_;
  if (state_ == State::kHalfOpen ||
      (state_ == State::kClosed &&
       consecutive_failures_ >= policy_.failure_threshold)) {
    state_ = State::kOpen;
    open_until_ms_ = now_ms + policy_.cooldown_ms;
    return true;
  }
  return false;
}

CircuitBreaker& ResilientSource::breaker_locked(const std::string& scope) {
  auto& slot = breakers_[scope];
  if (!slot) slot = std::make_unique<CircuitBreaker>(breaker_policy_);
  return *slot;
}

template <typename T>
util::Result<T> ResilientSource::execute(
    const std::string& key, const std::string& scope,
    const std::function<util::Result<T>()>& attempt_fn) {
  ResilientMetrics& metrics = ResilientMetrics::get();
  metrics.requests.add();
  std::uint64_t call_no = 0;
  {
    std::lock_guard lock(mutex_);
    ++stats_.requests;
    call_no = ++calls_[key];
  }
  // Private backoff stream for this request chain.
  std::uint64_t sm = seed_;
  sm ^= util::fnv1a64(key.data(), key.size());
  sm ^= call_no * 0x9e3779b97f4a7c15ULL;
  util::Rng rng(util::splitmix64(sm));

  util::Error last_error = util::internal("no attempt made");
  double prev_delay_ms = 0.0;
  for (int attempt = 1;; ++attempt) {
    bool rejected = false;
    {
      std::lock_guard lock(mutex_);
      if (!breaker_locked(scope).allow(time_.now_ms())) {
        ++stats_.breaker_rejections;
        metrics.breaker_rejections.add();
        rejected = true;
      }
    }
    if (rejected) {
      last_error = util::unavailable("circuit open for scope '" + scope + "'");
    } else {
      metrics.attempts.add();
      if (attempt > 1) metrics.retries.add();
      {
        std::lock_guard lock(mutex_);
        ++stats_.attempts;
        if (attempt > 1) ++stats_.retries;
      }
      auto result = attempt_fn();
      if (result.ok()) {
        metrics.successes.add();
        std::lock_guard lock(mutex_);
        ++stats_.successes;
        if (breaker_locked(scope).on_success()) {
          ++stats_.breaker_closes;
          metrics.breaker_closes.add();
        }
        return result;
      }
      last_error = std::move(result).error();
      count_error_class(last_error.code());
      if (!last_error.retryable()) {
        // A well-formed negative answer (401/404/...): the upstream is
        // healthy, so the breaker is untouched and retrying is pointless.
        metrics.permanent_failures.add();
        std::lock_guard lock(mutex_);
        ++stats_.permanent_failures;
        return last_error;
      }
      std::lock_guard lock(mutex_);
      if (breaker_locked(scope).on_failure(time_.now_ms())) {
        ++stats_.breaker_opens;
        metrics.breaker_opens.add();
      }
    }

    if (attempt >= retry_.max_attempts) {
      metrics.attempts_exhausted.add();
      std::lock_guard lock(mutex_);
      ++stats_.attempts_exhausted;
      return last_error;
    }
    double delay_ms = 0.0;
    {
      std::lock_guard lock(mutex_);
      if (!rejected) {
        // Breaker rejections are free (no upstream traffic); real retries
        // draw down the shared budget.
        if (budget_spent_ >= retry_.retry_budget) {
          ++stats_.budget_exhausted;
          metrics.budget_exhausted.add();
          return last_error;
        }
        ++budget_spent_;
      }
      delay_ms = decorrelated_jitter(retry_.base_delay_ms, retry_.max_delay_ms,
                                     prev_delay_ms, rng);
      // Quantize to 1/1024 ms: dyadic values sum exactly, so the accumulated
      // backoff_ms is independent of the order worker threads land here and
      // same-seed runs report bit-identical stats.
      delay_ms = std::round(delay_ms * 1024.0) / 1024.0;
      stats_.backoff_ms += delay_ms;
    }
    metrics.backoff_ms.observe(delay_ms);
    prev_delay_ms = delay_ms;
    time_.sleep_ms(delay_ms);
  }
}

util::Result<std::string> ResilientSource::fetch_manifest(
    const std::string& repository, const std::string& tag,
    bool authenticated) {
  return execute<std::string>(
      "m:" + repository + ":" + tag, "repo/" + repository,
      [&]() { return upstream_.fetch_manifest(repository, tag, authenticated); });
}

util::Result<blob::BlobPtr> ResilientSource::fetch_blob(
    const digest::Digest& digest) {
  return execute<blob::BlobPtr>("b:" + digest.to_string(), "blobs",
                                [&]() { return upstream_.fetch_blob(digest); });
}

ResilienceStats ResilientSource::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

CircuitBreaker::State ResilientSource::breaker_state(
    const std::string& scope) const {
  std::lock_guard lock(mutex_);
  const auto it = breakers_.find(scope);
  return it == breakers_.end() ? CircuitBreaker::State::kClosed
                               : it->second->state();
}

}  // namespace dockmine::registry
