// Event-level tracing (the journal half of dockmine::obs tracing).
//
// The aggregate Tracer (span.h) answers "how much total time went to each
// stage"; the TraceJournal answers "where did *this run's* wall clock go":
// every recorded interval is a timed event carrying identity
// (trace_id / span_id / parent_id), placement (node, lane = stable thread
// index), and start/end on the injectable obs clock. The journal is what
// the Chrome/Perfetto exporter (trace_export.h) and the critical-path
// analyzer (critical_path.h) consume.
//
// Storage is a ring per shard (threads hash to shards by lane), bounded by
// a configurable per-shard capacity: a weeks-long run can leave the journal
// on and keep only the most recent events, with an exact drop counter for
// what fell off. Everything follows the obs cost discipline:
//
//   * separate runtime switch (`set_journal_enabled`), off by default;
//     every record site pays one relaxed flag load and nothing else while
//     the journal is off (the flag also requires the obs master switch, so
//     a journal-enabled-but-obs-disabled process records nothing);
//   * -DDOCKMINE_OBS=OFF compiles every record body away
//     (`journal_enabled()` is constant false);
//   * snapshots are deterministic: events sort by (start, end, name, id)
//     and lanes are renumbered densely in order of first appearance, so two
//     identical seeded serial runs on a virtual clock serialize to
//     byte-identical trace documents even though the underlying OS thread
//     ids differ.
//
// Context propagation: each thread carries a current TraceContext
// (trace_id + innermost open span). Tracer spans and EventSpans push/pop
// it; `ContextGuard` adopts a captured context on another thread, which is
// how a pool thread's per-layer events parent to the stage span that
// submitted them, and `record_event` records externally measured intervals
// (such as queue waits) under an explicit parent.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dockmine/obs/obs.h"

namespace dockmine::obs {

namespace detail {
inline std::atomic<bool> g_journal_enabled{false};
inline std::atomic<std::uint32_t> g_node_id{0};
}  // namespace detail

/// Runtime switch for event recording. True only when both the journal
/// flag and the obs master switch are on; the journal-off fast path is a
/// single relaxed load.
inline bool journal_enabled() noexcept {
#if defined(DOCKMINE_OBS_DISABLED)
  return false;
#else
  return detail::g_journal_enabled.load(std::memory_order_relaxed) &&
         enabled();
#endif
}
void set_journal_enabled(bool on) noexcept;

/// Node identity baked into every recorded event (multi-node runs stamp
/// their node index; single runs stay 0). Exported as the Perfetto pid.
void set_node_id(std::uint32_t node) noexcept;
inline std::uint32_t node_id() noexcept {
  return detail::g_node_id.load(std::memory_order_relaxed);
}

enum class EventKind : std::uint8_t {
  kSpan = 0,       ///< a timed scope (stage, per-layer work)
  kQueueWait = 1,  ///< time an item sat in a hand-off queue
};
std::string_view to_string(EventKind kind) noexcept;

/// Propagatable span identity: the enclosing trace and the innermost open
/// span. `span_id == 0` means "no open span" (the zero context).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// One recorded interval. `lane` is the journal's stable per-thread index
/// (renumbered densely at snapshot time); `node` is the multi-node id.
struct TraceEvent {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace
  std::uint32_t node = 0;
  std::uint32_t lane = 0;
  EventKind kind = EventKind::kSpan;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double cpu_ms = 0.0;
  std::string name;
};

/// The calling thread's current context ({} while the journal is off).
TraceContext current_trace_context() noexcept;

namespace detail {
/// Open a new span context under the calling thread's current one; returns
/// the previous context (restore it with pop_context). Only call while
/// journal_enabled().
TraceContext push_context(std::uint64_t* trace_id, std::uint64_t* span_id,
                          std::uint64_t* parent_id) noexcept;
void pop_context(TraceContext previous) noexcept;
}  // namespace detail

/// Adopt a context captured on another thread (e.g. stamped into a queue
/// item by the producer) for the guard's scope, so spans opened here parent
/// across the hand-off. Inert when the journal is off or `ctx` is zero.
class ContextGuard {
 public:
  explicit ContextGuard(TraceContext ctx) noexcept {
#if !defined(DOCKMINE_OBS_DISABLED)
    if (ctx.span_id == 0 || !journal_enabled()) return;
    adopt(ctx);
#else
    (void)ctx;
#endif
  }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;
  ~ContextGuard() {
    if (active_) detail::pop_context(previous_);
  }

 private:
  void adopt(TraceContext ctx) noexcept;
  TraceContext previous_{};
  bool active_ = false;
};

/// RAII journal-only event: times a scope on the obs clock and records one
/// TraceEvent on finish, parented to the thread's current context. Unlike
/// Tracer::Span it creates no aggregate row — use it for high-cardinality
/// per-item work (per-layer downloads/analyses) where the aggregate half
/// already has record_at totals. Must finish on the opening thread.
class EventSpan {
 public:
  EventSpan() = default;
  explicit EventSpan(std::string_view name);
  EventSpan(EventSpan&& other) noexcept { *this = std::move(other); }
  EventSpan& operator=(EventSpan&& other) noexcept;
  EventSpan(const EventSpan&) = delete;
  EventSpan& operator=(const EventSpan&) = delete;
  ~EventSpan() { finish(); }

  /// Close early (idempotent); the destructor calls this.
  void finish() noexcept;

  /// This span's identity for cross-thread parenting ({} when inert).
  TraceContext context() const noexcept { return {trace_id_, span_id_}; }

 private:
  std::string name_;
  TraceContext previous_{};
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  double start_wall_ = 0.0;
  double start_cpu_ = 0.0;
};

/// Record an externally measured closed interval (a queue wait, an I/O
/// stall) under an explicit parent context. One relaxed load when the
/// journal is off.
void record_event(std::string_view name, EventKind kind, double start_ms,
                  double end_ms, TraceContext parent);

/// Bounded, shard-per-thread event store. Threads map to shards by their
/// stable lane index; each shard is a mutex-guarded ring (threads rarely
/// share a shard, so the lock is effectively uncontended) holding the most
/// recent `capacity()` events with an exact count of what was overwritten.
class TraceJournal {
 public:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kDefaultCapacity = 8192;  ///< per shard

  static TraceJournal& global();

  /// Stamp node/lane and append, evicting the shard's oldest event when the
  /// ring is full. No-op while the journal is disabled.
  void record(TraceEvent event);

  /// Merged view of every shard: sorted by (start, end, name, span_id),
  /// lanes renumbered densely in first-appearance order (see header note on
  /// determinism).
  std::vector<TraceEvent> snapshot() const;

  std::uint64_t recorded() const noexcept;  ///< events ever written
  std::uint64_t dropped() const noexcept;   ///< events evicted by the ring

  /// Resize every shard's ring (clears all events and counters).
  void set_capacity(std::size_t events_per_shard);
  std::size_t capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Clear events, drop counters, and the span-id allocator (so two
  /// back-to-back seeded runs assign identical ids).
  void reset();

  /// Fresh span id (never 0). Deterministic across runs after reset().
  std::uint64_t next_span_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<TraceEvent> ring;      ///< wraps at capacity
    std::size_t next = 0;              ///< overwrite cursor once full
    std::uint64_t written = 0;         ///< events ever recorded here
  };

  std::atomic<std::size_t> capacity_{kDefaultCapacity};
  std::atomic<std::uint64_t> next_id_{1};
  std::array<Shard, kShards> shards_{};
};

}  // namespace dockmine::obs
