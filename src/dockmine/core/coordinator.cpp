#include "dockmine/core/coordinator.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "dockmine/compress/crc32.h"
#include "dockmine/core/multi_node.h"
#include "dockmine/core/wire.h"
#include "dockmine/http/server.h"
#include "dockmine/registry/manifest.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/util/rng.h"
#include "dockmine/util/stopwatch.h"

namespace dockmine::core {
namespace {

/// One connected worker process. The in-flight result reception belongs to
/// the connection's thread; everything else is guarded by Impl::mutex.
/// Sends go through `link`, released when the worker is dropped (the
/// record itself stays for DistStats).
struct WorkerConn {
  std::uint64_t id = 0;    ///< coordinator connection id (lease owner key)
  std::shared_ptr<http::Connection> link;
  bool alive = true;
  bool saw_hello = false;
  double last_beat_ms = 0.0;  ///< refreshed on dispatch and each heartbeat
  /// Lease grants sent whose outcome (result, lease-failed, death) has not
  /// arrived yet. Nonzero after all_done() means a duplicate result is
  /// still in flight; run() drains it so every duplicate completion gets
  /// its idempotency check instead of being raced by shutdown.
  std::uint32_t outstanding = 0;
  registry::CircuitBreaker breaker;

  // Per-worker telemetry derived from the obs snapshot riding on each
  // heartbeat: the summed counter total and the beat's own timestamp, so
  // the coordinator can publish a per-second event rate per worker. A
  // worker resets its registry per lease, so totals may decrease; that
  // re-bases the window instead of producing a negative rate.
  bool prev_beat_valid = false;
  double prev_beat_obs_ms = 0.0;
  std::uint64_t prev_counter_total = 0;

  // Connection-thread-only: the result header whose binary file frames are
  // currently streaming in.
  std::optional<wire::LeaseResult> pending_result;
  std::size_t pending_file = 0;
  std::string pending_dir;
};

/// Comparison digest for duplicate completions, over the analysis-relevant
/// content only: delivered images, manifests, and layer profiles as
/// *sorted* serializations (delivery order is a thread-scheduling fact),
/// plus manifests_pushed. Owner identity, obs exports (wall times), and the
/// raw shard-set bytes (spill boundaries shift with arrival order; only the
/// commutative merge of the entries is deterministic) are excluded — the
/// merge-level equality of the shard data is proven separately by the
/// chaos tests' byte-identical-report oracle. Two executions of the same
/// lease must collide here; `duplicate_mismatches` counts violations.
std::string result_digest(const wire::LeaseResult& result) {
  const NodeContribution& node = result.contribution;
  std::vector<std::string> parts;
  parts.reserve(node.images.size() + node.manifests.size() +
                node.layer_profiles.size());
  for (const auto& image : node.images)
    parts.push_back("i:" + wire::image_profile_to_json(image).dump());
  for (const auto& manifest : node.manifests)
    parts.push_back("m:" + registry::manifest_to_json(manifest));
  for (const auto& profile : node.layer_profiles)
    parts.push_back("l:" + wire::layer_profile_to_json(profile).dump());
  std::sort(parts.begin(), parts.end());
  std::string text = "lease:" + std::to_string(result.lease) +
                     "|pushed:" + std::to_string(node.manifests_pushed);
  for (const std::string& part : parts) {
    text.push_back('\n');
    text += part;
  }
  return std::to_string(compress::Crc32::of(text));
}

}  // namespace

struct Coordinator::Impl {
  explicit Impl(CoordinatorOptions opts)
      : options(std::move(opts)),
        table(options.leases == 0 ? 1 : options.leases),
        rng(options.seed),
        lease_backoff_prev(table.count(), 0.0),
        server([this](std::shared_ptr<http::Connection> link) {
                 return connect_worker(std::move(link));
               },
               server_options(options), "dockmine_coord") {}

  static http::ServerOptions server_options(const CoordinatorOptions& options) {
    http::ServerOptions server;
    server.port = options.port;
    server.io_timeout_ms = options.io_timeout_ms;
    // A worker stalled mid-frame sends no heartbeat either, so it is
    // already dead by this deadline.
    server.slowloris_ms = options.heartbeat_deadline_ms;
    return server;
  }

  CoordinatorOptions options;

  std::mutex mutex;  // guards everything below
  std::vector<std::unique_ptr<WorkerConn>> workers;
  LeaseTable table;
  DistStats stats;
  util::Rng rng;
  std::uint64_t budget_spent = 0;
  std::vector<double> lease_backoff_prev;
  std::map<std::uint32_t, NodeContribution> contributions;
  std::map<std::uint32_t, std::string> digests;
  std::map<std::uint32_t, std::string> obs_files;
  bool stopping = false;
  std::optional<util::Error> failure;

  // -- helpers; callers hold `mutex` unless noted ------------------------

  bool worker_busy(std::uint64_t worker_id) const {
    for (std::uint32_t i = 0; i < table.count(); ++i) {
      const LeaseStatus& lease = table.status(i);
      if (lease.state != LeaseState::kRunning) continue;
      for (std::uint64_t owner : lease.owners)
        if (owner == worker_id) return true;
    }
    return false;
  }

  /// An alive, greeted, idle worker the breaker admits (other than
  /// `except`), or nullptr.
  WorkerConn* idle_worker(double now_ms, std::uint64_t except = 0) {
    for (auto& conn : workers) {
      if (conn->alive && conn->saw_hello && conn->id != except &&
          !worker_busy(conn->id) && conn->breaker.allow(now_ms)) {
        return conn.get();
      }
    }
    return nullptr;
  }

  void fail_run(util::Error error) {
    if (!failure) failure = std::move(error);
    stopping = true;
  }

  double next_backoff(std::uint32_t lease, double now_ms) {
    double& prev = lease_backoff_prev[lease];
    prev = registry::decorrelated_jitter(options.retry.base_delay_ms,
                                         options.retry.max_delay_ms, prev,
                                         rng);
    return now_ms + prev;
  }

  /// A lease went back to pending: count it, spend retry budget, and check
  /// the per-lease attempt cap.
  void on_lease_reassigned(std::uint32_t lease) {
    ++stats.reassignments;
    if (++budget_spent > options.retry.retry_budget) {
      fail_run(util::exhausted("coordinate: global retry budget spent"));
      return;
    }
    if (table.status(lease).attempts >=
        static_cast<std::uint32_t>(options.retry.max_attempts)) {
      fail_run(util::exhausted("coordinate: lease " + std::to_string(lease) +
                               " exhausted its attempt cap"));
    }
  }

  /// Declare a worker gone (socket closed, poisoned stream, or missed
  /// heartbeat deadline): release its leases back to pending, then shut
  /// its connection down (never a cross-thread close) and let go of it.
  void drop_worker(WorkerConn& conn, double now_ms) {
    if (!conn.alive) return;
    conn.alive = false;
    conn.outstanding = 0;
    for (std::uint32_t lease :
         table.release_owner(conn.id, next_backoff_for_release(now_ms))) {
      on_lease_reassigned(lease);
    }
    if (conn.link) {  // gone already once shutdown_workers took it
      conn.link->shutdown();
      conn.link.reset();
    }
  }

  double next_backoff_for_release(double now_ms) {
    // One jitter draw shared by all leases released together; they were
    // victims of the same event.
    return now_ms + registry::decorrelated_jitter(
                        options.retry.base_delay_ms,
                        options.retry.max_delay_ms, 0.0, rng);
  }

  /// Send one lease grant (the state mutex is held; the connection's send
  /// lock nests inside it). A failed write means the worker is gone.
  void send_lease(WorkerConn& conn, std::uint32_t lease, double now_ms) {
    const LeaseStatus& status = table.status(lease);
    json::Value msg = json::Value::object();
    msg.set("type", "lease");
    msg.set("lease", std::uint64_t{lease});
    msg.set("node_index", std::uint64_t{lease});
    msg.set("node_count", std::uint64_t{table.count()});
    msg.set("attempt", std::uint64_t{status.attempts});
    msg.set("spec", wire::job_spec_to_json(options.spec));
    const std::string frame =
        wire::encode_frame(wire::FrameKind::kJson, msg.dump());
    const util::Status wrote = conn.link->send(frame);
    conn.last_beat_ms = now_ms;  // liveness clock starts at dispatch
    if (!wrote.ok()) {
      ++stats.worker_disconnects;
      drop_worker(conn, now_ms);
      return;
    }
    ++conn.outstanding;
  }

  std::uint32_t outstanding_total() const {
    std::uint32_t total = 0;
    for (const auto& conn : workers) total += conn->outstanding;
    return total;
  }

  // -- connection-thread entry points (they take the state mutex) --------

  void on_disconnect(WorkerConn& conn) {
    std::lock_guard<std::mutex> lock(mutex);
    if (stopping || !conn.alive) return;
    ++stats.worker_disconnects;
    drop_worker(conn, util::mono_ms());
  }

  void on_malformed(WorkerConn& conn) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!conn.alive) return;
    ++stats.malformed_frames;
    obs::Registry::global().counter("dockmine_coord_malformed_frames_total").add();
    // A poisoned stream cannot be resynchronized: the connection dies and
    // the worker's leases go back to pending.
    drop_worker(conn, util::mono_ms());
  }

  void on_hello(WorkerConn& conn) {
    std::lock_guard<std::mutex> lock(mutex);
    conn.saw_hello = true;
  }

  void on_heartbeat(WorkerConn& conn, const json::Value& msg) {
    std::lock_guard<std::mutex> lock(mutex);
    ++stats.heartbeats_received;
    obs::Registry::global().counter("dockmine_coord_heartbeats_total").add();
    conn.last_beat_ms = util::mono_ms();

    // Aggregate the worker's sampled series: sum its counter snapshot and
    // publish the per-second delta between consecutive beats as a gauge,
    // one series per worker. `dockmine watch` / `query metrics` against a
    // telemetry-enabled coordinator then shows live per-worker throughput.
    const json::Value& snapshot = msg["obs"];
    if (!snapshot.is_object() || !snapshot["counters"].is_object() ||
        !snapshot["ts_ms"].is_number()) {
      return;
    }
    std::uint64_t total = 0;
    for (const auto& [name, value] : snapshot["counters"].members()) {
      if (value.is_number()) total += value.as_uint();
    }
    const double beat_ms = snapshot["ts_ms"].as_double();
    if (conn.prev_beat_valid && beat_ms > conn.prev_beat_obs_ms &&
        total >= conn.prev_counter_total) {
      const double rate = (total - conn.prev_counter_total) * 1000.0 /
                          (beat_ms - conn.prev_beat_obs_ms);
      obs::Registry::global()
          .gauge("dockmine_coord_worker_events_per_s{worker=\"" +
                 std::to_string(conn.id) + "\"}")
          .set(static_cast<std::int64_t>(rate));
    }
    conn.prev_beat_valid = true;
    conn.prev_beat_obs_ms = beat_ms;
    conn.prev_counter_total = total;
  }

  void on_lease_failed(WorkerConn& conn, const json::Value& msg) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto lease = static_cast<std::uint32_t>(msg["lease"].as_uint());
    if (lease >= table.count()) return;
    ++stats.lease_failures;
    if (conn.outstanding > 0) --conn.outstanding;
    const double now = util::mono_ms();
    conn.breaker.on_failure(now);
    if (table.fail(lease, conn.id, next_backoff(lease, now))) {
      on_lease_reassigned(lease);
    }
  }

  /// All binary file frames for a result have arrived: complete the lease
  /// (first completion wins) or verify + discard the duplicate.
  void on_result_complete(WorkerConn& conn) {
    wire::LeaseResult result = std::move(*conn.pending_result);
    conn.pending_result.reset();
    const std::string digest = result_digest(result);

    std::lock_guard<std::mutex> lock(mutex);
    const double now = util::mono_ms();
    conn.breaker.on_success();
    conn.last_beat_ms = now;
    if (conn.outstanding > 0) --conn.outstanding;
    if (!table.complete(result.lease, now)) {
      ++stats.duplicate_completions;
      obs::Registry::global()
          .counter("dockmine_coord_duplicate_completions_total")
          .add();
      auto it = digests.find(result.lease);
      if (it == digests.end() || it->second != digest) {
        ++stats.duplicate_mismatches;  // idempotency violation — a bug
      }
      std::error_code ec;
      std::filesystem::remove_all(conn.pending_dir, ec);
      return;
    }
    digests[result.lease] = digest;

    result.contribution.shard_set_dir = conn.pending_dir;
    contributions[result.lease] = std::move(result.contribution);

    if (result.obs_export.is_object()) {
      const std::string path =
          (std::filesystem::path(options.work_dir) /
           ("obs-lease-" + std::to_string(result.lease) + ".json"))
              .string();
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      if (file.is_open() && (file << result.obs_export.dump())) {
        obs_files[result.lease] = path;
      }
    }
  }

  /// A local failure on a connection thread: fail the run and end the
  /// connection.
  util::Status fail_locally(util::Error error) {
    std::lock_guard<std::mutex> lock(mutex);
    fail_run(error);
    return error;
  }

  /// Connection-thread frame dispatch. A protocol violation (kCorrupt)
  /// poisons the connection, like a malformed frame.
  util::Status handle_frame(WorkerConn& conn, wire::Frame& frame) {
    if (frame.kind == wire::FrameKind::kBinary) {
      if (!conn.pending_result ||
          conn.pending_file >= conn.pending_result->files.size()) {
        return util::corrupt("coordinate: binary frame outside a result");
      }
      const wire::FileEntry& entry =
          conn.pending_result->files[conn.pending_file];
      if (frame.payload.size() != entry.size) {
        return util::corrupt("coordinate: file frame size mismatch");
      }
      const std::string path =
          (std::filesystem::path(conn.pending_dir) / entry.name).string();
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      if (!file.is_open() || !(file << frame.payload)) {
        return fail_locally(util::internal("coordinate: cannot write " + path));
      }
      ++conn.pending_file;
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++stats.files_received;
        stats.bytes_received += frame.payload.size();
      }
      if (conn.pending_file == conn.pending_result->files.size()) {
        on_result_complete(conn);
      }
      return util::Status::success();
    }

    auto parsed = json::parse(frame.payload);
    if (!parsed.ok() || !parsed.value().is_object()) {
      return util::corrupt("coordinate: unparseable control frame");
    }
    const json::Value msg = std::move(parsed).value();
    const std::string& type = msg["type"].as_string();
    if (type == "hello") {
      on_hello(conn);
    } else if (type == "heartbeat") {
      on_heartbeat(conn, msg);
    } else if (type == "lease-failed") {
      on_lease_failed(conn, msg);
    } else if (type != "result") {
      return util::corrupt("coordinate: unknown message type: " + type);
    } else {
      if (conn.pending_result) {
        return util::corrupt("coordinate: result inside a result");
      }
      auto result = wire::lease_result_from_json(msg);
      if (!result.ok() || result.value().lease >= table.count()) {
        return util::corrupt("coordinate: bad result header");
      }
      conn.pending_result = std::move(result).value();
      conn.pending_file = 0;
      conn.pending_dir =
          (std::filesystem::path(options.work_dir) /
           ("lease-" + std::to_string(conn.pending_result->lease) + "-a" +
            std::to_string(conn.pending_result->attempt)))
              .string();
      std::error_code ec;
      std::filesystem::create_directories(conn.pending_dir, ec);
      if (ec) {
        return fail_locally(
            util::internal("coordinate: cannot create " + conn.pending_dir));
      }
      if (conn.pending_result->files.empty()) on_result_complete(conn);
    }
    return util::Status::success();
  }

  /// A new connection: a worker record (kept for DistStats after the worker
  /// goes) and the DMWF protocol that feeds handle_frame.
  std::unique_ptr<http::Protocol> connect_worker(
      std::shared_ptr<http::Connection> link) {
    WorkerConn* conn = nullptr;
    {
      auto record = std::make_unique<WorkerConn>();
      record->link = std::move(link);
      record->breaker = registry::CircuitBreaker(options.breaker);
      record->last_beat_ms = util::mono_ms();
      std::lock_guard<std::mutex> lock(mutex);
      record->id = ++stats.workers_connected;
      conn = record.get();
      workers.push_back(std::move(record));
    }
    auto protocol = std::make_unique<wire::FrameProtocol>();
    protocol->on_frame = [this, conn](wire::Frame& frame) {
      return handle_frame(*conn, frame);
    };
    protocol->on_poisoned = [this, conn] { on_malformed(*conn); };
    protocol->on_closed = [this, conn] { on_disconnect(*conn); };
    return protocol;
  }

  /// One scheduler pass: liveness, assignment, straggler re-dispatch.
  void tick(double now_ms) {
    std::lock_guard<std::mutex> lock(mutex);
    if (stopping) return;

    // Liveness: a worker executing a lease must heartbeat; silence past the
    // deadline is death (covers both SIGKILL — usually caught earlier by
    // the socket reset — and the wedged-but-connected hang).
    for (auto& conn : workers) {
      if (!conn->alive || !worker_busy(conn->id)) continue;
      if (now_ms - conn->last_beat_ms >
          static_cast<double>(options.heartbeat_deadline_ms)) {
        ++stats.missed_deadlines;
        obs::Registry::global()
            .counter("dockmine_coord_missed_deadlines_total")
            .add();
        drop_worker(*conn, now_ms);
      }
    }
    if (stopping) return;

    // Assignment: pending leases to idle, alive, breaker-approved workers.
    for (;;) {
      auto lease = table.next_pending(now_ms);
      if (!lease) break;
      WorkerConn* target = idle_worker(now_ms);
      if (!target) break;
      if (!table.assign(*lease, target->id, now_ms).ok()) break;
      send_lease(*target, *lease, now_ms);
      if (stopping) return;
    }

    // Straggler re-dispatch: duplicate a long-running single-owner lease
    // onto an idle worker; first completion wins. `duplicate_every_lease`
    // (test hook) forces the duplicate path with no threshold.
    const double median = table.median_completed_ms();
    const bool straggler_enabled =
        options.duplicate_every_lease ||
        (options.straggler_factor > 0.0 && median > 0.0);
    if (!straggler_enabled) return;
    const double threshold =
        options.duplicate_every_lease
            ? 0.0
            : std::max(static_cast<double>(options.straggler_floor_ms),
                       options.straggler_factor * median);
    for (std::uint32_t i = 0; i < table.count(); ++i) {
      const LeaseStatus& status = table.status(i);
      if (status.state != LeaseState::kRunning || status.owners.size() != 1)
        continue;
      if (now_ms - status.started_ms < threshold) continue;
      WorkerConn* target = idle_worker(now_ms, status.owners[0]);
      if (!target) continue;
      if (!table.assign_duplicate(i, target->id).ok()) continue;
      ++stats.straggler_redispatches;
      obs::Registry::global().counter("dockmine_coord_reassignments_total").add();
      send_lease(*target, i, now_ms);
      if (stopping) return;
    }
  }

  void shutdown_workers() {
    std::vector<std::shared_ptr<http::Connection>> links;
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
      for (auto& conn : workers) {
        if (conn->link) links.push_back(std::move(conn->link));
      }
    }
    const std::string frame = wire::encode_frame(
        wire::FrameKind::kJson, R"({"type":"shutdown"})");
    for (const auto& link : links) {
      (void)link->send(frame);
      link->shutdown();
    }
    server.stop();
  }

  /// Declared last: destroyed first, once shutdown_workers() stopped it.
  http::Server server;
};

Coordinator::Coordinator(CoordinatorOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Coordinator::~Coordinator() {
  if (impl_) impl_->shutdown_workers();
}

util::Status Coordinator::bind() {
  if (auto valid = check_job_spec(impl_->options.spec); !valid.ok())
    return valid;
  std::error_code ec;
  std::filesystem::create_directories(impl_->options.work_dir, ec);
  if (ec) {
    return util::internal("coordinate: cannot create work_dir " +
                          impl_->options.work_dir);
  }
  return impl_->server.bind();
}

std::uint16_t Coordinator::port() const noexcept {
  return impl_->server.port();
}

util::Result<CoordinatorReport> Coordinator::run() {
  Impl& impl = *impl_;
  if (impl.server.port() == 0)
    return util::internal("coordinate: run() before bind()");
  obs::EventSpan span("coordinate");
  const double start_ms = util::mono_ms();
  if (auto started = impl.server.start(); !started.ok()) return started.error();

  const auto tick = std::chrono::milliseconds(
      impl.options.scheduler_tick_ms == 0 ? 1
                                          : impl.options.scheduler_tick_ms);
  // Once every lease is done, linger until the last dispatched duplicate
  // has delivered (or failed, or died) so its idempotency check runs —
  // bounded by the heartbeat deadline so a wedged duplicate cannot hold
  // the run open.
  double drain_deadline_ms = 0.0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(impl.mutex);
      if (impl.failure) break;
      if (impl.table.all_done()) {
        const double now = util::mono_ms();
        if (impl.outstanding_total() == 0) break;
        if (drain_deadline_ms == 0.0) {
          drain_deadline_ms =
              now + static_cast<double>(impl.options.heartbeat_deadline_ms);
        } else if (now > drain_deadline_ms) {
          break;
        }
      }
      if (util::mono_ms() - start_ms >
          static_cast<double>(impl.options.max_wall_ms)) {
        impl.fail_run(util::timeout(
            "coordinate: run exceeded max_wall_ms without converging"));
        break;
      }
    }
    impl.tick(util::mono_ms());
    std::this_thread::sleep_for(tick);
  }
  impl.shutdown_workers();

  std::lock_guard<std::mutex> lock(impl.mutex);
  impl.stats.leases = impl.table.count();
  impl.stats.elapsed_ms = util::mono_ms() - start_ms;
  impl.stats.connections = impl.server.stats();
  if (impl.failure) return *impl.failure;

  // Fold in lease order — node order, as an in-process K-way split folds
  // its runs — so the merged report is byte-identical to a serial
  // single-process run.
  std::vector<NodeContribution> ordered;
  std::vector<std::string> obs_paths;
  ordered.reserve(impl.table.count());
  for (std::uint32_t i = 0; i < impl.table.count(); ++i) {
    auto it = impl.contributions.find(i);
    if (it == impl.contributions.end()) {
      return util::internal("coordinate: lease " + std::to_string(i) +
                            " completed without a stored contribution");
    }
    ordered.push_back(std::move(it->second));
    auto obs_it = impl.obs_files.find(i);
    if (obs_it != impl.obs_files.end()) obs_paths.push_back(obs_it->second);
  }
  auto combined = fold_contributions(ordered);
  if (!combined.ok()) return std::move(combined).error();

  CoordinatorReport report;
  report.combined = std::move(combined).value();
  report.stats = impl.stats;
  // Straggler analysis over the per-lease obs exports — only meaningful
  // when every lease shipped one (workers built with obs on).
  if (obs_paths.size() == impl.table.count()) {
    auto merged = obs::merge_obs_exports(obs_paths);
    if (merged.ok()) report.node_obs = std::move(merged.value().nodes);
  }
  return report;
}

}  // namespace dockmine::core
