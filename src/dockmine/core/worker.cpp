#include "dockmine/core/worker.h"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "dockmine/core/lease.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/wire.h"
#include "dockmine/http/socket.h"
#include "dockmine/json/json.h"
#include "dockmine/obs/export.h"
#include "dockmine/obs/heartbeat.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/timeseries.h"
#include "dockmine/util/stopwatch.h"

namespace dockmine::core {
namespace {

/// Shared by the main loop and the heartbeat emitter thread: every frame
/// leaves through write_frame, serialized by the mutex.
struct WireWriter {
  http::Socket* socket = nullptr;
  std::mutex mutex;

  util::Status write_frame(wire::FrameKind kind, std::string_view payload) {
    const std::string frame = wire::encode_frame(kind, payload);
    std::lock_guard<std::mutex> lock(mutex);
    return socket->write_all(frame);
  }
};

/// One liveness frame. `obs_line` (a heartbeat_line() snapshot) rides along
/// when available so the coordinator's journal sees worker progress, not
/// just a pulse.
util::Status send_heartbeat(WireWriter& writer, std::uint64_t worker_id,
                            std::uint32_t lease, const std::string& obs_line) {
  json::Value msg = json::Value::object();
  msg.set("type", "heartbeat");
  msg.set("worker", worker_id);
  msg.set("lease", std::uint64_t{lease});
  if (!obs_line.empty()) {
    if (auto parsed = json::parse(obs_line); parsed.ok()) {
      msg.set("obs", std::move(parsed).value());
    }
  }
  return writer.write_frame(wire::FrameKind::kJson, msg.dump());
}

/// Liveness pump for one lease execution. Prefers the obs heartbeat
/// emitter (PR 5) with a socket sink — each beat carries the full metric
/// snapshot; when obs is compiled out (start_heartbeat refuses) a plain
/// thread sends bare pulses instead, so liveness never depends on the obs
/// build flavor.
class LeaseHeartbeat {
 public:
  LeaseHeartbeat(WireWriter& writer, std::uint64_t worker_id,
                 std::uint32_t lease, std::uint64_t interval_ms,
                 std::atomic<std::uint64_t>& sent)
      : writer_(writer), worker_id_(worker_id), lease_(lease), sent_(sent) {
    obs::HeartbeatOptions options;
    options.interval_ms = interval_ms;
    options.sink = [this](const std::string& line) {
      if (send_heartbeat(writer_, worker_id_, lease_, line).ok())
        sent_.fetch_add(1, std::memory_order_relaxed);
    };
    via_emitter_ = obs::start_heartbeat(options);
    if (!via_emitter_) {
      pump_ = std::thread([this, interval_ms] {
        while (!stop_.load(std::memory_order_acquire)) {
          if (send_heartbeat(writer_, worker_id_, lease_, {}).ok())
            sent_.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
        }
      });
    }
  }

  ~LeaseHeartbeat() { stop(); }

  /// Idempotent. Via the emitter this also flushes the final beat (the
  /// flush-exact shutdown contract), so the coordinator always sees one
  /// last heartbeat before the result frame.
  void stop() {
    if (via_emitter_) {
      obs::stop_heartbeat();
      via_emitter_ = false;
      return;
    }
    if (pump_.joinable()) {
      stop_.store(true, std::memory_order_release);
      pump_.join();
    }
  }

 private:
  WireWriter& writer_;
  std::uint64_t worker_id_;
  std::uint32_t lease_;
  std::atomic<std::uint64_t>& sent_;
  bool via_emitter_ = false;
  std::thread pump_;
  std::atomic<bool> stop_{false};
};

struct LeaseGrant {
  std::uint32_t lease = 0;
  std::uint32_t node_index = 0;
  std::uint32_t node_count = 1;
  std::uint32_t attempt = 0;
  JobSpec spec;
};

util::Result<LeaseGrant> lease_grant_from_json(const json::Value& msg) {
  if (!msg["lease"].is_int() || !msg["node_index"].is_int() ||
      !msg["node_count"].is_int() || !msg["attempt"].is_int() ||
      !msg["spec"].is_object()) {
    return util::corrupt("worker: malformed lease grant");
  }
  LeaseGrant grant;
  grant.lease = static_cast<std::uint32_t>(msg["lease"].as_uint());
  grant.node_index = static_cast<std::uint32_t>(msg["node_index"].as_uint());
  grant.node_count = static_cast<std::uint32_t>(msg["node_count"].as_uint());
  grant.attempt = static_cast<std::uint32_t>(msg["attempt"].as_uint());
  if (grant.node_count == 0 || grant.node_index >= grant.node_count)
    return util::corrupt("worker: lease grant node out of range");
  auto spec = wire::job_spec_from_json(msg["spec"]);
  if (!spec.ok()) return std::move(spec).error();
  grant.spec = std::move(spec).value();
  return grant;
}

util::Status send_lease_failed(WireWriter& writer, std::uint64_t worker_id,
                               std::uint32_t lease,
                               const util::Error& error) {
  json::Value msg = json::Value::object();
  msg.set("type", "lease-failed");
  msg.set("worker", worker_id);
  msg.set("lease", std::uint64_t{lease});
  msg.set("error", error.to_string());
  return writer.write_frame(wire::FrameKind::kJson, msg.dump());
}

/// Execute one granted lease end to end and ship the outcome. Pipeline
/// failures are reported (lease-failed) and absorbed; only connection
/// failures propagate.
util::Status execute_lease(const WorkerOptions& options, WireWriter& writer,
                           std::uint64_t worker_id, const LeaseGrant& grant,
                           WorkerStats& stats,
                           std::atomic<std::uint64_t>& beats) {
  const std::string export_dir =
      (std::filesystem::path(options.scratch_dir) /
       ("lease-" + std::to_string(grant.lease) + "-a" +
        std::to_string(grant.attempt)))
          .string();
  std::error_code ec;
  std::filesystem::create_directories(export_dir, ec);
  if (ec) {
    ++stats.leases_failed;
    return send_lease_failed(
        writer, worker_id, grant.lease,
        util::internal("worker: cannot create " + export_dir));
  }

  // Fresh observability per lease, stamped with the partition index — the
  // per-lease obs export is what the coordinator's straggler analysis and
  // merge-obs view consume. Each beat the local sampler tick keeps the
  // worker's own time-series rings warm, so the snapshot riding on the
  // heartbeat always reflects the just-sampled counter state.
  obs::reset_all();
  obs::set_node_id(grant.node_index);
  if (obs::enabled()) {
    obs::TimeSeriesOptions sampling;
    sampling.interval_ms = options.heartbeat_interval_ms == 0
                               ? 100
                               : options.heartbeat_interval_ms;
    sampling.capacity = 256;
    obs::TimeSeriesStore::global().configure(sampling);
    obs::TimeSeriesStore::global().start_sampler();
  }

  util::Result<PipelineResult> result = [&] {
    LeaseHeartbeat heartbeat(writer, worker_id, grant.lease,
                             options.heartbeat_interval_ms, beats);
    if (options.chaos.die_on_first_lease) {
      // Chaos: die the way `kill -9` kills — after proving liveness once.
      (void)send_heartbeat(writer, worker_id, grant.lease, {});
      ::raise(SIGKILL);
    }
    if (options.chaos.hang_on_first_lease) {
      // Chaos: wedge. Stop heartbeating but keep the socket open; the
      // coordinator must detect this through the missed deadline, not a
      // reset.
      heartbeat.stop();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.chaos.hang_ms));
      return util::Result<PipelineResult>(
          util::internal("worker: chaos hang"));
    }
    auto run = run_end_to_end(
        lease_pipeline_options(grant.spec, grant.node_index,
                               grant.node_count, export_dir));
    heartbeat.stop();  // final beat flushes before the result frame
    return run;
  }();

  if (!result.ok()) {
    obs::reset_all();
    std::filesystem::remove_all(export_dir, ec);
    ++stats.leases_failed;
    return send_lease_failed(writer, worker_id, grant.lease, result.error());
  }
  wire::LeaseResult outcome;
  outcome.worker = worker_id;
  outcome.lease = grant.lease;
  outcome.attempt = grant.attempt;
  outcome.contribution = contribution_of(std::move(result).value(), export_dir);
  if (obs::enabled()) outcome.obs_export = obs::to_json(obs::collect());
  obs::reset_all();

  // Ship every file of the exported shard set (shardset.json + run files),
  // names sorted so two executions of the same lease serialize the result
  // identically — the coordinator's duplicate-comparison digest depends on
  // it.
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(export_dir, ec)) {
    if (entry.is_regular_file())
      names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  std::vector<std::string> contents;
  contents.reserve(names.size());
  for (const std::string& name : names) {
    std::ifstream file(std::filesystem::path(export_dir) / name,
                       std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    if (!file.good() && !file.eof()) {
      ++stats.leases_failed;
      std::filesystem::remove_all(export_dir, ec);
      return send_lease_failed(
          writer, worker_id, grant.lease,
          util::internal("worker: cannot read exported " + name));
    }
    outcome.files.push_back({name, bytes.size()});
    contents.push_back(std::move(bytes));
  }

  if (auto sent = writer.write_frame(wire::FrameKind::kJson,
                                     wire::lease_result_to_json(outcome).dump());
      !sent.ok()) {
    return sent;
  }
  for (std::string& bytes : contents) {
    if (auto sent = writer.write_frame(wire::FrameKind::kBinary, bytes);
        !sent.ok()) {
      return sent;
    }
    ++stats.files_shipped;
    stats.bytes_shipped += bytes.size();
  }
  ++stats.leases_completed;
  std::filesystem::remove_all(export_dir, ec);
  return util::Status::success();
}

}  // namespace

util::Result<WorkerStats> run_worker(const WorkerOptions& options) {
  if (options.port == 0)
    return util::invalid_argument("worker: a coordinator port is required");
  if (options.scratch_dir.empty())
    return util::invalid_argument("worker: scratch_dir is required");
  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (ec) {
    return util::internal("worker: cannot create scratch_dir " +
                          options.scratch_dir);
  }

  auto connected = http::Socket::connect_loopback(options.port);
  if (!connected.ok()) return std::move(connected).error();
  http::Socket socket = std::move(connected).value();
  if (auto set = socket.set_timeout_ms(options.io_timeout_ms); !set.ok())
    return set.error();

  const std::uint64_t worker_id =
      options.worker_id != 0 ? options.worker_id
                             : static_cast<std::uint64_t>(::getpid());
  WireWriter writer;
  writer.socket = &socket;
  WorkerStats stats;
  std::atomic<std::uint64_t> beats{0};

  {
    json::Value hello = json::Value::object();
    hello.set("type", "hello");
    hello.set("worker", worker_id);
    hello.set("pid", static_cast<std::uint64_t>(::getpid()));
    if (auto sent = writer.write_frame(wire::FrameKind::kJson, hello.dump());
        !sent.ok()) {
      return sent.error();
    }
  }

  wire::FrameBuffer frames;
  bool lease_seen = false;
  double idle_since = util::mono_ms();
  for (;;) {
    auto chunk = socket.read_some();
    if (!chunk.ok()) {
      if (chunk.error().code() == util::ErrorCode::kTimeout) {
        if (util::mono_ms() - idle_since >
            static_cast<double>(options.idle_timeout_ms)) {
          return util::timeout("worker: coordinator went silent");
        }
        continue;
      }
      if (chunk.error().code() == util::ErrorCode::kReset) {
        // Coordinator gone; nothing left to do.
        stats.heartbeats_sent = beats.load(std::memory_order_relaxed);
        return stats;
      }
      return chunk.error();
    }
    if (chunk.value().empty()) {
      stats.heartbeats_sent = beats.load(std::memory_order_relaxed);
      return stats;
    }
    frames.feed(chunk.value());

    wire::Frame frame;
    for (;;) {
      auto polled = frames.poll(frame);
      if (!polled.ok()) return polled.error();  // poisoned stream
      if (!polled.value()) break;
      if (frame.kind != wire::FrameKind::kJson)
        return util::corrupt("worker: unexpected binary frame");
      auto parsed = json::parse(frame.payload);
      if (!parsed.ok() || !parsed.value().is_object())
        return util::corrupt("worker: unparseable control frame");
      const json::Value msg = std::move(parsed).value();
      const std::string& type = msg["type"].as_string();
      if (type == "shutdown") {
        stats.shutdown_received = true;
        stats.heartbeats_sent = beats.load(std::memory_order_relaxed);
        return stats;
      }
      if (type != "lease")
        return util::corrupt("worker: unexpected message type: " + type);
      auto grant = lease_grant_from_json(msg);
      if (!grant.ok()) return std::move(grant).error();

      WorkerOptions lease_options = options;
      if (lease_seen) {
        // The chaos hooks apply to the first lease only.
        lease_options.chaos = WorkerChaos{};
      }
      lease_seen = true;
      if (lease_options.chaos.hang_on_first_lease) {
        // A hung worker never recovers in real life either: after the chaos
        // window this worker exits without a result.
        (void)execute_lease(lease_options, writer, worker_id, grant.value(),
                            stats, beats);
        stats.heartbeats_sent = beats.load(std::memory_order_relaxed);
        return stats;
      }
      if (auto executed = execute_lease(lease_options, writer, worker_id,
                                        grant.value(), stats, beats);
          !executed.ok()) {
        return executed.error();
      }
      idle_since = util::mono_ms();
    }
  }
}

}  // namespace dockmine::core
