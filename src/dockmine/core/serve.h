// dockmine serve — the long-lived query/ingest daemon (DESIGN.md §13).
//
// The batch pipeline runs, emits one report, and exits; the daemon keeps
// the folded analysis state resident and answers queries over the same
// CRC-framed wire protocol the distributed runtime speaks (core/wire.*,
// JSON payloads), on the shared http::Server, with snapshot-isolated reads:
//
//   * Every committed state is an immutable `Snapshot` published through a
//     shared_ptr swap. A query pins the snapshot it started on; an ingest
//     commit publishes a new one. Readers never block writers, writers
//     never tear readers, and every response is stamped with the epoch it
//     answered from.
//   * Ingest = run the pipeline over a new batch (repositories, seed),
//     keep its NodeContribution (images, manifests, layer profiles,
//     exported shard set), and fold ALL batches with fold_contributions —
//     the exact multi-node recombination — so the served report is
//     byte-identical to a fresh batch run over the union corpus.
//   * Commit order is: run batch -> rebuild snapshot -> persist the batch
//     list (state.json, temp+rename) -> publish. A crash before the rename
//     loses the in-flight batch cleanly; a restart replays the committed
//     batch specs (deterministic seeds make replay exact) and serves the
//     same epoch it would have served before the crash.
//
// Protocol (JSON frames; every *_from_json parser is total):
//
//   request   {"type":"query","id":N,"q":"report","path":"analysis.dedup"}
//             {"type":"query","id":N,"q":"image","repository":"..."}
//             {"type":"query","id":N,"q":"layer","key":K}
//             {"type":"query","id":N,"q":"content","key":K}
//             {"type":"query","id":N,"q":"types"}
//             {"type":"query","id":N,"q":"ecdf","name":"layers.cls"
//                                             [,"quantile":0.5]}
//             {"type":"query","id":N,"q":"status"}
//             {"type":"query","id":N,"q":"stats"}
//             {"type":"query","id":N,"q":"top","metric":"cis","n":10}
//             {"type":"query","id":N,"q":"repos"[,"prefix":"library/"]}
//             {"type":"query","id":N,"q":"metrics"[,"name":SELECTOR]
//                 [,"op":"rate"|"quantile"][,"window_ms":W]
//                 [,"quantile":0.99][,"range_ms":R]}
//             {"type":"query","id":N,"q":"trace-tail"[,"n":64]}
//             {"type":"query","id":N,"q":"slowlog"}
//             {"type":"ingest","id":N,"repositories":R,"seed":S}
//             {"type":"ingest-epoch","id":N}          (temporal mode)
//             {"type":"shutdown","id":N}
//   response  {"type":"result","id":N,"epoch":E,"body":...}
//             {"type":"error","id":N,"epoch":E,"error":"..."}
//
// Failure containment mirrors the rest of the system: a malformed frame
// poisons only its connection (the stream cannot resync, so the session is
// dropped — the daemon keeps serving); a well-framed but invalid request
// gets an error response and the session continues. The shared server
// drops a partial frame older than `slowloris_ms` (the clock resets on each
// completed frame), closes a connection past http::kMaxConnections at once,
// and backs off on accept errors (EMFILE & friends) instead of dying.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dockmine/core/lease.h"
#include "dockmine/core/multi_node.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/wire.h"
#include "dockmine/http/server.h"
#include "dockmine/http/socket.h"
#include "dockmine/json/json.h"
#include "dockmine/obs/alert.h"
#include "dockmine/shard/lookup.h"
#include "dockmine/util/error.h"

namespace dockmine::core::serve {

// ---- requests / responses ---------------------------------------------

enum class RequestKind : std::uint8_t {
  kQuery = 1,
  kIngest = 2,
  kShutdown = 3,
  kIngestEpoch = 4,  ///< temporal mode: advance the registry one epoch
};

struct Request {
  RequestKind kind = RequestKind::kQuery;
  std::uint64_t id = 0;
  std::string q;           ///< query selector: report|image|layer|content|
                           ///< types|ecdf|status|stats|top|repos
  std::string path;        ///< report: dot path into pipeline_report_json
  std::string repository;  ///< image
  std::uint64_t key = 0;   ///< layer / content
  std::string name;        ///< ecdf: images.cis, layers.cls, ...
  double quantile = -1.0;  ///< ecdf: grid quantile; < 0 = whole slice
  std::uint64_t repositories = 0;  ///< ingest batch size
  std::uint64_t seed = 0;          ///< ingest batch seed
  std::string metric;      ///< top: cis|fis|files|layers
  std::uint64_t n = 0;     ///< top: result row cap (>= 1); trace-tail:
                           ///< last-N events (0 = default 64)
  std::string prefix;      ///< repos: repository-name prefix filter ("" = all)
  std::string op;          ///< metrics: ""=samples|rate|quantile
  std::uint64_t range_ms = 0;   ///< metrics samples: trailing range (0 = latest)
  std::uint64_t window_ms = 0;  ///< metrics rate/quantile lookback (0 = 60000)
};

json::Value request_to_json(const Request& request);
/// Total: validates type/q discriminators, field types, and ranges; fails
/// with kCorrupt instead of crashing, because the input crossed a socket.
util::Result<Request> request_from_json(const json::Value& doc);

struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  std::uint64_t epoch = 0;  ///< snapshot epoch the answer was read from
  std::string error;        ///< set when !ok
  /// Set when ok. On the daemon an immutable answer (a report path, an
  /// image, types) is the snapshot's pre-serialized node, so holding it
  /// costs a refcount and response_to_json(...).dump() splices its bytes
  /// into the envelope; computed answers are trees. A parsed response
  /// (Client::call) always holds a tree.
  json::Value body;
  /// Server-side latency attribution, stamped when obs is enabled
  /// (negative = not measured, omitted from the wire form — telemetry-off
  /// responses stay byte-identical to older builds).
  double parse_ms = -1.0;   ///< frame decode + request parse
  double handle_ms = -1.0;  ///< request dispatch + serialization
};

/// The one envelope writer: `body`, then parse_ms and handle_ms when
/// measured.
json::Value response_to_json(const Response& response);
/// Takes the document by value so a caller that owns it (Client::call)
/// moves the body out instead of copying it.
util::Result<Response> response_from_json(json::Value doc);

// ---- snapshots ---------------------------------------------------------

/// One committed crawl batch; replayed deterministically on restart.
struct BatchSpec {
  std::uint64_t repositories = 0;
  std::uint64_t seed = 0;
};

json::Value batch_spec_to_json(const BatchSpec& spec);
util::Result<BatchSpec> batch_spec_from_json(const json::Value& doc);

/// Per-repository scalar metrics for the top/repos aggregation queries;
/// extracted from the image profiles at snapshot-build time so the read
/// path never touches the profiles themselves.
struct RepoMetrics {
  std::uint64_t cis = 0;
  std::uint64_t fis = 0;
  std::uint64_t files = 0;
  std::uint64_t layers = 0;
};

/// Immutable queryable state for one epoch. Built once per commit, shared
/// read-only by every in-flight query via shared_ptr. Every answer that
/// cannot change within the epoch is serialized here, once, as a
/// json::Value::preserialized node; a read hands that node to the response.
struct Snapshot {
  std::uint64_t epoch = 0;  ///< batch mode: committed batches; temporal
                            ///< mode: the registry epoch served
  bool temporal = false;
  std::vector<BatchSpec> batches;
  json::Value report;  ///< pipeline_report_json of the folded union (a tree)
  /// Pre-serialized answer of every `report` query path: "" is the whole
  /// report, "analysis.images.cis" one dot-path slice (every object member
  /// the path walk can reach, so every whole ECDF slice too).
  std::map<std::string, json::Value> report_paths;
  /// Per-image reports keyed by repository (image_report_json),
  /// pre-serialized.
  std::map<std::string, json::Value> images;
  /// Per-repository scalars for top/repos queries.
  std::map<std::string, RepoMetrics> repo_metrics;
  /// Union layer-sharing analysis for point lookups.
  dedup::LayerSharingAnalysis sharing;
  /// type_breakdown_json of the folded breakdown, pre-serialized.
  json::Value types;
  /// Read-path index over every batch's exported shard set (batch mode).
  shard::ShardSetIndex contents;
  /// Temporal mode: the resident dedup index of the served epoch — content
  /// queries hit it directly instead of the shard-set index.
  std::shared_ptr<const dedup::FileDedupIndex> resident;
};

// ---- shared serializers (the oracle surface) ---------------------------
// serve_test compares served answers against these serializers applied to
// an independently executed batch run: the serializer is shared, the data
// path (resident fold vs fresh pipeline) is what the byte-equality pins.

/// Per-image report: profile fields plus the sharing-derived dedup view —
/// cls_total (the image's bytes with private layer copies), cls_amortized
/// (its bytes when each layer's cost is split across all referencing
/// images), and their ratio.
json::Value image_report_json(const analyzer::ImageProfile& profile,
                              const registry::Manifest& manifest,
                              const dedup::LayerSharingAnalysis& sharing);

/// Count/capacity shares and dedup ratios per level-2 group plus overall.
json::Value type_breakdown_json(const dedup::TypeBreakdown& breakdown);

// ---- daemon ------------------------------------------------------------

/// The shared server's settings (port, io_timeout_ms, slowloris_ms,
/// accept_backoff_ms, accept_error_injector) plus the daemon's own.
struct ServeOptions : http::ServerOptions {
  /// Base pipeline configuration; `job.repositories`/`job.seed` define the
  /// initial batch. Ingested batches inherit everything but size and seed.
  JobSpec job;
  /// Required: batch spool (batch-<n>/ shard sets) + state.json.
  std::string state_dir;

  /// Temporal mode (set => the daemon serves an evolving registry instead
  /// of folded crawl batches). The hook advances the temporal stack one
  /// epoch — epoch 0 is the initial ingest — and returns the resident
  /// analysis state as a PipelineResult. It must be deterministic in the
  /// epoch sequence: restart replays epochs 0..K and must reproduce the
  /// pre-crash snapshot byte-for-byte. Invoked only under the ingest lock.
  /// Regular `ingest` requests are rejected while set (and `ingest-epoch`
  /// is rejected without it).
  std::function<util::Result<PipelineResult>(std::uint32_t epoch)>
      temporal_advance;

  /// Continuous telemetry (DESIGN.md §16). When enabled the daemon starts
  /// the global TimeSeriesStore sampler on start() (stopping it on stop()),
  /// evaluates alert rules after every scrape, stamps responses with
  /// parse/handle timings, and feeds the slow-query journal.
  struct TelemetryOptions {
    bool enabled = false;
    std::uint64_t sample_interval_ms = 1000;
    std::size_t ring_capacity = 600;
    double slowlog_threshold_ms = 25.0;   ///< handle_ms above this is logged
    std::size_t slowlog_capacity = 128;   ///< bounded journal (oldest dropped)
    std::string alert_log_path;           ///< JSONL transitions (optional)
    /// Empty = obs::default_serve_rules().
    std::vector<obs::AlertRule> rules;
  };
  TelemetryOptions telemetry;

  /// Test hook: invoked (under the ingest lock) just before an ingest batch
  /// runs — the kill-mid-ingest chaos test uses it to time its stop().
  std::function<void()> on_ingest_begin;
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions options);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Check `job` (check_job_spec) and `state_dir`, failing with
  /// kInvalidArgument before any batch runs. Then load state: replay
  /// committed batches from state.json when present, else run the initial
  /// batch from `job` and commit it. Then bind the listener and start
  /// accepting.
  util::Status start();

  std::uint16_t port() const noexcept { return server_.port(); }

  /// Idempotent: cancels any in-flight ingest, closes the listener, drops
  /// every session, joins all threads.
  void stop();

  /// The server's own connection counts.
  http::ServerStats connections() const { return server_.stats(); }

  /// True once a client sent a shutdown request; the owner (CLI/test)
  /// polls this and calls stop().
  bool shutdown_requested() const noexcept {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Current published snapshot (never null after a successful start()).
  std::shared_ptr<const Snapshot> snapshot() const;

 private:
  /// Run one batch pipeline into `state_dir/batch-<index>` and append its
  /// state. Caller holds `ingest_mutex_`.
  util::Status run_batch(const BatchSpec& spec);
  /// Fold every committed batch into a fresh snapshot. Caller holds
  /// `ingest_mutex_`.
  util::Result<std::shared_ptr<Snapshot>> build_snapshot();
  /// Write state.json (temp + rename). Caller holds `ingest_mutex_`.
  util::Status persist_state();

  /// Temporal mode: advance the stack to `epoch` and rebuild the snapshot
  /// from the returned resident state. Caller holds `ingest_mutex_`.
  util::Result<std::shared_ptr<Snapshot>> apply_temporal_epoch(
      std::uint32_t epoch);

  /// One complete frame from a session: parse, handle, answer. An error
  /// (binary frame, failed send) ends the session.
  util::Status answer(const wire::Frame& frame, http::Connection& connection);
  Response handle_request(const Request& request);
  Response handle_query(const Request& request);
  /// Telemetry: record a handled request into the bounded slow-query
  /// journal when it crossed the threshold.
  void note_slow_query(std::string_view label, const Request& request,
                       const Response& response, double handle_ms);
  util::Result<json::Value> do_ingest(const Request& request);
  util::Result<json::Value> do_ingest_epoch(const Request& request);

  std::string batch_dir(std::size_t index) const;

  ServeOptions options_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> cancel_ingest_{false};  ///< set once, by stop()

  std::mutex ingest_mutex_;  ///< serializes batch runs + commits
  // One entry per committed batch, guarded by `ingest_mutex_`. The
  // contributions are folded as they are on every commit.
  std::vector<BatchSpec> batch_specs_;
  std::vector<downloader::DownloadStats> batch_downloads_;
  std::vector<NodeContribution> contributions_;
  /// Temporal mode: epochs applied so far (0 before the initial ingest,
  /// K+1 once epoch K is served). Guarded by `ingest_mutex_`.
  std::uint32_t temporal_applied_ = 0;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;

  // ---- telemetry (active only when options_.telemetry.enabled) ----------
  struct SlowQuery {
    double ts_ms = 0.0;
    std::string q;
    std::uint64_t id = 0;
    double ms = 0.0;
    bool ok = false;
  };
  bool telemetry_started_ = false;  ///< sampler owned by this daemon
  obs::AlertRules alerts_;
  mutable std::mutex slowlog_mutex_;
  std::deque<SlowQuery> slowlog_;
  std::uint64_t slowlog_dropped_ = 0;

  /// Declared last: destroyed first, after stop() joined its threads.
  http::Server server_;
};

// ---- client ------------------------------------------------------------

/// Blocking request/response client over one connection. Not thread-safe;
/// the bench and tests run one per thread.
class Client {
 public:
  static util::Result<Client> connect(std::uint16_t port,
                                      std::uint32_t timeout_ms = 5000);

  /// Send one request, read frames until its response arrives.
  util::Result<Response> call(const Request& request);

  /// Adjust the per-read deadline (ingest calls run whole pipelines).
  util::Status set_timeout_ms(std::uint32_t timeout_ms) {
    return socket_.set_timeout_ms(timeout_ms);
  }

  http::Socket& socket() { return socket_; }  ///< chaos tests poke the raw stream

 private:
  http::Socket socket_;
  wire::FrameBuffer frames_;
};

}  // namespace dockmine::core::serve
