#include "dockmine/core/serve.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>
#include <utility>

#include "dockmine/filetype/taxonomy.h"
#include "dockmine/obs/export.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/obs/timeseries.h"
#include "dockmine/util/stopwatch.h"

namespace dockmine::core::serve {
namespace {

/// The report's fixed quantile grid (pipeline.cpp ecdf_json); quantile
/// queries must land on it exactly so their answers are slices of the
/// batch report, never interpolations of it.
constexpr double kQuantileGrid[] = {0.0,  0.01, 0.05, 0.1,  0.25, 0.5,
                                    0.75, 0.9,  0.95, 0.99, 1.0};

/// Grid index for `q`, or -1 when q is off-grid.
int grid_index(double q) {
  for (std::size_t i = 0; i < std::size(kQuantileGrid); ++i) {
    if (std::fabs(q - kQuantileGrid[i]) < 1e-9) return static_cast<int>(i);
  }
  return -1;
}

/// Every request label: the query selectors, then the other request kinds.
/// The parser admits nothing else, so the set is closed.
constexpr std::string_view kLabels[] = {
    "report",  "image",  "layer",  "content", "types",        "ecdf",
    "status",  "stats",  "top",    "repos",   "metrics",      "trace-tail",
    "slowlog", "ingest", "ingest-epoch",      "shutdown"};
constexpr auto kQueriesEnd = std::begin(kLabels) + 13;

bool known_query(const std::string& q) {
  return std::find(std::begin(kLabels), kQueriesEnd, q) != kQueriesEnd;
}

std::size_t label_index(const Request& request) {
  const std::string_view label =
      request.kind == RequestKind::kQuery         ? std::string_view(request.q)
      : request.kind == RequestKind::kIngest      ? "ingest"
      : request.kind == RequestKind::kIngestEpoch ? "ingest-epoch"
                                                  : "shutdown";
  return static_cast<std::size_t>(
      std::find(std::begin(kLabels), std::end(kLabels), label) -
      std::begin(kLabels));
}

/// One label's request counter and latency histogram, looked up on the
/// label's first request (so the exported series are exactly the labels
/// seen) and never again.
struct RequestInstruments {
  std::once_flag once;
  obs::Counter* requests = nullptr;
  obs::Histogram* latency = nullptr;
};

RequestInstruments& instruments_for(std::size_t label) {
  static std::array<RequestInstruments, std::size(kLabels)> table;
  RequestInstruments& slot = table[label];
  std::call_once(slot.once, [&slot, label] {
    const std::string q = "{q=\"" + std::string(kLabels[label]) + "\"}";
    obs::Registry& registry = obs::Registry::global();
    slot.requests = &registry.counter("dockmine_serve_requests_total" + q);
    slot.latency = &registry.histogram("dockmine_serve_request_ms" + q);
  });
  return slot;
}

bool known_metrics_op(const std::string& op) {
  return op.empty() || op == "rate" || op == "quantile";
}

bool known_top_metric(const std::string& metric) {
  return metric == "cis" || metric == "fis" || metric == "files" ||
         metric == "layers";
}

std::uint64_t metric_value(const RepoMetrics& metrics,
                           const std::string& metric) {
  if (metric == "cis") return metrics.cis;
  if (metric == "fis") return metrics.fis;
  if (metric == "files") return metrics.files;
  return metrics.layers;
}

/// Report location of one queryable ECDF: {section, field} under
/// report["analysis"], or nullopt for an unknown name.
std::optional<std::pair<std::string, std::string>> ecdf_location(
    const std::string& name) {
  const std::size_t dot = name.find('.');
  if (dot == std::string::npos) return std::nullopt;
  const std::string section = name.substr(0, dot);
  const std::string field = name.substr(dot + 1);
  const bool ok =
      (section == "images" &&
       (field == "cis" || field == "fis" || field == "layers_per_image" ||
        field == "files_per_image")) ||
      (section == "layers" &&
       (field == "cls" || field == "fls" || field == "files_per_layer")) ||
      (section == "dedup" && field == "repeat_counts");
  if (!ok) return std::nullopt;
  return std::make_pair(section, field);
}

obs::Counter& serve_counter(const std::string& name) {
  return obs::Registry::global().counter(name);
}

}  // namespace

// ---- request / response codecs ----------------------------------------

json::Value request_to_json(const Request& request) {
  auto doc = json::Value::object();
  switch (request.kind) {
    case RequestKind::kQuery:
      doc.set("type", "query");
      doc.set("id", request.id);
      doc.set("q", request.q);
      if (request.q == "report" && !request.path.empty()) {
        doc.set("path", request.path);
      }
      if (request.q == "image") doc.set("repository", request.repository);
      if (request.q == "layer" || request.q == "content") {
        doc.set("key", request.key);
      }
      if (request.q == "ecdf") {
        doc.set("name", request.name);
        if (request.quantile >= 0.0) doc.set("quantile", request.quantile);
      }
      if (request.q == "top") {
        doc.set("metric", request.metric);
        doc.set("n", request.n);
      }
      if (request.q == "repos" && !request.prefix.empty()) {
        doc.set("prefix", request.prefix);
      }
      if (request.q == "metrics") {
        if (!request.name.empty()) doc.set("name", request.name);
        if (!request.op.empty()) doc.set("op", request.op);
        if (request.window_ms > 0) doc.set("window_ms", request.window_ms);
        if (request.op == "quantile" && request.quantile >= 0.0) {
          doc.set("quantile", request.quantile);
        }
        if (request.range_ms > 0) doc.set("range_ms", request.range_ms);
      }
      if (request.q == "trace-tail" && request.n > 0) {
        doc.set("n", request.n);
      }
      break;
    case RequestKind::kIngest:
      doc.set("type", "ingest");
      doc.set("id", request.id);
      doc.set("repositories", request.repositories);
      doc.set("seed", request.seed);
      break;
    case RequestKind::kIngestEpoch:
      doc.set("type", "ingest-epoch");
      doc.set("id", request.id);
      break;
    case RequestKind::kShutdown:
      doc.set("type", "shutdown");
      doc.set("id", request.id);
      break;
  }
  return doc;
}

util::Result<Request> request_from_json(const json::Value& doc) {
  if (!doc.is_object() || !doc["type"].is_string() || !doc["id"].is_int() ||
      doc["id"].as_int() < 0) {
    return util::corrupt("serve: malformed request envelope");
  }
  Request request;
  request.id = doc["id"].as_uint();
  const std::string& type = doc["type"].as_string();
  if (type == "shutdown") {
    request.kind = RequestKind::kShutdown;
    return request;
  }
  if (type == "ingest") {
    request.kind = RequestKind::kIngest;
    if (!doc["repositories"].is_int() || !doc["seed"].is_int() ||
        doc["repositories"].as_int() <= 0 || doc["seed"].as_int() < 0) {
      return util::corrupt("serve: malformed ingest request");
    }
    request.repositories = doc["repositories"].as_uint();
    request.seed = doc["seed"].as_uint();
    return request;
  }
  if (type == "ingest-epoch") {
    request.kind = RequestKind::kIngestEpoch;
    return request;
  }
  if (type != "query") {
    return util::corrupt("serve: unknown request type: " + type);
  }
  request.kind = RequestKind::kQuery;
  if (!doc["q"].is_string() || !known_query(doc["q"].as_string())) {
    return util::corrupt("serve: unknown query selector");
  }
  request.q = doc["q"].as_string();
  if (request.q == "report") {
    if (doc.contains("path")) {
      if (!doc["path"].is_string()) {
        return util::corrupt("serve: report path must be a string");
      }
      request.path = doc["path"].as_string();
    }
  } else if (request.q == "image") {
    if (!doc["repository"].is_string() ||
        doc["repository"].as_string().empty()) {
      return util::corrupt("serve: image query requires a repository");
    }
    request.repository = doc["repository"].as_string();
  } else if (request.q == "layer" || request.q == "content") {
    if (!doc["key"].is_int() || doc["key"].as_int() == 0) {
      return util::corrupt("serve: " + request.q +
                           " query requires a nonzero key");
    }
    request.key = doc["key"].as_uint();
  } else if (request.q == "ecdf") {
    if (!doc["name"].is_string() || doc["name"].as_string().empty()) {
      return util::corrupt("serve: ecdf query requires a name");
    }
    request.name = doc["name"].as_string();
    if (doc.contains("quantile")) {
      if (!doc["quantile"].is_number()) {
        return util::corrupt("serve: ecdf quantile must be a number");
      }
      request.quantile = doc["quantile"].as_double();
      if (!(request.quantile >= 0.0 && request.quantile <= 1.0)) {
        return util::corrupt("serve: ecdf quantile out of [0,1]");
      }
    }
  } else if (request.q == "top") {
    if (!doc["metric"].is_string() ||
        !known_top_metric(doc["metric"].as_string())) {
      return util::corrupt("serve: top query requires a metric "
                           "(cis|fis|files|layers)");
    }
    request.metric = doc["metric"].as_string();
    if (!doc["n"].is_int() || doc["n"].as_int() <= 0) {
      return util::corrupt("serve: top query requires n >= 1");
    }
    request.n = doc["n"].as_uint();
  } else if (request.q == "repos") {
    if (doc.contains("prefix")) {
      if (!doc["prefix"].is_string()) {
        return util::corrupt("serve: repos prefix must be a string");
      }
      request.prefix = doc["prefix"].as_string();
    }
  } else if (request.q == "metrics") {
    if (doc.contains("name")) {
      if (!doc["name"].is_string()) {
        return util::corrupt("serve: metrics name must be a string");
      }
      request.name = doc["name"].as_string();
    }
    if (doc.contains("op")) {
      if (!doc["op"].is_string() ||
          !known_metrics_op(doc["op"].as_string())) {
        return util::corrupt("serve: metrics op must be rate|quantile");
      }
      request.op = doc["op"].as_string();
    }
    if (doc.contains("window_ms")) {
      if (!doc["window_ms"].is_int() || doc["window_ms"].as_int() <= 0) {
        return util::corrupt("serve: metrics window_ms must be >= 1");
      }
      request.window_ms = doc["window_ms"].as_uint();
    }
    if (doc.contains("range_ms")) {
      if (!doc["range_ms"].is_int() || doc["range_ms"].as_int() <= 0) {
        return util::corrupt("serve: metrics range_ms must be >= 1");
      }
      request.range_ms = doc["range_ms"].as_uint();
    }
    if (request.op == "quantile") {
      if (!doc["quantile"].is_number()) {
        return util::corrupt("serve: metrics quantile op requires a "
                             "quantile");
      }
      request.quantile = doc["quantile"].as_double();
      if (!(request.quantile > 0.0 && request.quantile < 1.0)) {
        return util::corrupt("serve: metrics quantile out of (0,1)");
      }
    } else if (doc.contains("quantile")) {
      return util::corrupt("serve: metrics quantile requires op=quantile");
    }
  } else if (request.q == "trace-tail") {
    if (doc.contains("n")) {
      if (!doc["n"].is_int() || doc["n"].as_int() <= 0) {
        return util::corrupt("serve: trace-tail n must be >= 1");
      }
      request.n = doc["n"].as_uint();
    }
  }
  return request;
}

json::Value response_to_json(const Response& response) {
  auto doc = json::Value::object();
  doc.set("type", response.ok ? "result" : "error");
  doc.set("id", response.id);
  doc.set("epoch", response.epoch);
  if (response.ok) {
    doc.set("body", response.body);
  } else {
    doc.set("error", response.error);
  }
  // Latency attribution rides along only when measured, so telemetry-off
  // responses are byte-identical to older builds.
  if (response.parse_ms >= 0.0) doc.set("parse_ms", response.parse_ms);
  if (response.handle_ms >= 0.0) doc.set("handle_ms", response.handle_ms);
  return doc;
}

util::Result<Response> response_from_json(json::Value doc) {
  if (!doc.is_object() || !doc["type"].is_string() || !doc["id"].is_int() ||
      doc["id"].as_int() < 0 || !doc["epoch"].is_int() ||
      doc["epoch"].as_int() < 0) {
    return util::corrupt("serve: malformed response envelope");
  }
  Response response;
  response.id = doc["id"].as_uint();
  response.epoch = doc["epoch"].as_uint();
  if (doc.contains("parse_ms")) {
    if (!doc["parse_ms"].is_number() || doc["parse_ms"].as_double() < 0.0) {
      return util::corrupt("serve: parse_ms must be a non-negative number");
    }
    response.parse_ms = doc["parse_ms"].as_double();
  }
  if (doc.contains("handle_ms")) {
    if (!doc["handle_ms"].is_number() ||
        doc["handle_ms"].as_double() < 0.0) {
      return util::corrupt("serve: handle_ms must be a non-negative number");
    }
    response.handle_ms = doc["handle_ms"].as_double();
  }
  const std::string& type = doc["type"].as_string();
  if (type == "result") {
    if (!doc.contains("body")) {
      return util::corrupt("serve: result response without body");
    }
    response.ok = true;
    for (auto& [key, value] : doc.members()) {
      if (key == "body") {
        response.body = std::move(value);
        break;
      }
    }
    return response;
  }
  if (type == "error") {
    if (!doc["error"].is_string()) {
      return util::corrupt("serve: error response without message");
    }
    response.ok = false;
    response.error = doc["error"].as_string();
    return response;
  }
  return util::corrupt("serve: unknown response type: " + type);
}

json::Value batch_spec_to_json(const BatchSpec& spec) {
  auto doc = json::Value::object();
  doc.set("repositories", spec.repositories);
  doc.set("seed", spec.seed);
  return doc;
}

util::Result<BatchSpec> batch_spec_from_json(const json::Value& doc) {
  if (!doc.is_object() || !doc["repositories"].is_int() ||
      !doc["seed"].is_int() || doc["repositories"].as_int() <= 0 ||
      doc["seed"].as_int() < 0) {
    return util::corrupt("serve: malformed batch spec");
  }
  BatchSpec spec;
  spec.repositories = doc["repositories"].as_uint();
  spec.seed = doc["seed"].as_uint();
  return spec;
}

// ---- shared serializers ------------------------------------------------

json::Value image_report_json(const analyzer::ImageProfile& profile,
                              const registry::Manifest& manifest,
                              const dedup::LayerSharingAnalysis& sharing) {
  std::uint64_t cls_total = 0;
  double cls_amortized = 0.0;
  std::uint64_t shared_layers = 0;
  for (const auto& ref : manifest.layers) {
    const auto info = sharing.lookup(ref.digest.key64());
    const std::uint64_t references = info ? info->references : 1;
    cls_total += ref.compressed_size;
    cls_amortized += static_cast<double>(ref.compressed_size) /
                     static_cast<double>(references);
    if (references > 1) ++shared_layers;
  }
  auto doc = json::Value::object();
  doc.set("repository", profile.repository);
  doc.set("cis", profile.cis);
  doc.set("fis", profile.fis);
  doc.set("files", profile.file_count);
  doc.set("dirs", profile.dir_count);
  doc.set("layers", std::uint64_t{profile.layer_count});
  doc.set("compression_ratio", profile.compression_ratio());
  doc.set("cls_total", cls_total);
  doc.set("cls_amortized", cls_amortized);
  doc.set("layer_dedup_ratio",
          cls_amortized == 0.0
              ? 1.0
              : static_cast<double>(cls_total) / cls_amortized);
  doc.set("shared_layers", shared_layers);
  return doc;
}

json::Value type_breakdown_json(const dedup::TypeBreakdown& breakdown) {
  const auto stats_json = [](const dedup::TypeStats& stats) {
    auto doc = json::Value::object();
    doc.set("count", stats.count);
    doc.set("bytes", stats.bytes);
    doc.set("unique_count", stats.unique_count);
    doc.set("unique_bytes", stats.unique_bytes);
    doc.set("count_removed", stats.count_removed());
    doc.set("capacity_removed", stats.capacity_removed());
    return doc;
  };
  auto doc = json::Value::object();
  doc.set("overall", stats_json(breakdown.overall()));
  auto groups = json::Value::array();
  for (std::size_t g = 0; g < filetype::kGroupCount; ++g) {
    const auto group = static_cast<filetype::Group>(g);
    auto row = json::Value::object();
    row.set("group", std::string(filetype::to_string(group)));
    row.set("count_share", breakdown.count_share(group));
    row.set("capacity_share", breakdown.capacity_share(group));
    row.set("stats", stats_json(breakdown.by_group(group)));
    groups.push_back(std::move(row));
  }
  doc.set("groups", std::move(groups));
  return doc;
}

// ---- daemon ------------------------------------------------------------

namespace {

/// Pre-serialize `node` as the answer to report path `path`, then every
/// member the query's dot-path walk can reach below it: object members
/// whose keys are nonempty and hold no dot.
void add_report_paths(const json::Value& node, const std::string& path,
                      std::map<std::string, json::Value>& paths) {
  paths.emplace(path, json::Value::preserialized(node));
  for (const auto& [key, child] : node.members()) {
    if (key.empty() || key.find('.') != std::string::npos) continue;
    add_report_paths(child, path.empty() ? key : path + "." + key, paths);
  }
}

/// The answers both modes derive from a result the same way: the report
/// and the bytes of its every path, the type breakdown, per-image reports
/// and metrics, and layer sharing (moved out of `result`).
std::shared_ptr<Snapshot> snapshot_of(PipelineResult& result) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->report = pipeline_report_json(result);
  add_report_paths(snapshot->report, "", snapshot->report_paths);
  snapshot->types = json::Value::preserialized(
      type_breakdown_json(result.shard_dedup->by_type));

  std::map<std::string, const registry::Manifest*> manifests_by_repo;
  for (const registry::Manifest& manifest : result.manifests) {
    manifests_by_repo[manifest.repository] = &manifest;
  }
  for (const analyzer::ImageProfile& profile : result.images) {
    const auto it = manifests_by_repo.find(profile.repository);
    if (it == manifests_by_repo.end()) continue;  // delivered images always match
    snapshot->images.emplace(
        profile.repository,
        json::Value::preserialized(
            image_report_json(profile, *it->second, result.sharing)));
    snapshot->repo_metrics.emplace(
        profile.repository,
        RepoMetrics{profile.cis, profile.fis, profile.file_count,
                    profile.layer_count});
  }
  snapshot->sharing = std::move(result.sharing);
  return snapshot;
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions options)
    : options_(std::move(options)),
      server_(
          [this](std::shared_ptr<http::Connection> connection) {
            auto protocol = std::make_unique<wire::FrameProtocol>();
            protocol->on_frame = [this, connection](wire::Frame& frame) {
              return answer(frame, *connection);
            };
            protocol->on_poisoned = [] {
              serve_counter("dockmine_serve_malformed_frames_total").add();
            };
            return protocol;
          },
          options_, "dockmine_serve") {}

ServeDaemon::~ServeDaemon() { stop(); }

std::shared_ptr<const Snapshot> ServeDaemon::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::string ServeDaemon::batch_dir(std::size_t index) const {
  return (std::filesystem::path(options_.state_dir) /
          ("batch-" + std::to_string(index)))
      .string();
}

util::Status ServeDaemon::run_batch(const BatchSpec& spec) {
  const std::size_t index = batch_specs_.size();
  const std::string dir = batch_dir(index);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return util::internal("serve: cannot create batch dir " + dir);

  JobSpec job = options_.job;
  job.repositories = spec.repositories;
  job.seed = spec.seed;
  PipelineOptions pipeline = lease_pipeline_options(job, 0, 1, dir);
  pipeline.cancel = &cancel_ingest_;
  auto run = run_end_to_end(pipeline);
  if (!run.ok()) {
    std::filesystem::remove_all(dir, ec);
    return run.error();
  }
  if (cancel_ingest_.load(std::memory_order_acquire) ||
      run.value().download.repos_canceled != 0) {
    // A canceled pipeline returns a partial result; committing it would
    // serve a corpus no batch run can reproduce. Abort the whole batch.
    std::filesystem::remove_all(dir, ec);
    return util::unavailable("serve: batch canceled by shutdown");
  }
  batch_specs_.push_back(spec);
  batch_downloads_.push_back(run.value().download);
  contributions_.push_back(contribution_of(std::move(run).value(), dir));
  return util::Status::success();
}

util::Result<std::shared_ptr<Snapshot>> ServeDaemon::build_snapshot() {
  auto folded = fold_contributions(contributions_);
  if (!folded.ok()) return folded.error();
  PipelineResult& result = folded.value();

  // fold_contributions leaves download accounting to the caller: the union
  // corpus was downloaded batch by batch, so the union's accounting is the
  // field-wise sum (for a single batch, exactly that batch's stats — which
  // keeps the served pipeline_report_json byte-equal to the batch run's).
  downloader::DownloadStats total{};
  for (const downloader::DownloadStats& d : batch_downloads_) {
    total.attempted += d.attempted;
    total.succeeded += d.succeeded;
    total.failed_auth += d.failed_auth;
    total.failed_no_tag += d.failed_no_tag;
    total.failed_missing += d.failed_missing;
    total.failed_digest += d.failed_digest;
    total.failed_other += d.failed_other;
    total.repos_resumed += d.repos_resumed;
    total.repos_canceled += d.repos_canceled;
    total.layers_fetched += d.layers_fetched;
    total.layers_deduped += d.layers_deduped;
    total.layers_resumed += d.layers_resumed;
    total.bytes_downloaded += d.bytes_downloaded;
  }
  result.download = total;

  auto snapshot = snapshot_of(result);
  snapshot->epoch = batch_specs_.size();
  snapshot->batches = batch_specs_;

  std::vector<std::string> dirs;
  for (const NodeContribution& contribution : contributions_) {
    dirs.push_back(contribution.shard_set_dir);
  }
  auto contents = shard::ShardSetIndex::open(dirs);
  if (!contents.ok()) return contents.error();
  snapshot->contents = std::move(contents).value();
  return snapshot;
}

util::Result<std::shared_ptr<Snapshot>> ServeDaemon::apply_temporal_epoch(
    std::uint32_t epoch) {
  auto advanced = options_.temporal_advance(epoch);
  if (!advanced.ok()) return advanced.error();
  PipelineResult& result = advanced.value();
  if (!result.file_index || !result.shard_dedup) {
    return util::internal("serve: temporal epoch has no resident dedup index");
  }

  auto snapshot = snapshot_of(result);
  snapshot->epoch = epoch;
  snapshot->temporal = true;
  snapshot->resident =
      std::shared_ptr<const dedup::FileDedupIndex>(std::move(result.file_index));
  temporal_applied_ = epoch + 1;
  return snapshot;
}

util::Status ServeDaemon::persist_state() {
  auto doc = json::Value::object();
  if (options_.temporal_advance) {
    // Version 2: a temporal daemon's durable state is just the epoch count
    // — replay calls temporal_advance(0..K) and the hook's determinism
    // reproduces the pre-crash snapshot byte-for-byte.
    doc.set("version", std::uint64_t{2});
    doc.set("temporal", true);
    doc.set("epochs",
            std::uint64_t{temporal_applied_ == 0 ? 0 : temporal_applied_ - 1});
  } else {
    doc.set("version", std::uint64_t{1});
    auto specs = json::Value::array();
    for (const BatchSpec& spec : batch_specs_) {
      specs.push_back(batch_spec_to_json(spec));
    }
    doc.set("batches", std::move(specs));
  }

  const std::filesystem::path path =
      std::filesystem::path(options_.state_dir) / "state.json";
  const std::filesystem::path temp = path.string() + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.is_open() || !(out << doc.dump()) || !out.flush()) {
      return util::internal("serve: cannot write " + temp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) return util::internal("serve: cannot commit " + path.string());
  return util::Status::success();
}

util::Status ServeDaemon::start() {
  if (options_.state_dir.empty()) {
    return util::invalid_argument("serve: state_dir is required");
  }
  if (auto valid = check_job_spec(options_.job); !valid.ok()) return valid;
  std::error_code ec;
  std::filesystem::create_directories(options_.state_dir, ec);
  if (ec) {
    return util::internal("serve: cannot create state_dir " +
                          options_.state_dir);
  }

  std::lock_guard<std::mutex> lock(ingest_mutex_);
  const std::filesystem::path state_path =
      std::filesystem::path(options_.state_dir) / "state.json";
  std::optional<json::Value> state;
  if (std::filesystem::exists(state_path, ec)) {
    std::ifstream in(state_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) {
      return util::internal("serve: cannot read " + state_path.string());
    }
    auto parsed = json::parse(bytes);
    if (!parsed.ok() || !parsed.value().is_object() ||
        !parsed.value()["version"].is_int()) {
      return util::corrupt("serve: malformed state file " +
                           state_path.string());
    }
    state = std::move(parsed).value();
  }

  std::shared_ptr<Snapshot> built_snapshot;
  if (options_.temporal_advance) {
    std::uint32_t last_epoch = 0;
    if (state) {
      // A batch-mode state dir cannot be adopted by a temporal daemon (or
      // vice versa): the replay recipes are incompatible.
      if ((*state)["version"].as_uint() != 2 ||
          !(*state)["temporal"].is_bool() ||
          !(*state)["temporal"].as_bool() || !(*state)["epochs"].is_int() ||
          (*state)["epochs"].as_int() < 0) {
        return util::corrupt("serve: state file is not a temporal v2 state");
      }
      last_epoch = static_cast<std::uint32_t>((*state)["epochs"].as_uint());
    }
    for (std::uint32_t epoch = 0; epoch <= last_epoch; ++epoch) {
      auto applied = apply_temporal_epoch(epoch);
      if (!applied.ok()) return applied.error();
      built_snapshot = std::move(applied).value();
    }
  } else {
    std::vector<BatchSpec> replay;
    if (state) {
      if ((*state)["version"].as_uint() != 1 ||
          !(*state)["batches"].is_array()) {
        return util::corrupt("serve: malformed state file " +
                             state_path.string());
      }
      for (const json::Value& entry : (*state)["batches"].items()) {
        auto spec = batch_spec_from_json(entry);
        if (!spec.ok()) return spec.error();
        replay.push_back(spec.value());
      }
      if (replay.empty()) {
        return util::corrupt("serve: state file lists no batches");
      }
    } else {
      replay.push_back(BatchSpec{options_.job.repositories, options_.job.seed});
    }

    for (const BatchSpec& spec : replay) {
      if (auto ran = run_batch(spec); !ran.ok()) return ran;
    }
    auto built = build_snapshot();
    if (!built.ok()) return built.error();
    built_snapshot = std::move(built).value();
  }
  if (auto persisted = persist_state(); !persisted.ok()) return persisted;
  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mutex_);
    snapshot_ = std::move(built_snapshot);
  }
  obs::Registry::global()
      .gauge("dockmine_serve_epoch")
      .set(static_cast<std::int64_t>(options_.temporal_advance
                                         ? temporal_applied_ - 1
                                         : batch_specs_.size()));

  if (options_.telemetry.enabled) {
    // Continuous telemetry: own the global sampler for this daemon's
    // lifetime (unless some other component already started it) and
    // evaluate alert rules on the sampler thread after every scrape.
    // Latch the uptime baseline now — otherwise the first `query stats`
    // would capture it and every watch frame would report uptime ~0.
    (void)obs::collect();
    obs::TimeSeriesStore& store = obs::TimeSeriesStore::global();
    alerts_.configure(options_.telemetry.rules.empty()
                          ? obs::default_serve_rules()
                          : options_.telemetry.rules);
    alerts_.set_log_path(options_.telemetry.alert_log_path);
    if (!store.sampler_running()) {
      obs::TimeSeriesOptions ts;
      ts.interval_ms = options_.telemetry.sample_interval_ms;
      ts.capacity = options_.telemetry.ring_capacity;
      (void)store.configure(ts);
      telemetry_started_ = store.start_sampler([this](double sampled_at_ms) {
        alerts_.evaluate(obs::TimeSeriesStore::global(), sampled_at_ms);
      });
    }
  }

  return server_.start();
}

void ServeDaemon::stop() {
  cancel_ingest_.store(true, std::memory_order_release);
  server_.stop();
  if (telemetry_started_) {
    obs::TimeSeriesStore::global().stop_sampler();
    telemetry_started_ = false;
  }
}

util::Status ServeDaemon::answer(const wire::Frame& frame,
                                 http::Connection& connection) {
  if (frame.kind != wire::FrameKind::kJson) {
    return util::corrupt("serve: a binary frame is not a request");
  }
  // A well-framed but invalid request gets an error response and the
  // session lives on: framing integrity and request validity fail at
  // different blast radii.
  Response response;
  const bool attribute = options_.telemetry.enabled && obs::enabled();
  const double parse_start = attribute ? util::mono_ms() : 0.0;
  double parse_ms = -1.0;
  auto parsed = json::parse(frame.payload);
  if (!parsed.ok()) {
    serve_counter("dockmine_serve_bad_requests_total").add();
    response.error = "unparseable request: " + parsed.error().to_string();
  } else {
    auto request = request_from_json(parsed.value());
    if (attribute) parse_ms = util::mono_ms() - parse_start;
    if (!request.ok()) {
      serve_counter("dockmine_serve_bad_requests_total").add();
      if (parsed.value().is_object() && parsed.value()["id"].is_int() &&
          parsed.value()["id"].as_int() >= 0) {
        response.id = parsed.value()["id"].as_uint();
      }
      response.error = request.error().to_string();
    } else {
      response = handle_request(request.value());
    }
  }
  if (parse_ms >= 0.0) response.parse_ms = parse_ms;
  return connection.send(wire::encode_frame(
      wire::FrameKind::kJson, response_to_json(response).dump()));
}

Response ServeDaemon::handle_request(const Request& request) {
  const std::size_t label = label_index(request);
  const double start = util::mono_ms();
  Response response;
  response.id = request.id;
  switch (request.kind) {
    case RequestKind::kQuery:
      response = handle_query(request);
      break;
    case RequestKind::kIngest:
    case RequestKind::kIngestEpoch: {
      auto body = request.kind == RequestKind::kIngest
                      ? do_ingest(request)
                      : do_ingest_epoch(request);
      response.epoch = snapshot()->epoch;
      if (body.ok()) {
        response.ok = true;
        response.body = std::move(body).value();
      } else {
        response.error = body.error().to_string();
      }
      break;
    }
    case RequestKind::kShutdown: {
      response.ok = true;
      response.epoch = snapshot()->epoch;
      auto body = json::Value::object();
      body.set("stopping", true);
      response.body = std::move(body);
      shutdown_requested_.store(true, std::memory_order_release);
      break;
    }
  }
  const double elapsed = util::mono_ms() - start;
  RequestInstruments& instruments = instruments_for(label);
  instruments.requests->add();
  instruments.latency->observe(elapsed);
  if (options_.telemetry.enabled && obs::enabled()) {
    response.handle_ms = elapsed;
    note_slow_query(kLabels[label], request, response, elapsed);
  }
  return response;
}

void ServeDaemon::note_slow_query(std::string_view label,
                                  const Request& request,
                                  const Response& response,
                                  double handle_ms) {
  if (handle_ms < options_.telemetry.slowlog_threshold_ms) return;
  SlowQuery entry;
  entry.ts_ms = obs::now_ms();
  entry.q = label;
  entry.id = request.id;
  entry.ms = handle_ms;
  entry.ok = response.ok;
  std::lock_guard<std::mutex> lock(slowlog_mutex_);
  slowlog_.push_back(std::move(entry));
  while (slowlog_.size() > options_.telemetry.slowlog_capacity) {
    slowlog_.pop_front();
    ++slowlog_dropped_;
  }
}

Response ServeDaemon::handle_query(const Request& request) {
  Response response;
  response.id = request.id;
  const std::shared_ptr<const Snapshot> snap = snapshot();
  response.epoch = snap->epoch;

  const auto fail = [&response](const std::string& message) {
    response.ok = false;
    response.error = message;
    return response;
  };
  // An immutable answer was serialized when the snapshot was built: the
  // response takes a reference to its bytes, never a tree to copy.
  const auto answer_with = [&response](const json::Value& preserialized) {
    assert(preserialized.type() == json::Type::kPreserialized);
    response.ok = true;
    response.body = preserialized;
    return response;
  };

  if (request.q == "report") {
    const auto path = snap->report_paths.find(request.path);
    if (path == snap->report_paths.end()) {
      return fail("serve: no such report path: " + request.path);
    }
    return answer_with(path->second);
  }
  if (request.q == "image") {
    const auto image = snap->images.find(request.repository);
    if (image == snap->images.end()) {
      return fail("serve: unknown repository: " + request.repository);
    }
    return answer_with(image->second);
  }
  if (request.q == "layer") {
    const auto info = snap->sharing.lookup(request.key);
    if (!info) return fail("serve: unknown layer key");
    auto body = json::Value::object();
    body.set("key", request.key);
    body.set("references", info->references);
    body.set("cls", info->cls);
    body.set("shared", info->references > 1);
    response.ok = true;
    response.body = std::move(body);
    return response;
  }
  if (request.q == "content") {
    const dedup::ContentEntry* entry = snap->resident
                                           ? snap->resident->find(request.key)
                                           : snap->contents.find(request.key);
    if (entry == nullptr) return fail("serve: unknown content key");
    auto body = json::Value::object();
    body.set("key", request.key);
    body.set("count", entry->count);
    body.set("size", entry->size);
    body.set("multi_layer", entry->multi_layer);
    body.set("type", std::string(filetype::to_string(entry->type)));
    response.ok = true;
    response.body = std::move(body);
    return response;
  }
  if (request.q == "types") return answer_with(snap->types);
  if (request.q == "ecdf") {
    const auto location = ecdf_location(request.name);
    if (!location) return fail("serve: unknown ecdf: " + request.name);
    if (request.quantile < 0.0) {
      const auto whole = snap->report_paths.find(
          "analysis." + location->first + "." + location->second);
      if (whole != snap->report_paths.end()) return answer_with(whole->second);
      response.ok = true;  // a section the report left out reads as null
      return response;
    }
    const json::Value& slice =
        snap->report["analysis"][location->first][location->second];
    const int index = grid_index(request.quantile);
    if (index < 0) {
      return fail("serve: quantile is not on the report grid");
    }
    if (slice["samples"].as_uint() == 0) {
      return fail("serve: ecdf has no samples: " + request.name);
    }
    auto body = json::Value::object();
    body.set("name", request.name);
    body.set("quantile", kQuantileGrid[index]);
    body.set("samples", slice["samples"].as_uint());
    body.set("value", slice["quantiles"].at(static_cast<std::size_t>(index)));
    response.ok = true;
    response.body = std::move(body);
    return response;
  }
  if (request.q == "status") {
    auto body = json::Value::object();
    body.set("epoch", snap->epoch);
    if (snap->temporal) {
      body.set("temporal", true);
    } else {
      auto specs = json::Value::array();
      for (const BatchSpec& spec : snap->batches) {
        specs.push_back(batch_spec_to_json(spec));
      }
      body.set("batches", std::move(specs));
    }
    body.set("images", static_cast<std::uint64_t>(snap->images.size()));
    body.set("distinct_layers", snap->sharing.distinct_layers());
    body.set("distinct_contents",
             snap->resident
                 ? static_cast<std::uint64_t>(snap->resident->distinct_contents())
                 : snap->contents.distinct_contents());
    if (options_.telemetry.enabled) {
      auto alerts = json::Value::object();
      alerts.set("firing", static_cast<std::uint64_t>(alerts_.firing_count()));
      alerts.set("rules", alerts_.to_json());
      body.set("alerts", std::move(alerts));
    }
    response.ok = true;
    response.body = std::move(body);
    return response;
  }
  if (request.q == "top") {
    // Map order is repository-name ascending, so a stable sort by value
    // descending leaves ties name-ordered — deterministic rows.
    std::vector<std::pair<std::string_view, std::uint64_t>> rows;
    rows.reserve(snap->repo_metrics.size());
    for (const auto& [repo, metrics] : snap->repo_metrics) {
      rows.emplace_back(repo, metric_value(metrics, request.metric));
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    if (rows.size() > request.n) rows.resize(request.n);
    auto body = json::Value::object();
    body.set("metric", request.metric);
    body.set("n", request.n);
    auto out = json::Value::array();
    for (const auto& [repo, value] : rows) {
      auto row = json::Value::object();
      row.set("repository", std::string(repo));
      row.set("value", value);
      out.push_back(std::move(row));
    }
    body.set("rows", std::move(out));
    response.ok = true;
    response.body = std::move(body);
    return response;
  }
  if (request.q == "repos") {
    RepoMetrics total;
    std::uint64_t count = 0;
    for (const auto& [repo, metrics] : snap->repo_metrics) {
      if (repo.compare(0, request.prefix.size(), request.prefix) != 0) {
        continue;
      }
      ++count;
      total.cis += metrics.cis;
      total.fis += metrics.fis;
      total.files += metrics.files;
      total.layers += metrics.layers;
    }
    auto body = json::Value::object();
    body.set("prefix", request.prefix);
    body.set("count", count);
    body.set("total_cis", total.cis);
    body.set("total_fis", total.fis);
    body.set("total_files", total.files);
    body.set("total_layers", total.layers);
    response.ok = true;
    response.body = std::move(body);
    return response;
  }
  if (request.q == "stats") {
    response.ok = true;
    response.body = obs::to_json(obs::collect());
    return response;
  }
  if (request.q == "metrics") {
    const obs::TimeSeriesStore& store = obs::TimeSeriesStore::global();
    const double window = request.window_ms > 0
                              ? static_cast<double>(request.window_ms)
                              : 60000.0;
    if (request.op == "quantile") {
      const double q = request.quantile;
      if (!(std::fabs(q - 0.50) < 1e-9 || std::fabs(q - 0.90) < 1e-9 ||
            std::fabs(q - 0.99) < 1e-9)) {
        return fail("serve: metrics quantile must be 0.5, 0.9, or 0.99");
      }
    }
    auto series_out = json::Value::array();
    for (const obs::TimeSeriesStore::SeriesInfo& info :
         store.series(request.name)) {
      auto row = json::Value::object();
      row.set("name", info.name);
      row.set("kind", std::string(obs::to_string(info.kind)));
      if (request.op == "rate") {
        const std::optional<double> rate =
            store.rate_per_s(info.name, window);
        if (!rate) continue;  // gauge / fewer than two samples in window
        row.set("rate_per_s", *rate);
      } else if (request.op == "quantile") {
        const std::optional<double> value =
            store.quantile(info.name, request.quantile, window);
        if (!value) continue;  // not a histogram / empty window
        row.set("quantile", request.quantile);
        row.set("value", *value);
      } else {
        std::vector<obs::TsSample> picked;
        const std::optional<obs::TsSample> newest = store.latest(info.name);
        if (newest) {
          picked = request.range_ms > 0
                       ? store.range(info.name,
                                     newest->ts_ms -
                                         static_cast<double>(request.range_ms),
                                     newest->ts_ms)
                       : std::vector<obs::TsSample>{*newest};
        }
        auto samples = json::Value::array();
        for (const obs::TsSample& sample : picked) {
          auto point = json::Value::object();
          point.set("ts_ms", sample.ts_ms);
          point.set("value", sample.value);
          if (info.kind != obs::SeriesKind::kGauge) {
            point.set("delta", sample.delta);
          }
          if (info.kind == obs::SeriesKind::kHistogram) {
            point.set("sum", sample.sum);
            point.set("p50", sample.p50);
            point.set("p90", sample.p90);
            point.set("p99", sample.p99);
          }
          samples.push_back(std::move(point));
        }
        row.set("samples", std::move(samples));
      }
      series_out.push_back(std::move(row));
    }
    auto body = json::Value::object();
    body.set("series", std::move(series_out));
    body.set("samples_taken", store.samples_taken());
    response.ok = true;
    response.body = std::move(body);
    return response;
  }
  if (request.q == "trace-tail") {
    const obs::TraceJournal& journal = obs::TraceJournal::global();
    const std::uint64_t n = request.n > 0 ? request.n : 64;
    const std::vector<obs::TraceEvent> events = journal.snapshot();
    const std::size_t begin =
        events.size() > n ? events.size() - static_cast<std::size_t>(n) : 0;
    auto out = json::Value::array();
    for (std::size_t i = begin; i < events.size(); ++i) {
      const obs::TraceEvent& event = events[i];
      auto row = json::Value::object();
      row.set("name", event.name);
      row.set("kind", std::string(obs::to_string(event.kind)));
      row.set("trace_id", event.trace_id);
      row.set("span_id", event.span_id);
      row.set("parent_id", event.parent_id);
      row.set("node", std::uint64_t{event.node});
      row.set("lane", std::uint64_t{event.lane});
      row.set("start_ms", event.start_ms);
      row.set("end_ms", event.end_ms);
      row.set("cpu_ms", event.cpu_ms);
      out.push_back(std::move(row));
    }
    auto body = json::Value::object();
    body.set("events", std::move(out));
    body.set("recorded", journal.recorded());
    body.set("dropped", journal.dropped());
    response.ok = true;
    response.body = std::move(body);
    return response;
  }
  if (request.q == "slowlog") {
    auto out = json::Value::array();
    std::uint64_t dropped = 0;
    {
      std::lock_guard<std::mutex> lock(slowlog_mutex_);
      for (const SlowQuery& entry : slowlog_) {
        auto row = json::Value::object();
        row.set("ts_ms", entry.ts_ms);
        row.set("q", entry.q);
        row.set("id", entry.id);
        row.set("ms", entry.ms);
        row.set("ok", entry.ok);
        out.push_back(std::move(row));
      }
      dropped = slowlog_dropped_;
    }
    auto body = json::Value::object();
    body.set("entries", std::move(out));
    body.set("dropped", dropped);
    body.set("threshold_ms", options_.telemetry.slowlog_threshold_ms);
    response.ok = true;
    response.body = std::move(body);
    return response;
  }
  return fail("serve: unknown query: " + request.q);  // unreachable (parser)
}

util::Result<json::Value> ServeDaemon::do_ingest(const Request& request) {
  if (cancel_ingest_.load(std::memory_order_acquire)) {
    return util::unavailable("serve: shutting down");
  }
  if (options_.temporal_advance) {
    return util::invalid_argument(
        "serve: batch ingest unavailable in temporal mode (use ingest-epoch)");
  }
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  if (options_.on_ingest_begin) options_.on_ingest_begin();
  if (cancel_ingest_.load(std::memory_order_acquire)) {
    return util::unavailable("serve: shutting down");
  }

  const BatchSpec spec{request.repositories, request.seed};
  if (auto ran = run_batch(spec); !ran.ok()) {
    serve_counter("dockmine_serve_ingest_aborts_total").add();
    return ran.error();
  }
  const auto rollback = [this] {
    std::error_code ec;
    std::filesystem::remove_all(batch_dir(batch_specs_.size() - 1), ec);
    batch_specs_.pop_back();
    batch_downloads_.pop_back();
    contributions_.pop_back();
    serve_counter("dockmine_serve_ingest_aborts_total").add();
  };
  auto built = build_snapshot();
  if (!built.ok()) {
    rollback();
    return built.error();
  }
  // Commit point: the durable batch list first (temp + rename), then the
  // in-memory publish. A crash between the two re-serves this epoch after
  // replay; a crash before the rename never serves it at all.
  if (auto persisted = persist_state(); !persisted.ok()) {
    rollback();
    return persisted.error();
  }
  std::shared_ptr<Snapshot> snapshot = std::move(built).value();
  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mutex_);
    snapshot_ = snapshot;
  }
  serve_counter("dockmine_serve_ingest_commits_total").add();
  obs::Registry::global()
      .gauge("dockmine_serve_epoch")
      .set(static_cast<std::int64_t>(snapshot->epoch));

  auto body = json::Value::object();
  body.set("epoch", snapshot->epoch);
  body.set("batches", static_cast<std::uint64_t>(snapshot->batches.size()));
  body.set("images", static_cast<std::uint64_t>(snapshot->images.size()));
  return body;
}

util::Result<json::Value> ServeDaemon::do_ingest_epoch(const Request&) {
  if (cancel_ingest_.load(std::memory_order_acquire)) {
    return util::unavailable("serve: shutting down");
  }
  if (!options_.temporal_advance) {
    return util::invalid_argument("serve: ingest-epoch requires temporal mode");
  }
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  if (options_.on_ingest_begin) options_.on_ingest_begin();
  if (cancel_ingest_.load(std::memory_order_acquire)) {
    return util::unavailable("serve: shutting down");
  }

  const std::uint32_t epoch = temporal_applied_;
  auto built = apply_temporal_epoch(epoch);
  if (!built.ok()) {
    serve_counter("dockmine_serve_ingest_aborts_total").add();
    return built.error();
  }
  // Same commit order as batch ingest: durable epoch count first, then the
  // in-memory publish. A persist failure leaves the published snapshot one
  // epoch behind the temporal stack — the next restart replays only the
  // persisted prefix, which the hook's determinism reproduces exactly.
  if (auto persisted = persist_state(); !persisted.ok()) {
    serve_counter("dockmine_serve_ingest_aborts_total").add();
    return persisted.error();
  }
  std::shared_ptr<Snapshot> snapshot = std::move(built).value();
  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mutex_);
    snapshot_ = snapshot;
  }
  serve_counter("dockmine_serve_ingest_commits_total").add();
  obs::Registry::global()
      .gauge("dockmine_serve_epoch")
      .set(static_cast<std::int64_t>(epoch));

  auto body = json::Value::object();
  body.set("epoch", snapshot->epoch);
  body.set("images", static_cast<std::uint64_t>(snapshot->images.size()));
  body.set("distinct_layers", snapshot->sharing.distinct_layers());
  return body;
}

// ---- client ------------------------------------------------------------

util::Result<Client> Client::connect(std::uint16_t port,
                                     std::uint32_t timeout_ms) {
  auto connected = http::Socket::connect_loopback(port);
  if (!connected.ok()) return connected.error();
  Client client;
  client.socket_ = std::move(connected).value();
  if (auto set = client.socket_.set_timeout_ms(timeout_ms); !set.ok()) {
    return set.error();
  }
  return client;
}

util::Result<Response> Client::call(const Request& request) {
  if (auto sent = socket_.write_all(wire::encode_frame(
          wire::FrameKind::kJson, request_to_json(request).dump()));
      !sent.ok()) {
    return sent.error();
  }
  wire::Frame frame;
  for (;;) {
    auto polled = frames_.poll(frame);
    if (!polled.ok()) return polled.error();
    if (polled.value()) {
      if (frame.kind != wire::FrameKind::kJson) {
        return util::corrupt("serve client: unexpected binary frame");
      }
      auto parsed = json::parse(frame.payload);
      if (!parsed.ok()) return parsed.error();
      return response_from_json(std::move(parsed).value());
    }
    auto chunk = socket_.read_some();
    if (!chunk.ok()) return chunk.error();
    if (chunk.value().empty()) {
      return util::reset("serve client: connection closed");
    }
    frames_.feed(chunk.value());
  }
}

}  // namespace dockmine::core::serve
