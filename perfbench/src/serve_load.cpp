// serve_read and serve_ingest: an in-process serve::ServeDaemon over one
// batch, driven through serve::Client connections in closed loops.
//
//   serve_read    2 reader connections run the read mix.
//   serve_ingest  1 writer connection commits ingest batches back to back;
//                 1 reader connection runs the read mix until the last
//                 commit.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <iostream>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "dockmine/core/multi_node.h"
#include "dockmine/core/serve.h"
#include "dockmine/core/wire.h"
#include "dockmine/json/json.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/shard/lookup.h"
#include "dockmine/synth/generator.h"
#include "dockmine/util/rng.h"
#include "layers.h"

namespace perfbench {

namespace {

namespace dm = dockmine;
namespace serve = dockmine::core::serve;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kServeRepositories = 100;
constexpr std::uint64_t kIngestRepositories = 25;
constexpr std::size_t kMixLength = 2048;  ///< requests per connection, cycled
/// Seconds of one ingest at the baseline. serve_ingest commits a fixed
/// number of batches, --seconds / this, so every run measures the same
/// ingests at the same epochs: each ingest re-folds every batch committed
/// before it, so a run cut by time would measure later, heavier ingests
/// the faster the program is.
constexpr double kBaselineIngestSeconds = 0.8;

/// Median input sizes of the default scales (from the model; see NOTES.md).
const InputSize kServeTarget{82.7, 21405, 36.8, 4.2};
const InputSize kIngestTarget{22.7, 5178, 9.9, 2.8};

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a * 0x9e3779b97f4a7c15ULL + b;
  return dm::util::splitmix64(state);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- the read mix --------------------------------------------------------

struct MixEntry {
  serve::Request request;
  bool deterministic = true;  ///< answer is a pure function of the epoch
};

/// Zipf(1) draw over ranks 0..n-1: popular keys first.
class Zipf {
 public:
  explicit Zipf(std::size_t n) {
    double sum = 0.0;
    cdf_.reserve(n);
    for (std::size_t rank = 0; rank < n; ++rank) {
      sum += 1.0 / static_cast<double>(rank + 1);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(dm::util::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct KeyPools {
  std::vector<std::string> repositories;  ///< by pull count, descending
  std::vector<std::uint64_t> layers;      ///< by references, descending
  std::vector<std::uint64_t> contents;    ///< by repeat count, descending
  std::vector<std::string> prefixes;
};

KeyPools key_pools(const serve::Snapshot& snapshot,
                   const dm::core::JobSpec& job) {
  KeyPools pools;
  // Popularity of a repository is its pull count in the generated hub the
  // daemon's batch was built from (the paper's Fig. 8 skew).
  const dm::core::PipelineOptions options =
      dm::core::lease_pipeline_options(job, 0, 1, "");
  const dm::synth::HubModel hub(options.calibration, options.scale);
  std::unordered_map<std::string, std::uint64_t> pulls;
  for (const auto& repo : hub.repositories()) pulls[repo.name] = repo.pull_count;
  for (const auto& [name, report] : snapshot.images) {
    pools.repositories.push_back(name);
  }
  std::stable_sort(pools.repositories.begin(), pools.repositories.end(),
                   [&pulls](const std::string& a, const std::string& b) {
                     return pulls[a] > pulls[b];
                   });
  for (const auto& top : snapshot.sharing.top(snapshot.sharing.distinct_layers())) {
    pools.layers.push_back(top.layer_key);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> contents;
  snapshot.contents.for_each(
      [&contents](std::uint64_t key, const dm::dedup::ContentEntry& entry) {
        contents.emplace_back(entry.count, key);
      });
  std::stable_sort(contents.begin(), contents.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [count, key] : contents) pools.contents.push_back(key);
  pools.prefixes = {"", "library/"};
  for (std::size_t i = 0; i < pools.repositories.size() && i < 4; ++i) {
    const std::string& name = pools.repositories[i];
    const std::size_t slash = name.find('/');
    pools.prefixes.push_back(name.substr(0, slash == std::string::npos ? 1 : slash + 1));
  }
  return pools;
}

/// About half point lookups (image, layer, content; Zipf keys) and half the
/// aggregate kinds.
std::vector<MixEntry> read_mix(const KeyPools& pools, std::uint64_t seed,
                               std::size_t length) {
  static const char* kReportPaths[] = {"download", "analysis.dedup",
                                       "analysis.sharing", "analysis.images",
                                       "analysis.layers.cls",
                                       "analysis.dedup.repeat_counts"};
  static const char* kEcdfNames[] = {
      "images.cis",           "images.fis",      "images.layers_per_image",
      "images.files_per_image", "layers.cls",    "layers.fls",
      "layers.files_per_layer", "dedup.repeat_counts"};
  static const double kQuantiles[] = {-1.0, 0.5, 0.9, 0.99};
  static const char* kTopMetrics[] = {"cis", "fis", "files", "layers"};
  static const char* kAggregates[] = {"report", "ecdf",   "types", "top",
                                      "repos",  "status", "stats"};

  dm::util::Rng rng(seed);
  const Zipf repo_zipf(std::max<std::size_t>(1, pools.repositories.size()));
  const Zipf layer_zipf(std::max<std::size_t>(1, pools.layers.size()));
  const Zipf content_zipf(std::max<std::size_t>(1, pools.contents.size()));
  std::vector<MixEntry> mix;
  mix.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    MixEntry entry;
    serve::Request& r = entry.request;
    r.kind = serve::RequestKind::kQuery;
    const std::uint64_t pick = rng.uniform(6);
    if (pick == 0 && !pools.repositories.empty()) {
      r.q = "image";
      r.repository = pools.repositories[repo_zipf.draw(rng)];
    } else if (pick == 1 && !pools.layers.empty()) {
      r.q = "layer";
      r.key = pools.layers[layer_zipf.draw(rng)];
    } else if (pick == 2 && !pools.contents.empty()) {
      r.q = "content";
      r.key = pools.contents[content_zipf.draw(rng)];
    } else {
      r.q = kAggregates[rng.uniform(std::size(kAggregates))];
      if (r.q == "report") {
        r.path = kReportPaths[rng.uniform(std::size(kReportPaths))];
      } else if (r.q == "ecdf") {
        r.name = kEcdfNames[rng.uniform(std::size(kEcdfNames))];
        r.quantile = kQuantiles[rng.uniform(std::size(kQuantiles))];
      } else if (r.q == "top") {
        r.metric = kTopMetrics[rng.uniform(std::size(kTopMetrics))];
        r.n = 5 + rng.uniform(16);
      } else if (r.q == "repos") {
        r.prefix = pools.prefixes[rng.uniform(pools.prefixes.size())];
      }
      entry.deterministic = r.q != "stats";
    }
    mix.push_back(std::move(entry));
  }
  return mix;
}

// ---- reader connections -------------------------------------------------

/// Expected answers: the first answer seen for (mix position, epoch); every
/// later answer for the same pair must be byte-equal.
class AnswerBook {
 public:
  explicit AnswerBook(std::size_t length) : answers_(length) {}
  bool agrees(std::size_t index, std::uint64_t epoch, const std::string& body) {
    const std::size_t hash = std::hash<std::string>{}(body);
    auto [it, inserted] = answers_[index].emplace(epoch, hash);
    return inserted || it->second == hash;
  }

 private:
  std::vector<std::unordered_map<std::uint64_t, std::size_t>> answers_;
};

/// Seconds since the first call (made before any client thread starts).
double clock_s(Clock::time_point at) {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(at - origin).count();
}

/// One completed read, 12 bytes: the benchmark's own sample storage must
/// not move peak_rss_mb with the read rate.
struct Sample {
  float ms = 0.0f;
  float end_s = 0.0f;       ///< clock_s() at completion
  std::uint32_t index = 0;  ///< mix position
};

/// One closed-loop reader. Records every completed read; counts checks.
struct Reader {
  std::vector<MixEntry> mix;
  AnswerBook book{kMixLength};
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t last_epoch = 0;
  std::uint64_t next_id = 1;
  std::size_t cursor = 0;
  std::string first_failure;

  void note_failure(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }

  /// Issue the next read; returns false when the connection failed.
  /// `min_epoch`/`max_epoch` bound the epoch the answer may be stamped with.
  bool step(serve::Client& client, std::uint64_t min_epoch,
            const std::function<std::uint64_t()>& max_epoch, SpanLog* log,
            serve::Response* keep = nullptr) {
    const std::size_t index = cursor++ % mix.size();
    serve::Request request = mix[index].request;
    request.id = next_id++;
    const double span_start = log != nullptr ? log->now_ms() : 0.0;
    const auto start = Clock::now();
    auto response = client.call(request);
    const auto end = Clock::now();
    ++attempted;
    if (log != nullptr) {
      log->record("serve." + request.q, span_start, log->now_ms(), 0, request.id);
    }
    if (!response.ok()) {
      note_failure("read transport: " + response.error().to_string());
      return false;
    }
    const serve::Response& r = response.value();
    const std::uint64_t upper = max_epoch();
    if (!r.ok) {
      note_failure("read " + request.q + " answered an error: " + r.error);
    } else if (r.id != request.id || r.epoch < std::max(min_epoch, last_epoch) ||
               r.epoch > upper) {
      note_failure("read " + request.q + " stamped epoch " +
                   std::to_string(r.epoch) + " outside [" +
                   std::to_string(std::max(min_epoch, last_epoch)) + ", " +
                   std::to_string(upper) + "]");
    } else if (mix[index].deterministic &&
               !book.agrees(index, r.epoch, r.body.dump())) {
      note_failure("read " + request.q + " answer changed within epoch " +
                   std::to_string(r.epoch));
    } else {
      last_epoch = r.epoch;
      samples.push_back(Sample{static_cast<float>(ms_between(start, end)),
                               static_cast<float>(clock_s(end)),
                               static_cast<std::uint32_t>(index)});
    }
    if (keep != nullptr) *keep = r;
    return true;
  }
};

struct ReadStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double qps = 0.0;
  std::uint64_t reads = 0;
};

/// Read latency and rate as medians over fixed windows of the measured
/// interval, so a burst of interference (CPU steal on a shared host)
/// moves a few windows instead of the whole figure.
ReadStats read_stats(const std::vector<const Reader*>& readers,
                     Clock::time_point start, double seconds) {
  constexpr double kWindowSeconds = 0.5;
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindowSeconds));
  std::vector<std::vector<double>> by_window(windows);
  ReadStats stats;
  for (const Reader* reader : readers) {
    for (const Sample& s : reader->samples) {
      ++stats.reads;
      const double at = s.end_s - clock_s(start);
      if (at < 0.0) continue;
      const auto w = static_cast<std::size_t>(at / kWindowSeconds);
      if (w < windows) by_window[w].push_back(s.ms);
    }
  }
  std::vector<double> p50, p90, rate;
  for (const auto& window : by_window) {
    if (window.empty()) continue;
    p50.push_back(quantile(window, 0.5));
    p90.push_back(quantile(window, 0.9));
    rate.push_back(static_cast<double>(window.size()) / kWindowSeconds);
  }
  stats.p50_ms = median(p50);
  stats.p90_ms = median(p90);
  stats.qps = median(rate);
  return stats;
}

void absorb(Checks& checks, const Reader& reader) {
  checks.attempt(reader.attempted);
  for (std::uint64_t i = 0; i < reader.failed; ++i) {
    checks.fail(reader.first_failure);
  }
}

// ---- daemon set-up ---------------------------------------------------------

struct Daemon {
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::string state_dir;

  ~Daemon() { reset(); }
  void reset() {
    if (daemon) daemon->stop();
    daemon.reset();
    if (!state_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(state_dir, ec);
    }
  }
};

/// Start a daemon over `job`; returns start() wall seconds, or < 0.
double start_daemon(Daemon& out, const dm::core::JobSpec& job,
                    const std::string& state_dir, bool telemetry) {
  out.reset();
  serve::ServeOptions options;
  options.job = job;
  options.state_dir = state_dir;
  options.telemetry.enabled = telemetry;
  out.state_dir = state_dir;
  out.daemon = std::make_unique<serve::ServeDaemon>(std::move(options));
  const auto start = Clock::now();
  auto started = out.daemon->start();
  const double seconds = seconds_since(start);
  if (!started.ok()) {
    std::cerr << "perfbench: daemon start failed: "
              << started.error().to_string() << "\n";
    return -1.0;
  }
  return seconds;
}

// ---- phases ------------------------------------------------------------------

/// `connections` readers over one daemon for `seconds` (serve_read shape).
struct ReadPhase {
  std::vector<std::unique_ptr<Reader>> readers;
  Clock::time_point start;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  bool connected = true;
};

ReadPhase run_read_phase(std::uint16_t port,
                         const std::vector<std::vector<MixEntry>>& mixes,
                         std::uint64_t epoch, double seconds, SpanLog* log,
                         bool warm_up) {
  ReadPhase phase;
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (const auto& mix : mixes) {
    phase.readers.push_back(std::make_unique<Reader>());
    phase.readers.back()->mix = mix;
  }
  const auto max_epoch = [epoch] { return epoch; };
  std::atomic<bool> connected{true};
  for (auto& reader_ptr : phase.readers) {
    Reader* reader = reader_ptr.get();
    threads.emplace_back([&, reader] {
      auto client = serve::Client::connect(port);
      if (!client.ok()) {
        connected = false;
        ready.fetch_add(1);
        return;
      }
      if (warm_up) {
        // One pass over the mix: fills the answer book, warms caches.
        for (std::size_t i = 0; i < reader->mix.size(); ++i) {
          if (!reader->step(client.value(), epoch, max_epoch, nullptr)) break;
        }
        reader->samples.clear();
        reader->attempted = 0;
        reader->failed = 0;
      }
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        if (!reader->step(client.value(), epoch, max_epoch, log)) break;
      }
    });
  }
  while (ready.load() < static_cast<int>(threads.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double cpu0 = process_cpu_seconds();
  phase.start = Clock::now();
  go = true;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& thread : threads) thread.join();
  phase.seconds = seconds_since(phase.start);
  phase.cpu_seconds = process_cpu_seconds() - cpu0;
  phase.connected = connected.load();
  return phase;
}

std::vector<const Reader*> views(const ReadPhase& phase) {
  std::vector<const Reader*> out;
  for (const auto& r : phase.readers) out.push_back(r.get());
  return out;
}

ReadStats read_stats(const ReadPhase& phase) {
  return read_stats(views(phase), phase.start, phase.seconds);
}

/// serve_ingest shape: one writer committing every batch of `batch_seeds`
/// back to back, one reader running the mix until the last commit.
struct IngestPhase {
  std::unique_ptr<Reader> reader;
  std::vector<double> ingest_ms;
  std::vector<std::string> reports;  ///< served full report after each commit
  std::uint64_t ingests_attempted = 0;
  std::uint64_t ingests_failed = 0;
  std::string first_failure;
  Clock::time_point start;  ///< the writer's first ingest
  double seconds = 0.0;
  bool connected = true;
};

ReadStats read_stats(const IngestPhase& phase) {
  return read_stats({phase.reader.get()}, phase.start, phase.seconds);
}

IngestPhase run_ingest_phase(std::uint16_t port, std::vector<MixEntry> mix,
                             std::uint64_t start_epoch,
                             const std::vector<std::uint64_t>& batch_seeds,
                             std::uint64_t batch_repositories, SpanLog* log,
                             bool keep_reports) {
  IngestPhase phase;
  phase.reader = std::make_unique<Reader>();
  phase.reader->mix = std::move(mix);
  std::atomic<std::uint64_t> sent{0};  // ingests sent so far
  std::atomic<bool> writer_done{false};
  std::atomic<bool> reader_ready{false};

  std::thread reader_thread([&] {
    auto client = serve::Client::connect(port);
    if (!client.ok()) {
      phase.connected = false;
      reader_ready = true;
      return;
    }
    const auto max_epoch = [&] { return start_epoch + sent.load(); };
    // Warm the answer book at the start epoch before the writer begins.
    for (std::size_t i = 0; i < phase.reader->mix.size(); ++i) {
      if (!phase.reader->step(client.value(), start_epoch, max_epoch, nullptr)) {
        break;
      }
    }
    phase.reader->samples.clear();
    phase.reader->attempted = 0;
    phase.reader->failed = 0;
    reader_ready = true;
    while (!writer_done.load(std::memory_order_relaxed)) {
      if (!phase.reader->step(client.value(), start_epoch, max_epoch, log)) break;
    }
  });
  while (!reader_ready.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  auto writer = serve::Client::connect(port);
  if (!writer.ok()) {
    phase.connected = false;
  } else {
    (void)writer.value().set_timeout_ms(600000);
    phase.start = Clock::now();
    for (std::size_t i = 0; i < batch_seeds.size(); ++i) {
      serve::Request ingest;
      ingest.kind = serve::RequestKind::kIngest;
      ingest.id = i + 1;
      ingest.repositories = batch_repositories;
      ingest.seed = batch_seeds[i];
      sent.fetch_add(1);
      const double span_start = log != nullptr ? log->now_ms() : 0.0;
      const auto t0 = Clock::now();
      auto response = writer.value().call(ingest);
      const auto t1 = Clock::now();
      if (log != nullptr) {
        log->record("serve.ingest", span_start, log->now_ms(), 0, ingest.id + (1ull << 32));
      }
      ++phase.ingests_attempted;
      const std::uint64_t want = start_epoch + i + 1;
      if (!response.ok() || !response.value().ok ||
          response.value().epoch != want) {
        ++phase.ingests_failed;
        if (phase.first_failure.empty()) {
          phase.first_failure =
              !response.ok() ? response.error().to_string()
              : !response.value().ok
                  ? response.value().error
                  : "ingest committed epoch " +
                        std::to_string(response.value().epoch) + ", want " +
                        std::to_string(want);
        }
        if (!response.ok()) break;
        continue;
      }
      phase.ingest_ms.push_back(ms_between(t0, t1));
      if (keep_reports) {
        serve::Request report;
        report.q = "report";
        report.id = (1ull << 40) + i;
        auto answer = writer.value().call(report);
        phase.reports.push_back(answer.ok() && answer.value().ok
                                    ? answer.value().body.dump()
                                    : std::string());
      }
    }
  }
  phase.seconds = seconds_since(phase.start);
  writer_done = true;
  reader_thread.join();
  return phase;
}

void absorb(Checks& checks, const IngestPhase& phase) {
  absorb(checks, *phase.reader);
  checks.attempt(phase.ingests_attempted);
  for (std::uint64_t i = 0; i < phase.ingests_failed; ++i) {
    checks.fail("ingest: " + phase.first_failure);
  }
}

// ---- traced-run pieces -------------------------------------------------------

/// Per-kind medians, tail, response size and codec costs from a traced
/// read phase.
void serve_layer_metrics_from(const ReadPhase& traced, const ReadPhase& off,
                              Metrics& metrics) {
  std::unordered_map<std::string, std::vector<double>> by_kind;
  std::vector<double> all;
  for (const auto& reader : traced.readers) {
    for (const Sample& s : reader->samples) {
      const serve::Request& request = reader->mix[s.index].request;
      by_kind[request.q].push_back(s.ms * 1e3);
      all.push_back(s.ms);
    }
  }
  for (const auto& [name, unit] : serve_layer_metrics()) {
    const std::string prefix = "serve.";
    const std::string suffix = ".p50_us";
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      const std::string kind =
          name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
      metrics.set(name, median(by_kind[kind]), unit);
    }
  }
  metrics.set("serve.read_p90_ms", quantile(all, 0.9), "ms");
  metrics.set("serve.read_p99_ms", quantile(all, 0.99), "ms");
  metrics.set("serve.read_p999_ms", quantile(all, 0.999), "ms");
  metrics.set("serve.read_samples", static_cast<double>(all.size()), "count");
  metrics.set("serve.read_qps", read_stats(off).qps, "1/s");
  metrics.set("serve.cpu_us_per_req",
              all.empty() ? 0.0 : traced.cpu_seconds * 1e6 / static_cast<double>(all.size()),
              "us");
  const ReadStats off_stats = read_stats(off);
  const double traced_p50 = quantile(all, 0.5);
  metrics.set("trace.read_overhead_share",
              off_stats.p50_ms > 0.0 ? traced_p50 / off_stats.p50_ms - 1.0 : 0.0,
              "fraction");
}

/// Codec costs per answer on recorded payloads — the requests of the mix
/// and the answers the daemon gave them — taken apart the way a session
/// handles them: request/response codecs (to and from json::Value), text
/// dump and parse, frame encode and decode. The round trip is checked.
void codec_metrics(const std::vector<serve::Request>& requests,
                   const std::vector<serve::Response>& responses,
                   Metrics& metrics, Checks& checks) {
  using dm::core::wire::FrameKind;
  std::vector<dm::json::Value> request_docs;
  std::vector<dm::json::Value> response_docs;
  std::vector<std::string> payloads;
  std::vector<std::string> frames;
  std::vector<dm::json::Value> parsed;
  const auto t0 = Clock::now();
  for (const auto& request : requests) {
    request_docs.push_back(serve::request_to_json(request));
  }
  for (const auto& response : responses) {
    response_docs.push_back(serve::response_to_json(response));
  }
  const auto t1 = Clock::now();
  for (const auto& doc : response_docs) payloads.push_back(doc.dump());
  const auto t2 = Clock::now();
  for (const auto& payload : payloads) {
    frames.push_back(dm::core::wire::encode_frame(FrameKind::kJson, payload));
  }
  const auto t3 = Clock::now();
  std::size_t decoded = 0;
  for (const auto& frame : frames) {
    dm::core::wire::FrameBuffer buffer;
    buffer.feed(frame);
    dm::core::wire::Frame out;
    auto polled = buffer.poll(out);
    if (polled.ok() && polled.value() && out.payload == payloads[decoded]) {
      ++decoded;
    }
  }
  const auto t4 = Clock::now();
  for (const auto& payload : payloads) {
    auto value = dm::json::parse(payload);
    if (value.ok()) parsed.push_back(std::move(value).value());
  }
  const auto t5 = Clock::now();
  std::size_t codec_ok = 0;
  for (const auto& doc : parsed) {
    codec_ok += serve::response_from_json(doc).ok() ? 1 : 0;
  }
  for (const auto& doc : request_docs) {
    codec_ok += serve::request_from_json(doc).ok() ? 1 : 0;
  }
  const auto t6 = Clock::now();
  checks.check(decoded == payloads.size() && parsed.size() == payloads.size() &&
                   codec_ok == requests.size() + responses.size(),
               "recorded payloads do not round-trip through the codecs");

  double bytes = 0.0;
  for (const auto& payload : payloads) bytes += static_cast<double>(payload.size());
  const double n = std::max<double>(1.0, static_cast<double>(responses.size()));
  const auto us = [n](Clock::time_point a, Clock::time_point b) {
    return ms_between(a, b) * 1e3 / n;
  };
  metrics.set("serve.response_bytes", bytes / n, "bytes");
  metrics.set("serve.codec_us", us(t0, t1) + us(t5, t6), "us");
  metrics.set("json.dump_us", us(t1, t2), "us");
  metrics.set("wire.encode_us", us(t2, t3), "us");
  metrics.set("wire.decode_us", us(t3, t4), "us");
  metrics.set("json.parse_us", us(t4, t5), "us");
}

/// Replay the daemon's ingests layer by layer: materialize, run_end_to_end,
/// fold_contributions, ShardSetIndex::open and the snapshot serializers.
/// Each folded report must equal the one the daemon served at that epoch.
dm::util::Status trace_ingests(const dm::core::JobSpec& initial,
                               const std::vector<std::uint64_t>& batch_seeds,
                               std::uint64_t batch_repositories,
                               const IngestPhase& served,
                               const std::string& work_dir, SpanLog& log,
                               Metrics& metrics, Checks& checks) {
  std::vector<dm::core::NodeContribution> contributions;
  std::vector<std::string> dirs;
  std::vector<double> materialize_s, pipeline_s, fold_ms, open_ms, snapshot_ms,
      unattributed_ms;
  const std::size_t batches = served.ingest_ms.size();
  for (std::size_t i = 0; i <= batches; ++i) {
    const bool first = i == 0;
    const dm::core::JobSpec job =
        first ? initial
              : job_for(batch_repositories, batch_seeds[i - 1]);
    const std::string dir =
        (std::filesystem::path(work_dir) / ("ingest-" + std::to_string(i))).string();
    const std::uint64_t parent = log.reserve_id();
    const double b0 = log.now_ms();
    dm::registry::Service registry;
    auto populated = materialize(job, registry);
    if (!populated.ok()) return populated.error();
    const double b1 = log.now_ms();
    dm::core::PipelineOptions options =
        dm::core::lease_pipeline_options(job, 0, 1, dir);
    options.external_service = &registry;
    auto run = dm::core::run_end_to_end(options);
    if (!run.ok()) return run.error();
    const double b2 = log.now_ms();
    dm::core::NodeContribution contribution;
    dm::core::PipelineResult& result = run.value();
    contribution.images = std::move(result.images);
    contribution.manifests = std::move(result.manifests);
    result.layer_profiles.for_each([&contribution](const auto& profile) {
      contribution.layer_profiles.push_back(profile);
    });
    contribution.shard_set_dir = dir;
    contribution.shard_summary = result.shard_summary;
    contributions.push_back(std::move(contribution));
    dirs.push_back(dir);
    auto folded = dm::core::fold_contributions(contributions);
    if (!folded.ok()) return folded.error();
    const double b3 = log.now_ms();
    auto index = dm::shard::ShardSetIndex::open(dirs);
    if (!index.ok()) return index.error();
    const double b4 = log.now_ms();
    // The snapshot's serializers, as the daemon builds them. It sums the
    // batches' download accounting itself, so the check below compares
    // the analysis sections.
    const dm::core::PipelineResult& union_result = folded.value();
    const dm::json::Value analysis = dm::core::analysis_report_json(union_result);
    std::map<std::string, const dm::registry::Manifest*> manifests;
    for (const auto& m : union_result.manifests) manifests[m.repository] = &m;
    std::map<std::string, dm::json::Value> images;
    for (const auto& profile : union_result.images) {
      const auto it = manifests.find(profile.repository);
      if (it == manifests.end()) continue;
      images.emplace(profile.repository,
                     serve::image_report_json(profile, *it->second,
                                              union_result.sharing));
    }
    const dm::json::Value types =
        union_result.shard_dedup
            ? serve::type_breakdown_json(union_result.shard_dedup->by_type)
            : dm::json::Value();
    const double b5 = log.now_ms();
    log.record("ingest.materialize", b0, b1, parent);
    log.record("ingest.pipeline", b1, b2, parent);
    log.record("ingest.fold", b2, b3, parent);
    log.record("ingest.index_open", b3, b4, parent);
    log.record("ingest.snapshot", b4, b5, parent);
    log.record_with_id(parent, first ? "ingest.initial_batch" : "ingest.batch",
                       b0, b5);
    if (first) continue;
    materialize_s.push_back((b1 - b0) / 1e3);
    pipeline_s.push_back((b2 - b1) / 1e3);
    fold_ms.push_back(b3 - b2);
    open_ms.push_back(b4 - b3);
    snapshot_ms.push_back(b5 - b4);
    unattributed_ms.push_back(served.ingest_ms[i - 1] - (b5 - b0));
    if (i - 1 < served.reports.size()) {
      auto served_report = dm::json::parse(served.reports[i - 1]);
      const std::string want = analysis.dump();
      const std::string got =
          served_report.ok() ? served_report.value()["analysis"].dump() : "";
      if (!checks.check(got == want, "folded report of batch " +
                                         std::to_string(i) +
                                         " differs from the served one")) {
        const auto diff = std::mismatch(want.begin(), want.end(), got.begin(),
                                        got.end());
        const auto at = static_cast<std::size_t>(diff.first - want.begin());
        std::cerr << "perfbench: folded ..." << want.substr(at > 80 ? at - 80 : 0, 160)
                  << "\nperfbench: served ..." << got.substr(at > 80 ? at - 80 : 0, 160)
                  << "\n";
      }
    }
  }
  for (const std::string& dir : dirs) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  metrics.set("ingest.materialize_s", median(materialize_s), "s");
  metrics.set("ingest.pipeline_s", median(pipeline_s), "s");
  metrics.set("ingest.fold_ms", median(fold_ms), "ms");
  metrics.set("ingest.index_open_ms", median(open_ms), "ms");
  metrics.set("ingest.snapshot_ms", median(snapshot_ms), "ms");
  metrics.set("ingest.unattributed_ms", median(unattributed_ms), "ms");
  metrics.set("ingest.batches", static_cast<double>(batches), "count");
  return dm::util::Status::success();
}

}  // namespace

int run_serve(const Args& args, bool with_ingest, Metrics& metrics,
              Checks& checks, SpanLog* spans) {
  const std::uint64_t repositories = args.repositories(kServeRepositories);
  const std::uint64_t batch_repositories =
      repositories * kIngestRepositories / kServeRepositories;
  const dm::core::JobSpec job = job_for(
      repositories, registry_seed(args, 0, repositories, kServeTarget, 0.02));
  // serve_ingest's batches: a fixed number for the run's --seconds.
  std::vector<std::uint64_t> batch_seeds;
  const std::size_t batch_count =
      with_ingest ? static_cast<std::size_t>(std::max(
                        1.0, std::round(args.seconds / kBaselineIngestSeconds)))
                  : 0;
  for (std::size_t i = 0; i < batch_count; ++i) {
    batch_seeds.push_back(
        registry_seed(args, 1 + i, batch_repositories, kIngestTarget, 0.05));
  }
  const auto state_dir = [&args](const std::string& name) {
    return (std::filesystem::path(args.work_dir) / name).string();
  };
  (void)clock_s(Clock::now());  // fix the sample clock's origin

  // Set-up: start the daemon setups() times (each runs its initial batch),
  // keep the last.
  std::vector<double> setup_seconds;
  double first_setup_peak = 0.0;
  Daemon daemon;
  for (std::uint32_t i = 0; i < args.setups(); ++i) {
    daemon.reset();
    reset_peak_rss();
    const double seconds =
        start_daemon(daemon, job, state_dir("state-" + std::to_string(i)), false);
    if (seconds < 0.0) return 2;
    setup_seconds.push_back(seconds);
    if (i == 0) first_setup_peak = peak_rss_mb();
  }
  const std::shared_ptr<const serve::Snapshot> snapshot = daemon.daemon->snapshot();
  const std::uint64_t epoch = snapshot->epoch;
  const KeyPools pools = key_pools(*snapshot, job);
  std::vector<std::vector<MixEntry>> mixes;
  const std::size_t connections = with_ingest ? 1 : 2;
  for (std::size_t c = 0; c < connections; ++c) {
    mixes.push_back(read_mix(pools, mix_seed(args.seed, c), kMixLength));
  }
  if (spans == nullptr) {
    metrics.set("setup_s", median(setup_seconds), "s");
    reset_peak_rss();
    double measured_peak = 0.0;
    if (!with_ingest) {
      ReadPhase phase = run_read_phase(daemon.daemon->port(), mixes, epoch,
                                       args.seconds, nullptr, true);
      if (!phase.connected) return 2;
      for (const auto& reader : phase.readers) absorb(checks, *reader);
      const ReadStats stats = read_stats(phase);
      metrics.set("op_p50_ms", stats.p50_ms, "ms");
      std::cout << "reads: p90_ms " << stats.p90_ms << " qps " << stats.qps
                << " samples " << stats.reads << "\n";
      measured_peak = peak_rss_mb();
    } else {
      IngestPhase phase =
          run_ingest_phase(daemon.daemon->port(), mixes[0], epoch, batch_seeds,
                           batch_repositories, nullptr, false);
      if (!phase.connected) return 2;
      absorb(checks, phase);
      metrics.set("op_p50_ms", median(phase.ingest_ms), "ms");
      std::cout << "ingests " << phase.ingest_ms.size() << " per_s "
                << static_cast<double>(phase.ingest_ms.size()) / phase.seconds
                << "\n";
      const ReadStats reads = read_stats(phase);
      std::cout << "reads beside ingest: p50_ms " << reads.p50_ms << " p90_ms "
                << reads.p90_ms << " qps " << reads.qps << "\n";
      // The ingest phase's own peak swings 70-130 MB run to run with how
      // the allocator reuses the arenas of each ingest's fresh threads, so
      // it is reported per-layer (ingest.peak_rss_mb), not here.
      std::cout << "ingest phase peak_rss_mb " << peak_rss_mb() << "\n";
    }
    metrics.set("peak_rss_mb", run_peak_rss_mb(first_setup_peak, measured_peak), "MB");
    return 0;
  }

  // ---- traced run ----
  SpanLog& log = *spans;
  const std::uint16_t port = daemon.daemon->port();
  const double phase_seconds = std::max(1.0, args.seconds / 4);

  // Obs off, untraced: the baseline for the tracing overhead and the
  // obs-cost ladder.
  ReadPhase off = run_read_phase(port, mixes, epoch, phase_seconds, nullptr, true);
  if (!off.connected) return 2;
  for (const auto& reader : off.readers) absorb(checks, *reader);
  ReadPhase traced = run_read_phase(port, mixes, epoch, phase_seconds, &log, true);
  if (!traced.connected) return 2;
  for (const auto& reader : traced.readers) absorb(checks, *reader);
  serve_layer_metrics_from(traced, off, metrics);

  // Recorded payloads for the codec costs: one pass over the mix.
  {
    auto client = serve::Client::connect(port);
    if (!client.ok()) return 2;
    Reader recorder;
    recorder.mix = mixes[0];
    std::vector<serve::Request> requests;
    std::vector<serve::Response> responses;
    const auto max_epoch = [epoch] { return epoch; };
    for (std::size_t i = 0; i < recorder.mix.size(); ++i) {
      serve::Response response;
      if (!recorder.step(client.value(), epoch, max_epoch, nullptr, &response)) {
        break;
      }
      requests.push_back(recorder.mix[i].request);
      responses.push_back(std::move(response));
    }
    absorb(checks, recorder);
    codec_metrics(requests, responses, metrics, checks);
  }
  metrics.set("obs.lookup_ns", obs_lookup_ns(), "ns");

  if (!with_ingest) {
    // Obs-cost ladder: each step's reads against the obs-off baseline.
    const ReadStats base = read_stats(off);
    const auto step = [&](const char* name, std::uint16_t step_port) {
      ReadPhase phase =
          run_read_phase(step_port, mixes, epoch, phase_seconds, nullptr, true);
      for (const auto& reader : phase.readers) absorb(checks, *reader);
      const ReadStats stats = read_stats(phase);
      metrics.set(std::string("obs.") + name + "_qps_ratio",
                  base.qps > 0.0 ? stats.qps / base.qps : 0.0, "ratio");
      metrics.set(std::string("obs.") + name + "_p50_ratio",
                  base.p50_ms > 0.0 ? stats.p50_ms / base.p50_ms : 0.0, "ratio");
    };
    dm::obs::set_enabled(true);
    step("metrics", port);
    dm::obs::set_journal_enabled(true);
    step("journal", port);
    Daemon telemetry;
    if (start_daemon(telemetry, job, state_dir("state-telemetry"), true) < 0.0) {
      return 2;
    }
    step("telemetry", telemetry.daemon->port());
    telemetry.reset();
    dm::obs::set_journal_enabled(false);
    dm::obs::set_enabled(false);
    set_zero(metrics, ingest_layer_metrics());
  } else {
    set_zero(metrics, ladder_metrics());
    reset_peak_rss();
    IngestPhase phase = run_ingest_phase(port, mixes[0], epoch, batch_seeds,
                                         batch_repositories, &log, true);
    if (!phase.connected) return 2;
    metrics.set("ingest.peak_rss_mb", peak_rss_mb(), "MB");
    absorb(checks, phase);
    const ReadStats reads = read_stats(phase);
    metrics.set("ingest.commit_ms", quantile(phase.ingest_ms, 0.5), "ms");
    metrics.set("ingest.read_p50_ms", reads.p50_ms, "ms");
    metrics.set("ingest.read_p90_ms", reads.p90_ms, "ms");
    metrics.set("ingest.read_qps", reads.qps, "1/s");
    if (auto traced_ingests =
            trace_ingests(job, batch_seeds, batch_repositories, phase,
                          args.work_dir, log, metrics, checks);
        !traced_ingests.ok()) {
      std::cerr << "perfbench: ingest replay failed: "
                << traced_ingests.error().to_string() << "\n";
      return 2;
    }
  }

  // The pipeline layers behind the daemon's initial batch: the same job
  // driven layer by layer over a registry of our own. The untraced pass
  // must reproduce the report the daemon served at its first epoch.
  const std::string served_report = snapshot->report.dump();
  daemon.reset();
  TimedService registry;
  if (auto populated = materialize(job, registry); !populated.ok()) return 2;
  if (auto traced_layers = trace_pipeline_layers(job, registry, args.work_dir,
                                                 log, metrics, checks,
                                                 served_report);
      !traced_layers.ok()) {
    std::cerr << "perfbench: traced pass failed: "
              << traced_layers.error().to_string() << "\n";
    return 2;
  }
  return 0;
}

}  // namespace perfbench
