// Protocol conformance + query-oracle tests for the serve daemon
// (core/serve, DESIGN.md §13).
//
// Two invariants carry the suite:
//
//   1. Framing and request validity fail at different blast radii: a
//      malformed DMWF frame poisons only its connection (the daemon keeps
//      serving), while a well-framed but invalid request gets an error
//      response and the session lives on.
//   2. Byte equality against the batch pipeline: every query answer must
//      be the exact bytes of the corresponding slice of an independently
//      executed batch run's pipeline_report_json (or of the shared
//      per-image / type-breakdown serializers applied to that run). The
//      daemon's data path — resident fold over committed batches — is
//      what the equality pins.
//
// The suite is monolithic (one ctest entry): the daemon and its oracle
// run are built once and shared across tests, and the ingest/restart
// tests at the end mutate daemon state in a fixed order.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dockmine/core/multi_node.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/serve.h"
#include "dockmine/core/wire.h"
#include "dockmine/http/socket.h"
#include "dockmine/json/json.h"
#include "dockmine/obs/export.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/shard/lookup.h"
#include "dockmine/shard/merger.h"
#include "dockmine/util/error.h"

namespace core = dockmine::core;
namespace serve = dockmine::core::serve;
namespace wire = dockmine::core::wire;
namespace json = dockmine::json;
namespace util = dockmine::util;
namespace fs = std::filesystem;

using dockmine::util::ErrorCode;

namespace {

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

// Small but real: the batch crawls, downloads, analyzes, and exports a
// sharded index. Shared by the daemon and the oracle run.
core::JobSpec test_spec() {
  core::JobSpec spec;
  spec.repositories = 8;
  spec.seed = 20170530;
  spec.light_calibration = true;
  spec.gzip_level = 1;
  spec.threads = 2;
  spec.shards = 2;
  return spec;
}

constexpr std::uint64_t kIngestRepos = 6;
constexpr std::uint64_t kIngestSeed = 777;

// The daemon under test plus the independently executed batch run every
// answer is compared against. Built lazily, torn down by a gtest global
// environment so no daemon thread outlives main().
struct Fixture {
  TempDir state{"dockmine-serve-test-state"};
  TempDir oracle_dir{"dockmine-serve-test-oracle"};
  std::unique_ptr<serve::ServeDaemon> daemon;
  core::PipelineResult oracle;
  json::Value oracle_report;

  Fixture() {
    auto run = core::run_end_to_end(
        core::lease_pipeline_options(test_spec(), 0, 1, oracle_dir.str()));
    EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.error().to_string());
    oracle = std::move(run).value();
    oracle_report = core::pipeline_report_json(oracle);

    serve::ServeOptions options;
    options.job = test_spec();
    options.state_dir = state.str();
    daemon = std::make_unique<serve::ServeDaemon>(std::move(options));
    auto started = daemon->start();
    EXPECT_TRUE(started.ok())
        << (started.ok() ? "" : started.error().to_string());
  }
};

std::unique_ptr<Fixture>& fixture_slot() {
  static std::unique_ptr<Fixture> slot;
  return slot;
}

Fixture& fixture() {
  if (!fixture_slot()) fixture_slot() = std::make_unique<Fixture>();
  return *fixture_slot();
}

class ServeEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { fixture_slot().reset(); }
};

[[maybe_unused]] const auto* const kServeEnvironment =
    ::testing::AddGlobalTestEnvironment(new ServeEnvironment);

serve::Client connect() {
  auto client = serve::Client::connect(fixture().daemon->port(), 10000);
  EXPECT_TRUE(client.ok())
      << (client.ok() ? "" : client.error().to_string());
  return std::move(client).value();
}

serve::Request query(const std::string& q) {
  serve::Request request;
  request.kind = serve::RequestKind::kQuery;
  request.id = 42;
  request.q = q;
  return request;
}

// One-shot query against the shared daemon, expecting a result response.
json::Value ask(const serve::Request& request) {
  serve::Client client = connect();
  auto response = client.call(request);
  EXPECT_TRUE(response.ok())
      << (response.ok() ? "" : response.error().to_string());
  EXPECT_TRUE(response.value().ok) << response.value().error;
  return response.value().body;
}

// One-shot query expecting an error response (not a dropped connection).
std::string ask_error(const serve::Request& request) {
  serve::Client client = connect();
  auto response = client.call(request);
  EXPECT_TRUE(response.ok())
      << (response.ok() ? "" : response.error().to_string());
  EXPECT_FALSE(response.value().ok);
  return response.value().error;
}

// ---- codec conformance -------------------------------------------------

TEST(ServeCodec, RequestRoundtripsEveryKind) {
  std::vector<serve::Request> requests;
  requests.push_back(query("report"));
  requests.back().path = "analysis.dedup";
  requests.push_back(query("image"));
  requests.back().repository = "library/redis";
  requests.push_back(query("layer"));
  requests.back().key = 0x1234567890abcdefULL;
  requests.push_back(query("content"));
  requests.back().key = 7;
  requests.push_back(query("types"));
  requests.push_back(query("ecdf"));
  requests.back().name = "layers.cls";
  requests.back().quantile = 0.5;
  requests.push_back(query("ecdf"));
  requests.back().name = "images.fis";  // no quantile: whole slice
  requests.push_back(query("status"));
  requests.push_back(query("stats"));
  serve::Request ingest;
  ingest.kind = serve::RequestKind::kIngest;
  ingest.id = 9;
  ingest.repositories = 12;
  ingest.seed = 999;
  requests.push_back(ingest);
  requests.push_back(query("top"));
  requests.back().metric = "cis";
  requests.back().n = 10;
  requests.push_back(query("top"));
  requests.back().metric = "layers";
  requests.back().n = 1;
  requests.push_back(query("repos"));  // no prefix: whole population
  requests.push_back(query("repos"));
  requests.back().prefix = "library/";
  requests.push_back(query("metrics"));  // bare: every series, latest only
  requests.push_back(query("metrics"));
  requests.back().name = "dockmine_serve_requests_total";
  requests.back().op = "rate";
  requests.back().window_ms = 60000;
  requests.push_back(query("metrics"));
  requests.back().name = "dockmine_serve_request_ms";
  requests.back().op = "quantile";
  requests.back().quantile = 0.99;
  requests.back().window_ms = 30000;
  requests.push_back(query("metrics"));
  requests.back().name = "dockmine_serve_epoch";
  requests.back().range_ms = 120000;
  requests.push_back(query("trace-tail"));  // no n: server default
  requests.push_back(query("trace-tail"));
  requests.back().n = 32;
  requests.push_back(query("slowlog"));
  serve::Request epoch;
  epoch.kind = serve::RequestKind::kIngestEpoch;
  epoch.id = 8;
  requests.push_back(epoch);
  serve::Request shutdown;
  shutdown.kind = serve::RequestKind::kShutdown;
  shutdown.id = 10;
  requests.push_back(shutdown);

  for (const serve::Request& request : requests) {
    const json::Value encoded = serve::request_to_json(request);
    auto decoded = serve::request_from_json(encoded);
    ASSERT_TRUE(decoded.ok()) << encoded.dump() << ": "
                              << decoded.error().to_string();
    EXPECT_EQ(serve::request_to_json(decoded.value()).dump(), encoded.dump());
  }
}

TEST(ServeCodec, ResponseRoundtrips) {
  serve::Response ok;
  ok.id = 3;
  ok.ok = true;
  ok.epoch = 2;
  auto body = json::Value::object();
  body.set("answer", std::uint64_t{42});
  ok.body = std::move(body);
  serve::Response error;
  error.id = 4;
  error.epoch = 1;
  error.error = "serve: unknown layer key";
  serve::Response attributed = ok;  // telemetry stamps server-side timings
  attributed.id = 5;
  attributed.parse_ms = 0.125;
  attributed.handle_ms = 2.5;
  for (const serve::Response& response : {ok, error, attributed}) {
    const json::Value encoded = serve::response_to_json(response);
    auto decoded = serve::response_from_json(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(serve::response_to_json(decoded.value()).dump(),
              encoded.dump());
  }
}

TEST(ServeCodec, BatchSpecRoundtrips) {
  const serve::BatchSpec spec{40, 20170530};
  auto decoded = serve::batch_spec_from_json(serve::batch_spec_to_json(spec));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().repositories, spec.repositories);
  EXPECT_EQ(decoded.value().seed, spec.seed);
}

// The parser is total: every malformed document must come back kCorrupt,
// never crash, never half-parse.
TEST(ServeCodec, RequestParserRejectsMalformedDocuments) {
  const std::vector<std::string> bad = {
      "[]",                                             // not an object
      "{}",                                             // no discriminator
      R"({"type":"query","q":"report"})",               // missing id
      R"({"type":"query","id":-1,"q":"report"})",       // negative id
      R"({"type":"query","id":1})",                     // missing q
      R"({"type":"query","id":1,"q":"bogus"})",         // unknown selector
      R"({"type":"query","id":1,"q":7})",               // q not a string
      R"({"type":"query","id":1,"q":"report","path":7})",
      R"({"type":"query","id":1,"q":"image"})",         // missing repository
      R"({"type":"query","id":1,"q":"image","repository":""})",
      R"({"type":"query","id":1,"q":"layer"})",         // missing key
      R"({"type":"query","id":1,"q":"layer","key":0})",
      R"({"type":"query","id":1,"q":"content","key":"x"})",
      R"({"type":"query","id":1,"q":"ecdf"})",          // missing name
      R"({"type":"query","id":1,"q":"ecdf","name":"layers.cls","quantile":"p50"})",
      R"({"type":"query","id":1,"q":"ecdf","name":"layers.cls","quantile":1.5})",
      R"({"type":"ingest","id":1})",                    // missing batch spec
      R"({"type":"ingest","id":1,"repositories":0,"seed":1})",
      R"({"type":"ingest","id":1,"repositories":-4,"seed":1})",
      R"({"type":"ingest","id":1,"repositories":4})",   // missing seed
      R"({"type":"query","id":1,"q":"top"})",           // missing metric
      R"({"type":"query","id":1,"q":"top","metric":"cis"})",  // missing n
      R"({"type":"query","id":1,"q":"top","metric":"cis","n":0})",
      R"({"type":"query","id":1,"q":"top","metric":"bogus","n":5})",
      R"({"type":"query","id":1,"q":"top","metric":7,"n":5})",
      R"({"type":"query","id":1,"q":"repos","prefix":7})",
      R"({"type":"query","id":1,"q":"metrics","op":"bogus"})",
      R"({"type":"query","id":1,"q":"metrics","op":7})",
      R"({"type":"query","id":1,"q":"metrics","window_ms":0})",
      R"({"type":"query","id":1,"q":"metrics","range_ms":0})",
      R"({"type":"query","id":1,"q":"metrics","range_ms":"all"})",
      // quantile without op=quantile is ambiguous, not defaulted
      R"({"type":"query","id":1,"q":"metrics","quantile":0.99})",
      R"({"type":"query","id":1,"q":"metrics","op":"rate","quantile":0.99})",
      R"({"type":"query","id":1,"q":"metrics","op":"quantile"})",
      R"({"type":"query","id":1,"q":"metrics","op":"quantile","quantile":0})",
      R"({"type":"query","id":1,"q":"metrics","op":"quantile","quantile":1.5})",
      R"({"type":"query","id":1,"q":"trace-tail","n":0})",
      R"({"type":"query","id":1,"q":"trace-tail","n":"many"})",
      R"({"type":"ingest-epoch"})",                     // missing id
      R"({"type":"bogus","id":1})",                     // unknown type
  };
  for (const std::string& text : bad) {
    auto doc = json::parse(text);
    ASSERT_TRUE(doc.ok()) << text;
    auto decoded = serve::request_from_json(doc.value());
    EXPECT_FALSE(decoded.ok()) << "accepted: " << text;
    if (!decoded.ok()) EXPECT_EQ(decoded.error().code(), ErrorCode::kCorrupt);
  }
}

// ---- errno taxonomy (the accept-loop fix) ------------------------------

TEST(ServeErrno, ClassifiesDescriptorExhaustionAsRetryable) {
  const auto code = [](int err) {
    return dockmine::http::classify_errno(err, "accept").code();
  };
  // Transient: the accept loop must back off and retry, never die.
  EXPECT_EQ(code(EMFILE), ErrorCode::kUnavailable);
  EXPECT_EQ(code(ENFILE), ErrorCode::kUnavailable);
  EXPECT_EQ(code(ENOBUFS), ErrorCode::kUnavailable);
  EXPECT_EQ(code(ENOMEM), ErrorCode::kUnavailable);
  EXPECT_EQ(code(EAGAIN), ErrorCode::kTimeout);
  EXPECT_EQ(code(ETIMEDOUT), ErrorCode::kTimeout);
  EXPECT_EQ(code(ECONNRESET), ErrorCode::kReset);
  EXPECT_EQ(code(ECONNABORTED), ErrorCode::kReset);
  EXPECT_TRUE(dockmine::http::classify_errno(EMFILE, "accept").retryable());
  EXPECT_TRUE(dockmine::http::classify_errno(ECONNRESET, "accept").retryable());
  // Fatal: a bad descriptor is a programming error, not load.
  EXPECT_EQ(code(EBADF), ErrorCode::kInternal);
  EXPECT_FALSE(dockmine::http::classify_errno(EBADF, "accept").retryable());
}

// ---- shard read path ---------------------------------------------------

// ShardSetIndex::open must fold runs to exactly the entries ShardMerger
// visits — same keys, same counts, same sizes — and answer point lookups.
TEST(ServeShardLookup, IndexMatchesMergerVisitation) {
  Fixture& f = fixture();
  std::map<std::uint64_t, dockmine::dedup::ContentEntry> expected;
  dockmine::shard::ShardMerger merger;
  ASSERT_TRUE(merger.add_shard_set(f.oracle_dir.str()).ok());
  ASSERT_TRUE(merger
                  .merge([&expected](std::uint64_t key,
                                     const dockmine::dedup::ContentEntry& e) {
                    expected.emplace(key, e);
                  })
                  .ok());

  auto opened = dockmine::shard::ShardSetIndex::open({f.oracle_dir.str()});
  ASSERT_TRUE(opened.ok()) << opened.error().to_string();
  const dockmine::shard::ShardSetIndex& index = opened.value();
  EXPECT_EQ(index.distinct_contents(), expected.size());

  std::uint64_t visited = 0;
  std::uint64_t last_key = 0;
  index.for_each([&](std::uint64_t key,
                     const dockmine::dedup::ContentEntry& entry) {
    if (visited != 0) EXPECT_LT(last_key, key) << "unsorted or duplicate key";
    last_key = key;
    ++visited;
    const auto it = expected.find(key);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(entry.count, it->second.count);
    EXPECT_EQ(entry.size, it->second.size);
    EXPECT_EQ(entry.type, it->second.type);
  });
  EXPECT_EQ(visited, expected.size());

  for (const auto& [key, entry] : expected) {
    const auto* found = index.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->count, entry.count);
    if (expected.find(key + 1) == expected.end()) {
      EXPECT_EQ(index.find(key + 1), nullptr);
    }
  }
  EXPECT_EQ(index.find(0), nullptr);
}

// ---- query-vs-batch oracle ---------------------------------------------

TEST(ServeOracle, FullReportIsByteIdenticalToBatchRun) {
  Fixture& f = fixture();
  EXPECT_EQ(ask(query("report")).dump(), f.oracle_report.dump());
}

TEST(ServeOracle, ReportPathQueriesReturnExactSlices) {
  Fixture& f = fixture();
  const std::vector<std::string> paths = {
      "download",
      "analysis",
      "analysis.images",
      "analysis.images.cis",
      "analysis.layers",
      "analysis.layers.files_per_layer",
      "analysis.sharing",
      "analysis.sharing.sharing_ratio",
      "analysis.dedup",
      "analysis.dedup.repeat_counts",
  };
  for (const std::string& path : paths) {
    serve::Request request = query("report");
    request.path = path;
    const json::Value* slice = &f.oracle_report;
    std::size_t begin = 0;
    while (true) {
      const std::size_t dot = path.find('.', begin);
      slice = &(*slice)[path.substr(
          begin, dot == std::string::npos ? std::string::npos : dot - begin)];
      if (dot == std::string::npos) break;
      begin = dot + 1;
    }
    EXPECT_EQ(ask(request).dump(), slice->dump()) << path;
  }

  serve::Request bad = query("report");
  bad.path = "analysis.nope";
  EXPECT_NE(ask_error(bad).find("no such report path"), std::string::npos);
}

TEST(ServeOracle, EcdfQueriesMatchReportSlices) {
  Fixture& f = fixture();
  const std::vector<std::pair<std::string, std::pair<std::string, std::string>>>
      names = {
          {"images.cis", {"images", "cis"}},
          {"images.fis", {"images", "fis"}},
          {"images.layers_per_image", {"images", "layers_per_image"}},
          {"images.files_per_image", {"images", "files_per_image"}},
          {"layers.cls", {"layers", "cls"}},
          {"layers.fls", {"layers", "fls"}},
          {"layers.files_per_layer", {"layers", "files_per_layer"}},
          {"dedup.repeat_counts", {"dedup", "repeat_counts"}},
      };
  const double grid[] = {0.0, 0.01, 0.05, 0.1,  0.25, 0.5,
                         0.75, 0.9,  0.95, 0.99, 1.0};
  for (const auto& [name, loc] : names) {
    const json::Value& slice =
        f.oracle_report["analysis"][loc.first][loc.second];
    serve::Request whole = query("ecdf");
    whole.name = name;
    EXPECT_EQ(ask(whole).dump(), slice.dump()) << name;

    for (std::size_t i = 0; i < std::size(grid); ++i) {
      serve::Request point = query("ecdf");
      point.name = name;
      point.quantile = grid[i];
      const json::Value body = ask(point);
      EXPECT_EQ(body["samples"].dump(), slice["samples"].dump());
      EXPECT_EQ(body["value"].dump(), slice["quantiles"].at(i).dump())
          << name << " @ " << grid[i];
    }
  }

  serve::Request off_grid = query("ecdf");
  off_grid.name = "layers.cls";
  off_grid.quantile = 0.33;
  EXPECT_NE(ask_error(off_grid).find("not on the report grid"),
            std::string::npos);

  serve::Request unknown = query("ecdf");
  unknown.name = "layers.bogus";
  EXPECT_NE(ask_error(unknown).find("unknown ecdf"), std::string::npos);
}

TEST(ServeOracle, ImageQueriesMatchSharedSerializerOverBatchRun) {
  Fixture& f = fixture();
  ASSERT_FALSE(f.oracle.images.empty());
  std::map<std::string, const dockmine::registry::Manifest*> manifests;
  for (const auto& manifest : f.oracle.manifests) {
    manifests[manifest.repository] = &manifest;
  }
  for (const auto& profile : f.oracle.images) {
    const auto it = manifests.find(profile.repository);
    ASSERT_NE(it, manifests.end()) << profile.repository;
    serve::Request request = query("image");
    request.repository = profile.repository;
    EXPECT_EQ(ask(request).dump(),
              serve::image_report_json(profile, *it->second, f.oracle.sharing)
                  .dump())
        << profile.repository;
  }
  serve::Request unknown = query("image");
  unknown.repository = "no/such-repo";
  EXPECT_NE(ask_error(unknown).find("unknown repository"), std::string::npos);
}

TEST(ServeOracle, LayerQueriesMatchBatchSharingAnalysis) {
  Fixture& f = fixture();
  std::uint64_t probed = 0;
  for (const auto& manifest : f.oracle.manifests) {
    for (const auto& ref : manifest.layers) {
      const std::uint64_t key = ref.digest.key64();
      const auto info = f.oracle.sharing.lookup(key);
      ASSERT_TRUE(info.has_value());
      serve::Request request = query("layer");
      request.key = key;
      const json::Value body = ask(request);
      EXPECT_EQ(body["references"].as_uint(), info->references);
      EXPECT_EQ(body["cls"].as_uint(), info->cls);
      EXPECT_EQ(body["shared"].dump(), info->references > 1 ? "true" : "false");
      ++probed;
    }
    if (probed >= 24) break;  // a few manifests pin the mapping
  }
  ASSERT_GT(probed, 0u);
  serve::Request unknown = query("layer");
  unknown.key = 0xdeadbeefdeadbeefULL;
  EXPECT_NE(ask_error(unknown).find("unknown layer key"), std::string::npos);
}

TEST(ServeOracle, ContentQueriesMatchBatchShardExport) {
  Fixture& f = fixture();
  auto opened = dockmine::shard::ShardSetIndex::open({f.oracle_dir.str()});
  ASSERT_TRUE(opened.ok());
  std::uint64_t probed = 0;
  opened.value().for_each([&](std::uint64_t key,
                              const dockmine::dedup::ContentEntry& entry) {
    if (probed >= 32) return;
    ++probed;
    serve::Request request = query("content");
    request.key = key;
    const json::Value body = ask(request);
    EXPECT_EQ(body["count"].as_uint(), entry.count);
    EXPECT_EQ(body["size"].as_uint(), entry.size);
    EXPECT_EQ(body["type"].as_string(),
              std::string(dockmine::filetype::to_string(entry.type)));
  });
  ASSERT_GT(probed, 0u);
  serve::Request unknown = query("content");
  unknown.key = 0xfeedfacefeedfaceULL;
  EXPECT_NE(ask_error(unknown).find("unknown content key"), std::string::npos);
}

TEST(ServeOracle, TypesQueryMatchesSharedSerializerOverBatchRun) {
  Fixture& f = fixture();
  ASSERT_TRUE(f.oracle.shard_dedup.has_value());
  EXPECT_EQ(ask(query("types")).dump(),
            serve::type_breakdown_json(f.oracle.shard_dedup->by_type).dump());
}

TEST(ServeOracle, StatusReportsEpochAndCommittedBatches) {
  const json::Value body = ask(query("status"));
  EXPECT_EQ(body["epoch"].as_uint(), 1u);
  ASSERT_EQ(body["batches"].size(), 1u);
  EXPECT_EQ(body["batches"].at(0)["repositories"].as_uint(),
            test_spec().repositories);
  EXPECT_EQ(body["batches"].at(0)["seed"].as_uint(), test_spec().seed);
  EXPECT_EQ(body["images"].as_uint(), fixture().oracle.images.size());
}

TEST(ServeOracle, ResponsesAreStampedWithTheSnapshotEpoch) {
  serve::Client client = connect();
  auto response = client.call(query("status"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().epoch, 1u);
  EXPECT_EQ(response.value().id, 42u);
}

// ---- aggregation queries (top / repos) ---------------------------------

std::uint64_t metric_of(const dockmine::analyzer::ImageProfile& profile,
                        const std::string& metric) {
  if (metric == "cis") return profile.cis;
  if (metric == "fis") return profile.fis;
  if (metric == "files") return profile.file_count;
  return profile.layer_count;
}

TEST(ServeOracle, TopQueryRanksRepositoriesByEveryMetric) {
  Fixture& f = fixture();
  for (const std::string metric : {"cis", "fis", "files", "layers"}) {
    serve::Request request = query("top");
    request.metric = metric;
    request.n = 3;
    const json::Value body = ask(request);
    EXPECT_EQ(body["metric"].as_string(), metric);
    const json::Value& rows = body["rows"];
    ASSERT_TRUE(rows.is_array());
    ASSERT_LE(rows.size(), 3u);
    ASSERT_GT(rows.size(), 0u);

    // Expected ranking from the oracle run: value desc, name asc on ties.
    std::vector<std::pair<std::uint64_t, std::string>> expected;
    for (const auto& profile : f.oracle.images) {
      expected.emplace_back(metric_of(profile, metric), profile.repository);
    }
    std::sort(expected.begin(), expected.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows.at(i)["repository"].as_string(), expected[i].second)
          << metric << " row " << i;
      EXPECT_EQ(rows.at(i)["value"].as_uint(), expected[i].first)
          << metric << " row " << i;
    }
  }
}

TEST(ServeOracle, TopQueryCapsAtThePopulation) {
  serve::Request request = query("top");
  request.metric = "cis";
  request.n = 10000;
  const json::Value body = ask(request);
  EXPECT_EQ(body["rows"].size(), fixture().oracle.images.size());
}

TEST(ServeOracle, ReposQueryAggregatesThePrefixSlice) {
  Fixture& f = fixture();
  // Empty prefix: the whole delivered population, totals equal the sums
  // over the oracle's image profiles.
  const json::Value all = ask(query("repos"));
  EXPECT_EQ(all["count"].as_uint(), f.oracle.images.size());
  std::uint64_t cis = 0, fis = 0, files = 0, layers = 0;
  for (const auto& profile : f.oracle.images) {
    cis += profile.cis;
    fis += profile.fis;
    files += profile.file_count;
    layers += profile.layer_count;
  }
  EXPECT_EQ(all["total_cis"].as_uint(), cis);
  EXPECT_EQ(all["total_fis"].as_uint(), fis);
  EXPECT_EQ(all["total_files"].as_uint(), files);
  EXPECT_EQ(all["total_layers"].as_uint(), layers);

  // A real repository name as its own prefix: exactly that repository.
  const std::string name = f.oracle.images.front().repository;
  serve::Request one = query("repos");
  one.prefix = name;
  const json::Value slice = ask(one);
  EXPECT_EQ(slice["prefix"].as_string(), name);
  EXPECT_GE(slice["count"].as_uint(), 1u);
  EXPECT_LE(slice["total_cis"].as_uint(), cis);

  // A prefix matching nothing: zero rows, zero totals, still a result.
  serve::Request none = query("repos");
  none.prefix = "no-such-namespace/";
  const json::Value empty = ask(none);
  EXPECT_EQ(empty["count"].as_uint(), 0u);
  EXPECT_EQ(empty["total_cis"].as_uint(), 0u);
}

TEST(ServeOracle, IngestEpochIsRejectedOutsideTemporalMode) {
  serve::Request request;
  request.kind = serve::RequestKind::kIngestEpoch;
  request.id = 42;
  const std::string error = ask_error(request);
  EXPECT_NE(error.find("temporal"), std::string::npos) << error;
}

// ---- failure containment -----------------------------------------------

// A well-framed frame carrying garbage gets an error response; the same
// connection then answers a real query. Three escalating layers of "bad".
TEST(ServeContainment, BadRequestsGetErrorsAndTheSessionSurvives) {
  serve::Client client = connect();

  // Unparseable JSON payload.
  ASSERT_TRUE(client.socket()
                  .write_all(wire::encode_frame(wire::FrameKind::kJson,
                                                "{not json at all"))
                  .ok());
  // Parseable but invalid request document.
  ASSERT_TRUE(client.socket()
                  .write_all(wire::encode_frame(
                      wire::FrameKind::kJson,
                      R"({"type":"query","id":5,"q":"bogus"})"))
                  .ok());

  // Both must come back as error responses on the SAME connection.
  wire::FrameBuffer frames;
  std::vector<serve::Response> responses;
  while (responses.size() < 2) {
    wire::Frame frame;
    auto polled = frames.poll(frame);
    ASSERT_TRUE(polled.ok());
    if (polled.value()) {
      auto doc = json::parse(frame.payload);
      ASSERT_TRUE(doc.ok());
      auto response = serve::response_from_json(doc.value());
      ASSERT_TRUE(response.ok());
      responses.push_back(response.value());
      continue;
    }
    auto chunk = client.socket().read_some();
    ASSERT_TRUE(chunk.ok()) << chunk.error().to_string();
    ASSERT_FALSE(chunk.value().empty()) << "daemon dropped the session";
    frames.feed(chunk.value());
  }
  EXPECT_FALSE(responses[0].ok);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_EQ(responses[1].id, 5u);  // id recovered from the bad document

  // The session still answers real queries.
  auto after = client.call(query("status"));
  ASSERT_TRUE(after.ok()) << after.error().to_string();
  EXPECT_TRUE(after.value().ok);
}

// A corrupted frame (bad magic / flipped CRC) poisons its connection —
// the daemon drops it without answering — but keeps serving new ones.
TEST(ServeContainment, CorruptFramesDropOnlyTheirConnection) {
  const std::string valid = wire::encode_frame(
      wire::FrameKind::kJson, serve::request_to_json(query("status")).dump());

  // Flip one bit in each deterministically-checked region: magic, kind,
  // flags, CRC, payload. (A flipped length byte is indistinguishable from
  // an incomplete frame and is covered by the slowloris chaos test.)
  for (const std::size_t flip : {std::size_t{0}, std::size_t{4},
                                 std::size_t{5}, std::size_t{13},
                                 valid.size() - 1}) {
    std::string corrupt = valid;
    corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x01);
    serve::Client client = connect();
    ASSERT_TRUE(client.socket().write_all(corrupt).ok());
    // The daemon must close this connection without a response.
    auto chunk = client.socket().read_some();
    if (chunk.ok()) {
      EXPECT_TRUE(chunk.value().empty()) << "got bytes after a corrupt frame";
    } else {
      EXPECT_EQ(chunk.error().code(), ErrorCode::kReset);
    }
  }

  // And a binary frame is not a request either.
  serve::Client binary = connect();
  ASSERT_TRUE(binary.socket()
                  .write_all(wire::encode_frame(wire::FrameKind::kBinary,
                                                "not a request"))
                  .ok());
  auto chunk = binary.socket().read_some();
  if (chunk.ok()) EXPECT_TRUE(chunk.value().empty());

  // Daemon is still alive and correct.
  EXPECT_EQ(ask(query("report")).dump(), fixture().oracle_report.dump());
}

// Injected EMFILE bursts on accept must back off and recover, not kill
// the accept thread: connections made after the burst still get served.
TEST(ServeContainment, AcceptLoopSurvivesDescriptorExhaustion) {
  TempDir state{"dockmine-serve-test-emfile"};
  std::atomic<int> bursts{6};
  serve::ServeOptions options;
  options.job = test_spec();
  options.job.repositories = 4;
  options.state_dir = state.str();
  options.accept_backoff_ms = 1;
  options.accept_error_injector = [&bursts]() -> std::optional<util::Error> {
    if (bursts.fetch_sub(1) > 0) {
      return dockmine::http::classify_errno(EMFILE, "accept");
    }
    return std::nullopt;
  };
  serve::ServeDaemon daemon(std::move(options));
  ASSERT_TRUE(daemon.start().ok());

  auto client = serve::Client::connect(daemon.port(), 10000);
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  auto response = client.value().call(query("status"));
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_TRUE(response.value().ok);
  EXPECT_LE(bursts.load(), 0) << "injector was never consulted";
  daemon.stop();
}

// ---- wire bytes --------------------------------------------------------
// The oracles above parse each answer and dump it again, so they cannot see
// how the daemon wrote it. These read the raw frame payload off the socket
// and compare it with the one envelope writer applied to a response whose
// body the shared serializers build over the oracle run.

// The payload of the daemon's answer to one request frame, as it crossed
// the socket: no parse, no re-dump.
std::string wire_answer(std::uint16_t port, const std::string& request) {
  auto socket = dockmine::http::Socket::connect_loopback(port);
  EXPECT_TRUE(socket.ok());
  if (!socket.ok()) return "";
  EXPECT_TRUE(socket.value().set_timeout_ms(10000).ok());
  EXPECT_TRUE(socket.value()
                  .write_all(wire::encode_frame(wire::FrameKind::kJson, request))
                  .ok());
  wire::FrameBuffer frames;
  wire::Frame frame;
  for (;;) {
    auto polled = frames.poll(frame);
    EXPECT_TRUE(polled.ok());
    if (!polled.ok()) return "";
    if (polled.value()) return frame.payload;
    auto chunk = socket.value().read_some();
    EXPECT_TRUE(chunk.ok() && !chunk.value().empty()) << "no answer";
    if (!chunk.ok() || chunk.value().empty()) return "";
    frames.feed(chunk.value());
  }
}

std::string wire_answer(const serve::Request& request) {
  return wire_answer(fixture().daemon->port(),
                     serve::request_to_json(request).dump());
}

// The envelope of a result (or, with an error message, an error) answered
// from the fixture's first epoch.
std::string wire_result(json::Value body) {
  serve::Response response;
  response.id = 42;
  response.ok = true;
  response.epoch = 1;
  response.body = std::move(body);
  return serve::response_to_json(response).dump();
}

std::string wire_error(std::string error, std::uint64_t id = 42,
                       std::uint64_t epoch = 1) {
  serve::Response response;
  response.id = id;
  response.epoch = epoch;
  response.error = std::move(error);
  return serve::response_to_json(response).dump();
}

// Every dot path the report query can walk: object members below the root.
void report_paths(const json::Value& node, const std::string& path,
                  std::vector<std::pair<std::string, const json::Value*>>& out) {
  out.emplace_back(path, &node);
  for (const auto& [key, child] : node.members()) {
    report_paths(child, path.empty() ? key : path + "." + key, out);
  }
}

TEST(ServeWire, ReportPathsImagesAndTypesAreTheSerializersBytes) {
  Fixture& f = fixture();
  std::vector<std::pair<std::string, const json::Value*>> paths;
  report_paths(f.oracle_report, "", paths);
  ASSERT_GT(paths.size(), 40u);  // ReportPathQueriesReturnExactSlices' and more
  for (const auto& [path, slice] : paths) {
    serve::Request request = query("report");
    request.path = path;
    EXPECT_EQ(wire_answer(request), wire_result(*slice)) << path;
  }
  serve::Request bad = query("report");
  bad.path = "analysis.nope";
  EXPECT_EQ(wire_answer(bad),
            wire_error("serve: no such report path: analysis.nope"));

  std::map<std::string, const dockmine::registry::Manifest*> manifests;
  for (const auto& manifest : f.oracle.manifests) {
    manifests[manifest.repository] = &manifest;
  }
  ASSERT_FALSE(f.oracle.images.empty());
  for (const auto& profile : f.oracle.images) {
    serve::Request request = query("image");
    request.repository = profile.repository;
    EXPECT_EQ(wire_answer(request),
              wire_result(serve::image_report_json(
                  profile, *manifests.at(profile.repository), f.oracle.sharing)))
        << profile.repository;
  }
  serve::Request unknown = query("image");
  unknown.repository = "no/such-repo";
  EXPECT_EQ(wire_answer(unknown),
            wire_error("serve: unknown repository: no/such-repo"));

  ASSERT_TRUE(f.oracle.shard_dedup.has_value());
  EXPECT_EQ(wire_answer(query("types")),
            wire_result(serve::type_breakdown_json(f.oracle.shard_dedup->by_type)));
}

TEST(ServeWire, EcdfSlicesAndGridPointsAreTheReportsBytes) {
  Fixture& f = fixture();
  const double grid[] = {0.0, 0.01, 0.05, 0.1,  0.25, 0.5,
                         0.75, 0.9,  0.95, 0.99, 1.0};
  for (const std::string section : {"images", "layers", "dedup"}) {
    for (const auto& [field, slice] : f.oracle_report["analysis"][section].members()) {
      if (!slice.contains("quantiles")) continue;
      const std::string name = section + "." + field;
      serve::Request whole = query("ecdf");
      whole.name = name;
      EXPECT_EQ(wire_answer(whole), wire_result(slice)) << name;
      for (std::size_t i = 0; i < std::size(grid); ++i) {
        serve::Request point = query("ecdf");
        point.name = name;
        point.quantile = grid[i];
        auto body = json::Value::object();
        body.set("name", name);
        body.set("quantile", grid[i]);
        body.set("samples", slice["samples"].as_uint());
        body.set("value", slice["quantiles"].at(i));
        EXPECT_EQ(wire_answer(point), wire_result(std::move(body)))
            << name << " @ " << grid[i];
      }
    }
  }
  serve::Request off_grid = query("ecdf");
  off_grid.name = "layers.cls";
  off_grid.quantile = 0.33;
  EXPECT_EQ(wire_answer(off_grid),
            wire_error("serve: quantile is not on the report grid"));
}

TEST(ServeWire, PointAndAggregateAnswersAreTheOraclesBytes) {
  Fixture& f = fixture();
  // layer: the batch run's sharing analysis.
  std::uint64_t probed = 0;
  for (const auto& manifest : f.oracle.manifests) {
    for (const auto& ref : manifest.layers) {
      const std::uint64_t key = ref.digest.key64();
      const auto info = f.oracle.sharing.lookup(key);
      ASSERT_TRUE(info.has_value());
      serve::Request request = query("layer");
      request.key = key;
      auto body = json::Value::object();
      body.set("key", key);
      body.set("references", info->references);
      body.set("cls", info->cls);
      body.set("shared", info->references > 1);
      EXPECT_EQ(wire_answer(request), wire_result(std::move(body)));
      ++probed;
    }
    if (probed >= 12) break;
  }

  // content: the batch run's exported shard set.
  auto opened = dockmine::shard::ShardSetIndex::open({f.oracle_dir.str()});
  ASSERT_TRUE(opened.ok());
  probed = 0;
  opened.value().for_each([&](std::uint64_t key,
                              const dockmine::dedup::ContentEntry& entry) {
    if (probed++ >= 12) return;
    serve::Request request = query("content");
    request.key = key;
    auto body = json::Value::object();
    body.set("key", key);
    body.set("count", entry.count);
    body.set("size", entry.size);
    body.set("multi_layer", entry.multi_layer);
    body.set("type", std::string(dockmine::filetype::to_string(entry.type)));
    EXPECT_EQ(wire_answer(request), wire_result(std::move(body)));
  });
  serve::Request unknown_layer = query("layer");
  unknown_layer.key = 0xdeadbeefdeadbeefULL;
  EXPECT_EQ(wire_answer(unknown_layer), wire_error("serve: unknown layer key"));

  // status: the one committed batch and the oracle's counts.
  auto status = json::Value::object();
  status.set("epoch", std::uint64_t{1});
  auto batches = json::Value::array();
  batches.push_back(serve::batch_spec_to_json(
      serve::BatchSpec{test_spec().repositories, test_spec().seed}));
  status.set("batches", std::move(batches));
  status.set("images", static_cast<std::uint64_t>(f.oracle.images.size()));
  status.set("distinct_layers", f.oracle.sharing.distinct_layers());
  status.set("distinct_contents", opened.value().distinct_contents());
  EXPECT_EQ(wire_answer(query("status")), wire_result(std::move(status)));

  // top: value descending, name ascending on ties.
  for (const std::string metric : {"cis", "fis", "files", "layers"}) {
    std::vector<std::pair<std::uint64_t, std::string>> ranked;
    for (const auto& profile : f.oracle.images) {
      ranked.emplace_back(metric_of(profile, metric), profile.repository);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    ranked.resize(std::min<std::size_t>(ranked.size(), 3));
    auto rows = json::Value::array();
    for (const auto& [value, repository] : ranked) {
      auto row = json::Value::object();
      row.set("repository", repository);
      row.set("value", value);
      rows.push_back(std::move(row));
    }
    auto body = json::Value::object();
    body.set("metric", metric);
    body.set("n", std::uint64_t{3});
    body.set("rows", std::move(rows));
    serve::Request request = query("top");
    request.metric = metric;
    request.n = 3;
    EXPECT_EQ(wire_answer(request), wire_result(std::move(body))) << metric;
  }

  // repos: sums over the oracle's profiles under each prefix.
  for (const std::string prefix : {"", "library/", "no-such-namespace/"}) {
    std::uint64_t count = 0, cis = 0, fis = 0, files = 0, layers = 0;
    for (const auto& profile : f.oracle.images) {
      if (profile.repository.compare(0, prefix.size(), prefix) != 0) continue;
      ++count;
      cis += profile.cis;
      fis += profile.fis;
      files += profile.file_count;
      layers += profile.layer_count;
    }
    auto body = json::Value::object();
    body.set("prefix", prefix);
    body.set("count", count);
    body.set("total_cis", cis);
    body.set("total_fis", fis);
    body.set("total_files", files);
    body.set("total_layers", layers);
    serve::Request request = query("repos");
    request.prefix = prefix;
    EXPECT_EQ(wire_answer(request), wire_result(std::move(body))) << prefix;
  }
}

TEST(ServeWire, ErrorShapesAreTheEnvelopesBytes) {
  const std::uint16_t port = fixture().daemon->port();
  // Unparseable: no id to recover, no snapshot read.
  const std::string garbage = "{not json at all";
  EXPECT_EQ(wire_answer(port, garbage),
            wire_error("unparseable request: " +
                           json::parse(garbage).error().to_string(),
                       0, 0));
  // Parseable but invalid: the id comes back, still no snapshot read.
  const std::string bogus = R"({"type":"query","id":5,"q":"bogus"})";
  EXPECT_EQ(wire_answer(port, bogus),
            wire_error(serve::request_from_json(json::parse(bogus).value())
                           .error()
                           .to_string(),
                       5, 0));
}

// ---- ingest: snapshot commit + union oracle ----------------------------
// Ordered suffix of the suite: these mutate the shared daemon's state.

TEST(ServeZIngest, CommittedUnionIsByteIdenticalToFoldedBatchRuns) {
  Fixture& f = fixture();

  // Independent oracle for the union: run the ingest batch standalone,
  // fold both contributions exactly as a multi-node recombination would,
  // and sum the per-batch download accounting.
  TempDir batch_b{"dockmine-serve-test-oracle-b"};
  core::JobSpec spec_b = test_spec();
  spec_b.repositories = kIngestRepos;
  spec_b.seed = kIngestSeed;
  auto run_b = core::run_end_to_end(
      core::lease_pipeline_options(spec_b, 0, 1, batch_b.str()));
  ASSERT_TRUE(run_b.ok()) << run_b.error().to_string();

  // The fixture's oracle is not read after this ordered suffix starts, so
  // its delivered work can move into the fold.
  dockmine::downloader::DownloadStats downloads = f.oracle.download;
  const dockmine::downloader::DownloadStats b = run_b.value().download;
  auto folded = core::fold_contributions(
      {core::contribution_of(std::move(f.oracle), f.oracle_dir.str()),
       core::contribution_of(std::move(run_b).value(), batch_b.str())});
  ASSERT_TRUE(folded.ok()) << folded.error().to_string();
  core::PipelineResult& expected = folded.value();
  downloads.attempted += b.attempted;
  downloads.succeeded += b.succeeded;
  downloads.failed_auth += b.failed_auth;
  downloads.failed_no_tag += b.failed_no_tag;
  downloads.failed_missing += b.failed_missing;
  downloads.failed_digest += b.failed_digest;
  downloads.failed_other += b.failed_other;
  downloads.repos_resumed += b.repos_resumed;
  downloads.repos_canceled += b.repos_canceled;
  downloads.layers_fetched += b.layers_fetched;
  downloads.layers_deduped += b.layers_deduped;
  downloads.layers_resumed += b.layers_resumed;
  downloads.bytes_downloaded += b.bytes_downloaded;
  expected.download = downloads;
  const std::string expected_report =
      core::pipeline_report_json(expected).dump();

  // Ingest through the wire.
  serve::Request ingest;
  ingest.kind = serve::RequestKind::kIngest;
  ingest.id = 77;
  ingest.repositories = kIngestRepos;
  ingest.seed = kIngestSeed;
  serve::Client client = connect();
  ASSERT_TRUE(client.set_timeout_ms(120000).ok());
  auto committed = client.call(ingest);
  ASSERT_TRUE(committed.ok()) << committed.error().to_string();
  ASSERT_TRUE(committed.value().ok) << committed.value().error;
  EXPECT_EQ(committed.value().epoch, 2u);
  EXPECT_EQ(committed.value().body["epoch"].as_uint(), 2u);

  // The served union report is the folded report, byte for byte.
  EXPECT_EQ(ask(query("report")).dump(), expected_report);

  // Post-commit answers carry the new epoch.
  serve::Client reader = connect();
  auto status = reader.call(query("status"));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().epoch, 2u);
  EXPECT_EQ(status.value().body["batches"].size(), 2u);

  // Per-image answers now come from the union sharing analysis.
  std::map<std::string, const dockmine::registry::Manifest*> manifests;
  for (const auto& manifest : expected.manifests) {
    manifests[manifest.repository] = &manifest;
  }
  std::uint64_t checked = 0;
  for (const auto& profile : expected.images) {
    const auto it = manifests.find(profile.repository);
    ASSERT_NE(it, manifests.end());
    serve::Request request = query("image");
    request.repository = profile.repository;
    EXPECT_EQ(
        ask(request).dump(),
        serve::image_report_json(profile, *it->second, expected.sharing).dump())
        << profile.repository;
    if (++checked >= 6) break;
  }

  // And the type breakdown is the folded breakdown.
  ASSERT_TRUE(expected.shard_dedup.has_value());
  EXPECT_EQ(ask(query("types")).dump(),
            serve::type_breakdown_json(expected.shard_dedup->by_type).dump());
}

TEST(ServeZIngest, RestartReplaysCommittedBatchesToTheSameAnswers) {
  Fixture& f = fixture();
  const std::string before = ask(query("report")).dump();
  const std::string status_before = ask(query("status")).dump();
  f.daemon->stop();
  f.daemon.reset();

  // Same state dir, fresh process-equivalent: replay must reproduce epoch
  // 2 and byte-identical answers from state.json alone.
  serve::ServeOptions options;
  options.job = test_spec();
  options.state_dir = f.state.str();
  f.daemon = std::make_unique<serve::ServeDaemon>(std::move(options));
  ASSERT_TRUE(f.daemon->start().ok());
  EXPECT_EQ(f.daemon->snapshot()->epoch, 2u);
  EXPECT_EQ(ask(query("report")).dump(), before);
  EXPECT_EQ(ask(query("status")).dump(), status_before);
}

TEST(ServeZIngest, ShutdownRequestFlagsTheOwnerAndAnswersFirst) {
  Fixture& f = fixture();
  EXPECT_FALSE(f.daemon->shutdown_requested());
  serve::Request request;
  request.kind = serve::RequestKind::kShutdown;
  request.id = 99;
  serve::Client client = connect();
  auto response = client.call(request);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_TRUE(response.value().ok);
  EXPECT_TRUE(f.daemon->shutdown_requested());
  f.daemon->stop();
  f.daemon.reset();
}

// ---- continuous telemetry (its own daemon; the shared fixture stays
// telemetry-off so the oracle byte-equalities above are undisturbed) ------

TEST(ServeZTelemetry, LiveMetricsTraceTailAndSlowlogAnswer) {
  if constexpr (!dockmine::obs::kCompiledIn) GTEST_SKIP();
  dockmine::obs::reset_all();
  dockmine::obs::set_enabled(true);
  dockmine::obs::set_journal_enabled(true);

  TempDir state{"dockmine-serve-test-telemetry"};
  serve::ServeOptions options;
  options.job = test_spec();
  options.state_dir = state.str();
  options.telemetry.enabled = true;
  options.telemetry.sample_interval_ms = 10;
  options.telemetry.ring_capacity = 64;
  options.telemetry.slowlog_threshold_ms = 0.0;  // journal every query
  serve::ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.start().ok());

  auto client = serve::Client::connect(daemon.port(), 10000);
  ASSERT_TRUE(client.ok());
  const auto call = [&client](serve::Request request) {
    auto response = client.value().call(request);
    EXPECT_TRUE(response.ok());
    EXPECT_TRUE(response.value().ok) << response.value().error;
    return std::move(response).value();
  };

  // Generate some traffic, then give the 10 ms sampler a few ticks.
  for (int i = 0; i < 5; ++i) (void)call(query("status"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Per-request latency attribution stamps server-side timings.
  const serve::Response stamped = call(query("status"));
  EXPECT_GE(stamped.parse_ms, 0.0);
  EXPECT_GE(stamped.handle_ms, 0.0);

  // On the wire the measured timings follow the spliced body: the payload
  // is the one envelope writer's bytes for the report the batch run wrote.
  const std::string payload = wire_answer(
      daemon.port(), serve::request_to_json(query("report")).dump());
  auto parsed = json::parse(payload);
  ASSERT_TRUE(parsed.ok()) << payload;
  serve::Response expected;
  expected.id = 42;
  expected.ok = true;
  expected.epoch = 1;
  expected.body = fixture().oracle_report;
  expected.parse_ms = parsed.value()["parse_ms"].as_double();
  expected.handle_ms = parsed.value()["handle_ms"].as_double();
  ASSERT_TRUE(parsed.value()["parse_ms"].is_number()) << payload;
  ASSERT_TRUE(parsed.value()["handle_ms"].is_number()) << payload;
  EXPECT_EQ(payload, serve::response_to_json(expected).dump());

  // status carries the alert block; the healthy daemon fires nothing.
  const json::Value status = stamped.body;
  ASSERT_TRUE(status["alerts"].is_object());
  EXPECT_EQ(status["alerts"]["firing"].as_int(), 0);

  // metrics: the sampled request-counter series exists and has samples.
  serve::Request metrics = query("metrics");
  metrics.name = "dockmine_serve_requests_total";
  const json::Value sampled = call(metrics).body;
  ASSERT_TRUE(sampled["series"].is_array());
  ASSERT_GT(sampled["series"].size(), 0u);
  EXPECT_GT(sampled["samples_taken"].as_uint(), 0u);

  // metrics op=rate answers for the same selector.
  metrics.op = "rate";
  metrics.window_ms = 60000;
  const json::Value rated = call(metrics).body;
  ASSERT_TRUE(rated["series"].is_array());

  // trace-tail: the journal recorded the handled requests.
  serve::Request tail = query("trace-tail");
  tail.n = 16;
  const json::Value trace = call(tail).body;
  ASSERT_TRUE(trace["events"].is_array());
  EXPECT_GT(trace["recorded"].as_uint(), 0u);

  // slowlog at threshold 0: every prior query is an entry.
  const json::Value slow = call(query("slowlog")).body;
  ASSERT_TRUE(slow["entries"].is_array());
  EXPECT_GT(slow["entries"].size(), 0u);
  EXPECT_DOUBLE_EQ(slow["threshold_ms"].as_double(), 0.0);

  daemon.stop();
  dockmine::obs::set_journal_enabled(false);
  dockmine::obs::set_enabled(false);
  dockmine::obs::reset_all();
}

}  // namespace
