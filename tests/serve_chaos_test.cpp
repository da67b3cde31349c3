// Chaos + concurrency tests for the serve daemon (core/serve).
//
// Where serve_test pins the protocol and the query-vs-batch oracle, this
// suite attacks the daemon's liveness and isolation guarantees:
//
//   * misbehaving clients (disconnect mid-request, slowloris dribble)
//     cost only their own connection;
//   * concurrent readers during an ingest commit see either the old
//     snapshot or the new one, byte-exact, never a torn mix — and the
//     epoch stamp always matches the bytes;
//   * killing the daemon mid-ingest loses the in-flight batch cleanly: a
//     restart replays the committed state and can re-ingest the batch;
//   * a mixed query/ingest hammer across threads is data-race-free (this
//     suite runs under TSan in tools/run_checks.sh and CI).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dockmine/core/pipeline.h"
#include "dockmine/core/serve.h"
#include "dockmine/core/wire.h"
#include "dockmine/http/socket.h"
#include "dockmine/json/json.h"
#include "dockmine/util/error.h"

namespace core = dockmine::core;
namespace serve = dockmine::core::serve;
namespace wire = dockmine::core::wire;
namespace json = dockmine::json;
namespace fs = std::filesystem;

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

// Smaller than serve_test's: chaos tests start several daemons and the
// hammer ingests extra batches.
core::JobSpec chaos_spec(std::uint64_t repositories = 6) {
  core::JobSpec spec;
  spec.repositories = repositories;
  spec.seed = 20170530;
  spec.light_calibration = true;
  spec.gzip_level = 1;
  spec.download_workers = 2;
  spec.analyze_workers = 2;
  spec.shards = 2;
  return spec;
}

serve::Request query(const std::string& q) {
  serve::Request request;
  request.kind = serve::RequestKind::kQuery;
  request.id = 1;
  request.q = q;
  return request;
}

serve::Response must_call(serve::Client& client, const serve::Request& request) {
  auto response = client.call(request);
  EXPECT_TRUE(response.ok())
      << (response.ok() ? "" : response.error().to_string());
  return response.ok() ? response.value() : serve::Response{};
}

// ---- misbehaving clients -----------------------------------------------

TEST(ServeChaos, DisconnectMidRequestCostsOnlyThatConnection) {
  TempDir state{"dockmine-serve-chaos-disconnect"};
  serve::ServeOptions options;
  options.job = chaos_spec();
  options.state_dir = state.str();
  serve::ServeDaemon daemon(std::move(options));
  ASSERT_TRUE(daemon.start().ok());

  const std::string frame = wire::encode_frame(
      wire::FrameKind::kJson, serve::request_to_json(query("status")).dump());
  for (int round = 0; round < 8; ++round) {
    auto socket = dockmine::http::Socket::connect_loopback(daemon.port());
    ASSERT_TRUE(socket.ok());
    // Half a request, then vanish: header-only, mid-payload, or nothing.
    const std::size_t cut = round % 3 == 0   ? 0
                            : round % 3 == 1 ? wire::kFrameHeaderBytes
                                             : frame.size() - 3;
    if (cut != 0) {
      ASSERT_TRUE(socket.value().write_all(frame.substr(0, cut)).ok());
    }
    socket.value().close();
  }

  // The daemon shrugged all eight off; a real client still gets answers.
  auto client = serve::Client::connect(daemon.port(), 10000);
  ASSERT_TRUE(client.ok());
  const serve::Response response = must_call(client.value(), query("status"));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.epoch, 1u);
  daemon.stop();
}

TEST(ServeChaos, SlowlorisDribbleIsDroppedWithoutStallingOthers) {
  TempDir state{"dockmine-serve-chaos-slowloris"};
  serve::ServeOptions options;
  options.job = chaos_spec();
  options.state_dir = state.str();
  options.io_timeout_ms = 40;
  options.slowloris_ms = 250;  // drop a dribbler after a quarter second
  serve::ServeDaemon daemon(std::move(options));
  ASSERT_TRUE(daemon.start().ok());

  const std::string frame = wire::encode_frame(
      wire::FrameKind::kJson, serve::request_to_json(query("status")).dump());
  auto dribbler = dockmine::http::Socket::connect_loopback(daemon.port());
  ASSERT_TRUE(dribbler.ok());
  ASSERT_TRUE(dribbler.value().set_timeout_ms(200).ok());
  // One byte, then silence: never enough to complete the frame.
  ASSERT_TRUE(dribbler.value().write_all(frame.substr(0, 1)).ok());

  // While the dribbler hangs, other clients are served normally.
  auto client = serve::Client::connect(daemon.port(), 10000);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(must_call(client.value(), query("report")).ok);

  // The daemon eventually cuts the dribbler loose (EOF or reset).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool dropped = false;
  while (!dropped && std::chrono::steady_clock::now() < deadline) {
    auto chunk = dribbler.value().read_some();
    if (!chunk.ok()) {
      dropped = chunk.error().code() != dockmine::util::ErrorCode::kTimeout;
    } else if (chunk.value().empty()) {
      dropped = true;
    }
  }
  EXPECT_TRUE(dropped) << "slowloris connection was never dropped";

  // And the daemon still answers afterwards.
  EXPECT_TRUE(must_call(client.value(), query("status")).ok);
  daemon.stop();
}

// ---- snapshot isolation ------------------------------------------------

// Readers hammer the full report while an ingest commits. Every answer
// must be byte-identical to the pre-commit report or the post-commit
// report — never a torn mix — and its epoch stamp must match the bytes.
TEST(ServeChaos, NoTornReportsUnderConcurrentIngest) {
  TempDir state{"dockmine-serve-chaos-isolation"};
  serve::ServeOptions options;
  options.job = chaos_spec();
  options.state_dir = state.str();
  serve::ServeDaemon daemon(std::move(options));
  ASSERT_TRUE(daemon.start().ok());

  auto probe = serve::Client::connect(daemon.port(), 10000);
  ASSERT_TRUE(probe.ok());
  const serve::Response first = must_call(probe.value(), query("report"));
  ASSERT_TRUE(first.ok);
  const std::string epoch1_report = first.body.dump();

  struct Observation {
    std::uint64_t epoch;
    std::string report;
  };
  constexpr int kReaders = 4;
  std::atomic<bool> ingest_done{false};
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto client = serve::Client::connect(daemon.port(), 10000);
      ASSERT_TRUE(client.ok());
      // Keep reading a little past the commit so both epochs are seen.
      int after_commit = 8;
      while (after_commit > 0) {
        auto response = client.value().call(query("report"));
        ASSERT_TRUE(response.ok()) << response.error().to_string();
        ASSERT_TRUE(response.value().ok);
        observations[r].push_back(
            {response.value().epoch, response.value().body.dump()});
        if (ingest_done.load(std::memory_order_acquire)) --after_commit;
      }
    });
  }

  serve::Request ingest;
  ingest.kind = serve::RequestKind::kIngest;
  ingest.id = 2;
  ingest.repositories = 5;
  ingest.seed = 4242;
  auto writer = serve::Client::connect(daemon.port(), 120000);
  serve::Response committed;
  if (writer.ok()) committed = must_call(writer.value(), ingest);
  // Release the readers before asserting: a failed ingest must not leave
  // them spinning past the test body.
  ingest_done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(committed.ok) << committed.error;
  EXPECT_EQ(committed.epoch, 2u);

  const serve::Response second = must_call(probe.value(), query("report"));
  ASSERT_TRUE(second.ok);
  ASSERT_EQ(second.epoch, 2u);
  const std::string epoch2_report = second.body.dump();
  ASSERT_NE(epoch1_report, epoch2_report);

  std::uint64_t saw_epoch1 = 0;
  std::uint64_t saw_epoch2 = 0;
  for (const auto& reader : observations) {
    std::uint64_t last_epoch = 0;
    for (const Observation& obs : reader) {
      // Epochs are monotone per connection, and the bytes match the epoch.
      EXPECT_GE(obs.epoch, last_epoch);
      last_epoch = obs.epoch;
      if (obs.epoch == 1) {
        EXPECT_EQ(obs.report, epoch1_report);
        ++saw_epoch1;
      } else {
        ASSERT_EQ(obs.epoch, 2u);
        EXPECT_EQ(obs.report, epoch2_report);
        ++saw_epoch2;
      }
    }
  }
  // The readers straddled the commit: both epochs were actually observed.
  EXPECT_GT(saw_epoch1, 0u);
  EXPECT_GT(saw_epoch2, 0u);
  daemon.stop();
}

// ---- crash mid-ingest --------------------------------------------------

// stop() lands while an ingest batch is running. The in-flight batch must
// be lost cleanly: a restart over the same state dir replays epoch 1 with
// byte-identical answers, and the same batch ingests fine afterwards.
TEST(ServeChaos, KillMidIngestLosesOnlyTheInFlightBatch) {
  TempDir state{"dockmine-serve-chaos-kill"};
  std::string epoch1_report;
  {
    serve::ServeOptions options;
    options.job = chaos_spec();
    options.state_dir = state.str();
    std::atomic<bool> ingest_started{false};
    options.on_ingest_begin = [&ingest_started] {
      ingest_started.store(true, std::memory_order_release);
    };
    serve::ServeDaemon daemon(std::move(options));
    ASSERT_TRUE(daemon.start().ok());
    epoch1_report = daemon.snapshot()->report.dump();

    // The killer waits for the ingest to be in flight, then stops the
    // daemon from outside (as the CLI owner would on SIGKILL-ish exit).
    std::thread killer([&daemon, &ingest_started] {
      while (!ingest_started.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      daemon.stop();
    });

    serve::Request ingest;
    ingest.kind = serve::RequestKind::kIngest;
    ingest.id = 3;
    ingest.repositories = 5;
    ingest.seed = 4242;
    auto client = serve::Client::connect(daemon.port(), 120000);
    ASSERT_TRUE(client.ok());
    auto response = client.value().call(ingest);
    // Either the error response got out before the socket died, or the
    // connection dropped — both are acceptable; a commit is not.
    if (response.ok()) EXPECT_FALSE(response.value().ok);
    killer.join();
  }

  // Restart: only the committed epoch-1 batch replays.
  serve::ServeOptions options;
  options.job = chaos_spec();
  options.state_dir = state.str();
  serve::ServeDaemon daemon(std::move(options));
  ASSERT_TRUE(daemon.start().ok());
  EXPECT_EQ(daemon.snapshot()->epoch, 1u);
  EXPECT_EQ(daemon.snapshot()->report.dump(), epoch1_report);

  // The lost batch ingests cleanly on the restarted daemon.
  serve::Request ingest;
  ingest.kind = serve::RequestKind::kIngest;
  ingest.id = 4;
  ingest.repositories = 5;
  ingest.seed = 4242;
  auto client = serve::Client::connect(daemon.port(), 120000);
  ASSERT_TRUE(client.ok());
  const serve::Response committed = must_call(client.value(), ingest);
  EXPECT_TRUE(committed.ok) << committed.error;
  EXPECT_EQ(committed.epoch, 2u);
  daemon.stop();
}

// ---- concurrency hammer (TSan target) ----------------------------------

// N reader threads fire mixed queries while the main thread commits two
// ingest batches. Run under TSan this is the daemon's data-race gate; the
// functional asserts keep it honest under the plain build too.
TEST(ServeChaos, MixedQueryIngestHammerIsRaceFree) {
  TempDir state{"dockmine-serve-chaos-hammer"};
  serve::ServeOptions options;
  options.job = chaos_spec(5);
  options.state_dir = state.str();
  serve::ServeDaemon daemon(std::move(options));
  ASSERT_TRUE(daemon.start().ok());

  constexpr int kReaders = 4;
  std::atomic<bool> stop_readers{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto client = serve::Client::connect(daemon.port(), 30000);
      ASSERT_TRUE(client.ok());
      const std::vector<serve::Request> mix = [r] {
        std::vector<serve::Request> requests;
        requests.push_back(query("status"));
        serve::Request slice = query("report");
        slice.path = r % 2 == 0 ? "analysis.dedup" : "analysis.sharing";
        requests.push_back(slice);
        serve::Request ecdf = query("ecdf");
        ecdf.name = r % 2 == 0 ? "layers.cls" : "images.fis";
        ecdf.quantile = 0.5;
        requests.push_back(ecdf);
        requests.push_back(query("types"));
        return requests;
      }();
      std::uint64_t last_epoch = 0;
      std::size_t i = 0;
      while (!stop_readers.load(std::memory_order_acquire)) {
        auto response = client.value().call(mix[i++ % mix.size()]);
        ASSERT_TRUE(response.ok()) << response.error().to_string();
        ASSERT_TRUE(response.value().ok) << response.value().error;
        EXPECT_GE(response.value().epoch, last_epoch);
        last_epoch = response.value().epoch;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  auto writer = serve::Client::connect(daemon.port(), 120000);
  std::vector<serve::Response> commits;
  if (writer.ok()) {
    for (std::uint64_t batch = 0; batch < 2; ++batch) {
      serve::Request ingest;
      ingest.kind = serve::RequestKind::kIngest;
      ingest.id = 10 + batch;
      ingest.repositories = 4;
      ingest.seed = 9000 + batch;
      commits.push_back(must_call(writer.value(), ingest));
    }
  }
  // Readers first, asserts after: no thread may outlive the test body.
  stop_readers.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  ASSERT_TRUE(writer.ok());
  ASSERT_EQ(commits.size(), 2u);
  for (std::uint64_t batch = 0; batch < 2; ++batch) {
    ASSERT_TRUE(commits[batch].ok) << commits[batch].error;
    EXPECT_EQ(commits[batch].epoch, 2 + batch);
  }
  EXPECT_GT(answered.load(), 0u);

  const std::shared_ptr<const serve::Snapshot> final = daemon.snapshot();
  EXPECT_EQ(final->epoch, 3u);
  EXPECT_EQ(final->batches.size(), 3u);
  daemon.stop();
}

}  // namespace
