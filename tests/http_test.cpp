#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <optional>
#include <set>
#include <thread>

#include "dockmine/crawler/crawler.h"
#include "dockmine/downloader/downloader.h"
#include "dockmine/http/client.h"
#include "dockmine/http/message.h"
#include "dockmine/http/server.h"
#include "dockmine/http/socket.h"
#include "dockmine/registry/http_gateway.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/materialize.h"

namespace dockmine {
namespace {

// ---------- message codec ----------

TEST(HttpMessageTest, RequestSerializeParseRoundTrip) {
  http::Request in;
  in.method = "GET";
  in.target = "/v2/alice/app/manifests/latest?x=1";
  in.headers.emplace_back("Host", "localhost");
  in.headers.emplace_back("Authorization", "Bearer tok");
  in.body = "payload";

  http::MessageReader reader;
  reader.feed(in.serialize());
  http::Request out;
  auto ready = reader.next_request(out);
  ASSERT_TRUE(ready.ok());
  ASSERT_TRUE(ready.value());
  EXPECT_EQ(out.method, "GET");
  EXPECT_EQ(out.target, in.target);
  EXPECT_EQ(out.path(), "/v2/alice/app/manifests/latest");
  EXPECT_EQ(out.query_param("x"), "1");
  EXPECT_EQ(out.query_param("missing"), "");
  EXPECT_EQ(http::find_header(out.headers, "authorization"), "Bearer tok");
  EXPECT_EQ(out.body, "payload");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(HttpMessageTest, ResponseRoundTripAndPipelining) {
  http::Response a = http::Response::make(200, "first");
  http::Response b = http::Response::make(404, "second");
  http::MessageReader reader;
  reader.feed(a.serialize() + b.serialize());

  http::Response out;
  ASSERT_TRUE(reader.next_response(out).value());
  EXPECT_EQ(out.status, 200);
  EXPECT_EQ(out.body, "first");
  ASSERT_TRUE(reader.next_response(out).value());
  EXPECT_EQ(out.status, 404);
  EXPECT_EQ(out.reason, "Not Found");
  EXPECT_EQ(out.body, "second");
  EXPECT_FALSE(reader.next_response(out).value());
}

TEST(HttpMessageTest, IncrementalFeedAcrossBoundaries) {
  http::Request in;
  in.target = "/v2/";
  in.body = std::string(1000, 'z');
  const std::string wire = in.serialize();
  http::MessageReader reader;
  http::Request out;
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    reader.feed(std::string_view(wire).substr(i, 7));
  }
  ASSERT_TRUE(reader.next_request(out).value());
  EXPECT_EQ(out.body.size(), 1000u);
}

TEST(HttpMessageTest, MalformedInputsRejected) {
  {
    http::MessageReader reader;
    reader.feed("NOT-HTTP\r\n\r\n");
    http::Request out;
    EXPECT_FALSE(reader.next_request(out).ok());
  }
  {
    http::MessageReader reader;
    reader.feed("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    http::Request out;
    EXPECT_FALSE(reader.next_request(out).ok());
  }
  {
    http::MessageReader reader;
    reader.feed("HTTP/1.1 abc OK\r\n\r\n");
    http::Response out;
    EXPECT_FALSE(reader.next_response(out).ok());
  }
  {
    // A body declared over kMaxPayload is refused at the head, however
    // much of it has arrived, instead of being buffered.
    http::MessageReader reader;
    reader.feed("PUT / HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n");
    reader.feed(std::string(1 << 20, 'x'));
    http::Request out;
    EXPECT_FALSE(reader.next_request(out).ok());
  }
  {
    // A length that wraps the framing sum is refused too, instead of taking
    // the next request as its body and mis-framing the stream.
    http::MessageReader reader;
    reader.feed(
        "PUT / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n"
        "GET / HTTP/1.1\r\n\r\n");
    http::Request out;
    EXPECT_FALSE(reader.next_request(out).ok());
  }
}

// ---------- server + client ----------

TEST(HttpServerTest, EchoAndConcurrentClients) {
  std::atomic<int> handled{0};
  http::Server server(
      [&](const http::Request& request) {
        ++handled;
        return http::Response::make(200, "echo:" + request.body,
                                    "text/plain");
      },
      0);
  ASSERT_TRUE(server.start().ok());
  ASSERT_NE(server.port(), 0);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      http::Client client(server.port());
      for (int i = 0; i < kPerThread; ++i) {
        http::Request request;
        request.method = "POST";
        request.target = "/echo";
        request.body = "t" + std::to_string(t) + "i" + std::to_string(i);
        auto response = client.request(request);
        if (response.ok() && response.value().status == 200 &&
            response.value().body == "echo:" + request.body) {
          ++ok;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(server.requests_served(), static_cast<std::uint64_t>(kThreads * kPerThread));
  server.stop();
}

// ---------- the registry gateway, end to end ----------

class GatewayFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hub = new synth::HubModel(synth::Calibration::light(),
                              synth::Scale{80, 55});
    service = new registry::Service();
    synth::Materializer materializer(*hub, 1);
    ASSERT_TRUE(materializer.populate(*service).ok());
    search = new registry::SearchIndex(
        *service, synth::Calibration::kSearchDuplicateFactor, 5);
    gateway = new registry::HttpGateway(*service, search);
    auto started = gateway->serve();
    ASSERT_TRUE(started.ok());
    server = std::move(started).value().release();
  }
  static void TearDownTestSuite() {
    server->stop();
    delete server;
    delete gateway;
    delete search;
    delete service;
    delete hub;
  }

  static synth::HubModel* hub;
  static registry::Service* service;
  static registry::SearchIndex* search;
  static registry::HttpGateway* gateway;
  static http::Server* server;
};

synth::HubModel* GatewayFixture::hub = nullptr;
registry::Service* GatewayFixture::service = nullptr;
registry::SearchIndex* GatewayFixture::search = nullptr;
registry::HttpGateway* GatewayFixture::gateway = nullptr;
http::Server* GatewayFixture::server = nullptr;

TEST_F(GatewayFixture, PingAndUnknownRoutes) {
  registry::RemoteRegistry remote(server->port());
  EXPECT_TRUE(remote.ping().ok());

  http::Client client(server->port());
  http::Request request;
  request.target = "/nope";
  auto response = client.request(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 404);
  request.method = "PUT";
  request.target = "/v2/";
  EXPECT_EQ(client.request(request).value().status, 405);
}

TEST_F(GatewayFixture, ManifestAndBlobMatchInProcess) {
  registry::RemoteRegistry remote(server->port());
  std::string repo;
  for (const auto& r : hub->repositories()) {
    if (r.has_latest && !r.requires_auth) {
      repo = r.name;
      break;
    }
  }
  ASSERT_FALSE(repo.empty());

  auto over_wire = remote.fetch_manifest(repo, "latest", false);
  auto in_proc = service->get_manifest(repo, "latest");
  ASSERT_TRUE(over_wire.ok());
  ASSERT_TRUE(in_proc.ok());
  EXPECT_EQ(over_wire.value(), in_proc.value());

  auto manifest = registry::manifest_from_json(over_wire.value());
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest.value().layers.empty());
  const auto& digest = manifest.value().layers[0].digest;
  auto blob = remote.fetch_blob(digest);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob.value(), *service->get_blob(digest).value());
  EXPECT_EQ(digest::Digest::of(*blob.value()), digest);  // content addressed
}

TEST_F(GatewayFixture, ErrorSemanticsSurviveTheWire) {
  registry::RemoteRegistry remote(server->port(), "secret-token");
  auto missing = remote.fetch_manifest("ghost/none", "latest", false);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), util::ErrorCode::kNotFound);

  std::string gated, untagged;
  for (const auto& r : hub->repositories()) {
    if (r.requires_auth && r.has_latest && gated.empty()) gated = r.name;
    if (!r.has_latest && untagged.empty()) untagged = r.name;
  }
  if (!gated.empty()) {
    auto denied = remote.fetch_manifest(gated, "latest", false);
    EXPECT_EQ(denied.error().code(), util::ErrorCode::kUnauthorized);
    EXPECT_TRUE(remote.fetch_manifest(gated, "latest", true).ok());
  }
  if (!untagged.empty()) {
    auto no_tag = remote.fetch_manifest(untagged, "latest", false);
    ASSERT_FALSE(no_tag.ok());
    EXPECT_EQ(no_tag.error().code(), util::ErrorCode::kNotFound);
    // The "has no tag" detail survives for the downloader's failure split.
    EXPECT_NE(no_tag.error().message().find("has no tag"), std::string::npos);
  }
}

TEST_F(GatewayFixture, CrawlerAndDownloaderRunOverHttp) {
  registry::RemoteRegistry remote(server->port(), "secret");
  crawler::Crawler crawler(remote, 64);
  const auto crawl = crawler.crawl_all();
  EXPECT_EQ(crawl.repositories.size(), hub->repositories().size());
  EXPECT_GT(crawl.raw_hits, crawl.repositories.size());

  downloader::Options options;
  options.workers = 4;
  downloader::Downloader downloader(remote, options);
  const auto stats = downloader.run(crawl.repositories, nullptr);
  EXPECT_EQ(stats.succeeded, hub->downloadable_images());
  EXPECT_EQ(stats.failed_missing, 0u);
  EXPECT_EQ(stats.failed_other, 0u);
  EXPECT_GT(stats.layers_deduped, 0u);

  // Same results as the in-process path.
  downloader::Downloader local(*service, options);
  const auto local_stats = local.run(crawl.repositories, nullptr);
  EXPECT_EQ(stats.succeeded, local_stats.succeeded);
  EXPECT_EQ(stats.failed_auth, local_stats.failed_auth);
  EXPECT_EQ(stats.failed_no_tag, local_stats.failed_no_tag);
  EXPECT_EQ(stats.layers_fetched, local_stats.layers_fetched);
  EXPECT_EQ(stats.bytes_downloaded, local_stats.bytes_downloaded);
}

TEST_F(GatewayFixture, HandleRoutesDirectly) {
  // Route dispatch without sockets: exercises the gateway's URL parsing.
  auto get = [&](const std::string& target) {
    http::Request request;
    request.target = target;
    return gateway->handle(request);
  };
  EXPECT_EQ(get("/v2/").status, 200);
  EXPECT_EQ(get("/v2").status, 200);
  EXPECT_EQ(get("/v2/a/b/manifests/").status, 404);      // empty tag
  EXPECT_EQ(get("/v2/unknown/manifests/latest").status, 404);
  EXPECT_EQ(get("/v2/a/blobs/not-a-digest").status, 400);
  EXPECT_EQ(get("/v2/a/blobs/sha256:" + std::string(64, '0')).status, 404);
  EXPECT_EQ(get("/v2/bare-name").status, 404);
  EXPECT_EQ(get("/v1/search?q=/&page=0&page_size=5").status, 200);
  EXPECT_EQ(get("/v1/search?page_size=0").status, 200);
  // Repository names contain '/': the split must take the LAST
  // "/manifests/" segment.
  EXPECT_EQ(get("/v2/user/manifests/manifests/latest").status, 404);
}

TEST_F(GatewayFixture, SearchRouteMatchesLocalIndex) {
  registry::RemoteRegistry remote(server->port());
  const auto remote_page = remote.page("/", 0, 17);
  const auto local_page = search->page("/", 0, 17);
  ASSERT_EQ(remote_page.hits.size(), local_page.hits.size());
  EXPECT_EQ(remote_page.has_next, local_page.has_next);
  for (std::size_t i = 0; i < remote_page.hits.size(); ++i) {
    EXPECT_EQ(remote_page.hits[i].repository, local_page.hits[i].repository);
    EXPECT_EQ(remote_page.hits[i].pull_count, local_page.hits[i].pull_count);
  }
}

TEST_F(GatewayFixture, PushRoundTripOverTheWire) {
  registry::RemoteRegistry remote(server->port());

  // Build a small image client-side and push it: blobs first, manifest last.
  const std::string layer_bytes = "pretend-gzip-layer-0123456789";
  const auto layer_digest = digest::Digest::of(layer_bytes);
  ASSERT_TRUE(remote.push_blob(layer_digest, layer_bytes).ok());
  // Re-push is idempotent (content addressed).
  ASSERT_TRUE(remote.push_blob(layer_digest, layer_bytes).ok());

  registry::Manifest manifest;
  manifest.repository = "pusher/app";
  manifest.tag = "latest";
  manifest.layers.push_back({layer_digest, layer_bytes.size()});
  ASSERT_TRUE(remote
                  .push_manifest("pusher/app", "latest",
                                 registry::manifest_to_json(manifest))
                  .ok());

  // The pushed image is immediately pullable.
  auto pulled = remote.fetch_manifest("pusher/app", "latest", false);
  ASSERT_TRUE(pulled.ok());
  auto parsed = registry::manifest_from_json(pulled.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().layers[0].digest, layer_digest);
  EXPECT_EQ(*remote.fetch_blob(layer_digest).value(), layer_bytes);
}

TEST_F(GatewayFixture, PushValidationRejectsBadUploads) {
  registry::RemoteRegistry remote(server->port());

  // Digest mismatch is refused.
  const auto wrong = digest::Digest::of("something else");
  EXPECT_FALSE(remote.push_blob(wrong, "not that content").ok());

  // Manifests referencing unuploaded layers are refused.
  registry::Manifest manifest;
  manifest.repository = "pusher/broken";
  manifest.layers.push_back({digest::Digest::of("never uploaded"), 13});
  EXPECT_FALSE(remote
                   .push_manifest("pusher/broken", "latest",
                                  registry::manifest_to_json(manifest))
                   .ok());

  // Malformed manifest JSON is refused.
  EXPECT_FALSE(remote.push_manifest("pusher/bad", "latest", "{oops").ok());
}

// ---------- the shared server's protections, on the gateway ----------

// An accept-error burst (EMFILE) backs the accept loop off instead of
// ending it: a request made after the burst is answered.
TEST_F(GatewayFixture, AnswersAfterAnAcceptErrorBurst) {
  std::atomic<int> bursts{6};
  http::ServerOptions options;
  options.accept_backoff_ms = 1;
  options.accept_error_injector = [&bursts]() -> std::optional<util::Error> {
    if (bursts.fetch_sub(1) > 0) return http::classify_errno(EMFILE, "accept");
    return std::nullopt;
  };
  http::Server burst(
      [](const http::Request& request) { return gateway->handle(request); },
      options);
  ASSERT_TRUE(burst.start().ok());

  registry::RemoteRegistry remote(burst.port());
  EXPECT_TRUE(remote.ping().ok());
  EXPECT_LE(bursts.load(), 0) << "injector was never consulted";
  EXPECT_EQ(burst.stats().accept_retries, 6u);
  EXPECT_EQ(burst.requests_served(), 1u);
  burst.stop();
}

// A one-line request head that never completes is dropped once the
// partial-message deadline passes.
TEST_F(GatewayFixture, PartialRequestIsDroppedWithinTheDeadline) {
  http::ServerOptions options;
  options.io_timeout_ms = 20;
  options.slowloris_ms = 300;
  http::Server strict(
      [](const http::Request& request) { return gateway->handle(request); },
      options);
  ASSERT_TRUE(strict.start().ok());

  auto socket = http::Socket::connect_loopback(strict.port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.value().set_timeout_ms(5000).ok());
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(socket.value().write_all("GET /v2/ HTTP/1.1\r\n").ok());
  auto chunk = socket.value().read_some();
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - sent)
                               .count();
  if (chunk.ok()) {
    EXPECT_TRUE(chunk.value().empty()) << "got bytes for a partial request";
  } else {
    EXPECT_EQ(chunk.error().code(), util::ErrorCode::kReset)
        << chunk.error().to_string();
  }
  EXPECT_GE(waited_ms, 300.0);
  EXPECT_LT(waited_ms, 2300.0);
  EXPECT_EQ(strict.stats().partial_drops, 1u);

  // Whole requests on the same server are unaffected.
  registry::RemoteRegistry remote(strict.port());
  EXPECT_TRUE(remote.ping().ok());
  strict.stop();
}

// A client that declares a 1 GiB body is dropped at the head, without
// waiting for the body, and a fresh client is still answered.
TEST_F(GatewayFixture, OversizedDeclaredBodyIsDroppedAtTheHead) {
  auto socket = http::Socket::connect_loopback(server->port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.value().set_timeout_ms(5000).ok());
  ASSERT_TRUE(socket.value()
                  .write_all("PUT /v2/ HTTP/1.1\r\n"
                             "Content-Length: 1073741824\r\n\r\n")
                  .ok());
  auto chunk = socket.value().read_some();
  if (chunk.ok()) {
    EXPECT_TRUE(chunk.value().empty()) << "got an answer to the head";
  } else {
    EXPECT_EQ(chunk.error().code(), util::ErrorCode::kReset)
        << chunk.error().to_string();
  }

  registry::RemoteRegistry remote(server->port());
  EXPECT_TRUE(remote.ping().ok());
}

}  // namespace
}  // namespace dockmine
