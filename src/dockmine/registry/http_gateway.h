// Registry V2 over real HTTP: the gateway maps the wire protocol onto the
// in-process Service, and RemoteRegistry is the matching client — so the
// crawler and downloader can run against an actual socket the way the
// paper's tools ran against Docker Hub.
//
// Routes:
//   GET /v2/                              liveness ping
//   GET /v2/<name>/manifests/<reference>  manifest JSON (401/404 semantics)
//   GET /v2/<name>/blobs/<digest>         blob bytes (octet-stream)
//   PUT /v2/<name>/blobs/<digest>         monolithic blob upload (push)
//   PUT /v2/<name>/manifests/<reference>  manifest upload (push)
//   GET /v1/search?q=&page=&page_size=    paginated search (crawler feed)
//
// Auth: "Authorization: Bearer <token>" marks the request authenticated
// (the gateway does not validate token contents — the paper's failure
// taxonomy only needs the authenticated/anonymous distinction).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dockmine/http/client.h"
#include "dockmine/http/message.h"
#include "dockmine/http/server.h"
#include "dockmine/registry/search.h"
#include "dockmine/registry/service.h"

namespace dockmine::registry {

class HttpGateway {
 public:
  /// `search` may be null (the /v1/search route then 404s).
  HttpGateway(Service& service, const SearchBackend* search = nullptr)
      : service_(service), search_(search) {}

  http::Response handle(const http::Request& request) const;

  /// Convenience: spin up an http::Server bound to 127.0.0.1:`port`
  /// dispatching into this gateway. The gateway must outlive the server.
  util::Result<std::unique_ptr<http::Server>> serve(
      std::uint16_t port = 0) const;

 private:
  http::Response handle_manifest(const http::Request& request,
                                 const std::string& name,
                                 const std::string& reference) const;
  http::Response handle_blob(const std::string& digest_text) const;
  http::Response handle_blob_put(const http::Request& request,
                                 const std::string& digest_text) const;
  http::Response handle_manifest_put(const http::Request& request,
                                     const std::string& name,
                                     const std::string& reference) const;
  http::Response handle_search(const http::Request& request) const;

  Service& service_;
  const SearchBackend* search_;
};

/// Client side: a registry Source + SearchBackend speaking the gateway's
/// protocol over a keep-alive connection pool. Thread-safe.
class RemoteRegistry : public Source, public SearchBackend {
 public:
  explicit RemoteRegistry(std::uint16_t port, std::string bearer_token = "",
                          http::ClientOptions client_options = {})
      : client_(port, client_options), token_(std::move(bearer_token)) {}

  util::Result<std::string> fetch_manifest(const std::string& repository,
                                           const std::string& tag,
                                           bool authenticated) override;
  util::Result<blob::BlobPtr> fetch_blob(const digest::Digest& digest) override;

  /// Push side: upload a blob (monolithic PUT) / a manifest document.
  util::Status push_blob(const digest::Digest& digest,
                         const std::string& content);
  util::Status push_manifest(const std::string& repository,
                             const std::string& tag,
                             const std::string& manifest_json);

  SearchPage page(const std::string& query, std::uint64_t page_number,
                  std::size_t page_size) const override;

  /// Fallible page fetch: surfaces transport errors (timeout, reset) and
  /// maps 5xx to kUnavailable so the crawler's retry loop composes with
  /// real HTTP.
  util::Result<SearchPage> try_page(const std::string& query,
                                    std::uint64_t page_number,
                                    std::size_t page_size) const override;

  /// GET /v2/ liveness check.
  util::Status ping();

 private:
  util::Result<http::Response> get(const std::string& target,
                                   bool authenticated) const;

  mutable http::Client client_;
  std::string token_;
};

}  // namespace dockmine::registry
