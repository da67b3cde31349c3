#include "dockmine/registry/http_gateway.h"

#include "dockmine/json/json.h"

namespace dockmine::registry {

namespace {

http::Response error_response(int status, std::string_view code,
                              const std::string& message) {
  json::Value err = json::Value::object();
  err.set("code", std::string(code));
  err.set("message", message);
  json::Value errors = json::Value::array();
  errors.push_back(std::move(err));
  json::Value root = json::Value::object();
  root.set("errors", std::move(errors));
  http::Response response = http::Response::make(status, root.dump());
  if (status == 401) {
    response.headers.emplace_back("Www-Authenticate",
                                  "Bearer realm=\"dockmine\"");
  }
  return response;
}

/// Extract the error message out of a gateway error body (best effort).
std::string error_message(const http::Response& response) {
  auto doc = json::parse(response.body);
  if (doc.ok() && doc.value()["errors"].is_array() &&
      doc.value()["errors"].size() > 0) {
    return doc.value()["errors"].at(0)["message"].as_string();
  }
  return "http status " + std::to_string(response.status);
}

}  // namespace

http::Response HttpGateway::handle(const http::Request& request) const {
  const bool is_get = request.method == "GET";
  const bool is_put = request.method == "PUT";
  if (!is_get && !is_put) {
    return error_response(405, "UNSUPPORTED", "only GET and PUT supported");
  }
  const std::string_view path = request.path();

  if (path == "/v2/" || path == "/v2") {
    return is_get ? http::Response::make(200, "{}")
                  : error_response(405, "UNSUPPORTED", "GET only");
  }
  if (path.rfind("/v2/", 0) == 0) {
    // /v2/<name>/manifests/<ref>  |  /v2/<name>/blobs/<digest>
    const std::string_view rest = path.substr(4);
    const std::size_t manifests = rest.rfind("/manifests/");
    if (manifests != std::string_view::npos) {
      const std::string name(rest.substr(0, manifests));
      const std::string reference(rest.substr(manifests + 11));
      return is_get ? handle_manifest(request, name, reference)
                    : handle_manifest_put(request, name, reference);
    }
    const std::size_t blobs = rest.rfind("/blobs/");
    if (blobs != std::string_view::npos) {
      const std::string digest_text(rest.substr(blobs + 7));
      return is_get ? handle_blob(digest_text)
                    : handle_blob_put(request, digest_text);
    }
    return error_response(404, "UNSUPPORTED", "unknown /v2 route");
  }
  if (path == "/v1/search" && is_get) {
    return handle_search(request);
  }
  return error_response(404, "UNSUPPORTED", "unknown route");
}

http::Response HttpGateway::handle_blob_put(
    const http::Request& request, const std::string& digest_text) const {
  auto digest = digest::Digest::parse(digest_text);
  if (!digest.ok()) {
    return error_response(400, "DIGEST_INVALID", digest.error().message());
  }
  // Verify content addressing before admitting the blob.
  if (digest::Digest::of(request.body) != digest.value()) {
    return error_response(400, "DIGEST_INVALID",
                          "body does not hash to the given digest");
  }
  auto stored = service_.push_blob_with_digest(digest.value(), request.body);
  if (!stored.ok()) {
    return error_response(500, "INTERNAL", stored.error().message());
  }
  http::Response response = http::Response::make(201, "{}");
  response.reason = "Created";
  response.headers.emplace_back("Docker-Content-Digest", digest_text);
  return response;
}

http::Response HttpGateway::handle_manifest_put(
    const http::Request& request, const std::string& name,
    const std::string& reference) const {
  auto manifest = manifest_from_json(request.body);
  if (!manifest.ok()) {
    return error_response(400, "MANIFEST_INVALID",
                          manifest.error().message());
  }
  // The path, not the body, names the repository/tag being pushed.
  manifest.value().repository = name;
  manifest.value().tag = reference;
  // Every referenced layer must already be uploaded (the real protocol's
  // rule as well).
  for (const auto& layer : manifest.value().layers) {
    if (!service_.stat_blob(layer.digest).ok()) {
      return error_response(400, "MANIFEST_BLOB_UNKNOWN",
                            "layer " + layer.digest.short_hex() +
                                " has not been uploaded");
    }
  }
  auto pushed = service_.push_manifest(manifest.value());
  if (!pushed.ok()) {
    return error_response(400, "MANIFEST_INVALID", pushed.error().message());
  }
  http::Response response = http::Response::make(201, "{}");
  response.reason = "Created";
  return response;
}

http::Response HttpGateway::handle_manifest(const http::Request& request,
                                            const std::string& name,
                                            const std::string& reference) const {
  const bool authenticated =
      !http::find_header(request.headers, "Authorization").empty();
  auto manifest = service_.get_manifest(name, reference, authenticated);
  if (!manifest.ok()) {
    switch (manifest.error().code()) {
      case util::ErrorCode::kUnauthorized:
        return error_response(401, "UNAUTHORIZED", manifest.error().message());
      case util::ErrorCode::kNotFound:
        return error_response(404, "MANIFEST_UNKNOWN",
                              manifest.error().message());
      default:
        return error_response(500, "INTERNAL", manifest.error().message());
    }
  }
  http::Response response = http::Response::make(
      200, std::move(manifest).value(),
      "application/vnd.docker.distribution.manifest.v2+json");
  return response;
}

http::Response HttpGateway::handle_blob(const std::string& digest_text) const {
  auto digest = digest::Digest::parse(digest_text);
  if (!digest.ok()) {
    return error_response(400, "DIGEST_INVALID", digest.error().message());
  }
  auto blob = service_.get_blob(digest.value());
  if (!blob.ok()) {
    return error_response(404, "BLOB_UNKNOWN", blob.error().message());
  }
  http::Response response =
      http::Response::make(200, std::string(*blob.value()),
                           "application/octet-stream");
  response.headers.emplace_back("Docker-Content-Digest", digest_text);
  return response;
}

http::Response HttpGateway::handle_search(const http::Request& request) const {
  if (search_ == nullptr) {
    return error_response(404, "UNSUPPORTED", "search not enabled");
  }
  const std::string query = request.query_param("q");
  const std::string page_text = request.query_param("page");
  const std::string size_text = request.query_param("page_size");
  const std::uint64_t page_number =
      page_text.empty() ? 0 : std::strtoull(page_text.c_str(), nullptr, 10);
  const std::size_t page_size =
      size_text.empty() ? 100 : std::strtoull(size_text.c_str(), nullptr, 10);

  const SearchPage page = search_->page(query, page_number, page_size);
  json::Value results = json::Value::array();
  for (const SearchHit& hit : page.hits) {
    json::Value entry = json::Value::object();
    entry.set("name", hit.repository);
    entry.set("pull_count", hit.pull_count);
    results.push_back(std::move(entry));
  }
  json::Value root = json::Value::object();
  root.set("page", page.page_number);
  root.set("has_next", page.has_next);
  root.set("results", std::move(results));
  return http::Response::make(200, root.dump());
}

util::Result<std::unique_ptr<http::Server>> HttpGateway::serve(
    std::uint16_t port) const {
  auto server = std::make_unique<http::Server>(
      [this](const http::Request& request) { return handle(request); }, port);
  auto started = server->start();
  if (!started.ok()) return started.error();
  return server;
}

// ---- client side ----

util::Result<http::Response> RemoteRegistry::get(const std::string& target,
                                                 bool authenticated) const {
  http::Request request;
  request.method = "GET";
  request.target = target;
  request.headers.emplace_back("Host", "127.0.0.1");
  if (authenticated && !token_.empty()) {
    request.headers.emplace_back("Authorization", "Bearer " + token_);
  } else if (authenticated) {
    request.headers.emplace_back("Authorization", "Bearer anonymous-upgrade");
  }
  return client_.request(request);
}

util::Result<std::string> RemoteRegistry::fetch_manifest(
    const std::string& repository, const std::string& tag,
    bool authenticated) {
  auto response = get("/v2/" + repository + "/manifests/" + tag, authenticated);
  if (!response.ok()) return std::move(response).error();
  switch (response.value().status) {
    case 200: return std::move(response.value().body);
    case 401: return util::unauthorized(error_message(response.value()));
    case 404: return util::not_found(error_message(response.value()));
    default:
      if (response.value().status >= 500) {
        return util::unavailable("manifest fetch: " +
                                 error_message(response.value()));
      }
      return util::internal("manifest fetch failed: " +
                            error_message(response.value()));
  }
}

util::Result<blob::BlobPtr> RemoteRegistry::fetch_blob(
    const digest::Digest& digest) {
  auto response = get("/v2/any/blobs/" + digest.to_string(), false);
  if (!response.ok()) return std::move(response).error();
  if (response.value().status >= 500) {
    return util::unavailable("blob fetch: " + error_message(response.value()));
  }
  if (response.value().status != 200) {
    return util::not_found(error_message(response.value()));
  }
  return std::make_shared<const std::string>(
      std::move(response.value().body));
}

SearchPage RemoteRegistry::page(const std::string& query,
                                std::uint64_t page_number,
                                std::size_t page_size) const {
  auto result = try_page(query, page_number, page_size);
  if (result.ok()) return std::move(result).value();
  SearchPage out;
  out.page_number = page_number;
  return out;
}

util::Result<SearchPage> RemoteRegistry::try_page(const std::string& query,
                                                  std::uint64_t page_number,
                                                  std::size_t page_size) const {
  SearchPage out;
  out.page_number = page_number;
  auto response = get("/v1/search?q=" + query +
                          "&page=" + std::to_string(page_number) +
                          "&page_size=" + std::to_string(page_size),
                      false);
  if (!response.ok()) return std::move(response).error();
  if (response.value().status >= 500) {
    return util::unavailable("search: http status " +
                             std::to_string(response.value().status));
  }
  if (response.value().status != 200) {
    return util::not_found("search: http status " +
                           std::to_string(response.value().status));
  }
  auto doc = json::parse(response.value().body);
  if (!doc.ok()) return std::move(doc).error();
  out.has_next = doc.value()["has_next"].as_bool();
  for (const json::Value& entry : doc.value()["results"].items()) {
    out.hits.push_back(SearchHit{entry["name"].as_string(),
                                 entry["pull_count"].as_uint()});
  }
  return out;
}

util::Status RemoteRegistry::push_blob(const digest::Digest& digest,
                                       const std::string& content) {
  http::Request request;
  request.method = "PUT";
  request.target = "/v2/push/blobs/" + digest.to_string();
  request.headers.emplace_back("Host", "127.0.0.1");
  request.headers.emplace_back("Content-Type", "application/octet-stream");
  request.body = content;
  auto response = client_.request(request);
  if (!response.ok()) return std::move(response).error();
  if (response.value().status != 201) {
    return util::internal("blob push failed: " +
                          error_message(response.value()));
  }
  return util::Status::success();
}

util::Status RemoteRegistry::push_manifest(const std::string& repository,
                                           const std::string& tag,
                                           const std::string& manifest_json) {
  http::Request request;
  request.method = "PUT";
  request.target = "/v2/" + repository + "/manifests/" + tag;
  request.headers.emplace_back("Host", "127.0.0.1");
  request.headers.emplace_back(
      "Content-Type", "application/vnd.docker.distribution.manifest.v2+json");
  request.body = manifest_json;
  auto response = client_.request(request);
  if (!response.ok()) return std::move(response).error();
  if (response.value().status != 201) {
    return util::internal("manifest push failed: " +
                          error_message(response.value()));
  }
  return util::Status::success();
}

util::Status RemoteRegistry::ping() {
  auto response = get("/v2/", false);
  if (!response.ok()) return response.error();
  if (response.value().status != 200) {
    return util::internal("registry ping returned status " +
                          std::to_string(response.value().status));
  }
  return util::Status::success();
}

}  // namespace dockmine::registry
